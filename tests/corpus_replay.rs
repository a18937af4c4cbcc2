//! Deterministic replay of the persisted conformance corpus.
//!
//! Every `tests/corpus/*.case` file — seed cases plus any shrunk
//! counterexamples the fuzzer has persisted — must parse and must pass
//! the full layered oracle with zero violations. A failing replay means
//! either a regression reintroduced an old bug (the case file names the
//! invariant it once violated) or a new change broke a seed case.

use std::path::Path;

use dhdl_conformance::corpus::load_dir;
use dhdl_conformance::Conformance;

#[test]
fn corpus_replays_with_zero_violations() {
    let dir = Path::new("tests/corpus");
    let cases = load_dir(dir).expect("corpus directory loads");
    assert!(
        cases.len() >= 10,
        "corpus unexpectedly small ({} cases) — seed cases missing?",
        cases.len()
    );
    let conf = Conformance::new();
    let mut failures = Vec::new();
    for (path, case) in &cases {
        let violations = case.kind.check(&conf);
        if !violations.is_empty() {
            failures.push(format!("{}: {:?}", path.display(), violations));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus replay found violations:\n{}",
        failures.join("\n")
    );
}

#[test]
fn corpus_covers_both_spec_kinds() {
    use dhdl_conformance::{CaseKind, DnnKind};
    let cases = load_dir(Path::new("tests/corpus")).expect("corpus directory loads");
    let count = |kind: fn(&CaseKind) -> bool| cases.iter().filter(|(_, c)| kind(&c.kind)).count();
    let designs = count(|k| matches!(k, CaseKind::Design(_)));
    let patterns = count(|k| matches!(k, CaseKind::Pattern(_)));
    let convs = count(|k| matches!(k, CaseKind::Dnn(s) if s.kind == DnnKind::Conv));
    let attns = count(|k| matches!(k, CaseKind::Dnn(s) if s.kind == DnnKind::Attn));
    assert!(designs >= 6, "want >= 6 design cases, have {designs}");
    assert!(patterns >= 4, "want >= 4 pattern cases, have {patterns}");
    assert!(
        convs >= 1 && attns >= 1,
        "want a conv and an attention case"
    );
}

#[test]
fn every_case_file_re_renders_byte_identically() {
    // Literals travel as IEEE-754 bit patterns: parsing a file and
    // rendering it again must give back the same bytes, file name included.
    for (path, case) in load_dir(Path::new("tests/corpus")).expect("corpus directory loads") {
        let text = std::fs::read_to_string(&path).expect("read case file");
        assert_eq!(case.to_text(), text, "{}", path.display());
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some(case.file_name().as_str())
        );
    }
}
