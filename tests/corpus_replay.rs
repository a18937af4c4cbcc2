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
    let cases = load_dir(Path::new("tests/corpus")).expect("corpus directory loads");
    let designs = cases
        .iter()
        .filter(|(_, c)| matches!(c.kind, dhdl_conformance::CaseKind::Design(_)))
        .count();
    let patterns = cases.len() - designs;
    assert!(designs >= 6, "want >= 6 design cases, have {designs}");
    assert!(patterns >= 4, "want >= 4 pattern cases, have {patterns}");
}
