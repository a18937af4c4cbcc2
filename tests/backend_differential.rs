//! Tape-vs-interpreter differential replay over the persisted corpus.
//!
//! Every design case in `tests/corpus/` is run through both simulator
//! backends and the results compared bit-for-bit — outputs, cycles,
//! transfers, profile and trace. Cases outside the tape-compilable
//! subset fall back to the interpreter (by construction identical), but
//! the suite requires that a healthy majority of the corpus genuinely
//! compiles, so the tape path cannot silently rot behind the fallback.

use std::path::Path;

use dhdl_conformance::corpus::load_dir;
use dhdl_conformance::{generate, CaseKind, DesignSpec};
use dhdl_sim::{compile, simulate, Bindings, CompileError};
use dhdl_target::Platform;

/// The inputs the conformance oracle feeds `spec`.
fn bindings_of(spec: &DesignSpec) -> Bindings {
    let (x, y) = spec.inputs();
    let bindings = Bindings::new().bind("x", x);
    if spec.uses_second() {
        bindings.bind("y", y)
    } else {
        bindings
    }
}

#[test]
fn corpus_designs_are_bit_identical_across_backends() {
    let cases = load_dir(Path::new("tests/corpus")).expect("corpus directory loads");
    let platform = Platform::maia();
    let mut compiled_cases = 0usize;
    let mut design_cases = 0usize;
    let mut failures = Vec::new();
    for (path, case) in &cases {
        let CaseKind::Design(spec) = &case.kind else {
            continue;
        };
        design_cases += 1;
        let design = match spec.build() {
            Ok(d) => d,
            Err(e) => {
                failures.push(format!("{}: spec no longer builds: {e}", path.display()));
                continue;
            }
        };
        let bindings = bindings_of(spec);
        let compiled = match compile(&design, &platform) {
            Ok(c) => c,
            Err(CompileError::Unsupported(_)) => continue,
        };
        compiled_cases += 1;
        match (
            simulate(&design, &platform, &bindings),
            compiled.run(&bindings),
        ) {
            (Ok(interp), Ok(tape)) => {
                if let Some(diff) = interp.bit_diff(&tape) {
                    failures.push(format!("{}: {diff}", path.display()));
                }
            }
            (Err(a), Err(b)) => {
                if a.to_string() != b.to_string() {
                    failures.push(format!(
                        "{}: error divergence: interp `{a}` vs tape `{b}`",
                        path.display()
                    ));
                }
            }
            (Ok(_), Err(e)) => failures.push(format!(
                "{}: tape failed where interpreter succeeded: {e}",
                path.display()
            )),
            (Err(e), Ok(_)) => failures.push(format!(
                "{}: interpreter failed where tape succeeded: {e}",
                path.display()
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "backend divergence on corpus:\n{}",
        failures.join("\n")
    );
    assert!(
        design_cases >= 6,
        "corpus unexpectedly small: {design_cases} design cases"
    );
    assert!(
        compiled_cases * 2 >= design_cases,
        "tape backend compiled only {compiled_cases}/{design_cases} corpus designs — \
         the compilable subset regressed"
    );
}

/// `width-differential`, the half `dhdl-sim`'s own suite cannot reach
/// (it does not see the generators): on the corpus and on 300 generated
/// designs, every kernel the hazard analysis runs in 32-lane blocks must
/// equal, bit for bit, the same tape with every kernel held at width 1 —
/// the block path's slice copies, splats, elided quantization and
/// uniform ops against the one order that needs no proof.
#[test]
fn blocks_equal_width_one_on_the_corpus_and_on_generated_designs() {
    let cases = load_dir(Path::new("tests/corpus")).expect("corpus directory loads");
    let corpus = cases.into_iter().filter_map(|(_, case)| match case.kind {
        CaseKind::Design(spec) => Some(spec),
        _ => None,
    });
    let platform = Platform::maia();
    let (mut designs, mut kernels) = (0usize, 0usize);
    for spec in corpus.chain((0..300).map(|case| generate(0, case))) {
        let Ok(design) = spec.build() else { continue };
        let Ok(compiled) = compile(&design, &platform) else {
            continue;
        };
        let bindings = bindings_of(&spec);
        let name = spec.name();
        match (compiled.run(&bindings), compiled.run_serial(&bindings)) {
            (Ok(blocks), Ok(serial)) => {
                assert_eq!(blocks.bit_diff(&serial), None, "{name}: blocks vs width 1")
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{name}: the two widths raise different errors"),
            (a, b) => panic!("{name}: one width errored: blocks={a:?} width 1={b:?}"),
        }
        designs += 1;
        kernels += compiled.kernels().0;
    }
    assert!(designs >= 300, "only {designs} designs compiled");
    assert!(kernels > 0, "no blocked kernel was compared");
}

/// The schedule of the nine applications at default parameters: which
/// pipe kernels the hazard analysis runs in lane-major blocks and which
/// it holds at width 1. A diff here means the analysis changed its mind
/// about a body — look at it before looking at a slow `sim_steady` row.
#[test]
fn kernel_census_of_the_nine_applications() {
    let platform = Platform::maia();
    let census: Vec<(String, (usize, usize))> = dhdl_apps::all()
        .into_iter()
        .chain(dhdl_apps::dnn())
        .map(|bench| {
            let design = bench
                .build(&bench.default_params())
                .expect("defaults build");
            let compiled = compile(&design, &platform).expect("the tape accepts every app");
            (bench.name().to_string(), compiled.kernels())
        })
        .collect();
    let expected = [
        ("dotproduct", (2, 0)),
        ("outerprod", (1, 0)),
        ("gemm", (1, 0)),
        ("tpchq6", (2, 0)),
        ("blackscholes", (1, 0)),
        ("gda", (2, 0)),
        // The per-point recurrences: `dist[c]` accumulated across `j`,
        // the register argmin, the scatter through the loaded `bestIdx`.
        ("kmeans", (2, 3)),
        ("conv2d", (1, 0)),
        ("attention", (6, 0)),
    ];
    let got: Vec<(&str, (usize, usize))> = census.iter().map(|(n, k)| (n.as_str(), *k)).collect();
    assert_eq!(got, expected, "(blocked, serial) kernels per application");
    let pipes: usize = census.iter().map(|(_, (b, s))| b + s).sum();
    assert_eq!(pipes, 21);
}
