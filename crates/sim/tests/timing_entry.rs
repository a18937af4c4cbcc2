//! `dhdl_sim::timing`, the walk without a run, against full runs of both
//! backends: bit for bit in cycles, transfers and profile, and accepting
//! and rejecting exactly the designs `compile` does.
//!
//! Here: the nine applications at default parameters, the point of
//! kmeans, gda and gemm whose walk makes the most controller executions
//! (among the slowest to walk), and the replayed corpus. Every
//! hand-built design of `tape_differential.rs` meets the same check,
//! `common::assert_timing_entry`, where that file builds it.

mod common;

use std::collections::BTreeMap;
use std::path::Path;

use dhdl_conformance::corpus::load_dir;
use dhdl_conformance::{CaseKind, DesignSpec};
use dhdl_core::{Design, ParamValues};
use dhdl_dse::LegalSpace;
use dhdl_sim::Bindings;

use common::assert_timing_entry;

fn bind(inputs: BTreeMap<String, Vec<f64>>) -> Bindings {
    (inputs.into_iter()).fold(Bindings::new(), |b, (array, data)| b.bind(&array, data))
}

/// Each `(application, params)` checked side by side: unoptimized, an
/// interpreter run of gemm is seconds.
fn on_applications(points: Vec<(String, ParamValues)>) {
    std::thread::scope(|s| {
        for (name, params) in points {
            s.spawn(move || {
                let bench = dhdl_apps::by_name(&name).unwrap();
                let d = bench.build(&params).unwrap();
                let runs = assert_timing_entry(&d, &bind(bench.inputs()));
                assert_eq!(runs, 2, "{name} {params}: both runs succeed");
            });
        }
    });
}

#[test]
fn timing_equals_both_runs_on_the_nine_applications() {
    let benches: Vec<_> = dhdl_apps::all()
        .into_iter()
        .chain(dhdl_apps::dnn())
        .collect();
    assert_eq!(benches.len(), 9);
    on_applications(
        benches
            .iter()
            .map(|b| (b.name().to_string(), b.default_params()))
            .collect(),
    );
}

/// The point of each space with the most controller executions, by
/// index into its `LegalSpace`: kmeans 20 741 executions, gda 13 830,
/// gemm 56 450 (with 28 224 transfers). They are among the slowest of
/// their spaces to walk (EXPERIMENTS.md § Ground truth is a walk).
const SLOWEST: [(&str, u128, &str); 3] = [
    ("kmeans", 131, "{dp=16, mp=1, mp2=1, pp=1, pts=8}"),
    (
        "gda",
        867,
        "{m1=1, m1p=1, m2=1, m2p=1, p1=16, p2=16, rts=4}",
    ),
    ("gemm", 39, "{mp1=1, mp2=1, p=48, tk=8, tm=8, tn=8}"),
];

#[test]
fn timing_equals_both_runs_at_the_slowest_walking_points() {
    on_applications(
        SLOWEST
            .iter()
            .map(|&(name, index, shown)| {
                let bench = dhdl_apps::by_name(name).unwrap();
                let params = LegalSpace::new(&bench.param_space()).point(index);
                assert_eq!(params.to_string(), shown, "{name} #{index}");
                (name.to_string(), params)
            })
            .collect(),
    );
}

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

/// Every corpus case as designs with their inputs: a pattern case
/// lowered unfused and fused, each parameter at its first legal value.
fn corpus() -> Vec<(Design, Bindings)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut out = Vec::new();
    for (path, case) in load_dir(&dir).expect("corpus directory loads") {
        let built = |d: dhdl_core::Result<Design>| d.unwrap_or_else(|e| panic!("{path:?}: {e}"));
        match case.kind {
            CaseKind::Design(spec) => out.push((built(spec.build()), bindings_of(&spec))),
            CaseKind::Dnn(spec) => out.push((built(spec.build()), bind(spec.inputs()))),
            CaseKind::Pattern(spec) => {
                let plain = spec.program();
                for prog in [dhdl_patterns::fuse(&plain), plain] {
                    let mut params = ParamValues::new();
                    for def in dhdl_patterns::param_space(&prog).defs() {
                        params.set(&def.name, def.kind.legal_values()[0]);
                    }
                    let d = built(dhdl_patterns::lower(&prog, "case", &params));
                    // Bind only the arrays the lowered design declares.
                    let declared = |k: &str| {
                        (d.offchips().iter()).any(|&off| d.node(off).name.as_deref() == Some(k))
                    };
                    let inputs = spec.inputs().into_iter().filter(|(k, _)| declared(k));
                    out.push((d.clone(), bind(inputs.collect())));
                }
            }
        }
    }
    out
}

#[test]
fn timing_accepts_rejects_and_equals_runs_as_compile_does_on_the_corpus() {
    let cases = corpus();
    assert!(
        cases.len() >= 14,
        "corpus unexpectedly small: {}",
        cases.len()
    );
    let compared: usize = cases.iter().map(|(d, b)| assert_timing_entry(d, b)).sum();
    assert!(compared >= cases.len(), "only {compared} runs compared");
}
