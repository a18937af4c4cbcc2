//! Benchmark-suite differentials: simulator and CPU kernels vs. each
//! benchmark's plain reference implementation.
//!
//! The generated-design oracle has an exact bit-level reference; the
//! hand benchmarks instead carry their own `reference()` arrays, so here
//! the invariants are tolerance-based:
//!
//! - `app-sim-vs-reference`: simulating the benchmark at its default
//!   parameter point reproduces the reference outputs,
//! - `cpu-differential`: the optimized multi-threaded `dhdl-cpu` kernel
//!   reproduces the same reference (catching sim and CPU drifting in
//!   the *same* wrong direction would need a third oracle; catching
//!   either drifting alone only needs these two).

use dhdl_apps::{
    Attention, Benchmark, BlackScholes, Conv2d, DotProduct, Gda, Gemm, KMeans, OuterProduct, Saxpy,
    TpchQ6,
};
use dhdl_core::shape_hash;
use dhdl_dse::LegalSpace;
use dhdl_sim::Bindings;

use crate::oracle::{Conformance, Violation};

/// Scale-normalized relative tolerance (matches the functional suite).
const APP_TOL: f64 = 1e-4;

/// The benchmark instances the harness exercises. Sizes stay within the
/// CPU kernels' documented shape assumptions (square `gemm`, the
/// default `saxpy` scalar, `k = d` for `kmeans`) so both oracles apply
/// to every instance.
pub fn default_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(DotProduct::new(1_920)),
        Box::new(OuterProduct::new(128)),
        Box::new(Gemm::new(32, 32, 32)),
        Box::new(TpchQ6::new(1_920)),
        Box::new(BlackScholes::new(192)),
        Box::new(Gda::new(96, 8)),
        Box::new(KMeans::new(192, 8, 8)),
        Box::new(Saxpy::new(384, 2.5)),
        Box::new(Conv2d::new(18, 4)),
        Box::new(Attention::new(16)),
    ]
}

fn compare(
    invariant: &'static str,
    bench_name: &str,
    arr: &str,
    got: &[f64],
    expected: &[f64],
    v: &mut Vec<Violation>,
) {
    if got.len() != expected.len() {
        v.push(Violation {
            invariant,
            detail: format!(
                "{bench_name}: `{arr}` length {} != reference {}",
                got.len(),
                expected.len()
            ),
        });
        return;
    }
    let scale = expected
        .iter()
        .map(|x| x.abs())
        .fold(0.0f64, f64::max)
        .max(1e-30);
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        if (g - e).abs() / scale > APP_TOL {
            v.push(Violation {
                invariant,
                detail: format!("{bench_name}: `{arr}`[{i}] = {g}, reference {e}"),
            });
            return;
        }
    }
}

impl Conformance {
    /// Run the simulator and CPU differentials for one benchmark at its
    /// default parameter point.
    pub fn check_benchmark(&self, bench: &dyn Benchmark) -> Vec<Violation> {
        let mut v = Vec::new();
        let name = bench.name();
        let reference = bench.reference();
        match bench.build(&bench.default_params()) {
            Ok(design) => {
                // A second legal point of the same shape (a MetaPipe
                // toggle changes it) supplies the sibling skeleton.
                let sibling = LegalSpace::new(&bench.param_space())
                    .sample(64, 0)
                    .iter()
                    .filter_map(|p| bench.build(p).ok())
                    .find(|d| shape_hash(d) == shape_hash(&design) && *d != design);
                self.check_latency_plan(&design, sibling.as_ref(), &mut v);
                self.check_finish_analyses(&design, &mut v);
                let mut bindings = Bindings::new();
                for (k, data) in bench.inputs() {
                    bindings = bindings.bind(&k, data);
                }
                // The references are tolerance-based, so the shared layer
                // gets none; its `backend-differential` is bit-exact here
                // as on generated designs.
                if let Some((result, _)) = self.check_backends(&design, &bindings, None, &mut v) {
                    for (arr, expected) in &reference {
                        match result.output(arr) {
                            Ok(got) => {
                                compare("app-sim-vs-reference", name, arr, got, expected, &mut v)
                            }
                            Err(e) => v.push(Violation {
                                invariant: "app-sim-vs-reference",
                                detail: format!("{name}: {e}"),
                            }),
                        }
                    }
                }
            }
            Err(e) => v.push(Violation {
                invariant: "app-sim-vs-reference",
                detail: format!("{name}: build failed at default params: {e}"),
            }),
        }
        let cpu = dhdl_cpu::run(bench, 1);
        for (arr, expected) in &reference {
            match cpu.outputs.get(arr) {
                Some(got) => compare("cpu-differential", name, arr, got, expected, &mut v),
                None => v.push(Violation {
                    invariant: "cpu-differential",
                    detail: format!("{name}: CPU kernel produced no `{arr}` array"),
                }),
            }
        }
        v
    }
}
