//! Golden regression for the Table III model-error computation.
//!
//! The full-scale run (`cargo run -p dhdl-bench --bin dhdl -- table3`, 1000 DSE
//! points per benchmark, release) reproduces average absolute model
//! errors of **2.7% ALM / 1.4% DSP / 6.1% BRAM / 5.5% runtime** against
//! the paper's 4.8/7.5/12.3/6.1%. That run is CI's release-only job;
//! this test runs the *same function* at a reduced configuration
//! (60 DSE points, 3 Pareto picks, functional-suite dataset sizes) so
//! every `cargo test` invocation guards the estimator against drift.
//!
//! The golden values below were measured at this exact configuration
//! with the experiment's own harness seed; the
//! absolute tolerance absorbs benign cross-platform float noise while
//! still catching any real model regression (which moves these averages
//! by tens of percentage points, not fractions of one).

use dhdl_apps::{Benchmark, BlackScholes, DotProduct, Gda, Gemm, KMeans, OuterProduct, TpchQ6};
use dhdl_bench::table3::{table3, SEED};
use dhdl_bench::Harness;

/// DSE sample budget (the full run uses 1000).
const DSE_POINTS: usize = 60;
/// Pareto picks per benchmark (the full run uses 5, §V-B).
const PARETO_N: usize = 3;

/// Measured `(alm, dsp, bram, runtime)` average errors at this config.
const GOLDEN: [f64; 4] = [0.0350, 0.0408, 0.0723, 0.0687];
/// Absolute tolerance per axis.
const TOL: f64 = 0.025;
/// Hard ceiling per axis: even if the golden band is ever re-baselined,
/// the model must stay within striking distance of the paper's quality.
const CEILING: [f64; 4] = [0.10, 0.10, 0.14, 0.14];

fn benches() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(DotProduct::new(1_920)),
        Box::new(OuterProduct::new(128)),
        Box::new(Gemm::new(32, 24, 16)),
        Box::new(TpchQ6::new(1_920)),
        Box::new(BlackScholes::new(192)),
        Box::new(Gda::new(96, 8)),
        Box::new(KMeans::new(192, 4, 8)),
    ]
}

#[test]
fn table3_errors_match_golden_values() {
    let harness = Harness::new(SEED, DSE_POINTS);
    let benches = benches();
    let table = table3(&harness, &benches, PARETO_N);
    for (bench, evals) in benches.iter().zip(&table.evals) {
        assert!(
            !evals.is_empty(),
            "{}: DSE produced no Pareto points",
            bench.name()
        );
    }
    let axes = ["ALM", "DSP", "BRAM", "runtime"];
    for i in 0..4 {
        let avg = table.mean[i];
        assert!(
            (avg - GOLDEN[i]).abs() <= TOL,
            "{} average error {avg:.4} drifted from golden {:.4} (tol {TOL})",
            axes[i],
            GOLDEN[i]
        );
        assert!(
            avg <= CEILING[i],
            "{} average error {avg:.4} exceeds hard ceiling {}",
            axes[i],
            CEILING[i]
        );
    }
}
