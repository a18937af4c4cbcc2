//! Table III: average absolute estimation error for resource usage and
//! runtime.
//!
//! For each benchmark, runs design space exploration, selects five
//! spread-out Pareto points (§V-B: "We select five Pareto points generated
//! from our design space exploration for each of our benchmarks"),
//! synthesizes and times each (the vendor-toolchain and FPGA-board
//! substitutes: the simulator's timing walk reports the cycles a run
//! would), and compares against the fast estimates.

use dhdl_apps::Benchmark;

use crate::experiments::{mean_errors, Harness, PointEval};
use crate::report::{pct, Report, Table};

/// Harness seed of the Table III run.
pub const SEED: u64 = 0xD4D1;

/// The paper's Table III values, for side-by-side reporting.
const PAPER: &[(&str, [f64; 4])] = &[
    ("dotproduct", [0.017, 0.000, 0.131, 0.028]),
    ("outerprod", [0.044, 0.297, 0.128, 0.013]),
    ("gemm", [0.127, 0.114, 0.174, 0.184]),
    ("tpchq6", [0.023, 0.000, 0.054, 0.031]),
    ("blackscholes", [0.053, 0.053, 0.070, 0.034]),
    ("gda", [0.052, 0.062, 0.084, 0.067]),
    ("kmeans", [0.020, 0.000, 0.219, 0.070]),
];

/// Table III at some scale.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// The fully evaluated Pareto picks of each benchmark, in order.
    pub evals: Vec<Vec<PointEval>>,
    /// Mean `[alm, dsp, bram, runtime]` relative error over the
    /// benchmarks (the table's "Average" line).
    pub mean: [f64; 4],
    /// The table and `table3.csv`.
    pub report: Report,
}

/// Explore each of `benches` on `harness` and measure the estimator's
/// error on up to `pareto_n` spread-out Pareto points of each.
pub fn table3(harness: &Harness, benches: &[Box<dyn Benchmark>], pareto_n: usize) -> Table3 {
    let mut t = Table::new(&[
        "Benchmark",
        "ALMs",
        "DSPs",
        "BRAM",
        "Runtime",
        "paper ALM/DSP/BRAM/RT",
    ]);
    let mut row = |name: &str, errs: [f64; 4], paper: String| {
        let [a, d, b, r] = errs.map(pct);
        t.row(&[name.to_string(), a, d, b, r, paper]);
    };
    let mut evals = Vec::new();
    let mut sums = [0.0f64; 4];
    for bench in benches {
        eprintln!("exploring {} ...", bench.name());
        let dse = harness.explore(bench.as_ref());
        let picks = harness.evaluate_front(bench.as_ref(), &dse, pareto_n);
        let errs = mean_errors(&picks);
        let paper = PAPER
            .iter()
            .find(|p| p.0 == bench.name())
            .map_or([0.0; 4], |p| p.1);
        row(bench.name(), errs, paper.map(pct).join(" / "));
        for (s, e) in sums.iter_mut().zip(errs) {
            *s += e;
        }
        evals.push(picks);
    }
    let n = evals.len().max(1) as f64;
    let mean = sums.map(|s| s / n);
    row("Average", mean, "4.8% / 7.5% / 12.3% / 6.1%".to_string());
    let mut report = Report::default();
    report.say("\nTable III: average absolute error for resource usage and runtime");
    report.say(format_args!(
        "({pareto_n} Pareto points per benchmark from its whole design space)\n"
    ));
    report.say(t.render());
    report.wrote("table3.csv", t.to_csv());
    Table3 {
        evals,
        mean,
        report,
    }
}
