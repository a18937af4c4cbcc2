//! Figure 6: speedups of the best generated designs over the 6-core CPU.
//!
//! For each benchmark: explore the design space, take the
//! fastest valid (Pareto) design, time it on the platform model to get
//! FPGA execution time, and compare against the modeled Xeon E5-2630 CPU
//! time for the same (scaled) dataset. Measured host-CPU kernel times are
//! reported alongside for reference (they are host-specific and not used
//! for the normalized comparison).

use dhdl_apps::Benchmark;
use dhdl_cpu::XeonModel;

use crate::experiments::Harness;
use crate::report::{times, Report, Table};

/// Harness seed of the Figure 6 run.
pub const SEED: u64 = 0xF166;

/// The paper's Figure 6 speedups.
const PAPER: &[(&str, f64)] = &[
    ("dotproduct", 1.07),
    ("outerprod", 2.42),
    ("gemm", 0.10),
    ("tpchq6", 1.11),
    ("blackscholes", 16.73),
    ("gda", 4.55),
    ("kmeans", 1.15),
];

/// Figure 6 at some scale.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// Modeled-CPU time over ground-truth FPGA time of each benchmark's
    /// best design, in order.
    pub speedups: Vec<f64>,
    /// The table and `fig6.csv`.
    pub report: Report,
}

/// Explore each of `benches` on `harness`, time the fastest valid
/// design and compare it with the CPU model.
///
/// # Panics
///
/// Panics if a benchmark has no valid design.
pub fn fig6(harness: &Harness, benches: &[Box<dyn Benchmark>]) -> Fig6 {
    let xeon = XeonModel::default();
    let mut t = Table::new(&[
        "Benchmark",
        "FPGA (ms)",
        "CPU model (ms)",
        "Speedup",
        "Paper",
        "Host CPU (ms, measured)",
        "Best params",
    ]);
    let mut csv = Table::new(&[
        "benchmark",
        "fpga_s",
        "cpu_model_s",
        "speedup",
        "paper_speedup",
    ]);
    let mut speedups = Vec::new();
    for bench in benches {
        eprintln!("exploring {} ...", bench.name());
        let dse = harness.explore(bench.as_ref());
        let best = dse
            .best()
            .unwrap_or_else(|| panic!("{}: no valid design found", bench.name()));
        eprintln!(
            "  best: {} (est {:.0} cycles); timing...",
            best.params, best.cycles
        );
        let truth = harness.evaluate(bench.as_ref(), &best.params);
        let fpga_s = harness.platform.cycles_to_seconds(truth.sim_cycles);
        let cpu_s = xeon.seconds(&bench.work());
        let host = dhdl_cpu::run(bench.as_ref(), 3);
        let speedup = cpu_s / fpga_s;
        let paper = PAPER
            .iter()
            .find(|p| p.0 == bench.name())
            .map_or(0.0, |p| p.1);
        t.row(&[
            bench.name().to_string(),
            format!("{:.3}", fpga_s * 1e3),
            format!("{:.3}", cpu_s * 1e3),
            times(speedup),
            times(paper),
            format!("{:.3}", host.elapsed.as_secs_f64() * 1e3),
            best.params.to_string(),
        ]);
        csv.row(&[
            bench.name().to_string(),
            format!("{fpga_s:.6e}"),
            format!("{cpu_s:.6e}"),
            format!("{speedup:.3}"),
            format!("{paper:.3}"),
        ]);
        speedups.push(speedup);
    }
    let mut report = Report::default();
    report.say("\nFigure 6: speedups of most performant FPGA designs over the 6-core CPU\n");
    report.say(t.render());
    report.wrote("fig6.csv", csv.to_csv());
    Fig6 { speedups, report }
}
