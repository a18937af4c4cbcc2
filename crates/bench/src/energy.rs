//! Energy-efficiency extension: the paper's introduction motivates
//! accelerators with "orders of magnitude improvements in performance and
//! energy efficiency" (§I). This experiment quantifies the energy side
//! for the best generated designs: FPGA power from the platform power
//! model over synthesized area, versus the 95 W TDP Xeon E5-2630 running
//! the modeled CPU time.

use std::fmt::Write as _;

use dhdl_apps::Benchmark;
use dhdl_cpu::XeonModel;
use dhdl_synth::synthesize;

use crate::experiments::Harness;
use crate::report::{times, Report, Table};

/// Harness seed of the energy run.
pub const SEED: u64 = 0xE6E6;

/// Thermal design power of the Xeon E5-2630 (watts).
const XEON_TDP_W: f64 = 95.0;

/// The energy comparison at some scale.
#[derive(Debug, Clone)]
pub struct Energy {
    /// CPU joules over FPGA joules per run of each benchmark's best
    /// design, in order.
    pub advantages: Vec<f64>,
    /// The table and `energy.csv`.
    pub report: Report,
}

/// Explore each of `benches` on `harness` and price its fastest valid
/// design's energy against the CPU's.
///
/// # Panics
///
/// Panics if a benchmark has no valid design at this budget.
pub fn energy(harness: &Harness, benches: &[Box<dyn Benchmark>]) -> Energy {
    let xeon = XeonModel::default();
    let mut t = Table::new(&[
        "Benchmark",
        "FPGA W",
        "FPGA mJ",
        "CPU W",
        "CPU mJ",
        "Energy advantage",
        "Perf advantage",
    ]);
    let mut csv = String::from("benchmark,fpga_w,fpga_j,cpu_w,cpu_j,energy_ratio\n");
    let mut advantages = Vec::new();
    for bench in benches {
        eprintln!("exploring {} ...", bench.name());
        let dse = harness.explore(bench.as_ref());
        let best = dse.best().expect("valid design");
        let design = bench.build(&best.params).expect("builds");
        let sim = crate::simulate_bench(&harness.platform, bench.as_ref(), &design);
        let fpga_s = sim.seconds(&harness.platform);
        // Power priced over the *synthesized* (ground truth) area.
        let area = synthesize(&design, &harness.platform.fpga).area_report();
        let fpga_w = harness
            .platform
            .power
            .watts(&area, harness.platform.fpga.fabric_clock_hz);
        let fpga_j = fpga_w * fpga_s;
        let cpu_s = xeon.seconds(&bench.work());
        let cpu_j = XEON_TDP_W * cpu_s;
        t.row(&[
            bench.name().to_string(),
            format!("{fpga_w:.2}"),
            format!("{:.3}", fpga_j * 1e3),
            format!("{XEON_TDP_W:.0}"),
            format!("{:.3}", cpu_j * 1e3),
            times(cpu_j / fpga_j),
            times(cpu_s / fpga_s),
        ]);
        let _ = writeln!(
            csv,
            "{},{:.4},{:.6e},{:.1},{:.6e},{:.3}",
            bench.name(),
            fpga_w,
            fpga_j,
            XEON_TDP_W,
            cpu_j,
            cpu_j / fpga_j
        );
        advantages.push(cpu_j / fpga_j);
    }
    let mut report = Report::default();
    report.say("\nEnergy efficiency of best generated designs vs the 6-core CPU\n");
    report.say(t.render());
    report.say("(FPGA power from the Stratix V power model over synthesized area; CPU at TDP.)");
    report.wrote("energy.csv", csv);
    Energy { advantages, report }
}
