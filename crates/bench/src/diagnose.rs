//! Developer tool: per-point breakdown of estimate vs. ground truth for
//! one benchmark's Pareto points (signed errors, raw components).

use dhdl_apps::Benchmark;
use dhdl_synth::elaborate;

use crate::experiments::Harness;
use crate::report::Table;

/// Explore `bench` on `harness` and tabulate estimate against ground
/// truth, component by component, for up to `n` Pareto points.
///
/// # Panics
///
/// Panics if a Pareto point fails to build or time.
pub fn diagnose(harness: &Harness, bench: &dyn Benchmark, n: usize) -> Table {
    let dse = harness.explore(bench);
    let mut t = Table::new(&[
        "params",
        "ALM est/truth",
        "raw luts(p/u)",
        "regs est/truth",
        "BRAM est/truth (raw)",
        "DSP est/truth",
        "cycles est/sim",
    ]);
    for e in harness.evaluate_front(bench, &dse, n) {
        let design = bench.build(&e.params).expect("builds");
        let net = elaborate(&design, &harness.platform.fpga);
        t.row(&[
            e.params.to_string(),
            format!("{:.0}/{:.0}", e.est_area.alms, e.synth.alms),
            format!("{:.0}/{:.0}", net.raw.lut_packable, net.raw.lut_unpackable),
            format!("{:.0}/{:.0}", e.est_area.regs, e.synth.regs),
            format!(
                "{:.0}/{:.0} ({:.0})",
                e.est_area.brams, e.synth.brams, net.raw.brams
            ),
            format!("{:.0}/{:.0}", e.est_area.dsps, e.synth.dsps),
            format!("{:.0}/{:.0}", e.est_cycles, e.sim_cycles),
        ]);
    }
    t
}
