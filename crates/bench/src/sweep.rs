//! Parameter sensitivity sweep: hold a benchmark's parameters at their
//! defaults and vary one across its legal values, reporting estimated
//! cycles/area/power at each point — the one-dimensional slices of the
//! paper's Figure 5 discussion ("points along the same vertical bar share
//! the same inner loop parallelization factor").
//!
//! The pseudo-parameter `num_fpgas` sweeps the multi-FPGA partitioning
//! axis (powers of two up to 8): the
//! design is built at its defaults and re-estimated per device count
//! through the partitioning pass.

use dhdl_apps::Benchmark;
use dhdl_core::{ParamKind, NUM_FPGAS};

use crate::experiments::Harness;
use crate::report::{Report, Table};

/// Harness seed of a sensitivity sweep.
pub const SEED: u64 = 0x53EE;

/// Estimate `bench` at its defaults with `param` swept over its legal
/// values.
///
/// # Errors
///
/// Returns the message for a `param` the benchmark does not have.
pub fn sweep(harness: &Harness, bench: &dyn Benchmark, param: &str) -> Result<Report, String> {
    let space = bench.param_space();
    let multi = param == NUM_FPGAS;
    let kind = if multi {
        ParamKind::Devices { max: 8 }
    } else if let Some(def) = space.defs().iter().find(|d| d.name == param) {
        def.kind.clone()
    } else {
        let names: Vec<&str> = space.defs().iter().map(|d| d.name.as_str()).collect();
        return Err(format!(
            "unknown parameter `{param}`; available: {names:?} (plus `{NUM_FPGAS}`)"
        ));
    };
    let mut t = Table::new(&[
        param,
        "cycles",
        "ms @150MHz",
        "ALMs",
        "DSPs",
        "BRAMs",
        "W",
        "fits",
    ]);
    let mut evaluated = 0usize;
    let mut build_failed = 0usize;
    for value in kind.legal_values() {
        let mut p = bench.default_params();
        if !multi {
            // `num_fpgas` is not a construction parameter: the design is
            // built at its defaults and partitioned at estimation time.
            p.set(param, value);
        }
        let Ok(design) = bench.build(&p) else {
            build_failed += 1;
            let mut row = vec![String::new(); 8];
            row[0] = value.to_string();
            row[1] = "(build failed)".into();
            t.row(&row);
            continue;
        };
        evaluated += 1;
        let est = if multi {
            harness
                .estimator
                .estimate_partitioned(&design, value.clamp(1, u64::from(u32::MAX)) as u32)
                .estimate
        } else {
            harness.estimator.estimate(&design)
        };
        t.row(&[
            value.to_string(),
            format!("{:.0}", est.cycles),
            format!("{:.4}", est.seconds(&harness.platform) * 1e3),
            format!("{:.0}", est.area.alms),
            format!("{:.0}", est.area.dsps),
            format!("{:.0}", est.area.brams),
            format!("{:.2}", est.watts(&harness.platform)),
            est.area.fits(&harness.platform.fpga).to_string(),
        ]);
    }
    let mut r = Report::default();
    r.say(format_args!(
        "\nSweep of `{param}` for {} (other parameters at defaults {})\n",
        bench.name(),
        bench.default_params()
    ));
    r.say(t.render());
    // Point-loss accounting, mirroring the resilient runner's counters.
    r.say(format_args!(
        "sweep outcomes: {evaluated} evaluated, {build_failed} build-failed"
    ));
    r.wrote(&format!("sweep_{}_{param}.csv", bench.name()), t.to_csv());
    Ok(r)
}
