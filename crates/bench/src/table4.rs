//! Table IV: average estimation time per design point, DHDL vs. the mock
//! commercial HLS tool.
//!
//! The paper compares 250 GDA design points: the DHDL estimator takes
//! 0.017 s/design, Vivado HLS takes 4.75 s/design when outer-loop
//! pipelining is ignored ("restricted") and 111.06 s/design over the full
//! space where 30 of the 250 points pipeline the outer loop (unrolling all
//! inner loops first). We reproduce the same protocol against the
//! `dhdl-hls` baseline at the paper's GDA dimension (C = 96).
//!
//! This is the one experiment whose result *is* a wall-clock time; every
//! other timing of the toolchain lives in `benchmark/`.

use std::time::Instant;

use dhdl_apps::Benchmark;
use dhdl_dse::LegalSpace;
use dhdl_hls::{estimate as hls_estimate, HlsMode, ResourceLimits};

use crate::experiments::Harness;
use crate::report::{Report, Table};

/// Harness seed of the Table IV run.
pub const SEED: u64 = 0x7AB4;

/// Table IV at some scale.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// Our estimator (instantiate + estimate), seconds per design.
    pub ours: f64,
    /// HLS over the full space, seconds per design.
    pub full: f64,
    /// Operations scheduled over all points, ignoring outer pipelining.
    pub restricted_ops: usize,
    /// Operations scheduled over all points, full space.
    pub full_ops: usize,
    /// The table and `table4.csv`.
    pub report: Report,
}

/// Time `n_points` estimates of `bench` (GDA in the paper; it must have
/// an HLS form) by our estimator and by both HLS modes, the first
/// `n_pipelined` points carrying an outer-loop PIPELINE directive.
///
/// # Panics
///
/// Panics if `bench` has no HLS form or a sampled legal point does not
/// build.
pub fn table4(
    harness: &Harness,
    bench: &dyn Benchmark,
    n_points: usize,
    n_pipelined: usize,
) -> Table4 {
    let n_pipelined = n_pipelined.min(n_points);

    // --- Our estimator: time per (instantiate + estimate) over sampled
    // legal design points.
    let space = LegalSpace::new(&bench.param_space());
    let samples = space.sample(n_points, 42);
    let start = Instant::now();
    let mut checksum = 0.0f64;
    for params in &samples {
        let design = bench.build(params).expect("legal point builds");
        let est = harness.estimator.estimate(&design);
        checksum += est.cycles;
    }
    let ours = start.elapsed().as_secs_f64() / samples.len() as f64;
    eprintln!("ours: {ours:.6} s/design (checksum {checksum:.3e})");

    // --- HLS baseline: the same number of points; design parameters for
    // HLS are inner-loop unroll factors, plus an outer-loop PIPELINE
    // directive on a subset (Figure 2's L1).
    let limits = ResourceLimits::default();
    let unrolls = [1u32, 2, 4, 8, 16];
    let mut restricted_total = 0.0f64;
    let mut full_total = 0.0f64;
    let mut restricted_ops = 0usize;
    let mut full_ops = 0usize;
    for i in 0..n_points {
        let unroll = unrolls[i % unrolls.len()];
        let outer = i < n_pipelined;
        let mut kernel = bench.hls_kernel().expect("benchmark has an HLS form");
        // Apply the unroll factor to the innermost loops.
        for l in &mut kernel.loops {
            l.pipeline = outer;
            for c in &mut l.children {
                c.unroll = unroll;
                for cc in &mut c.children {
                    cc.unroll = unroll;
                }
            }
        }
        let r = hls_estimate(&kernel, HlsMode::Restricted, &limits);
        restricted_total += r.elapsed.as_secs_f64();
        restricted_ops += r.scheduled_ops;
        let f = hls_estimate(&kernel, HlsMode::Full, &limits);
        full_total += f.elapsed.as_secs_f64();
        full_ops += f.scheduled_ops;
        if outer {
            eprintln!(
                "  point {i}: pipelined outer loop, {} scheduled ops, full {:.3}s",
                f.scheduled_ops,
                f.elapsed.as_secs_f64()
            );
        }
    }
    let restricted = restricted_total / n_points as f64;
    let full = full_total / n_points as f64;

    let mut t = Table::new(&["Tool", "s/design", "slowdown vs ours", "paper"]);
    t.row(&[
        "Our approach".into(),
        format!("{ours:.6}"),
        "1x".into(),
        "0.017 s/design".into(),
    ]);
    t.row(&[
        "HLS restricted (no outer pipelining)".into(),
        format!("{restricted:.4}"),
        format!("{:.0}x", restricted / ours),
        "4.75 s/design (279x)".into(),
    ]);
    t.row(&[
        "HLS full".into(),
        format!("{full:.4}"),
        format!("{:.0}x", full / ours),
        "111.06 s/design (6533x)".into(),
    ]);
    let mut report = Report::default();
    report.say("\nTable IV: average estimation time per design point");
    report.say(format_args!(
        "(GDA, {n_points} design points, {n_pipelined} with outer-loop pipelining)\n"
    ));
    report.say(t.render());
    report.wrote("table4.csv", t.to_csv());
    Table4 {
        ours,
        full,
        restricted_ops,
        full_ops,
        report,
    }
}
