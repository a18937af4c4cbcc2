//! Golden regression for the DNN workload frontier (conv2d + attention).
//!
//! The full-scale run is `dhdl dnnbench`; this test runs the same
//! function at a reduced configuration so every `cargo test` invocation
//! guards the frontier against drift:
//!
//! - the CPU reference kernels' outputs, pinned as FNV checksums over
//!   the exact IEEE-754 bits (the simulator, the `dhdl-cpu` kernels and
//!   the conformance references are all bit-exact against these),
//! - estimator finiteness and monotonicity in parallelism,
//! - seed-stable DSE Pareto fronts,
//! - Table-III-style model errors within a golden band (the precise
//!   errors are *reported* by `dnnbench` into EXPERIMENTS.md, not gated;
//!   the band here only catches order-of-magnitude regressions), with
//!   the best design bit-identical on both simulator backends.

use dhdl_apps::{Attention, Benchmark, Conv2d};
use dhdl_bench::dnnbench::{dnnbench, SEED};
use dhdl_bench::Harness;
use dhdl_core::Fnv64;
use std::sync::OnceLock;

/// DSE sample budget (the full run uses more).
const DSE_POINTS: usize = 60;
/// Pareto picks per benchmark.
const PARETO_N: usize = 3;

/// FNV-64 over the reference `out` bits for `Conv2d::new(18, 4)`.
const CONV_CHECKSUM: u64 = 0x307598b39777bfff;
/// FNV-64 over the reference `out` bits for `Attention::new(16)`.
const ATTN_CHECKSUM: u64 = 0xea0d99ebdcb9c7ff;

/// Measured `(alm, dsp, bram, runtime)` average errors at this config.
const GOLDEN: [f64; 4] = [0.0318, 0.0632, 0.0708, 0.1276];
/// Absolute tolerance per axis (wider than table3: these workloads sit
/// outside the calibration set by design).
const TOL: f64 = 0.06;
/// Hard ceiling per axis.
const CEILING: [f64; 4] = [0.30, 0.30, 0.35, 0.35];

/// One calibration for the whole test binary.
fn harness() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| Harness::new(SEED, DSE_POINTS))
}

fn benches() -> Vec<Box<dyn Benchmark>> {
    vec![Box::new(Conv2d::new(18, 4)), Box::new(Attention::new(16))]
}

fn checksum(arrays: &dhdl_apps::Arrays) -> u64 {
    let mut h = Fnv64::new();
    for (name, data) in arrays {
        h.write(name.as_bytes());
        for v in data {
            h.write_u64(v.to_bits());
        }
    }
    h.finish()
}

#[test]
fn reference_checksums_are_pinned() {
    let golden = [CONV_CHECKSUM, ATTN_CHECKSUM];
    for (bench, want) in benches().iter().zip(golden) {
        let reference = bench.reference();
        let got = checksum(&reference);
        assert_eq!(
            got,
            want,
            "{}: reference checksum {got:#018x} != golden {want:#018x}",
            bench.name()
        );
        // The optimized CPU kernel reproduces the reference bit-for-bit
        // at any thread count (row partitioning is order-preserving).
        for threads in [1, 4] {
            let cpu = dhdl_cpu::run(bench.as_ref(), threads);
            assert_eq!(
                checksum(&cpu.outputs),
                want,
                "{}: CPU kernel ({threads} threads) diverged from reference",
                bench.name()
            );
        }
    }
}

#[test]
fn estimates_are_finite_and_monotone_in_par() {
    let h = harness();
    for bench in benches() {
        let space = bench.param_space();
        let defaults = bench.default_params();
        assert!(space.is_legal(&defaults), "{}", bench.name());
        let design = bench.build(&defaults).unwrap();
        let est = h.estimator.estimate(&design);
        assert!(
            est.cycles.is_finite() && est.cycles > 0.0,
            "{}: cycles {}",
            bench.name(),
            est.cycles
        );
        for a in [est.area.alms, est.area.regs, est.area.dsps, est.area.brams] {
            assert!(a.is_finite() && a >= 0.0, "{}: area {a}", bench.name());
        }
        // Widening the lane parallelism can only add raw datapath area
        // and can only help modeled runtime.
        let (par_name, wide_par) = match bench.name() {
            "conv2d" => ("pj", 4u64),
            _ => ("pa", 4u64),
        };
        let narrow = design;
        let wide = bench
            .build(&defaults.clone().with(par_name, wide_par))
            .unwrap();
        let (na, wa) = (h.estimator.raw_area(&narrow), h.estimator.raw_area(&wide));
        assert!(
            wa.alms + 1.0 + na.alms * 0.01 >= na.alms,
            "{}: par={wide_par} raw alms {} below serial {}",
            bench.name(),
            wa.alms,
            na.alms
        );
        let (nc, wc) = (h.estimator.cycles(&narrow), h.estimator.cycles(&wide));
        assert!(
            wc <= nc * 1.05 + 16.0,
            "{}: par={wide_par} modeled {wc:.0} cycles, slower than {nc:.0}",
            bench.name()
        );
    }
}

fn front_hash(h: &Harness, bench: &dyn Benchmark) -> u64 {
    let result = h.explore(bench);
    assert!(!result.pareto.is_empty(), "{}: empty front", bench.name());
    let mut hash = Fnv64::new();
    let mut fronts: Vec<String> = result
        .pareto
        .iter()
        .map(|&i| result.points[i].params.to_string())
        .collect();
    fronts.sort();
    for f in &fronts {
        hash.write(f.as_bytes());
    }
    hash.finish()
}

#[test]
fn dse_fronts_are_seed_stable() {
    let h = harness();
    for bench in benches() {
        let a = front_hash(h, bench.as_ref());
        let b = front_hash(h, bench.as_ref());
        assert_eq!(
            a,
            b,
            "{}: re-running DSE changed the Pareto front",
            bench.name()
        );
    }
}

#[test]
fn dnn_model_errors_match_golden_band() {
    let frontier = dnnbench(harness(), &benches(), PARETO_N);
    for verdict in &frontier.backends {
        assert_eq!(*verdict, Some(Ok(())), "simulator backends disagree");
    }
    let mean = frontier.mean_errors;
    eprintln!(
        "measured dnn errors: [{:.4}, {:.4}, {:.4}, {:.4}]",
        mean[0], mean[1], mean[2], mean[3]
    );
    let axes = ["ALM", "DSP", "BRAM", "runtime"];
    for i in 0..4 {
        let avg = mean[i];
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
