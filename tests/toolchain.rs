//! Whole-toolchain integration tests: every benchmark must flow through
//! estimation, synthesis, code generation and exploration without
//! surprises, and the estimator must track the synthesis model within
//! loose, universal bounds.

use dhdl_bench::Harness;
use dhdl_estimate::Estimator;
use dhdl_synth::{maxj, synthesize};
use dhdl_target::Platform;

#[test]
fn every_benchmark_estimates_synthesizes_and_generates() {
    let platform = Platform::maia();
    let (estimator, _) = Estimator::calibrate_with(&platform, 60, 21);
    for bench in dhdl_apps::all() {
        let design = bench
            .build(&bench.default_params())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        let est = estimator.estimate(&design);
        assert!(est.cycles > 0.0, "{}", bench.name());
        assert!(est.area.alms > 0.0, "{}", bench.name());
        let truth = synthesize(&design, &platform.fpga);
        assert!(truth.alms > 0.0, "{}", bench.name());
        // Estimates track truth within a factor of 2 on every axis even
        // for uncalibrated default points.
        let ratio = est.area.alms / truth.alms;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{}: ALM ratio {ratio}",
            bench.name()
        );
        let code = maxj::generate(&design);
        assert!(
            code.contains("extends Kernel"),
            "{}: maxj missing kernel",
            bench.name()
        );
        assert_eq!(
            code.matches('{').count(),
            code.matches('}').count(),
            "{}: unbalanced maxj braces",
            bench.name()
        );
        // Every off-chip memory appears in the generated code.
        for &off in design.offchips() {
            let name = design.node(off).name.clone().unwrap();
            assert!(
                code.contains(name.as_str()),
                "{}: `{name}` missing from maxj",
                bench.name()
            );
        }
    }
}

#[test]
fn estimation_is_deterministic_and_fast() {
    let platform = Platform::maia();
    let (estimator, _) = Estimator::calibrate_with(&platform, 60, 22);
    let bench = dhdl_apps::Gda::default();
    use dhdl_apps::Benchmark as _;
    let design = bench.build(&bench.default_params()).unwrap();
    let a = estimator.estimate(&design);
    let b = estimator.estimate(&design);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.area, b.area);
    // Speed: well under a millisecond per estimate even in debug builds
    // would be flaky to assert; assert a generous bound in any profile.
    let start = std::time::Instant::now();
    for _ in 0..10 {
        let _ = estimator.estimate(&design);
    }
    let per = start.elapsed().as_secs_f64() / 10.0;
    assert!(per < 0.25, "estimation took {per} s/design");
}

#[test]
fn dse_best_points_simulate_close_to_estimates() {
    // The contract that makes DSE trustworthy: for Pareto winners the
    // estimated cycle counts stay within ~25% of simulated ground truth.
    let harness = Harness::new(0x77, 300);
    for name in ["dotproduct", "tpchq6", "saxpy"] {
        let bench: Box<dyn dhdl_apps::Benchmark> = match name {
            "saxpy" => Box::new(dhdl_apps::Saxpy::default()),
            other => dhdl_apps::by_name(other).unwrap(),
        };
        let dse = harness.explore(bench.as_ref());
        let best = dse.best().unwrap_or_else(|| panic!("{name}: no best"));
        let design = bench.build(&best.params).unwrap();
        let sim = dhdl_bench::simulate_bench(&harness.platform, bench.as_ref(), &design);
        let err = (best.cycles - sim.cycles).abs() / sim.cycles;
        assert!(
            err < 0.25,
            "{name}: estimate {} vs simulated {} ({:.1}% error)",
            best.cycles,
            sim.cycles,
            err * 100.0
        );
    }
}

#[test]
fn synthesis_report_is_internally_consistent() {
    let platform = Platform::maia();
    for bench in dhdl_apps::all() {
        let design = bench.build(&bench.default_params()).unwrap();
        let r = synthesize(&design, &platform.fpga);
        assert!(r.alms > 0.0);
        assert!(r.regs >= r.regs_dup, "{}", bench.name());
        assert!(r.brams >= r.brams_dup, "{}", bench.name());
        assert!(r.luts_route < r.luts_logic, "{}", bench.name());
        assert!(r.dsps >= 0.0);
    }
}

#[test]
fn design_serialization_roundtrips_every_benchmark() {
    use dhdl_core::serialize::{from_text, to_text};
    // One full estimator calibration is enough; roundtrip all below.
    if let Some(bench) = dhdl_apps::all().into_iter().next() {
        let design = bench.build(&bench.default_params()).unwrap();
        let text = to_text(&design);
        let back = from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        assert_eq!(design, back, "{}", bench.name());
        // Serialized designs estimate identically.
        let platform = Platform::maia();
        let (estimator, _) = Estimator::calibrate_with(&platform, 20, 77);
        assert_eq!(
            estimator.estimate(&design).cycles,
            estimator.estimate(&back).cycles,
            "{}",
            bench.name()
        );
    }
    for bench in dhdl_apps::all() {
        let design = bench.build(&bench.default_params()).unwrap();
        let back = from_text(&to_text(&design)).unwrap();
        assert_eq!(design, back, "{}", bench.name());
    }
}

#[test]
fn random_legal_points_all_build() {
    use dhdl_dse::LegalSpace;
    for bench in dhdl_apps::all() {
        let space = bench.param_space();
        let legal = LegalSpace::new(&space);
        for (k, params) in legal.sample(25, 0xbeef).into_iter().enumerate() {
            bench
                .build(&params)
                .unwrap_or_else(|e| panic!("{} point {k} ({params}): {e}", bench.name()));
        }
    }
}

#[test]
fn midrange_device_shrinks_the_valid_space() {
    // Portability: the same benchmark explored on a smaller device yields
    // fewer valid points (device capacities flow through estimation).
    use dhdl_dse::{explore, DseOptions};
    use dhdl_target::{DramModel, FpgaTarget, Platform, PowerModel};
    let bench = dhdl_apps::BlackScholes::new(9_216);
    use dhdl_apps::Benchmark as _;
    let small_platform = Platform {
        fpga: FpgaTarget::midrange(),
        dram: DramModel::maia(),
        power: PowerModel::stratix_v(),
    };
    let (est_small, _) = Estimator::calibrate_with(&small_platform, 30, 5);
    let (est_big, _) = Estimator::calibrate_with(&Platform::maia(), 30, 5);
    let opts = DseOptions {
        max_points: 120,
        ..DseOptions::default()
    };
    let space = bench.param_space();
    let r_small = explore(|p| bench.build(p), &space, &est_small, &opts);
    let r_big = explore(|p| bench.build(p), &space, &est_big, &opts);
    let valid = |r: &dhdl_dse::DseResult| r.points.iter().filter(|p| p.valid).count();
    assert!(
        valid(&r_small) < valid(&r_big),
        "midrange {} vs stratix {}",
        valid(&r_small),
        valid(&r_big)
    );
}

#[test]
fn simulator_trace_exports_valid_vcd() {
    let harness = Harness::new(0x7C, 50);
    let bench = dhdl_apps::DotProduct::new(1_920);
    use dhdl_apps::Benchmark as _;
    let design = bench.build(&bench.default_params()).unwrap();
    let result = dhdl_bench::simulate_bench(&harness.platform, &bench, &design);
    assert!(!result.trace().is_empty());
    let vcd = result.trace().to_vcd(&design);
    assert!(vcd.contains("$enddefinitions"));
    // Every controller that executed appears as a wire.
    for e in result.profile() {
        assert!(
            vcd.contains(&format!("_{}", e.ctrl.index())),
            "missing wire for {}",
            e.label
        );
    }
    // The last activity ends at (or before) the reported total.
    let last_end = result
        .trace()
        .events()
        .iter()
        .map(|e| e.end)
        .fold(0.0f64, f64::max);
    assert!(last_end <= result.cycles + 1.0);
}

#[test]
fn estimator_breakdown_matches_total() {
    use dhdl_estimate::{estimate_breakdown, estimate_cycles};
    let platform = Platform::maia();
    for bench in dhdl_apps::all() {
        let design = bench.build(&bench.default_params()).unwrap();
        let total = estimate_cycles(&design, &platform);
        let breakdown = estimate_breakdown(&design, &platform);
        assert_eq!(breakdown[0].ctrl, design.top(), "{}", bench.name());
        assert!(
            (breakdown[0].total - total).abs() < 1e-6,
            "{}: {} vs {}",
            bench.name(),
            breakdown[0].total,
            total
        );
        assert_eq!(breakdown.len(), design.controllers().len());
    }
}
