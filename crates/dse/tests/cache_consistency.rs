//! The estimate cache must be invisible in results: sweeps with the
//! cache off, on, or pre-warmed in memory produce byte-identical points,
//! Pareto fronts and outcome counts — across thread counts and under fault injection — and that holds for both
//! cache levels (the structural-hash map and the parameter-keyed memo
//! that lets warm sweeps skip design construction). These are the
//! acceptance criteria of the memoized estimation pipeline.

use std::sync::OnceLock;

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, ReduceOp};
use dhdl_dse::{
    explore, model_fingerprint, with_silent_panics, CachedModel, CostModel, DseOptions, DseResult,
    EstimateCache, FaultConfig, FaultInjector,
};
use dhdl_estimate::Estimator;
use dhdl_target::Platform;
use proptest::prelude::*;

fn build_dot(p: &ParamValues) -> dhdl_core::Result<Design> {
    let n = 4096u64;
    let tile = p.dim("tile")?;
    let par = p.par("par")?;
    let toggle = p.toggle("mp")?;
    let mut b = DesignBuilder::new("dot");
    let x = b.off_chip("x", DType::F32, &[n]);
    let y = b.off_chip("y", DType::F32, &[n]);
    b.sequential(|b| {
        let acc = b.reg("acc", DType::F32, 0.0);
        b.outer(toggle, &[by(n, tile)], 1, |b, iters| {
            let i = iters[0];
            let xt = b.bram("xT", DType::F32, &[tile]);
            let yt = b.bram("yT", DType::F32, &[tile]);
            b.parallel(|b| {
                b.tile_load(x, xt, &[i], &[tile], par);
                b.tile_load(y, yt, &[i], &[tile], par);
            });
            b.pipe_reduce(&[by(tile, 1)], par, acc, ReduceOp::Add, |b, it| {
                let a = b.load(xt, &[it[0]]);
                let c = b.load(yt, &[it[0]]);
                b.mul(a, c)
            });
        });
    });
    b.finish()
}

fn space() -> ParamSpace {
    let mut s = ParamSpace::new();
    s.tile("tile", 4096, 16, 1024);
    s.par("par", 16, 16);
    s.toggle("mp");
    s
}

/// Calibration is the slow part; share one estimator across all tests.
fn estimator() -> &'static Estimator {
    static EST: OnceLock<Estimator> = OnceLock::new();
    EST.get_or_init(|| Estimator::calibrate_with(&Platform::maia(), 30, 11).0)
}

fn opts(max_points: usize, threads: usize) -> DseOptions {
    DseOptions {
        max_points,
        threads,
        // Enable the parameter-keyed fast path everywhere: cost models
        // without a cache ignore it, so uncached reference sweeps are
        // unaffected while every cached sweep exercises it.
        cache_salt: Some(0xD07),
        ..DseOptions::default()
    }
}

/// Byte-level view of a Pareto front, for exact comparisons.
fn front_bits(r: &DseResult) -> Vec<(String, u64, u64)> {
    r.pareto_points()
        .map(|p| {
            (
                p.params.to_string(),
                p.cycles.to_bits(),
                p.area.alms.to_bits(),
            )
        })
        .collect()
}

#[test]
fn cached_sweep_is_bit_identical_to_uncached_across_thread_counts() {
    let est = estimator();
    for threads in [1usize, 2, 8] {
        let uncached = explore(build_dot, &space(), est, &opts(48, threads));
        assert!(!uncached.points.is_empty());
        assert!(uncached.stats.cache.is_none());

        let cache = EstimateCache::new(model_fingerprint(est));
        let cached_model = CachedModel::new(est, &cache);
        let cold = explore(build_dot, &space(), &cached_model, &opts(48, threads));
        assert_eq!(
            cold, uncached,
            "cold cached sweep diverged ({threads} threads)"
        );
        assert_eq!(front_bits(&cold), front_bits(&uncached));

        // Cold sweep populated the cache; a warm sweep answers every
        // estimator query from it and still matches bit for bit.
        let warm = explore(build_dot, &space(), &cached_model, &opts(48, threads));
        assert_eq!(
            warm, uncached,
            "warm cached sweep diverged ({threads} threads)"
        );
        let warm_cache = warm.stats.cache.expect("cached model reports stats");
        assert!(warm_cache.hits > 0, "warm sweep took no cache hits");
        assert_eq!(warm_cache.misses, 0, "warm sweep missed the cache");
        assert_eq!(warm.counts, uncached.counts);
    }
}

#[test]
fn per_sweep_cache_stats_are_deltas_not_cumulative() {
    let est = estimator();
    let cache = EstimateCache::new(model_fingerprint(est));
    let model = CachedModel::new(est, &cache);
    let cold = explore(build_dot, &space(), &model, &opts(24, 2));
    let warm = explore(build_dot, &space(), &model, &opts(24, 2));
    let cold_stats = cold.stats.cache.unwrap();
    let warm_stats = warm.stats.cache.unwrap();
    // The cold sweep misses every design it estimates; the warm sweep's
    // counters restart from zero rather than accumulating on top.
    assert_eq!(cold_stats.hits, 0);
    assert!(cold_stats.misses > 0);
    assert_eq!(warm_stats.misses, 0);
    assert_eq!(warm_stats.hits, cold_stats.misses);
    assert!(warm.stats.evaluated > 0);
    assert!(warm.stats.elapsed_secs >= 0.0);
}

#[test]
fn injected_nan_is_not_served_from_the_cache_after_retry() {
    let est = estimator();
    let clean = explore(build_dot, &space(), est, &opts(48, 0));

    // Cache wraps the injector: the first attempt's NaN reaches the
    // cache, which must refuse to store it, so the runner's retry gets a
    // fresh (successful) evaluation whose result *is* cached.
    let cfg = FaultConfig {
        seed: 0xBAD5EED,
        nan_rate: 0.25,
        transient: true,
        ..FaultConfig::default()
    };
    let injector = FaultInjector::new(est, cfg);
    let cache = EstimateCache::new(model_fingerprint(est));
    let model = CachedModel::new(&injector, &cache);
    let faulty = with_silent_panics(|| explore(build_dot, &space(), &model, &opts(48, 0)));

    let (_, nans, _) = injector.injected();
    assert!(nans > 0, "25% NaN rate injected nothing over 48 points");
    assert_eq!(
        faulty.counts.eval_failed, 0,
        "a cached NaN would exhaust retries"
    );
    assert!(faulty.counts.recovered > 0);
    // Same points and front as the clean sweep (`recovered` differs by
    // design: it counts the absorbed faults).
    assert_eq!(faulty.points, clean.points);
    assert_eq!(front_bits(&faulty), front_bits(&clean));

    // Every cached entry is finite — the NaNs never landed.
    let warm = explore(build_dot, &space(), &model, &opts(48, 0));
    assert_eq!(warm, clean);
    assert_eq!(warm.counts.recovered, 0, "warm hits bypass the injector");
}

#[test]
fn panic_faults_and_cache_compose() {
    let est = estimator();
    let clean = explore(build_dot, &space(), est, &opts(48, 0));
    let cfg = FaultConfig {
        seed: 0xFEED,
        panic_rate: 0.15,
        nan_rate: 0.10,
        transient: true,
        ..FaultConfig::default()
    };
    let injector = FaultInjector::new(est, cfg);
    let cache = EstimateCache::new(model_fingerprint(est));
    let model = CachedModel::new(&injector, &cache);
    let faulty = with_silent_panics(|| explore(build_dot, &space(), &model, &opts(48, 0)));
    assert_eq!(faulty.points, clean.points);
    assert_eq!(front_bits(&faulty), front_bits(&clean));
    assert_eq!(faulty.counts.eval_failed, 0);
    // cache_stats passes through the injector wrapper too.
    assert!(CostModel::cache_stats(&model).is_some());
    assert!(CostModel::cache_stats(&injector).is_none());
}

#[test]
fn warm_sweep_skips_design_construction_entirely() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let est = estimator();
    let builds = AtomicUsize::new(0);
    let counting_build = |p: &ParamValues| {
        builds.fetch_add(1, Ordering::Relaxed);
        build_dot(p)
    };
    let cache = EstimateCache::new(model_fingerprint(est));
    let model = CachedModel::new(est, &cache);
    let cold = explore(counting_build, &space(), &model, &opts(48, 4));
    let cold_builds = builds.swap(0, Ordering::Relaxed);
    assert!(cold_builds >= cold.counts.evaluated);

    // This is where the warm speedup comes from: every successfully
    // evaluated point answers from the parameter memo without touching
    // `build` at all. Only discarded assignments (never memoized) are
    // rebuilt and re-discarded.
    let warm = explore(counting_build, &space(), &model, &opts(48, 4));
    assert_eq!(warm, cold);
    assert_eq!(builds.load(Ordering::Relaxed), cold.discarded);

    // Without a salt the fast path is off: every point rebuilds, and the
    // result is still identical.
    let no_salt = DseOptions {
        cache_salt: None,
        ..opts(48, 4)
    };
    builds.store(0, Ordering::Relaxed);
    let slow_warm = explore(counting_build, &space(), &model, &no_salt);
    assert_eq!(slow_warm, cold);
    assert_eq!(builds.load(Ordering::Relaxed), cold_builds);
}

#[test]
fn observation_never_perturbs_sweep_results() {
    let est = estimator();
    // Reference sweep with recording off (the default).
    dhdl_obs::init(dhdl_obs::Mode::Off);
    let off = explore(build_dot, &space(), est, &opts(48, 4));

    // Same sweep with full recording on — spans, counters and histograms
    // fire on every hot path (elaborate, estimate_net, the runner, the
    // cache) — and through the cached model so the cache counters fire
    // too. Results must be byte-identical either way.
    dhdl_obs::init(dhdl_obs::Mode::Chrome);
    let on = explore(build_dot, &space(), est, &opts(48, 4));
    let cache = EstimateCache::new(model_fingerprint(est));
    let model = CachedModel::new(est, &cache);
    let on_cached = explore(build_dot, &space(), &model, &opts(48, 4));
    dhdl_obs::init(dhdl_obs::Mode::Off);

    assert_eq!(on, off, "observation changed sweep results");
    assert_eq!(on_cached, off, "observation changed cached sweep results");
    assert_eq!(front_bits(&on), front_bits(&off));
    assert_eq!(front_bits(&on_cached), front_bits(&off));

    // And the observed sweeps actually recorded something.
    let report = dhdl_obs::recorder().snapshot();
    for name in ["dse.sample", "dse.evaluate", "dse.assemble"] {
        assert!(
            report.spans.iter().any(|s| s.name == name),
            "no {name} span recorded"
        );
    }
    assert!(
        report.spans.iter().any(|s| s.name == "estimate_net"),
        "no estimate_net span recorded"
    );
    assert!(
        report.counters.get("cache.l2.miss").copied().unwrap_or(0) > 0,
        "cached sweep recorded no cache counters"
    );
}

#[test]
fn model_fingerprint_separates_models_and_targets() {
    let a = Estimator::calibrate_with(&Platform::maia(), 20, 1).0;
    let b = Estimator::calibrate_with(&Platform::maia(), 20, 2).0;
    assert_eq!(model_fingerprint(&a), model_fingerprint(&a));
    assert_ne!(
        model_fingerprint(&a),
        model_fingerprint(&b),
        "differently-trained models must not share a cache"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: for any sample seed, thread count and
    /// moderate transient fault rates, a cached sweep (cache wrapping
    /// the fault injector) equals the uncached fault-free sweep exactly.
    #[test]
    fn cached_faulty_sweeps_match_uncached_clean_sweeps(
        sample_seed in 0u64..1_000_000,
        threads in 1usize..9,
        nan_rate in 0.0f64..0.3,
        panic_rate in 0.0f64..0.2,
    ) {
        let est = estimator();
        let run_opts = DseOptions {
            max_points: 24,
            seed: sample_seed,
            threads,
            cache_salt: Some(0xD07),
            ..DseOptions::default()
        };
        let clean = explore(build_dot, &space(), est, &run_opts);
        let cfg = FaultConfig {
            seed: sample_seed ^ 0xF00D,
            nan_rate,
            panic_rate,
            transient: true,
            ..FaultConfig::default()
        };
        let injector = FaultInjector::new(est, cfg);
        let cache = EstimateCache::new(model_fingerprint(est));
        let model = CachedModel::new(&injector, &cache);
        let cold = with_silent_panics(|| explore(build_dot, &space(), &model, &run_opts));
        // `recovered` counts absorbed faults, so compare points/fronts.
        prop_assert_eq!(&cold.points, &clean.points);
        prop_assert_eq!(front_bits(&cold), front_bits(&clean));
        let warm = explore(build_dot, &space(), &model, &run_opts);
        prop_assert_eq!(&warm, &clean);
        prop_assert_eq!(front_bits(&warm), front_bits(&clean));
        prop_assert_eq!(warm.stats.cache.unwrap().misses, 0);
    }
}
