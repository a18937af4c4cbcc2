//! The estimate cache must be invisible in results: sweeps with the
//! cache off, on, or pre-warmed in memory produce byte-identical points,
//! Pareto fronts and outcome counts — across thread counts and under
//! fault injection, where a cached faulty sweep discards what an uncached
//! one does — and that holds for both cache levels (the structural-hash
//! map and the parameter-keyed memo that lets warm sweeps skip design
//! construction). These are the acceptance criteria of the memoized
//! estimation pipeline.

use dhdl_core::ParamValues;
use dhdl_dse::{
    explore, model_fingerprint, CachedModel, CostModel, DseError, DseOptions, EstimateCache,
};
use dhdl_estimate::Estimator;
use dhdl_target::Platform;
use proptest::prelude::*;

#[path = "support/fixture.rs"]
mod fixture;
use fixture::{build_dot, by_index, estimator, front_bits, space};
#[path = "support/fault.rs"]
mod fault;
use fault::{expected_under, with_silent_panics, FaultConfig, FaultInjector};

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
fn injected_nan_is_not_served_from_the_cache() {
    let est = estimator();
    let clean = explore(build_dot, &space(), est, &opts(48, 0));

    // Cache wraps the injector: an injected NaN reaches the cache, which
    // must refuse to store it, so its point is discarded as non-finite.
    let cfg = FaultConfig {
        seed: 0xBAD5EED,
        nan_rate: 0.25,
        ..FaultConfig::default()
    };
    let injector = FaultInjector::new(est, cfg);
    let cache = EstimateCache::new(model_fingerprint(est));
    let model = CachedModel::new(&injector, &cache);
    let cold = explore(build_dot, &space(), &model, &opts(48, 0));

    let (_, nans, _) = injector.injected();
    assert!(nans > 0, "25% NaN rate injected nothing over 48 points");
    assert_eq!(by_index(&cold), expected_under(&clean, &injector));
    assert!(cold
        .errors
        .iter()
        .all(|(_, e)| matches!(e, DseError::NonFinite)));

    // The warm path returns a memo hit without a finiteness check, so a
    // cached NaN would come back as an evaluated point. None does: the
    // warm sweep evaluates every NaN point again and discards it again.
    let warm = explore(build_dot, &space(), &model, &opts(48, 0));
    assert_eq!(warm, cold);
    assert_eq!(injector.injected().1, 2 * nans);
    assert_eq!(cache.len(), cold.counts.evaluated);
}

#[test]
fn panic_faults_and_cache_compose() {
    let est = estimator();
    let clean = explore(build_dot, &space(), est, &opts(48, 0));
    let cfg = FaultConfig {
        seed: 0xFEED,
        panic_rate: 0.15,
        nan_rate: 0.10,
        ..FaultConfig::default()
    };
    let injector = FaultInjector::new(est, cfg);
    let uncached = with_silent_panics(|| explore(build_dot, &space(), &injector, &opts(48, 0)));
    let cache = EstimateCache::new(model_fingerprint(est));
    let model = CachedModel::new(&injector, &cache);
    let cold = with_silent_panics(|| explore(build_dot, &space(), &model, &opts(48, 0)));
    assert!(cold.counts.eval_failed > 0, "no fault fired");
    assert_eq!(by_index(&cold), expected_under(&clean, &injector));
    // A cached faulty sweep is the uncached faulty sweep, cold or warm.
    assert_eq!(cold, uncached);
    let warm = with_silent_panics(|| explore(build_dot, &space(), &model, &opts(48, 0)));
    assert_eq!(warm, uncached);
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
    /// moderate fault rates, a cached sweep (cache wrapping the fault
    /// injector) equals the uncached fault-free sweep at every index the
    /// injector leaves alone and discards exactly the others, and a warm
    /// sweep through the same cache equals it.
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
            ..FaultConfig::default()
        };
        let injector = FaultInjector::new(est, cfg);
        let cache = EstimateCache::new(model_fingerprint(est));
        let model = CachedModel::new(&injector, &cache);
        let cold = with_silent_panics(|| explore(build_dot, &space(), &model, &run_opts));
        prop_assert_eq!(by_index(&cold), expected_under(&clean, &injector));
        let warm = with_silent_panics(|| explore(build_dot, &space(), &model, &run_opts));
        prop_assert_eq!(&warm, &cold);
        // Only the faulted points, which never enter the cache, miss.
        prop_assert_eq!(
            warm.stats.cache.unwrap().misses,
            cold.counts.eval_failed as u64
        );
    }
}
