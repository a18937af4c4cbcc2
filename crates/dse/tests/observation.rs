//! Observation never perturbs a sweep: results with recording off, on,
//! and on through the estimate cache are byte-identical.
//!
//! `dhdl_obs::init` switches recording for the whole process, so this is
//! the one test in its file: it runs alone in its own test binary and no
//! other sweep can see the recorder flip under it.

use dhdl_dse::{explore, model_fingerprint, CachedModel, DseOptions, EstimateCache};

#[path = "support/fixture.rs"]
mod fixture;
use fixture::{build_dot, estimator, front_bits, space};

fn opts(max_points: usize, threads: usize) -> DseOptions {
    DseOptions {
        max_points,
        threads,
        cache_salt: Some(0xD07),
        ..DseOptions::default()
    }
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
