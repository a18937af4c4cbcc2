//! End-to-end resilience tests for the parallel sweep runner: fault
//! isolation and deadline truncation.
//!
//! A point is evaluated once. An injected fault fires on every
//! evaluation of its design, so a faulty sweep must discard exactly the
//! points the injector plans a fault for, each with its kind, and equal
//! the clean sweep bit for bit everywhere else.

use std::time::Duration;

use dhdl_core::{Design, ParamValues};
use dhdl_dse::{explore, DseError, DseOptions};
use proptest::prelude::*;

#[path = "support/fixture.rs"]
mod fixture;
use fixture::{build_dot, by_index, estimator, space};
#[path = "support/fault.rs"]
mod fault;
use fault::{decide, expected_under, with_silent_panics, FaultConfig, FaultInjector};

fn opts(max_points: usize) -> DseOptions {
    DseOptions {
        max_points,
        ..DseOptions::default()
    }
}

#[test]
fn faulty_sweep_matches_the_clean_one_at_every_unfaulted_index() {
    let est = estimator();
    // 5% injected panics + 5% NaN estimates, plus a sprinkle of latency
    // spikes, on every thread count the runner must agree across.
    let cfg = FaultConfig {
        seed: 0xBAD5EED,
        panic_rate: 0.05,
        nan_rate: 0.05,
        spike_rate: 0.02,
        spike: Duration::from_millis(1),
    };
    for threads in [1usize, 2, 8] {
        let run = DseOptions {
            threads,
            ..opts(48)
        };
        let clean = explore(build_dot, &space(), est, &run);
        assert!(!clean.points.is_empty());
        let injector = FaultInjector::new(est, cfg.clone());
        let faulty = with_silent_panics(|| explore(build_dot, &space(), &injector, &run));

        let (panics, nans, _spikes) = injector.injected();
        assert!(panics > 0, "panic rate 5% injected nothing over 48 points");
        assert!(nans > 0, "nan rate 5% injected nothing over 48 points");
        assert_eq!(
            by_index(&faulty),
            expected_under(&clean, &injector),
            "{threads} threads"
        );
        assert_eq!(faulty.counts.eval_failed, panics + nans);
        assert_eq!(
            faulty.counts.evaluated,
            clean.counts.evaluated - panics - nans
        );
    }
}

#[test]
fn hard_faults_are_recorded_not_silently_dropped() {
    let est = estimator();
    let cfg = FaultConfig {
        seed: 0xDEAD,
        panic_rate: 0.10,
        nan_rate: 0.10,
        ..FaultConfig::default()
    };
    let injector = FaultInjector::new(est, cfg);
    let r = with_silent_panics(|| explore(build_dot, &space(), &injector, &opts(48)));
    assert!(r.counts.eval_failed > 0, "10% rates discarded nothing");
    assert_eq!(r.counts.eval_failed, r.errors.len());
    assert_eq!(r.discarded, r.errors.len());
    assert_eq!(
        r.counts.evaluated + r.counts.discarded() + r.counts.skipped,
        48
    );
    // Each loss is itemized with its kind and reads as such.
    let clean = explore(build_dot, &space(), est, &opts(48));
    assert_eq!(by_index(&r), expected_under(&clean, &injector));
    for (_, e) in &r.errors {
        let text = e.to_string();
        match e {
            DseError::Panic { message } => {
                assert!(message.starts_with("injected estimator fault"), "{message}");
                assert_eq!(text, format!("panicked: {message}"));
            }
            DseError::NonFinite => assert_eq!(text, "non-finite estimate"),
            other => panic!("expected an evaluation fault, got {other}"),
        }
    }
}

#[test]
fn zero_rate_injector_is_transparent() {
    let est = estimator();
    let injector = FaultInjector::new(est, FaultConfig::default());
    let via_injector = explore(build_dot, &space(), &injector, &opts(24));
    let direct = explore(build_dot, &space(), est, &opts(24));
    assert_eq!(injector.injected(), (0, 0, 0));
    assert_eq!(via_injector, direct);
}

#[test]
fn injection_schedule_is_deterministic_for_a_fixed_seed() {
    let est = estimator();
    let cfg = FaultConfig {
        seed: 42,
        panic_rate: 0.2,
        nan_rate: 0.2,
        spike_rate: 0.2,
        ..FaultConfig::default()
    };
    let a = FaultInjector::new(est, cfg.clone());
    let b = FaultInjector::new(est, cfg.clone());
    let designs: Vec<Design> = space()
        .defs()
        .iter()
        .find(|d| d.name == "tile")
        .map(|d| d.kind.legal_values())
        .unwrap()
        .into_iter()
        .map(|tile| {
            let p = ParamValues::new()
                .with("tile", tile)
                .with("par", 4)
                .with("mp", 1);
            build_dot(&p).unwrap()
        })
        .collect();
    let plans_a: Vec<_> = designs.iter().map(|d| a.plan(d)).collect();
    let plans_b: Vec<_> = designs.iter().map(|d| b.plan(d)).collect();
    assert_eq!(plans_a, plans_b);
    assert!(
        plans_a.iter().any(|p| p.panic || p.nan || p.spike),
        "20% rates over {} designs injected nothing",
        designs.len()
    );
    // A different seed reshuffles the schedule.
    let c = FaultInjector::new(
        est,
        FaultConfig {
            seed: 43,
            ..cfg.clone()
        },
    );
    let plans_c: Vec<_> = designs.iter().map(|d| c.plan(d)).collect();
    assert_ne!(plans_a, plans_c);
}

#[test]
fn decide_is_deterministic_and_rate_bounded() {
    let mut hits = 0usize;
    let n = 20_000;
    for h in 0..n as u64 {
        assert_eq!(decide(h, 7, 3, 0.25), decide(h, 7, 3, 0.25));
        if decide(h, 7, 3, 0.25) {
            hits += 1;
        }
        assert!(!decide(h, 7, 3, 0.0));
        assert!(decide(h, 7, 3, 1.0));
    }
    let frac = hits as f64 / n as f64;
    assert!((frac - 0.25).abs() < 0.02, "hit rate {frac}");
}

#[test]
fn different_seeds_give_different_schedules() {
    let hit = |seed: u64| (0..1000u64).filter(|&h| decide(h, seed, 1, 0.3)).count();
    // Not a strict requirement on any single pair, but these seeds
    // must not produce the identical schedule.
    let a: Vec<bool> = (0..1000u64).map(|h| decide(h, 1, 1, 0.3)).collect();
    let b: Vec<bool> = (0..1000u64).map(|h| decide(h, 2, 1, 0.3)).collect();
    assert_ne!(a, b);
    assert!(hit(1) > 0 && hit(2) > 0);
}

#[test]
fn silent_panics_restores_hook_on_unwind() {
    let result = std::panic::catch_unwind(|| {
        with_silent_panics(|| panic!("inner"));
    });
    assert!(result.is_err());
    // If the hook was not restored, this would be silent; we cannot
    // easily observe output here, but the call must still work.
    with_silent_panics(|| 42);
}

#[test]
fn truncated_sweep_is_the_uninterrupted_one_where_it_ran() {
    let est = estimator();
    let reference = explore(build_dot, &space(), est, &opts(40));
    assert!(!reference.truncated);

    // Interrupt: latency spikes + a tight deadline on few threads
    // guarantee the sweep cannot finish its 40 points.
    let spike_cfg = FaultConfig {
        seed: 7,
        spike_rate: 1.0,
        spike: Duration::from_millis(15),
        ..FaultConfig::default()
    };
    let injector = FaultInjector::new(est, spike_cfg);
    let interrupted_opts = DseOptions {
        threads: 2,
        deadline: Some(Duration::from_millis(5)),
        ..opts(40)
    };
    let partial = explore(build_dot, &space(), &injector, &interrupted_opts);
    assert!(partial.truncated, "deadline did not truncate the sweep");
    assert!(partial.counts.skipped > 0);

    // What it did evaluate — points and errors — is the uninterrupted
    // sweep's at the same sample indices, bit for bit ...
    let ran = by_index(&partial);
    assert!(!ran.is_empty(), "the workers claimed nothing");
    assert_eq!(ran.len() + partial.counts.skipped, 40);
    assert_eq!(ran[..], by_index(&reference)[..ran.len()]);

    // ... so re-running without the deadline is the whole recovery.
    let rerun = explore(build_dot, &space(), est, &opts(40));
    assert_eq!(rerun, reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline resilience property: for any fault seed and any
    /// moderate panic/NaN rates, an injected sweep discards exactly the
    /// points the injector plans a fault for and keeps every other point
    /// of the fault-free run, bit for bit — so its Pareto front is the
    /// clean front over the surviving points.
    #[test]
    fn injected_faults_discard_exactly_the_planned_points(
        fault_seed in 0u64..1_000_000,
        panic_rate in 0.0f64..0.3,
        nan_rate in 0.0f64..0.3,
    ) {
        let est = estimator();
        let clean = explore(build_dot, &space(), est, &opts(24));
        let cfg = FaultConfig {
            seed: fault_seed,
            panic_rate,
            nan_rate,
            ..FaultConfig::default()
        };
        let injector = FaultInjector::new(est, cfg);
        let faulty =
            with_silent_panics(|| explore(build_dot, &space(), &injector, &opts(24)));
        prop_assert_eq!(by_index(&faulty), expected_under(&clean, &injector));
        let (panics, nans, _) = injector.injected();
        prop_assert_eq!(faulty.counts.eval_failed, panics + nans);
    }
}
