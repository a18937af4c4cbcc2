//! End-to-end resilience tests for the parallel sweep runner: fault
//! injection, retry recovery and deadline truncation (the acceptance
//! criteria of the resilient-DSE rework).

use std::sync::OnceLock;
use std::time::Duration;

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, ReduceOp};
use dhdl_dse::{
    explore, with_silent_panics, DesignPoint, DseError, DseOptions, DseResult, FaultConfig,
    FaultInjector,
};
use dhdl_estimate::{Estimate, Estimator};
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

fn opts(max_points: usize) -> DseOptions {
    DseOptions {
        max_points,
        ..DseOptions::default()
    }
}

/// A point as its parameters, estimate bit patterns and validity.
type PointBits = (String, [u64; 5], bool);

/// A sweep's outcomes in sample order, a point as bit patterns or the
/// error that discarded it. A deadline stops workers claiming indices,
/// which they claim in order, so a truncated sweep holds a prefix.
fn by_index(r: &DseResult) -> Vec<Result<PointBits, DseError>> {
    let bits = |p: &DesignPoint| {
        let est = Estimate {
            cycles: p.cycles,
            area: p.area,
        };
        (p.params.to_string(), est.to_bits(), p.valid)
    };
    let mut points = r.points.iter();
    let mut errors = r.errors.iter().peekable();
    (0..r.points.len() + r.errors.len())
        .map(|i| match errors.next_if(|(at, _)| *at == i) {
            Some((_, err)) => Err(err.clone()),
            None => Ok(bits(points.next().expect("one point per unerrored index"))),
        })
        .collect()
}

fn fronts(r: &DseResult) -> Vec<(String, u64, u64)> {
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
fn faulty_sweep_recovers_and_matches_fault_free_front() {
    let est = estimator();
    let clean = explore(build_dot, &space(), est, &opts(48));
    assert!(!clean.points.is_empty());

    // 5% injected panics + 5% NaN estimates (the acceptance bar), plus a
    // sprinkle of latency spikes; all transient, so the bounded retry
    // must recover every faulted point.
    let cfg = FaultConfig {
        seed: 0xBAD5EED,
        panic_rate: 0.05,
        nan_rate: 0.05,
        spike_rate: 0.02,
        spike: Duration::from_millis(1),
        transient: true,
    };
    let injector = FaultInjector::new(est, cfg);
    let faulty = with_silent_panics(|| explore(build_dot, &space(), &injector, &opts(48)));

    let (panics, nans, _spikes) = injector.injected();
    assert!(panics > 0, "panic rate 5% injected nothing over 48 points");
    assert!(nans > 0, "nan rate 5% injected nothing over 48 points");

    // Every faulted point is visible in the outcome counters...
    assert_eq!(faulty.counts.recovered, injector.faulted_designs());
    assert_eq!(faulty.counts.eval_failed, 0);
    // ...and the sweep still produced the exact fault-free result.
    assert_eq!(faulty.points, clean.points);
    assert_eq!(fronts(&faulty), fronts(&clean));
}

#[test]
fn hard_faults_are_recorded_not_silently_dropped() {
    let est = estimator();
    let cfg = FaultConfig {
        seed: 0xDEAD,
        panic_rate: 0.10,
        nan_rate: 0.10,
        transient: false, // faults on every attempt: retries must exhaust
        ..FaultConfig::default()
    };
    let injector = FaultInjector::new(est, cfg);
    let r = with_silent_panics(|| explore(build_dot, &space(), &injector, &opts(48)));
    assert!(
        r.counts.eval_failed > 0,
        "hard faults should exhaust retries"
    );
    assert_eq!(r.counts.eval_failed, r.errors.len());
    assert_eq!(
        r.counts.evaluated + r.counts.discarded() + r.counts.skipped,
        48
    );
    let retries_seen = r.errors.iter().all(|(_, e)| match e {
        DseError::Panic { attempts, .. } | DseError::NonFinite { attempts } => *attempts == 3,
        _ => false,
    });
    assert!(
        retries_seen,
        "hard faults must consume the full retry budget"
    );
}

#[test]
fn zero_rate_injector_is_transparent() {
    let est = estimator();
    let injector = FaultInjector::new(est, FaultConfig::default());
    let via_injector = explore(build_dot, &space(), &injector, &opts(24));
    let direct = explore(build_dot, &space(), est, &opts(24));
    assert_eq!(injector.injected(), (0, 0, 0));
    assert_eq!(injector.faulted_designs(), 0);
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
    /// moderate transient panic/NaN rates, an injected sweep produces a
    /// Pareto front identical to the fault-free run's.
    #[test]
    fn injected_panics_preserve_the_pareto_front(
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
            transient: true,
            ..FaultConfig::default()
        };
        let injector = FaultInjector::new(est, cfg);
        let faulty =
            with_silent_panics(|| explore(build_dot, &space(), &injector, &opts(24)));
        prop_assert_eq!(&faulty.points, &clean.points);
        prop_assert_eq!(fronts(&faulty), fronts(&clean));
        prop_assert_eq!(faulty.counts.recovered, injector.faulted_designs());
    }
}
