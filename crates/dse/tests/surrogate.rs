//! End-to-end determinism and resilience tests for the surrogate-guided
//! search strategy: bit-identical results across thread counts, a
//! deadline-truncated search that is the uninterrupted one as far as it
//! ran, and graceful termination under injected faults (the acceptance
//! criteria of the surrogate-DSE work).

use std::sync::OnceLock;
use std::time::Duration;

use dhdl_core::{by, DType, Design, DesignBuilder, ParamSpace, ParamValues, ReduceOp};
use dhdl_dse::{
    explore, with_silent_panics, DesignPoint, DseOptions, DseResult, FaultConfig, FaultInjector,
    SearchStrategy, SurrogateConfig,
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

/// Small batches so even a modest budget spans several acquisition
/// rounds (seed batch + retrain + acquire, repeatedly).
fn tuning() -> SurrogateConfig {
    SurrogateConfig {
        init: 8,
        batch: 4,
        epochs: 60,
        ..SurrogateConfig::default()
    }
}

fn opts(max_points: usize) -> DseOptions {
    DseOptions {
        max_points,
        strategy: SearchStrategy::Surrogate(tuning()),
        ..DseOptions::default()
    }
}

/// Whether everything `partial` evaluated is `whole`'s: its points, bit
/// for bit, are a subsequence of `whole`'s (both are in pool order), and
/// its errors, keyed by pool index, are among `whole`'s.
fn ran_as_in(partial: &DseResult, whole: &DseResult) -> bool {
    let bits = |p: &DesignPoint| {
        let est = Estimate {
            cycles: p.cycles,
            area: p.area,
        };
        (p.params.to_string(), est.to_bits(), p.valid)
    };
    let mut rest = whole.points.iter().map(bits);
    partial.points.iter().all(|p| rest.any(|w| w == bits(p)))
        && partial.errors.iter().all(|e| whole.errors.contains(e))
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
fn surrogate_run_spends_its_budget_and_finds_a_front() {
    let est = estimator();
    let r = explore(build_dot, &space(), est, &opts(24));
    assert!(!r.truncated);
    assert_eq!(r.counts.evaluated + r.counts.discarded(), 24);
    assert!(!r.pareto.is_empty());
    // Frontier invariants hold: sorted fastest-first, areas decreasing.
    let pp: Vec<_> = r.pareto_points().collect();
    for w in pp.windows(2) {
        assert!(w[0].cycles <= w[1].cycles);
        assert!(w[0].area.alms >= w[1].area.alms);
    }
    // No point evaluated twice.
    let mut names: Vec<String> = r.points.iter().map(|p| p.params.to_string()).collect();
    let n = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), n);
}

#[test]
fn surrogate_is_bit_identical_across_thread_counts() {
    let est = estimator();
    let runs: Vec<DseResult> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let o = DseOptions {
                threads,
                ..opts(24)
            };
            explore(build_dot, &space(), est, &o)
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
    assert!(!runs[0].points.is_empty());
}

#[test]
fn truncated_surrogate_is_the_uninterrupted_one_in_its_rounds() {
    let est = estimator();
    let reference = explore(build_dot, &space(), est, &opts(40));
    assert!(!reference.truncated);

    // Interrupt: 15 ms latency spikes on two threads make the seed round
    // (8 points) take about 60 ms and the whole budget (40 points) over
    // 300 ms, so a 150 ms deadline cuts the acquisition loop off after
    // at least one completed round.
    let spike_cfg = FaultConfig {
        seed: 7,
        spike_rate: 1.0,
        spike: Duration::from_millis(15),
        ..FaultConfig::default()
    };
    let injector = FaultInjector::new(est, spike_cfg);
    let interrupted_opts = DseOptions {
        threads: 2,
        deadline: Some(Duration::from_millis(150)),
        ..opts(40)
    };
    let partial = explore(build_dot, &space(), &injector, &interrupted_opts);
    assert!(partial.truncated, "deadline did not truncate the search");
    assert!(partial.points.len() >= tuning().init, "no round completed");

    // Every round it ran selected, and evaluated, what the uninterrupted
    // search's round did, bit for bit ...
    assert!(ran_as_in(&partial, &reference));

    // ... so re-running without the deadline is the whole recovery.
    let rerun = explore(build_dot, &space(), est, &opts(40));
    assert_eq!(rerun, reference);
}

#[test]
fn transient_faults_cannot_change_the_surrogate_result() {
    let est = estimator();
    let clean = explore(build_dot, &space(), est, &opts(24));
    // The acceptance bar: 5% panics + 5% NaN estimates. Transient, so
    // the runner's retry budget recovers every point and the adaptive
    // loop sees bit-identical training data.
    let cfg = FaultConfig {
        seed: 0xBAD5EED,
        panic_rate: 0.05,
        nan_rate: 0.05,
        transient: true,
        ..FaultConfig::default()
    };
    let injector = FaultInjector::new(est, cfg);
    let faulty = with_silent_panics(|| explore(build_dot, &space(), &injector, &opts(24)));
    assert_eq!(faulty.points, clean.points);
    assert_eq!(fronts(&faulty), fronts(&clean));
    assert_eq!(faulty.counts.eval_failed, 0);
}

#[test]
fn hard_faults_terminate_with_a_valid_front() {
    let est = estimator();
    // Faults on *every* attempt: some points are lost for good. The
    // loop must still terminate within budget, account for the losses,
    // and extract a structurally valid front from what survived.
    let cfg = FaultConfig {
        seed: 0xDEAD,
        panic_rate: 0.05,
        nan_rate: 0.05,
        transient: false,
        ..FaultConfig::default()
    };
    let injector = FaultInjector::new(est, cfg);
    let r = with_silent_panics(|| explore(build_dot, &space(), &injector, &opts(24)));
    assert!(!r.truncated);
    assert_eq!(r.counts.evaluated + r.counts.discarded(), 24);
    assert_eq!(r.counts.eval_failed, r.errors.len());
    assert!(!r.points.is_empty());
    assert!(!r.pareto.is_empty());
    for w in r.pareto_points().collect::<Vec<_>>().windows(2) {
        assert!(w[0].cycles <= w[1].cycles);
        assert!(w[0].area.alms >= w[1].area.alms);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline determinism property: for any seed, the surrogate
    /// strategy produces bit-identical results on 1, 2 and 8 threads,
    /// and an interrupted run is the uninterrupted one as far as it ran.
    #[test]
    fn surrogate_is_deterministic_for_any_seed(seed in 0u64..1_000_000) {
        let est = estimator();
        let base = DseOptions { seed, ..opts(16) };
        let single = explore(build_dot, &space(), est, &base);
        for threads in [2usize, 8] {
            let o = DseOptions { threads, ..base.clone() };
            prop_assert_eq!(&explore(build_dot, &space(), est, &o), &single);
        }
        // Interrupt partway: a 2 ms deadline stops the search wherever
        // the machine's speed puts it.
        let interrupted = DseOptions {
            deadline: Some(Duration::from_millis(2)),
            ..base.clone()
        };
        let partial = explore(build_dot, &space(), est, &interrupted);
        prop_assert!(ran_as_in(&partial, &single));
    }
}
