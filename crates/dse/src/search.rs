//! The design space walker: evaluate sampled legal points with the fast
//! estimators and extract the Pareto-optimal surface (§IV-C, Figure 5).
//!
//! Since the resilient-runner rework, `explore` fans its point
//! evaluations out over [`crate::runner`]: panics are isolated per
//! point, transient failures are retried, every loss is accounted in
//! [`OutcomeCounts`], and a deadline truncates gracefully. An interrupted
//! sweep is re-run, not resumed: a sweep is a pure function of its
//! options, so the re-run returns what the interrupted one would have.

use std::time::{Duration, Instant};

use dhdl_core::{Design, ParamSpace, ParamValues};
use dhdl_target::AreaReport;

use crate::cache::CacheStats;
use crate::pareto::pareto_front;
use crate::runner::{self, CostModel, DseError, OutcomeCounts, PointOutcome, SweepStats};
use crate::space::LegalSpace;

/// Options controlling a design-space exploration run.
#[derive(Debug, Clone, PartialEq)]
pub struct DseOptions {
    /// Maximum number of legal points to evaluate (the paper samples up to
    /// 75 000).
    pub max_points: usize,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Maximum size of any single on-chip memory in bits ("the total size
    /// of each local memory is limited to a fixed maximum value").
    pub mem_cap_bits: u64,
    /// Worker threads for the parallel sweep (`0` = all available cores).
    /// Results are identical for every thread count.
    pub threads: usize,
    /// Extra evaluation attempts after a panic or non-finite estimate
    /// before the point is recorded as failed.
    pub retries: u32,
    /// Wall-clock budget for the sweep. When it expires, the sweep stops
    /// claiming points and returns a partial result flagged
    /// [`DseResult::truncated`] whose evaluated points are the
    /// uninterrupted sweep's at the same sample indices.
    pub deadline: Option<Duration>,
    /// Salt for the parameter-keyed fast path of the estimate cache
    /// (see [`crate::params_key`]). It must identify the
    /// metaprogram and dataset whose `build` maps parameter assignments
    /// to designs: benchmarks sharing one cache with identical salts
    /// would alias assignments like `{par=4, tile=64}` onto each other.
    /// `None` (the default) disables the fast path; the structural-hash
    /// cache still applies when the cost model carries one.
    pub cache_salt: Option<u64>,
}

impl Default for DseOptions {
    fn default() -> Self {
        DseOptions {
            max_points: 75_000,
            seed: 0xD5E,
            mem_cap_bits: 8 * 1024 * 1024, // 8 Mbit per logical buffer
            threads: 0,
            retries: 2,
            deadline: None,
            cache_salt: None,
        }
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The parameter assignment.
    pub params: ParamValues,
    /// Estimated execution cycles.
    pub cycles: f64,
    /// Estimated area.
    pub area: AreaReport,
    /// Whether the design fits on the target device.
    pub valid: bool,
}

/// The outcome of a design-space exploration.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Evaluated points (legal points only; designs violating the memory
    /// cap or failing to build are discarded before estimation).
    pub points: Vec<DesignPoint>,
    /// Indices into `points` of the Pareto frontier (cycles vs. ALMs).
    pub pareto: Vec<usize>,
    /// Total size of the legal space before sampling.
    pub space_size: u128,
    /// Number of sampled points discarded before estimation (the sum of
    /// the per-category [`DseResult::counts`]).
    pub discarded: usize,
    /// Per-category outcome accounting: build failures, memory-cap
    /// violations, evaluation failures, retry recoveries and
    /// deadline-skipped points.
    pub counts: OutcomeCounts,
    /// Sample indices that were discarded, with the structured reason —
    /// nothing is lost silently.
    pub errors: Vec<(usize, DseError)>,
    /// `true` when the deadline expired before every sampled point was
    /// evaluated; the result is valid but partial, and re-running without
    /// the deadline returns the complete one.
    pub truncated: bool,
    /// Sweep performance accounting: wall-clock time, throughput and
    /// estimate-cache hit/miss counters. Not part of equality — two
    /// sweeps producing identical points compare equal however fast
    /// they ran and wherever their estimates came from.
    pub stats: SweepStats,
}

/// Equality over everything *except* [`DseResult::stats`]: tests assert
/// bit-identical results across thread counts and cache states, and
/// timing/hit-rate accounting legitimately differs between such runs.
impl PartialEq for DseResult {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
            && self.pareto == other.pareto
            && self.space_size == other.space_size
            && self.discarded == other.discarded
            && self.counts == other.counts
            && self.errors == other.errors
            && self.truncated == other.truncated
    }
}

impl DseResult {
    /// The fastest *valid* design point, if any — selected by scanning
    /// all valid points (minimum cycles, ties broken by smaller area),
    /// not by trusting any particular frontier ordering.
    pub fn best(&self) -> Option<&DesignPoint> {
        self.points.iter().filter(|p| p.valid).min_by(|a, b| {
            a.cycles
                .total_cmp(&b.cycles)
                .then(a.area.alms.total_cmp(&b.area.alms))
        })
    }

    /// Pareto points, fastest first.
    pub fn pareto_points(&self) -> impl Iterator<Item = &DesignPoint> {
        self.pareto.iter().map(|&i| &self.points[i])
    }

    /// Assemble a result from per-sample outcomes in sample order; the
    /// caller fills in [`SweepStats::elapsed_secs`].
    fn from_outcomes(
        outcomes: impl ExactSizeIterator<Item = PointOutcome>,
        space_size: u128,
        cache: Option<CacheStats>,
    ) -> Self {
        let mut counts = OutcomeCounts::default();
        let mut points = Vec::with_capacity(outcomes.len());
        let mut errors = Vec::new();
        for (i, outcome) in outcomes.enumerate() {
            counts.record(&outcome);
            match outcome {
                PointOutcome::Evaluated { point, .. } => points.push(point),
                PointOutcome::Discarded(err) => errors.push((i, err)),
                PointOutcome::Skipped => {}
            }
        }
        let pareto = pareto_front(&point_tuples(&points));
        DseResult {
            points,
            pareto,
            space_size,
            discarded: counts.discarded(),
            counts,
            errors,
            truncated: counts.skipped > 0,
            stats: SweepStats {
                elapsed_secs: 0.0,
                evaluated: counts.evaluated,
                cache,
            },
        }
    }
}

fn point_tuples(points: &[DesignPoint]) -> Vec<(f64, f64, bool)> {
    points
        .iter()
        .map(|p| (p.cycles, p.area.alms, p.valid))
        .collect()
}

/// Explore a benchmark's design space.
///
/// `build` instantiates the benchmark metaprogram for a parameter
/// assignment; points whose designs fail to build or exceed the local
/// memory cap are discarded immediately (§IV-C), and points whose
/// estimated area exceeds the device are kept but flagged invalid (the
/// gray points of Figure 5). The budget is the paper's uniform random
/// sweep: a seeded sample of `max_points` legal points, all of them
/// evaluated. Evaluation runs on a work-stealing thread pool with
/// per-point panic isolation; see [`DseOptions`] for the thread, retry
/// and deadline knobs. Results are deterministic in `opts.seed` for
/// every thread count.
pub fn explore<F, E>(build: F, space: &ParamSpace, estimator: &E, opts: &DseOptions) -> DseResult
where
    F: Fn(&ParamValues) -> dhdl_core::Result<Design> + Sync,
    E: CostModel + ?Sized,
{
    let start = Instant::now();
    let legal = LegalSpace::new(space);
    let indices = {
        let _span = dhdl_obs::span!("dse.sample");
        legal.sample_indices(opts.max_points, opts.seed)
    };
    let deadline = opts.deadline.map(|d| Instant::now() + d);
    let outcomes = runner::evaluate(
        &build,
        estimator,
        indices.len(),
        |i| legal.point(indices[i]),
        opts,
        deadline,
    );
    let mut result = {
        let _span = dhdl_obs::span!("dse.assemble");
        let cache = outcomes.cache;
        DseResult::from_outcomes(outcomes.into_ordered(), legal.size(), cache)
    };
    result.stats.elapsed_secs = start.elapsed().as_secs_f64();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_core::{by, DType, DesignBuilder, ReduceOp};
    use dhdl_estimate::Estimator;
    use dhdl_target::Platform;

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

    fn estimator() -> Estimator {
        Estimator::calibrate_with(&Platform::maia(), 30, 11).0
    }

    #[test]
    fn exploration_finds_pareto_points() {
        let est = estimator();
        let opts = DseOptions {
            max_points: 60,
            ..DseOptions::default()
        };
        let r = explore(build_dot, &space(), &est, &opts);
        assert!(!r.points.is_empty());
        assert!(!r.pareto.is_empty());
        assert!(!r.truncated);
        let best = r.best().unwrap();
        assert!(best.valid);
        // Pareto points are sorted fastest-first and areas decrease.
        let pp: Vec<_> = r.pareto_points().collect();
        for w in pp.windows(2) {
            assert!(w[0].cycles <= w[1].cycles);
            assert!(w[0].area.alms >= w[1].area.alms);
        }
    }

    #[test]
    fn parallel_sweep_is_deterministic_across_thread_counts() {
        let est = estimator();
        let base = DseOptions {
            max_points: 48,
            ..DseOptions::default()
        };
        let runs: Vec<DseResult> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                let opts = DseOptions {
                    threads,
                    ..base.clone()
                };
                explore(build_dot, &space(), &est, &opts)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        assert!(!runs[0].points.is_empty());
    }

    #[test]
    fn mem_cap_discards_points() {
        let est = estimator();
        let opts = DseOptions {
            max_points: 500,
            mem_cap_bits: 16 * 32, // absurdly small: only tile<=16 passes
            ..DseOptions::default()
        };
        let r = explore(build_dot, &space(), &est, &opts);
        assert!(r.discarded > 0);
        // The loss is itemized, not silent: every discard is a mem-cap
        // record carrying the offending size.
        assert_eq!(r.counts.mem_cap, r.discarded);
        assert_eq!(r.counts.build_failed, 0);
        assert_eq!(r.counts.eval_failed, 0);
        assert_eq!(r.errors.len(), r.discarded);
        for (_, err) in &r.errors {
            match err {
                DseError::MemCap { bits, cap_bits } => assert!(bits > cap_bits),
                other => panic!("expected MemCap, got {other}"),
            }
        }
        for p in &r.points {
            assert!(p.params.dim("tile").unwrap() <= 16);
        }
    }

    #[test]
    fn best_scans_valid_points_not_frontier_order() {
        // A result whose `pareto` list is deliberately mis-ordered (as an
        // external producer might build it): best() must still return
        // the fastest valid point.
        let mk = |cycles: f64, alms: f64, valid: bool| DesignPoint {
            params: ParamValues::new().with("tile", cycles as u64),
            cycles,
            area: AreaReport {
                alms,
                regs: 0.0,
                dsps: 0.0,
                brams: 0.0,
            },
            valid,
        };
        let points = vec![
            mk(50.0, 10.0, true),
            mk(10.0, 90.0, true),
            mk(5.0, 999.0, false), // fastest but invalid
            mk(30.0, 40.0, true),
        ];
        let result = DseResult {
            pareto: vec![0, 3, 1], // slowest-first: pareto[0] is NOT fastest
            points,
            space_size: 4,
            discarded: 0,
            counts: OutcomeCounts::default(),
            errors: Vec::new(),
            truncated: false,
            stats: SweepStats::default(),
        };
        let best = result.best().unwrap();
        assert!(best.valid);
        assert_eq!(best.cycles, 10.0);
    }

    #[test]
    fn space_size_reported() {
        let est = estimator();
        let opts = DseOptions {
            max_points: 10,
            ..DseOptions::default()
        };
        let r = explore(build_dot, &space(), &est, &opts);
        assert_eq!(r.space_size, LegalSpace::new(&space()).size());
        assert!(r.points.len() <= 10);
    }

    #[test]
    fn zero_deadline_truncates_gracefully() {
        let est = estimator();
        let opts = DseOptions {
            max_points: 40,
            deadline: Some(Duration::ZERO),
            ..DseOptions::default()
        };
        let r = explore(build_dot, &space(), &est, &opts);
        assert!(r.truncated);
        assert_eq!(r.counts.skipped + r.counts.evaluated + r.discarded, 40);
        assert!(r.counts.skipped > 0);
        // A truncated result is still structurally valid.
        assert!(r.pareto.len() <= r.points.len());
    }
}
