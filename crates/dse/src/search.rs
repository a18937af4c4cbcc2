//! The design space walker: evaluate sampled legal points with the fast
//! estimators and extract the Pareto-optimal surface (§IV-C, Figure 5).
//!
//! Since the resilient-runner rework, `explore` and `refine` fan their
//! point evaluations out over [`crate::runner`]: panics are isolated per
//! point, transient failures are retried, every loss is accounted in
//! [`OutcomeCounts`], and a deadline truncates gracefully. An interrupted
//! sweep is re-run, not resumed: a sweep is a pure function of its
//! options, so the re-run returns what the interrupted one would have.

use std::time::{Duration, Instant};

use dhdl_core::{Design, ParamSpace, ParamValues};
use dhdl_target::AreaReport;

use crate::pareto::pareto_front;
use crate::runner::{self, CostModel, DseError, OutcomeCounts, PointOutcome, SweepStats};
use crate::space::LegalSpace;

/// How [`explore`] walks the legal space.
///
/// Both strategies spend the same budget ([`DseOptions::max_points`])
/// and share the resilient runner and estimate-cache machinery; they
/// differ only in *which* points get evaluated.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SearchStrategy {
    /// The paper's uniform random sweep (§IV-C): sample `max_points`
    /// legal points and evaluate them all. The default, bit-identical to
    /// the historical `explore` behavior.
    #[default]
    Random,
    /// Active learning: seed with a small random batch, train a
    /// `dhdl-mlp` surrogate on evaluated points, and spend the rest of
    /// the budget on the candidates with the highest predicted
    /// Pareto-hypervolume improvement. See [`SurrogateConfig`] and the
    /// DESIGN.md "Surrogate-guided search" section.
    Surrogate(SurrogateConfig),
}

impl SearchStrategy {
    /// Parse a strategy name as accepted by the `DHDL_DSE_STRATEGY`
    /// knob: `random` or `surrogate` (default tuning).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "random" => Ok(SearchStrategy::Random),
            "surrogate" => Ok(SearchStrategy::Surrogate(SurrogateConfig::default())),
            other => Err(format!(
                "unknown DSE strategy `{other}` (expected `random` or `surrogate`)"
            )),
        }
    }

    /// Read the strategy from the `DHDL_DSE_STRATEGY` environment
    /// variable; an unset variable means [`SearchStrategy::Random`] and
    /// an unparseable value warns to stderr and falls back to random, so
    /// a typo can never silently change *and* crash a sweep.
    pub fn from_env() -> Self {
        match std::env::var("DHDL_DSE_STRATEGY") {
            Ok(v) => SearchStrategy::parse(&v).unwrap_or_else(|e| {
                eprintln!("warning: DHDL_DSE_STRATEGY ignored: {e}");
                SearchStrategy::Random
            }),
            Err(_) => SearchStrategy::Random,
        }
    }

    /// Short human/machine-readable name (`random` / `surrogate`).
    pub fn name(&self) -> &'static str {
        match self {
            SearchStrategy::Random => "random",
            SearchStrategy::Surrogate(_) => "surrogate",
        }
    }
}

/// Tuning for [`SearchStrategy::Surrogate`]. The defaults hold the
/// dsebench acceptance bar (≥90% of the random front's hypervolume at
/// 10% of its budget on the fig5 benchmarks); see EXPERIMENTS.md.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateConfig {
    /// Size of the initial uniform-random seed batch the first
    /// surrogates are trained on.
    pub init: usize,
    /// Points acquired (dispatched to the runner) per round after the
    /// seed batch.
    pub batch: usize,
    /// Candidate-pool size as a multiple of the budget: the surrogate
    /// scores `max_points × pool_factor` uniformly sampled legal points
    /// and only ever evaluates points from that pool. With the default
    /// factor of 10, a surrogate run at 10% of a random sweep's budget
    /// scores exactly the pool that sweep would have evaluated.
    pub pool_factor: usize,
    /// Fraction of each acquisition batch drawn uniformly at random from
    /// the unevaluated pool instead of by predicted improvement —
    /// ε-greedy exploration so a mistrained surrogate cannot starve
    /// whole regions of the space.
    pub explore: f64,
    /// Hidden-layer width of the surrogate networks (the paper's area
    /// networks use six hidden nodes, §IV-B2).
    pub hidden: usize,
    /// RPROP epochs per (re)training round.
    pub epochs: usize,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            init: 32,
            batch: 16,
            pool_factor: 10,
            explore: 0.25,
            hidden: 6,
            epochs: 250,
        }
    }
}

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
    /// Which points the sweep spends its budget on; see
    /// [`SearchStrategy`].
    pub strategy: SearchStrategy,
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
            strategy: SearchStrategy::Random,
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

    /// Assemble a result from per-sample outcomes in sample order.
    fn from_outcomes(
        outcomes: Vec<PointOutcome>,
        space_size: u128,
        truncated: bool,
        stats: SweepStats,
    ) -> Self {
        let counts = OutcomeCounts::tally(&outcomes);
        let mut points = Vec::with_capacity(counts.evaluated);
        let mut errors = Vec::new();
        for (i, outcome) in outcomes.into_iter().enumerate() {
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
            truncated,
            stats,
        }
    }
}

pub(crate) fn point_tuples(points: &[DesignPoint]) -> Vec<(f64, f64, bool)> {
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
/// gray points of Figure 5). Evaluation runs on a work-stealing thread
/// pool with per-point panic isolation; see [`DseOptions`] for the
/// thread, retry and deadline knobs. Results are deterministic in
/// `opts.seed` for every thread count.
///
/// The budget is spent per [`DseOptions::strategy`]: the default
/// [`SearchStrategy::Random`] evaluates a uniform sample of
/// `max_points` legal points, while [`SearchStrategy::Surrogate`]
/// routes the same budget through the active-learning loop in the
/// `surrogate` module. Both are deterministic per seed.
pub fn explore<F, E>(build: F, space: &ParamSpace, estimator: &E, opts: &DseOptions) -> DseResult
where
    F: Fn(&ParamValues) -> dhdl_core::Result<Design> + Sync,
    E: CostModel + ?Sized,
{
    match &opts.strategy {
        SearchStrategy::Random => explore_random(build, space, estimator, opts),
        SearchStrategy::Surrogate(cfg) => {
            crate::surrogate::explore_surrogate(&build, space, estimator, opts, cfg)
        }
    }
}

/// The uniform random sweep (the historical `explore` body, unchanged).
fn explore_random<F, E>(build: F, space: &ParamSpace, estimator: &E, opts: &DseOptions) -> DseResult
where
    F: Fn(&ParamValues) -> dhdl_core::Result<Design> + Sync,
    E: CostModel + ?Sized,
{
    let legal = LegalSpace::new(space);
    let samples = legal.sample(opts.max_points, opts.seed);
    let deadline = opts.deadline.map(|d| Instant::now() + d);
    let batch: Vec<&ParamValues> = samples.iter().collect();
    let (outcomes, stats) = runner::evaluate(&build, estimator, &batch, opts, deadline);
    let truncated = outcomes.iter().any(|o| matches!(o, PointOutcome::Skipped));
    DseResult::from_outcomes(outcomes, legal.size(), truncated, stats)
}

/// Refine a DSE result with local search: for every Pareto point, evaluate
/// all single-parameter neighbors (adjacent legal values), keep anything
/// new, and repeat for `rounds` rounds or until no Pareto improvement —
/// the "walk the space of designs" step layered on random sampling. Each
/// round's candidate batch is evaluated on the same resilient parallel
/// runner as [`explore`].
pub fn refine<F, E>(
    build: F,
    space: &ParamSpace,
    estimator: &E,
    opts: &DseOptions,
    result: &DseResult,
    rounds: usize,
) -> DseResult
where
    F: Fn(&ParamValues) -> dhdl_core::Result<Design> + Sync,
    E: CostModel + ?Sized,
{
    let mut points = result.points.clone();
    let mut seen: std::collections::BTreeSet<String> =
        points.iter().map(|p| p.params.to_string()).collect();
    let mut pareto = result.pareto.clone();
    let mut counts = result.counts;
    let mut errors = result.errors.clone();
    let mut stats = result.stats;
    for _ in 0..rounds {
        let frontier: Vec<ParamValues> = pareto.iter().map(|&i| points[i].params.clone()).collect();
        let mut candidates = Vec::new();
        for params in frontier {
            for def in space.defs() {
                let legal = def.kind.legal_values();
                let Some(cur) = params.get(&def.name) else {
                    continue;
                };
                let Some(pos) = legal.iter().position(|&v| v == cur) else {
                    continue;
                };
                for neighbor in [pos.checked_sub(1), pos.checked_add(1)] {
                    let Some(np) = neighbor.and_then(|i| legal.get(i)) else {
                        continue;
                    };
                    let mut candidate = params.clone();
                    candidate.set(&def.name, *np);
                    if seen.insert(candidate.to_string()) {
                        candidates.push(candidate);
                    }
                }
            }
        }
        let any_new = !candidates.is_empty();
        let batch: Vec<&ParamValues> = candidates.iter().collect();
        let (outcomes, round_stats) = runner::evaluate(&build, estimator, &batch, opts, None);
        stats.absorb(round_stats);
        let round_counts = OutcomeCounts::tally(&outcomes);
        counts = merge_counts(counts, round_counts);
        for outcome in outcomes {
            match outcome {
                PointOutcome::Evaluated { point, .. } => points.push(point),
                // Refinement candidates have no stable sample index;
                // record them past the end of the sampled range.
                PointOutcome::Discarded(err) => errors.push((usize::MAX, err)),
                PointOutcome::Skipped => {}
            }
        }
        let new_pareto = pareto_front(&point_tuples(&points));
        let improved = new_pareto != pareto;
        pareto = new_pareto;
        if !any_new || !improved {
            break;
        }
    }
    DseResult {
        points,
        pareto,
        space_size: result.space_size,
        discarded: counts.discarded(),
        counts,
        errors,
        truncated: result.truncated,
        stats,
    }
}

fn merge_counts(a: OutcomeCounts, b: OutcomeCounts) -> OutcomeCounts {
    OutcomeCounts {
        evaluated: a.evaluated + b.evaluated,
        build_failed: a.build_failed + b.build_failed,
        mem_cap: a.mem_cap + b.mem_cap,
        eval_failed: a.eval_failed + b.eval_failed,
        recovered: a.recovered + b.recovered,
        skipped: a.skipped + b.skipped,
    }
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
    fn strategy_parsing_accepts_the_knob_vocabulary() {
        assert_eq!(SearchStrategy::parse("random"), Ok(SearchStrategy::Random));
        assert_eq!(SearchStrategy::parse(""), Ok(SearchStrategy::Random));
        assert_eq!(
            SearchStrategy::parse(" Surrogate "),
            Ok(SearchStrategy::Surrogate(SurrogateConfig::default()))
        );
        let err = SearchStrategy::parse("genetic").unwrap_err();
        assert!(
            err.contains("genetic") && err.contains("surrogate"),
            "{err}"
        );
        assert_eq!(SearchStrategy::parse("random").unwrap().name(), "random");
        assert_eq!(
            SearchStrategy::parse("surrogate").unwrap().name(),
            "surrogate"
        );
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
    fn refinement_never_worsens_the_front() {
        let est = estimator();
        let opts = DseOptions {
            max_points: 30,
            ..DseOptions::default()
        };
        let base = explore(build_dot, &space(), &est, &opts);
        let refined = refine(build_dot, &space(), &est, &opts, &base, 3);
        assert!(refined.points.len() >= base.points.len());
        let best_before = base.best().unwrap().cycles;
        let best_after = refined.best().unwrap().cycles;
        assert!(best_after <= best_before, "{best_after} vs {best_before}");
        // No duplicates introduced.
        let mut names: Vec<String> = refined
            .points
            .iter()
            .map(|p| p.params.to_string())
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
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
