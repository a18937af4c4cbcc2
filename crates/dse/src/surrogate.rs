//! Surrogate-guided design-space exploration (active learning).
//!
//! The paper's sweep evaluates up to 75 000 uniformly sampled points
//! (§IV-C); that is exhaustive but spends most of its budget on designs
//! that end up nowhere near the Pareto front. This module spends the same
//! budget adaptively: a small uniform seed batch trains a pair of
//! `dhdl-mlp` regressors (params → ln cycles, params → ln ALMs), every
//! unevaluated candidate in a fixed pool is scored by the *predicted
//! Pareto-hypervolume improvement* ([`crate::hypervolume`]) its estimate
//! would add to the current front, and the top-scoring batch — plus an
//! ε-greedy random tail so a mistrained surrogate cannot starve regions
//! of the space — is dispatched onto the same resilient runner as the
//! random sweep. Retraining after each batch closes the loop.
//!
//! The loop is a pure function of `(seed, evaluated outcomes)`.
//! Candidate pool order comes from [`LegalSpace::sample`] (seeded),
//! batch evaluation is positional (thread-count independent), training
//! is full-batch RPROP (deterministic), and the only randomness — the
//! ε-greedy tail — comes from a seeded SplitMix64 [`SurrogateRng`]. So
//! every round a deadline lets finish is the uninterrupted run's round,
//! and an interrupted search is re-run, not resumed: a resume would
//! replay every round's training anyway, which is nearly all of the cost.

use std::collections::BTreeMap;
use std::time::Instant;

use dhdl_core::{Design, ParamSpace, ParamValues};
use dhdl_mlp::{Regressor, TrainConfig};

use crate::hypervolume::{improvement, reference_point, staircase};
use crate::pareto::pareto_front;
use crate::runner::{self, CostModel, OutcomeCounts, PointOutcome, SweepStats};
use crate::search::{point_tuples, DseOptions, DseResult, SurrogateConfig};
use crate::space::LegalSpace;

/// A minimal deterministic RNG for the acquisition loop's ε-greedy
/// draws: SplitMix64, whose entire state is one `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SurrogateRng {
    state: u64,
}

impl SurrogateRng {
    fn new(seed: u64) -> Self {
        SurrogateRng {
            state: seed ^ 0x6A09_E667_F3BC_C909, // sqrt(2) bits, decorrelate from raw seed
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`. The modulo bias is ≤ n/2⁶⁴ — irrelevant
    /// for pool-sized `n`, and determinism matters more than perfection
    /// here.
    fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// The active-learning counterpart of `explore_random`, dispatched from
/// [`crate::explore`] when [`DseOptions::strategy`] is
/// [`crate::SearchStrategy::Surrogate`].
pub(crate) fn explore_surrogate<F, E>(
    build: &F,
    space: &ParamSpace,
    estimator: &E,
    opts: &DseOptions,
    cfg: &SurrogateConfig,
) -> DseResult
where
    F: Fn(&ParamValues) -> dhdl_core::Result<Design> + Sync,
    E: CostModel + ?Sized,
{
    let budget = opts.max_points;
    let _span = dhdl_obs::span_arg("dse.surrogate.explore", "budget", budget as u64);
    let legal = LegalSpace::new(space);
    // The fixed candidate pool. Indices into it order the result, so its
    // order must depend only on (space, seed, budget, tuning) —
    // `LegalSpace::sample` is seeded and single-threaded.
    let pool = legal.sample(budget.saturating_mul(cfg.pool_factor.max(1)), opts.seed);
    let param_names: Vec<String> = space.defs().iter().map(|d| d.name.clone()).collect();
    let deadline = opts.deadline.map(|d| Instant::now() + d);

    let mut rng = SurrogateRng::new(opts.seed);
    // Pool indices not yet successfully evaluated or discarded, in pool
    // order (which is already a uniform shuffle of the space).
    let mut remaining: Vec<usize> = (0..pool.len()).collect();
    let mut evaluated: BTreeMap<usize, PointOutcome> = BTreeMap::new();
    let mut stats = SweepStats::default();
    let mut truncated = false;
    let mut attempted = 0usize;
    let mut round: u64 = 0;

    while attempted < budget && !remaining.is_empty() {
        let want = if round == 0 { cfg.init } else { cfg.batch }
            .max(1)
            .min(budget - attempted)
            .min(remaining.len());
        let batch: Vec<usize> = if round == 0 {
            // Seed round: the first pool entries are already a uniform
            // random draw from the legal space.
            remaining[..want].to_vec()
        } else {
            acquire_batch(
                &pool,
                &param_names,
                &evaluated,
                &remaining,
                want,
                cfg,
                &mut rng,
            )
        };
        dhdl_obs::histogram!("dse.surrogate.batch_size").record(batch.len() as u64);
        let items: Vec<&ParamValues> = batch.iter().map(|&i| &pool[i]).collect();
        let (outcomes, round_stats) = runner::evaluate(build, estimator, &items, opts, deadline);
        stats.absorb(round_stats);
        let mut skipped = false;
        for (pos, outcome) in outcomes.into_iter().enumerate() {
            if matches!(outcome, PointOutcome::Skipped) {
                // Left unclaimed by the deadline: the search stops here.
                skipped = true;
            } else {
                evaluated.insert(batch[pos], outcome);
                attempted += 1;
            }
        }
        remaining.retain(|i| !evaluated.contains_key(i));
        if skipped {
            truncated = true;
            break;
        }
        round += 1;
    }
    dhdl_obs::histogram!("dse.surrogate.rounds").record(round);
    assemble(evaluated, budget, attempted, legal.size(), truncated, stats)
}

/// Select the next acquisition batch: train fresh surrogates on
/// everything evaluated so far, score every remaining candidate by
/// predicted hypervolume improvement, and take the best `want` — with an
/// ε-greedy random tail ([`SurrogateConfig::explore`]) drawn from the
/// rest. Falls back to pool order (uniform random) whenever there is
/// nothing to train on or no finite objective landscape to improve.
fn acquire_batch(
    pool: &[ParamValues],
    param_names: &[String],
    evaluated: &BTreeMap<usize, PointOutcome>,
    remaining: &[usize],
    want: usize,
    cfg: &SurrogateConfig,
    rng: &mut SurrogateRng,
) -> Vec<usize> {
    let points: Vec<&crate::DesignPoint> = evaluated
        .values()
        .filter_map(|o| match o {
            PointOutcome::Evaluated { point, .. } => Some(point),
            _ => None,
        })
        .collect();
    let scored = {
        let _span = dhdl_obs::span_arg(
            "dse.surrogate.acquire",
            "candidates",
            remaining.len() as u64,
        );
        dhdl_obs::counter!("dse.surrogate.acquire").incr();
        score_candidates(pool, param_names, &points, remaining, cfg)
    };
    let Some(mut scored) = scored else {
        return remaining[..want].to_vec();
    };
    // Exploit: best predicted improvement first, pool order on ties so
    // the split is total and thread-count independent.
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let n_explore = ((want as f64) * cfg.explore.clamp(0.0, 1.0)).round() as usize;
    let n_exploit = want - n_explore.min(want);
    let mut batch: Vec<usize> = scored[..n_exploit].iter().map(|&(i, _)| i).collect();
    // Explore: uniform draws from the unselected rest, visited in pool
    // order so the draw sequence is reproducible.
    let mut rest: Vec<usize> = scored[n_exploit..].iter().map(|&(i, _)| i).collect();
    rest.sort_unstable();
    while batch.len() < want && !rest.is_empty() {
        let j = rng.below(rest.len());
        batch.push(rest.swap_remove(j));
    }
    batch.sort_unstable();
    batch
}

/// Predicted hypervolume improvement for every remaining candidate, or
/// `None` when no surrogate can be trained (no evaluated points yet, or
/// a degenerate objective landscape).
fn score_candidates(
    pool: &[ParamValues],
    param_names: &[String],
    points: &[&crate::DesignPoint],
    remaining: &[usize],
    cfg: &SurrogateConfig,
) -> Option<Vec<(usize, f64)>> {
    if points.is_empty() {
        return None;
    }
    // Objectives live in log space throughout — the surrogates regress
    // ln(cycles)/ln(ALMs) (both span orders of magnitude) and the
    // hypervolume is taken over the same coordinates, which keeps the
    // acquisition from being dominated by the slowest designs.
    let samples_cycles: Vec<(Vec<f64>, f64)> = points
        .iter()
        .map(|p| (features(&p.params, param_names), ln_obj(p.cycles)))
        .collect();
    let samples_area: Vec<(Vec<f64>, f64)> = points
        .iter()
        .map(|p| (features(&p.params, param_names), ln_obj(p.area.alms)))
        .collect();
    let train_cfg = TrainConfig {
        max_epochs: cfg.epochs,
        target_mse: 1e-6,
        ..TrainConfig::default()
    };
    let (model_cycles, model_area) = {
        let _span = dhdl_obs::span_arg("dse.surrogate.train", "samples", points.len() as u64);
        dhdl_obs::counter!("dse.surrogate.train").incr();
        // Fixed seeds: retraining must be a pure function of the data.
        let c = Regressor::try_fit(&samples_cycles, cfg.hidden, 0xC7C1E5, &train_cfg)?;
        let a = Regressor::try_fit(&samples_area, cfg.hidden, 0xA7EA, &train_cfg)?;
        (c, a)
    };
    // The current front (valid points only) and a reference box over
    // everything seen, padded so fringe candidates still score.
    let front = staircase(
        &points
            .iter()
            .filter(|p| p.valid)
            .map(|p| (ln_obj(p.cycles), ln_obj(p.area.alms)))
            .collect::<Vec<_>>(),
    );
    let reference = reference_point(
        points
            .iter()
            .map(|p| (ln_obj(p.cycles), ln_obj(p.area.alms))),
        0.25,
    )?;
    Some(
        remaining
            .iter()
            .map(|&i| {
                let x = features(&pool[i], param_names);
                let pred = (model_cycles.predict(&x), model_area.predict(&x));
                (i, improvement(&front, reference, pred))
            })
            .collect(),
    )
}

/// Feature vector for one parameter assignment: `log2(1 + value)` per
/// parameter in declaration order (tile sizes and par factors are
/// near-geometric, toggles stay 0/1-ish; the `Normalizer` inside the
/// regressor maps each column to `[0, 1]`).
fn features(params: &ParamValues, param_names: &[String]) -> Vec<f64> {
    param_names
        .iter()
        .map(|n| params.get(n).map_or(0.0, |v| ((v + 1) as f64).log2()))
        .collect()
}

/// An objective in log space, guarded against zero.
fn ln_obj(v: f64) -> f64 {
    v.max(1e-9).ln()
}

/// Assemble the [`DseResult`] in canonical pool-index order — the same
/// for every thread count. A
/// truncated run reports the unfilled remainder of the budget as
/// skipped, mirroring the random sweep's accounting.
fn assemble(
    evaluated: BTreeMap<usize, PointOutcome>,
    budget: usize,
    attempted: usize,
    space_size: u128,
    truncated: bool,
    stats: SweepStats,
) -> DseResult {
    let mut outcome_list: Vec<PointOutcome> = evaluated.values().cloned().collect();
    if truncated {
        outcome_list.extend(
            std::iter::repeat(PointOutcome::Skipped).take(budget.saturating_sub(attempted)),
        );
    }
    let counts = OutcomeCounts::tally(&outcome_list);
    let mut points = Vec::new();
    let mut errors = Vec::new();
    for (key, outcome) in evaluated {
        match outcome {
            PointOutcome::Evaluated { point, .. } => points.push(point),
            PointOutcome::Discarded(err) => errors.push((key, err)),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_serializable() {
        let mut a = SurrogateRng::new(42);
        let mut b = SurrogateRng::new(42);
        let draws_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(draws_a, draws_b);
        assert_ne!(SurrogateRng::new(43).next_u64(), draws_a[0]);
        // The state is one `u64`: restoring it continues the sequence.
        let mut c = SurrogateRng { state: a.state };
        assert_eq!(c.next_u64(), b.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SurrogateRng::new(7);
        for n in [1usize, 2, 3, 17, 1000] {
            for _ in 0..50 {
                assert!(r.below(n) < n);
            }
        }
    }

    #[test]
    fn features_follow_declaration_order() {
        let names = vec!["tile".to_string(), "par".to_string(), "mp".to_string()];
        let p = ParamValues::new().with("par", 3).with("tile", 7);
        let f = features(&p, &names);
        assert_eq!(f, vec![3.0, 2.0, 0.0]); // log2(8), log2(4), missing → 0
    }
}
