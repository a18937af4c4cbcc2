//! The resilient parallel sweep runner.
//!
//! The paper's DSE practicality argument (§IV-C) rests on evaluating up
//! to 75 000 design points per benchmark; this module makes that sweep a
//! long-running job that survives bad points instead of a fragile serial
//! loop. Design points are fanned out over a [`std::thread::scope`]
//! work-stealing pool (the same pattern as `dhdl-cpu`'s kernels), every
//! point is evaluated once under [`std::panic::catch_unwind`] isolation,
//! failures land in a structured [`PointOutcome`]/[`DseError`] taxonomy
//! instead of being silently discarded, and an optional wall-clock
//! deadline degrades the sweep gracefully to a partial-but-valid result
//! flagged `truncated`.
//!
//! Nothing is retried: the estimator is a pure function of the design
//! and the calibrated model, so a second attempt after a panic or a
//! non-finite estimate would fail the same way again.
//!
//! Results are deterministic across thread counts: outcomes are keyed by
//! sample index and reassembled in sample order, so the same seed yields
//! the same points — and therefore the same Pareto front — whether the
//! sweep ran on 1 thread or 16.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dhdl_core::{Design, NodeKind, ParamValues};
use dhdl_estimate::{Estimate, Estimator};
use dhdl_target::Platform;

use crate::cache::CacheStats;
use crate::search::{DesignPoint, DseOptions};

/// A cost model the sweep runner can query for design estimates.
///
/// [`Estimator`] is the production implementation, and
/// [`crate::CachedModel`] wraps any model with a memoizing estimate
/// cache. The crate's tests wrap one in a fault injector to exercise the
/// runner's isolation and deadline paths.
pub trait CostModel: Sync {
    /// Estimate cycles and area for a design instance.
    fn estimate(&self, design: &Design) -> Estimate;
    /// The platform the estimates target (used for the fits-on-device
    /// check).
    fn platform(&self) -> &Platform;
    /// Counters of the estimate cache backing this model, if any; the
    /// runner snapshots them around each sweep so reports can print hit
    /// rates. Models without a cache return `None` (the default).
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// The memoized estimate for a parameter-assignment key (see
    /// [`crate::params_key`]), if this model has one. This is the
    /// warm-sweep fast path: a `Some` answer lets the runner skip design
    /// construction and hashing entirely, which together cost several
    /// times more than a memoized estimate. Models without a cache
    /// return `None` (the default).
    fn lookup_params(&self, params_key: u64) -> Option<Estimate> {
        let _ = params_key;
        None
    }

    /// Estimate `design`, remembering (when `params_key` is `Some` and
    /// the model has a cache) that this parameter key builds this design,
    /// so later sweeps can answer it via [`CostModel::lookup_params`].
    /// The default ignores the key and delegates to
    /// [`CostModel::estimate`].
    fn estimate_keyed(&self, params_key: Option<u64>, design: &Design) -> Estimate {
        let _ = params_key;
        self.estimate(design)
    }

    /// Estimate `design` across up to `k` identical devices — the
    /// `num_fpgas` DSE axis. `k <= 1` must be bit-identical to
    /// [`CostModel::estimate_keyed`] (the partitioning pass is never
    /// consulted for single-chip points). The default ignores the device
    /// count and scores the whole design on one chip; models that
    /// understand partitioning ([`Estimator`] via
    /// `Estimator::estimate_partitioned`, [`crate::CachedModel`] with a
    /// device-salted cache key) override it.
    fn estimate_devices(&self, params_key: Option<u64>, design: &Design, k: u32) -> Estimate {
        let _ = k;
        self.estimate_keyed(params_key, design)
    }
}

impl CostModel for Estimator {
    fn estimate(&self, design: &Design) -> Estimate {
        Estimator::estimate(self, design)
    }

    fn platform(&self) -> &Platform {
        Estimator::platform(self)
    }

    fn estimate_devices(&self, _params_key: Option<u64>, design: &Design, k: u32) -> Estimate {
        if k <= 1 {
            Estimator::estimate(self, design)
        } else {
            self.estimate_partitioned(design, k).estimate
        }
    }
}

impl<T: CostModel + ?Sized> CostModel for &T {
    fn estimate(&self, design: &Design) -> Estimate {
        (**self).estimate(design)
    }

    fn platform(&self) -> &Platform {
        (**self).platform()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        (**self).cache_stats()
    }

    fn lookup_params(&self, params_key: u64) -> Option<Estimate> {
        (**self).lookup_params(params_key)
    }

    fn estimate_keyed(&self, params_key: Option<u64>, design: &Design) -> Estimate {
        (**self).estimate_keyed(params_key, design)
    }

    fn estimate_devices(&self, params_key: Option<u64>, design: &Design, k: u32) -> Estimate {
        (**self).estimate_devices(params_key, design, k)
    }
}

/// Why a sampled design point produced no estimate.
#[derive(Debug, Clone, PartialEq)]
pub enum DseError {
    /// The benchmark metaprogram rejected the parameter assignment.
    Build(String),
    /// A local memory exceeded the per-buffer size cap (§IV-C).
    MemCap {
        /// Size of the largest offending buffer in bits.
        bits: u64,
        /// The configured cap in bits.
        cap_bits: u64,
    },
    /// Building or estimating the point panicked.
    Panic {
        /// The panic payload, when it carried a message.
        message: String,
    },
    /// The estimator returned a non-finite cycle count or area.
    NonFinite,
}

impl std::fmt::Display for DseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DseError::Build(msg) => write!(f, "build failed: {msg}"),
            DseError::MemCap { bits, cap_bits } => {
                write!(f, "memory cap exceeded: {bits} bits > {cap_bits} bits")
            }
            DseError::Panic { message } => write!(f, "panicked: {message}"),
            DseError::NonFinite => write!(f, "non-finite estimate"),
        }
    }
}

/// The outcome of one sampled design point.
///
/// The evaluated point is held in place although it is by far the
/// largest variant (its parameters are): it is also by far the most
/// common one, and boxing it would put back a heap allocation per point.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum PointOutcome {
    /// The point was estimated successfully.
    Evaluated {
        /// The evaluated point.
        point: DesignPoint,
    },
    /// The point was discarded, with the reason recorded.
    Discarded(DseError),
    /// The deadline expired before the point was claimed; re-running the
    /// sweep without the deadline evaluates it.
    Skipped,
}

/// Per-category accounting of sweep outcomes, replacing the old opaque
/// `discarded` scalar so silent point loss is visible in summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Points estimated successfully.
    pub evaluated: usize,
    /// Points whose metaprogram rejected the parameters.
    pub build_failed: usize,
    /// Points violating the local-memory cap.
    pub mem_cap: usize,
    /// Points whose evaluation panicked or came back non-finite.
    pub eval_failed: usize,
    /// Points never evaluated because the deadline expired.
    pub skipped: usize,
}

impl OutcomeCounts {
    /// Total points discarded before estimation (the old `discarded`
    /// scalar: build failures + memory-cap violations + evaluation
    /// failures).
    pub fn discarded(&self) -> usize {
        self.build_failed + self.mem_cap + self.eval_failed
    }

    /// One-line human-readable summary for sweep reports.
    pub fn summary(&self) -> String {
        format!(
            "evaluated {}, discarded {} (build {} / mem-cap {} / eval {}), skipped {}",
            self.evaluated,
            self.discarded(),
            self.build_failed,
            self.mem_cap,
            self.eval_failed,
            self.skipped
        )
    }

    /// Count one outcome.
    pub(crate) fn record(&mut self, outcome: &PointOutcome) {
        match outcome {
            PointOutcome::Evaluated { .. } => {
                self.evaluated += 1;
                dhdl_obs::counter!("dse.points.evaluated").incr();
            }
            PointOutcome::Discarded(DseError::Build(_)) => {
                self.build_failed += 1;
                dhdl_obs::counter!("dse.points.build_failed").incr();
            }
            PointOutcome::Discarded(DseError::MemCap { .. }) => {
                self.mem_cap += 1;
                dhdl_obs::counter!("dse.points.mem_cap").incr();
            }
            PointOutcome::Discarded(DseError::Panic { .. }) => {
                self.eval_failed += 1;
                dhdl_obs::counter!("dse.points.panicked").incr();
            }
            PointOutcome::Discarded(DseError::NonFinite) => {
                self.eval_failed += 1;
                dhdl_obs::counter!("dse.points.non_finite").incr();
            }
            PointOutcome::Skipped => {
                self.skipped += 1;
                dhdl_obs::counter!("dse.points.deadline_skipped").incr();
            }
        }
    }
}

/// Performance accounting for one sweep: wall-clock time, throughput
/// and (when the cost model carries one) estimate-cache counters.
///
/// Deliberately excluded from [`crate::DseResult`]'s equality: two
/// sweeps that produce identical points are equal regardless of how
/// fast they ran or how many cache hits they took.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SweepStats {
    /// Wall-clock seconds of the whole sweep: the [`crate::explore`] call
    /// from sampling to the assembled result.
    pub elapsed_secs: f64,
    /// Points successfully evaluated in this sweep.
    pub evaluated: usize,
    /// Per-sweep estimate-cache counter deltas, when the model has a
    /// cache ([`CostModel::cache_stats`]).
    pub cache: Option<CacheStats>,
}

impl SweepStats {
    /// Evaluated points per wall-clock second (0 for an instant sweep).
    pub fn points_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.evaluated as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// One-line human-readable summary for sweep reports.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} points in {:.2}s ({:.0} points/s)",
            self.evaluated,
            self.elapsed_secs,
            self.points_per_sec()
        );
        if let Some(c) = self.cache {
            s.push_str(&format!(
                ", cache {} hits / {} misses ({:.0}% hit rate, {} entries)",
                c.hits,
                c.misses,
                c.hit_rate() * 100.0,
                c.entries
            ));
        }
        s
    }
}

/// Resolve a thread-count request (0 = all available cores).
pub(crate) fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// What the workers of one [`evaluate`] call produced: each worker's
/// outcomes tagged with their positions, plus the batch's cache
/// accounting.
pub(crate) struct WorkerOutcomes {
    /// Positions in the batch.
    n: usize,
    /// One list per worker, each sorted by position (a worker claims
    /// ascending positions).
    per_worker: Vec<Vec<(usize, PointOutcome)>>,
    /// Estimate-cache counter deltas over the batch, when the model has
    /// a cache ([`CostModel::cache_stats`]).
    pub(crate) cache: Option<CacheStats>,
}

impl WorkerOutcomes {
    /// The outcomes in position order, each moved out of its worker's
    /// list once; a position no worker claimed is
    /// [`PointOutcome::Skipped`].
    pub(crate) fn into_ordered(self) -> impl ExactSizeIterator<Item = PointOutcome> {
        // Which worker holds each position, then every list drains front
        // to back: positions are disjoint and each list is sorted.
        let mut owner = vec![usize::MAX; self.n];
        for (w, list) in self.per_worker.iter().enumerate() {
            for &(pos, _) in list {
                owner[pos] = w;
            }
        }
        let mut lists: Vec<_> = self.per_worker.into_iter().map(Vec::into_iter).collect();
        owner.into_iter().map(move |w| match lists.get_mut(w) {
            Some(list) => {
                list.next()
                    .expect("a worker holds every position it claimed")
                    .1
            }
            None => PointOutcome::Skipped,
        })
    }
}

/// Evaluate the `n` positions of a batch in parallel: each worker claims
/// a position, decodes its parameter assignment with `decode` and
/// evaluates it. [`WorkerOutcomes::into_ordered`] yields one [`PointOutcome`]
/// per position.
///
/// Workers claim positions in order, so when `deadline` passes and they
/// stop claiming, the evaluated outcomes are a prefix of the batch and
/// each equals what an uninterrupted call computes for that position;
/// the unclaimed remainder comes back as [`PointOutcome::Skipped`].
pub(crate) fn evaluate<F, D, E>(
    build: &F,
    estimator: &E,
    n: usize,
    decode: D,
    opts: &DseOptions,
    deadline: Option<Instant>,
) -> WorkerOutcomes
where
    F: Fn(&ParamValues) -> dhdl_core::Result<Design> + Sync,
    D: Fn(usize) -> ParamValues + Sync,
    E: CostModel + ?Sized,
{
    let _span = dhdl_obs::span_arg("dse.evaluate", "points", n as u64);
    let cache_before = estimator.cache_stats();
    let threads = resolve_threads(opts.threads).min(n.max(1));
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, PointOutcome)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    // The worker span covers claim-to-exit wall-clock; the
                    // per-point eval histogram is the busy portion, so
                    // idle = worker span − Σ eval_ns.
                    let _wspan = dhdl_obs::span!("dse.worker");
                    // Room for an even share up front: a list that grows
                    // by doubling moves each 300-byte outcome again.
                    let mut local = Vec::with_capacity(n / threads + 1);
                    loop {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            dhdl_obs::counter!("dse.worker.deadline_stop").incr();
                            break;
                        }
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        if pos >= n {
                            break;
                        }
                        let outcome = {
                            let _t = dhdl_obs::histogram!("dse.point.eval_ns").timer();
                            evaluate_one(build, estimator, decode(pos), opts)
                        };
                        local.push((pos, outcome));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked outside isolation"))
            .collect()
    });
    WorkerOutcomes {
        n,
        per_worker,
        cache: estimator.cache_stats().map(|after| match cache_before {
            Some(before) => after.since(&before),
            None => after,
        }),
    }
}

/// Evaluate a single design point once, under panic isolation. A build
/// error, a memory-cap violation, a panic and a non-finite estimate each
/// discard the point with its reason.
fn evaluate_one<F, E>(
    build: &F,
    estimator: &E,
    params: ParamValues,
    opts: &DseOptions,
) -> PointOutcome
where
    F: Fn(&ParamValues) -> dhdl_core::Result<Design> + Sync,
    E: CostModel + ?Sized,
{
    let evaluated = |params, est: Estimate| PointOutcome::Evaluated {
        point: DesignPoint {
            params,
            cycles: est.cycles,
            area: est.area,
            valid: est.area.fits(&estimator.platform().fpga),
        },
    };
    // Warm fast path: a memoized parameter key skips design construction
    // and structural hashing outright. Only successfully evaluated
    // (finite, under-mem-cap) assignments ever enter the memo, and the
    // memoized estimate is the bit-exact one the full path would compute,
    // so outcomes and counts match a cold sweep.
    let params_key = opts
        .cache_salt
        .map(|salt| crate::cache::params_key(salt, &params));
    if let Some(pk) = params_key {
        if let Some(est) = estimator.lookup_params(pk) {
            return evaluated(params, est);
        }
    }
    // The device count is an ordinary parameter of the assignment, so it
    // is already part of `params_key`: the warm fast path above
    // distinguishes device counts without reading it.
    let devices = device_count(&params);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let design = build(&params).map_err(|e| DseError::Build(e.to_string()))?;
        if let Some(bits) = mem_cap_violation(&design, opts.mem_cap_bits) {
            return Err(DseError::MemCap {
                bits,
                cap_bits: opts.mem_cap_bits,
            });
        }
        let est = estimator.estimate_devices(params_key, &design, devices);
        if est.is_finite() {
            Ok(est)
        } else {
            Err(DseError::NonFinite)
        }
    }));
    match result {
        Ok(Ok(est)) => evaluated(params, est),
        Ok(Err(err)) => PointOutcome::Discarded(err),
        Err(payload) => PointOutcome::Discarded(DseError::Panic {
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// The number of devices a parameter assignment asks for: its
/// [`dhdl_core::NUM_FPGAS`] value, or 1 on single-chip spaces, which do
/// not carry the parameter. Everything that estimates an assignment
/// passes this to [`CostModel::estimate_devices`], so one assignment
/// means one estimate whoever asks.
pub fn device_count(params: &ParamValues) -> u32 {
    params
        .get(dhdl_core::NUM_FPGAS)
        .map_or(1, |v| v.clamp(1, u64::from(u32::MAX)) as u32)
}

/// Size in bits of the largest local memory exceeding `cap_bits`, if any.
fn mem_cap_violation(design: &Design, cap_bits: u64) -> Option<u64> {
    design
        .iter()
        .filter_map(|(_, n)| match &n.kind {
            NodeKind::Bram(b) => Some(b.elements() * u64::from(n.ty.bits())),
            _ => None,
        })
        .filter(|&bits| bits > cap_bits)
        .max()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_core::{DType, DesignBuilder, ParamSpace};
    use dhdl_target::Platform;

    fn tiny_build(p: &ParamValues) -> dhdl_core::Result<Design> {
        let n = 256u64;
        let tile = p.dim("tile")?;
        let mut b = DesignBuilder::new("tiny");
        let x = b.off_chip("x", DType::F32, &[n]);
        b.sequential(|b| {
            let acc = b.reg("acc", DType::F32, 0.0);
            b.outer(false, &[dhdl_core::by(n, tile)], 1, |b, iters| {
                let i = iters[0];
                let t = b.bram("t", DType::F32, &[tile]);
                b.tile_load(x, t, &[i], &[tile], 1);
                b.pipe_reduce(
                    &[dhdl_core::by(tile, 1)],
                    1,
                    acc,
                    dhdl_core::ReduceOp::Add,
                    |b, it| {
                        let v = b.load(t, &[it[0]]);
                        b.mul(v, v)
                    },
                );
            });
        });
        b.finish()
    }

    fn space() -> ParamSpace {
        let mut s = ParamSpace::new();
        s.tile("tile", 256, 4, 64);
        s
    }

    fn estimator() -> Estimator {
        Estimator::calibrate_with(&Platform::maia(), 20, 7).0
    }

    #[test]
    fn panicking_build_is_isolated_and_recorded() {
        let est = estimator();
        let opts = DseOptions::default();
        let samples: Vec<ParamValues> = space()
            .defs()
            .iter()
            .flat_map(|d| d.kind.legal_values())
            .map(|v| ParamValues::new().with("tile", v))
            .collect();
        let panic_on = samples[1].clone();
        let build = |p: &ParamValues| {
            assert!(p != &panic_on, "injected build panic");
            tiny_build(p)
        };
        let workers = evaluate(
            &build,
            &est,
            samples.len(),
            |i| samples[i].clone(),
            &opts,
            None,
        );
        // A bare Estimator carries no cache.
        assert!(workers.cache.is_none());
        let outcomes: Vec<PointOutcome> = workers.into_ordered().collect();
        assert_eq!(outcomes.len(), samples.len());
        let mut counts = OutcomeCounts::default();
        outcomes.iter().for_each(|o| counts.record(o));
        assert_eq!(counts.eval_failed, 1);
        assert_eq!(counts.evaluated, samples.len() - 1);
        match &outcomes[1] {
            PointOutcome::Discarded(DseError::Panic { message }) => {
                assert!(message.contains("injected build panic"), "{message}");
            }
            other => panic!("expected panic outcome, got {other:?}"),
        }
    }

    #[test]
    fn sweep_stats_summary() {
        let a = SweepStats {
            elapsed_secs: 2.0,
            evaluated: 100,
            cache: None,
        };
        assert_eq!(a.points_per_sec(), 50.0);
        let a = SweepStats {
            elapsed_secs: 3.0,
            evaluated: 120,
            cache: Some(CacheStats {
                hits: 20,
                misses: 5,
                inserts: 5,
                entries: 5,
            }),
        };
        let s = a.summary();
        assert!(s.contains("120 points"), "{s}");
        assert!(s.contains("cache 20 hits / 5 misses"), "{s}");
        assert_eq!(SweepStats::default().points_per_sec(), 0.0);
    }

    #[test]
    fn counts_summary_mentions_every_category() {
        let counts = OutcomeCounts {
            evaluated: 5,
            build_failed: 1,
            mem_cap: 2,
            eval_failed: 3,
            skipped: 6,
        };
        assert_eq!(counts.discarded(), 6);
        let s = counts.summary();
        for needle in ["evaluated 5", "build 1", "mem-cap 2", "eval 3", "skipped 6"] {
            assert!(s.contains(needle), "{s} missing {needle}");
        }
    }
}
