//! The estimate cache: memoized design-point estimates for callers that
//! ask again.
//!
//! A process re-estimates the same structural design whenever repeated
//! requests to `dhdl-serve`, repeated or nested sweeps, or retries
//! revisit a parameter assignment. [`EstimateCache`]
//! short-circuits those evaluations with two levels:
//!
//! 1. **Structural level** — a sharded, lock-striped concurrent map from
//!    the canonical [`dhdl_core::structural_hash`] of a design to its
//!    [`Estimate`]. This is the source of truth: every cached estimate
//!    lives here, keyed by the full node-level structure.
//! 2. **Parameter level** — a memo from a [`params_key`] (benchmark
//!    salt plus parameter assignment) to the structural hash its design
//!    builds to. Building a design and hashing it cost several times more than
//!    the memoized estimate they would look up, so a warm sweep that
//!    stopped at level 1 would run *slower* than an uncached one. The
//!    level-2 memo lets the runner skip design construction entirely on
//!    a warm point ([`CostModel::lookup_params`](crate::CostModel)).
//!
//! [`CachedModel`] wraps any [`CostModel`] with both levels, and the
//! runner surfaces hit/miss counters through
//! [`CostModel::cache_stats`](crate::CostModel::cache_stats) so sweep
//! reports can print throughput and hit rates.
//!
//! Correctness invariants:
//!
//! * **Transparency.** A cache hit returns the bit-exact [`Estimate`] the
//!   wrapped model produced on the miss, so sweeps with the cache off,
//!   cold or warm yield byte-identical results (tested in
//!   `tests/cache_consistency.rs`).
//! * **Only finite estimates are cached.** The runner treats non-finite
//!   estimates as transient and retries them; caching a NaN would turn a
//!   transient fault into a permanent one. [`EstimateCache::insert`]
//!   silently drops non-finite entries, so a [`crate::FaultInjector`]
//!   NaN is re-evaluated on retry and the *successful* result is cached.
//!   The parameter memo only records assignments whose estimate landed
//!   in the structural map, so the fast path can never fabricate or
//!   resurrect a non-finite estimate.
//!
//! The cache lives and dies with its process. A point costs about as
//! much to parse back from a file as to compute, so nothing is persisted
//! (measurements in EXPERIMENTS.md § Estimation cache).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dhdl_core::{structural_hash, Design, Fnv64, ParamValues};
use dhdl_estimate::{Estimate, Estimator};
use dhdl_target::Platform;

use crate::runner::CostModel;

/// Number of independent lock shards. A power of two so the shard index
/// is a mask of the (well-mixed) FNV key; 16 shards keep contention
/// negligible for the worker counts the sweep runner uses.
const SHARDS: usize = 16;

/// The level-2 key of a parameter assignment under a benchmark `salt`:
/// FNV-1a over the salt word followed by each `(name, value)` pair in
/// canonical (name-sorted) order.
///
/// The salt identifies *which metaprogram* maps these parameters to a
/// design — two benchmarks can legally share an assignment like
/// `{par=4, tile=64}`, so sweeps sharing one cache must key with
/// distinct salts (see [`crate::DseOptions::cache_salt`]).
pub fn params_key(salt: u64, params: &ParamValues) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(salt);
    for (name, value) in params.iter() {
        h.write(name.as_bytes());
        h.write_u64(value);
    }
    h.finish()
}

/// The structural-cache key of a design estimated across `k` devices.
///
/// `k <= 1` is the plain structural hash — single-chip entries stay
/// shared with (and bit-identical to) sweeps that never heard of
/// partitioning. `k > 1` mixes the device count in so a multi-device
/// estimate (different area, different cycles) can never be served for
/// a single-chip lookup of the same design or vice versa.
pub fn devices_key(structural: u64, k: u32) -> u64 {
    if k <= 1 {
        return structural;
    }
    let mut h = Fnv64::new();
    h.write_u64(structural);
    h.write(b"num_fpgas");
    h.write_u64(u64::from(k));
    h.finish()
}

/// Cumulative counters of an [`EstimateCache`] (monotonic within a
/// process; see [`CacheStats::since`] for per-sweep deltas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the wrapped model.
    pub misses: u64,
    /// Finite estimates stored (non-finite inserts are dropped).
    pub inserts: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an `earlier` snapshot of the same cache;
    /// `entries` keeps the current (later) value.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            inserts: self.inserts.saturating_sub(earlier.inserts),
            entries: self.entries,
        }
    }
}

/// A sharded, lock-striped concurrent map from canonical structural
/// design hashes to estimates.
///
/// Shards are plain `Mutex<HashMap>`s: lookups in the sweep are dwarfed
/// by elaboration even on a hit-heavy run, so striping (not lock-free
/// cleverness) is all the concurrency the workload needs. Poisoned locks
/// are recovered, not propagated — a panicking estimator thread (fault
/// injection does this on purpose) must not take the cache down with it.
#[derive(Debug)]
pub struct EstimateCache {
    shards: Vec<Mutex<HashMap<u64, Estimate>>>,
    /// The parameter memo ([`params_key`] → structural hash), sharded
    /// the same way.
    params: Vec<Mutex<HashMap<u64, u64>>>,
    fingerprint: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl EstimateCache {
    /// An empty cache for estimates produced under `fingerprint`
    /// (see [`model_fingerprint`]; a label, not checked on lookup).
    pub fn new(fingerprint: u64) -> Self {
        EstimateCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            params: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            fingerprint,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// The model/target fingerprint this cache was created with. Nothing
    /// reads it back: no cache outlives its process.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Estimate>> {
        // FNV output is well mixed; the low bits pick the stripe.
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Look up the estimate for structural-hash `key`, counting the hit
    /// or miss. (In observation output the structural map is `cache.l2`;
    /// the parameter memo in front of it is `cache.l1`.)
    pub fn get(&self, key: u64) -> Option<Estimate> {
        let found = self
            .shard(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .copied();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            dhdl_obs::counter!("cache.l2.hit").incr();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            dhdl_obs::counter!("cache.l2.miss").incr();
        }
        found
    }

    /// Store a *finite* estimate for `key`. Non-finite estimates are
    /// dropped: the runner retries them as transient faults, and a cached
    /// NaN would be re-served forever.
    pub fn insert(&self, key: u64, est: Estimate) {
        if !est.is_finite() {
            return;
        }
        self.shard(key)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, est);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        dhdl_obs::counter!("cache.l2.insert").incr();
    }

    /// Look up the structural hash that parameter key `key` builds to.
    /// [`CacheStats`]-counter-free: the resolving [`EstimateCache::get`]
    /// on the returned hash records the hit or miss, so a fast-path
    /// lookup counts once. (Observation counters `cache.l1.*` do track
    /// this memo level separately.)
    pub fn get_params(&self, key: u64) -> Option<u64> {
        let found = self.params[(key as usize) & (SHARDS - 1)]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .copied();
        if found.is_some() {
            dhdl_obs::counter!("cache.l1.hit").incr();
        } else {
            dhdl_obs::counter!("cache.l1.miss").incr();
        }
        found
    }

    /// Record that parameter key `key` builds a design with structural
    /// hash `structural`. Callers must only record keys whose estimate
    /// was accepted by [`EstimateCache::insert`] (finite), so the memo
    /// never points at a value the structural map would refuse to hold.
    pub fn insert_params(&self, key: u64, structural: u64) {
        dhdl_obs::counter!("cache.l1.insert").incr();
        self.params[(key as usize) & (SHARDS - 1)]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, structural);
    }

    /// Number of resident parameter-memo entries.
    pub fn params_len(&self) -> usize {
        self.params
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the cumulative counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

/// Fingerprint of everything an estimate depends on besides the design:
/// the trained area model and the target platform. Two estimators with
/// equal fingerprints produce bit-identical estimates.
///
/// A tag nothing reads back: a cache is only ever consulted by the
/// process that filled it, through the model it was created for. It
/// stays because `benchmark/` and `partbench` construct caches with it.
pub fn model_fingerprint(estimator: &Estimator) -> u64 {
    let mut h = Fnv64::new();
    // The Debug renderings cover every weight of the area model and
    // every numeric field of the device and power models; Fnv64 hashes
    // them without allocating.
    let _ = write!(h, "{:?}", estimator.area_model());
    let _ = write!(h, "{:?}", estimator.platform());
    h.finish()
}

/// A [`CostModel`] that consults an [`EstimateCache`] before delegating
/// to the wrapped model, and answers the runner's parameter-keyed fast
/// path ([`CostModel::lookup_params`]) so warm sweeps skip design
/// construction entirely.
///
/// Wrap the *outermost* model: in fault-injection tests the cache wraps
/// the [`crate::FaultInjector`], so an injected NaN reaches the cache
/// (and is dropped by the finite-only insert) rather than bypassing it.
#[derive(Debug)]
pub struct CachedModel<'a, E: CostModel> {
    inner: &'a E,
    cache: &'a EstimateCache,
}

impl<'a, E: CostModel> CachedModel<'a, E> {
    /// Wrap `inner` with lookups in `cache`.
    pub fn new(inner: &'a E, cache: &'a EstimateCache) -> Self {
        CachedModel { inner, cache }
    }

    /// The cache this model consults.
    pub fn cache(&self) -> &EstimateCache {
        self.cache
    }

    /// The estimate under structural key `key`: the cached one, or
    /// `compute`'s, stored. `params_key`, when given, is memoized to
    /// `key` for the [`CostModel::lookup_params`] fast path.
    fn memoized(
        &self,
        params_key: Option<u64>,
        key: u64,
        compute: impl FnOnce() -> Estimate,
    ) -> Estimate {
        let est = match self.cache.get(key) {
            Some(est) => est,
            None => {
                let est = compute();
                self.cache.insert(key, est);
                est
            }
        };
        // Record the fast-path mapping only for estimates the structural
        // map accepted (finite): a memo entry pointing at nothing would
        // just double-count misses, and one recorded during a transient
        // NaN fault would defeat the runner's retry.
        if let Some(pk) = params_key {
            if est.is_finite() {
                self.cache.insert_params(pk, key);
            }
        }
        est
    }
}

impl<E: CostModel> CostModel for CachedModel<'_, E> {
    fn estimate(&self, design: &Design) -> Estimate {
        self.estimate_keyed(None, design)
    }

    fn lookup_params(&self, params_key: u64) -> Option<Estimate> {
        let structural = self.cache.get_params(params_key)?;
        self.cache.get(structural)
    }

    fn estimate_keyed(&self, params_key: Option<u64>, design: &Design) -> Estimate {
        self.memoized(params_key, structural_hash(design), || {
            self.inner.estimate(design)
        })
    }

    fn estimate_devices(&self, params_key: Option<u64>, design: &Design, k: u32) -> Estimate {
        if k <= 1 {
            return self.estimate_keyed(params_key, design);
        }
        // The parameter memo may point at the device-salted key because
        // `params_key` already hashes `num_fpgas` — one assignment, one
        // key.
        self.memoized(params_key, devices_key(structural_hash(design), k), || {
            self.inner.estimate_devices(None, design, k)
        })
    }

    fn platform(&self) -> &Platform {
        self.inner.platform()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_target::AreaReport;

    fn est(cycles: f64) -> Estimate {
        Estimate {
            cycles,
            area: AreaReport {
                alms: 100.0,
                regs: 200.0,
                dsps: 3.0,
                brams: 4.0,
            },
        }
    }

    #[test]
    fn get_insert_and_counters() {
        let cache = EstimateCache::new(7);
        assert_eq!(cache.get(1), None);
        cache.insert(1, est(10.0));
        assert_eq!(cache.get(1), Some(est(10.0)));
        assert!(!cache.is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn non_finite_estimates_are_never_cached() {
        let cache = EstimateCache::new(0);
        cache.insert(1, est(f64::NAN));
        cache.insert(2, est(f64::INFINITY));
        let mut bad_area = est(1.0);
        bad_area.area.alms = f64::NAN;
        cache.insert(3, bad_area);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().inserts, 0);
        // The failed lookups above were not made; these count as misses.
        assert_eq!(cache.get(1), None);
    }

    #[test]
    fn params_key_is_canonical_and_salted() {
        let p = ParamValues::new().with("tile", 64).with("par", 4);
        // Insertion order does not matter (BTreeMap canonical order).
        let q = ParamValues::new().with("par", 4).with("tile", 64);
        assert_eq!(params_key(7, &p), params_key(7, &q));
        // Salt, names and values all separate keys.
        assert_ne!(params_key(7, &p), params_key(8, &p));
        assert_ne!(params_key(7, &p), params_key(7, &p.clone().with("par", 8)));
        assert_ne!(
            params_key(7, &ParamValues::new().with("a", 1)),
            params_key(7, &ParamValues::new().with("b", 1))
        );
    }

    #[test]
    fn keyed_estimates_record_the_params_memo_only_when_finite() {
        use dhdl_core::{by, DType, DesignBuilder, ReduceOp};
        use std::sync::atomic::AtomicBool;

        // A model that returns NaN exactly once, then a fixed estimate.
        struct Flaky {
            platform: Platform,
            nan_next: AtomicBool,
        }
        impl CostModel for Flaky {
            fn estimate(&self, _design: &Design) -> Estimate {
                if self.nan_next.swap(false, Ordering::Relaxed) {
                    est(f64::NAN)
                } else {
                    est(42.0)
                }
            }
            fn platform(&self) -> &Platform {
                &self.platform
            }
        }

        let mut b = DesignBuilder::new("toy");
        let x = b.off_chip("x", DType::F32, &[256]);
        b.sequential(|b| {
            let acc = b.reg("acc", DType::F32, 0.0);
            b.meta_pipe(&[by(256, 64)], 1, |b, iters| {
                let t = b.bram("t", DType::F32, &[64]);
                b.tile_load(x, t, &[iters[0]], &[64], 1);
                b.pipe_reduce(&[by(64, 1)], 1, acc, ReduceOp::Add, |b, it| {
                    let v = b.load(t, &[it[0]]);
                    b.mul(v, v)
                });
            });
        });
        let design = b.finish().unwrap();

        let model = Flaky {
            platform: Platform::maia(),
            nan_next: AtomicBool::new(true),
        };
        let cache = EstimateCache::new(1);
        let cached = CachedModel::new(&model, &cache);
        let pk = params_key(3, &ParamValues::new().with("tile", 64));

        // NaN attempt: nothing recorded at either level.
        assert!(cached.estimate_keyed(Some(pk), &design).cycles.is_nan());
        assert_eq!((cache.len(), cache.params_len()), (0, 0));
        assert_eq!(cached.lookup_params(pk), None);

        // Retry succeeds: both levels recorded, fast path answers.
        assert_eq!(cached.estimate_keyed(Some(pk), &design), est(42.0));
        assert_eq!((cache.len(), cache.params_len()), (1, 1));
        assert_eq!(cached.lookup_params(pk), Some(est(42.0)));
    }

    #[test]
    fn stats_since_subtracts_counters() {
        let earlier = CacheStats {
            hits: 10,
            misses: 5,
            inserts: 4,
            entries: 4,
        };
        let later = CacheStats {
            hits: 30,
            misses: 9,
            inserts: 7,
            entries: 7,
        };
        let d = later.since(&earlier);
        assert_eq!((d.hits, d.misses, d.inserts, d.entries), (20, 4, 3, 7));
    }
}
