//! The estimate cache: memoized design-point estimates for the DSE hot
//! path.
//!
//! A 75 000-point sweep re-estimates the same structural design whenever
//! sampling, refinement rounds, retries or repeated experiment runs
//! revisit a parameter assignment. [`EstimateCache`] short-circuits those
//! evaluations with two levels:
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
//!   wrapped model produced on the miss, so sweeps with the cache off, on,
//!   or pre-warmed from disk yield byte-identical results (tested in
//!   `tests/cache_consistency.rs`).
//! * **Only finite estimates are cached.** The runner treats non-finite
//!   estimates as transient and retries them; caching a NaN would turn a
//!   transient fault into a permanent one. [`EstimateCache::insert`]
//!   silently drops non-finite entries, so a [`crate::FaultInjector`]
//!   NaN is re-evaluated on retry and the *successful* result is cached.
//!   The parameter memo only records assignments whose estimate landed
//!   in the structural map, so the fast path can never fabricate or
//!   resurrect a non-finite estimate.
//! * **Versioned persistence.** The on-disk cache under `results/cache/`
//!   is keyed by a fingerprint of the trained area model and the target
//!   platform ([`model_fingerprint`]); a stale or mismatched file is
//!   ignored, never trusted.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dhdl_core::{structural_hash, Design, Fnv64, ParamValues};
use dhdl_estimate::{Estimate, Estimator};
use dhdl_target::{AreaReport, Platform};

use crate::runner::CostModel;

/// Version tag mixed into [`model_fingerprint`] and written in the disk
/// header; bump when the on-disk entry format *or the key stream* changes.
/// (v2 added the `p`-prefixed parameter-memo lines; v3 is the field-wise
/// [`structural_hash`] — same line format, but every v2 key is a key of
/// nothing, so v2 files must not load.)
const FORMAT_VERSION: &str = "dhdl-estimate-cache v3";

/// Number of independent lock shards. A power of two so the shard index
/// is a mask of the (well-mixed) FNV key; 16 shards keep contention
/// negligible for the worker counts the sweep runner uses.
const SHARDS: usize = 16;

/// Where estimates for a sweep come from: disabled, in-memory only, or
/// persisted across runs under `results/cache/`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// No caching: every point is estimated from scratch.
    Off,
    /// In-memory cache for the lifetime of the process.
    Memory,
    /// In-memory cache loaded from and flushed to a versioned file under
    /// the results directory (the default).
    #[default]
    Disk,
}

impl CacheMode {
    /// Parse a mode string: `off`/`0`, `mem`/`memory`, or `disk`.
    ///
    /// # Errors
    ///
    /// Returns the offending string for anything else — a typo'd
    /// `DHDL_DSE_CACHE=dsk` must not silently select a different mode.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s {
            "off" | "0" => Ok(CacheMode::Off),
            "mem" | "memory" => Ok(CacheMode::Memory),
            "disk" => Ok(CacheMode::Disk),
            other => Err(format!(
                "unrecognized cache mode `{other}` (expected off|mem|disk)"
            )),
        }
    }

    /// Read the mode from the `DHDL_DSE_CACHE` environment variable
    /// (`off`, `mem`, or `disk`; the default when unset is `disk`).
    /// An unrecognized value falls back to the default with a warning on
    /// stderr rather than silently masquerading as a valid mode.
    pub fn from_env() -> Self {
        match std::env::var("DHDL_DSE_CACHE") {
            Ok(v) => CacheMode::parse(&v).unwrap_or_else(|e| {
                eprintln!("warning: DHDL_DSE_CACHE: {e}; using disk");
                CacheMode::Disk
            }),
            Err(_) => CacheMode::Disk,
        }
    }
}

impl std::str::FromStr for CacheMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        CacheMode::parse(s)
    }
}

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

/// Whether every field of an estimate is finite (cacheable).
fn estimate_is_finite(est: &Estimate) -> bool {
    est.cycles.is_finite()
        && est.area.alms.is_finite()
        && est.area.regs.is_finite()
        && est.area.dsps.is_finite()
        && est.area.brams.is_finite()
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
    /// Entries currently resident (including any loaded from disk).
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
    /// (see [`model_fingerprint`]).
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

    /// The model/target fingerprint this cache's entries are valid for.
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
        if !estimate_is_finite(&est) {
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

    /// The on-disk path for a cache with `fingerprint` under `dir`.
    pub fn path_in(dir: &Path, fingerprint: u64) -> PathBuf {
        dir.join(format!("estimates_{fingerprint:016x}.txt"))
    }

    /// Load the persisted cache for `fingerprint` from `dir`, or an
    /// empty cache when no file exists, the header does not match, or
    /// any line is malformed (a corrupt cache costs warm-up time, never
    /// correctness).
    ///
    /// A missing file is the normal cold start and stays silent; every
    /// *rebuild* — a corrupt header, a mismatched model fingerprint, or
    /// a malformed entry — emits one structured warning to stderr and
    /// increments the `cache.l2.rebuild` obs counter, so silently
    /// losing a warm cache is impossible.
    pub fn load(dir: &Path, fingerprint: u64) -> Self {
        Self::load_reporting(dir, fingerprint).0
    }

    /// [`EstimateCache::load`], also telling whether this load discarded
    /// the file on disk and rebuilt.
    fn load_reporting(dir: &Path, fingerprint: u64) -> (Self, bool) {
        let _span = dhdl_obs::span!("cache.load");
        let _t = dhdl_obs::histogram!("cache.disk.load_ns").timer();
        let cache = EstimateCache::new(fingerprint);
        let path = Self::path_in(dir, fingerprint);
        let rebuild = |reason: &str| {
            eprintln!(
                "warning: estimate cache {} {reason}; rebuilding from scratch",
                path.display()
            );
            dhdl_obs::counter!("cache.l2.rebuild").incr();
            (EstimateCache::new(fingerprint), true)
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return (cache, false),
            Err(e) => return rebuild(&format!("is unreadable ({e})")),
        };
        let mut lines = text.lines();
        let expected_header = format!("{FORMAT_VERSION} {fingerprint:016x}");
        if lines.next() != Some(expected_header.as_str()) {
            return rebuild("has a corrupt header or mismatched model fingerprint");
        }
        for (n, line) in lines.enumerate() {
            if let Some(rest) = line.strip_prefix("p ") {
                let Some((key, structural)) = parse_params_entry(rest) else {
                    return rebuild(&format!("has a malformed memo entry at line {}", n + 2));
                };
                cache.insert_params(key, structural);
                continue;
            }
            let Some((key, est)) = parse_entry(line) else {
                // One bad line invalidates the whole file: a partial
                // write must not masquerade as a smaller valid cache.
                return rebuild(&format!("has a malformed entry at line {}", n + 2));
            };
            cache
                .shard(key)
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(key, est);
        }
        (cache, false)
    }

    /// Persist all entries to the versioned file under `dir`, creating
    /// the directory as needed. Entries are written sorted by key so the
    /// file is deterministic for a given content; the write goes through
    /// a temp file and rename so readers never see a torn cache.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating, writing or renaming the file.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let _span = dhdl_obs::span!("cache.flush");
        let _t = dhdl_obs::histogram!("cache.disk.store_ns").timer();
        std::fs::create_dir_all(dir)?;
        let mut entries: Vec<(u64, Estimate)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let map = shard.lock().unwrap_or_else(|e| e.into_inner());
            entries.extend(map.iter().map(|(&k, &v)| (k, v)));
        }
        entries.sort_unstable_by_key(|&(k, _)| k);
        let mut out = format!("{FORMAT_VERSION} {:016x}\n", self.fingerprint);
        for (key, est) in entries {
            let _ = writeln!(
                out,
                "{key:016x} {:016x} {:016x} {:016x} {:016x} {:016x}",
                est.cycles.to_bits(),
                est.area.alms.to_bits(),
                est.area.regs.to_bits(),
                est.area.dsps.to_bits(),
                est.area.brams.to_bits()
            );
        }
        // The parameter memo follows the estimates, `p`-prefixed so a
        // torn estimate line can never be mistaken for a memo line.
        let mut mappings: Vec<(u64, u64)> = Vec::with_capacity(self.params_len());
        for shard in &self.params {
            let map = shard.lock().unwrap_or_else(|e| e.into_inner());
            mappings.extend(map.iter().map(|(&k, &v)| (k, v)));
        }
        mappings.sort_unstable();
        for (key, structural) in mappings {
            let _ = writeln!(out, "p {key:016x} {structural:016x}");
        }
        let path = Self::path_in(dir, self.fingerprint);
        let tmp = path.with_extension("txt.tmp");
        std::fs::write(&tmp, out)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// Parse one `key cycles alms regs dsps brams` entry line (all fields
/// 16-digit lowercase hex; the f64 fields are IEEE-754 bit patterns, so
/// the round trip is bit-exact).
fn parse_entry(line: &str) -> Option<(u64, Estimate)> {
    let mut fields = line.split_ascii_whitespace();
    let mut next = || {
        let f = fields.next()?;
        // Fixed-width fields so a truncated trailing field (torn write)
        // cannot parse as a shorter, different value.
        if f.len() != 16 {
            return None;
        }
        u64::from_str_radix(f, 16).ok()
    };
    let key = next()?;
    let est = Estimate {
        cycles: f64::from_bits(next()?),
        area: AreaReport {
            alms: f64::from_bits(next()?),
            regs: f64::from_bits(next()?),
            dsps: f64::from_bits(next()?),
            brams: f64::from_bits(next()?),
        },
    };
    if fields.next().is_some() {
        return None;
    }
    Some((key, est))
}

/// Parse the body of a `p <params_key> <structural>` memo line (both
/// fields 16-digit lowercase hex).
fn parse_params_entry(rest: &str) -> Option<(u64, u64)> {
    let mut fields = rest.split_ascii_whitespace();
    let mut next = || {
        let f = fields.next()?;
        if f.len() != 16 {
            return None;
        }
        u64::from_str_radix(f, 16).ok()
    };
    let key = next()?;
    let structural = next()?;
    if fields.next().is_some() {
        return None;
    }
    Some((key, structural))
}

/// Fingerprint of everything an estimate depends on besides the design:
/// the trained area model, the target platform, and the cache format
/// version. Two estimators with equal fingerprints produce bit-identical
/// estimates, so a persisted cache keyed by this value survives exactly
/// as long as it is valid.
pub fn model_fingerprint(estimator: &Estimator) -> u64 {
    let mut h = Fnv64::new();
    h.write(FORMAT_VERSION.as_bytes());
    h.write(estimator.area_model().to_text().as_bytes());
    // Platform's Debug rendering covers every numeric field of the
    // device and power models; Fnv64 hashes it without allocating.
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
        let key = structural_hash(design);
        let est = match self.cache.get(key) {
            Some(est) => est,
            None => {
                let est = self.inner.estimate(design);
                self.cache.insert(key, est);
                est
            }
        };
        // Record the fast-path mapping only for estimates the structural
        // map accepted (finite): a memo entry pointing at nothing would
        // just double-count misses, and one recorded during a transient
        // NaN fault would defeat the runner's retry.
        if let Some(pk) = params_key {
            if estimate_is_finite(&est) {
                self.cache.insert_params(pk, key);
            }
        }
        est
    }

    fn estimate_devices(&self, params_key: Option<u64>, design: &Design, k: u32) -> Estimate {
        if k <= 1 {
            return self.estimate_keyed(params_key, design);
        }
        let key = devices_key(structural_hash(design), k);
        let est = match self.cache.get(key) {
            Some(est) => est,
            None => {
                let est = self.inner.estimate_devices(None, design, k);
                self.cache.insert(key, est);
                est
            }
        };
        // Same finite-only memo rule as `estimate_keyed`: the parameter
        // memo may point at the device-salted key because `params_key`
        // already hashes `num_fpgas` — one assignment, one key.
        if let Some(pk) = params_key {
            if estimate_is_finite(&est) {
                self.cache.insert_params(pk, key);
            }
        }
        est
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
    fn corrupt_or_mismatched_files_rebuild_with_a_counter() {
        // Each load reports its own rebuild: the `cache.l2.rebuild`
        // counter is process-global, and sibling tests load corrupt
        // caches too (`cache_consistency.rs` checks the counter itself).
        let dir = std::env::temp_dir().join(format!("dhdl-cache-rebuild-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Missing file: the normal cold start — no rebuild.
        let (cold, rebuilt) = EstimateCache::load_reporting(&dir, 0xF00D);
        assert!(cold.is_empty() && !rebuilt);

        // A valid file whose header carries a *different* fingerprint
        // (stale model) at this fingerprint's path: rebuild.
        let other = EstimateCache::new(0xBEEF);
        other.insert(1, est(10.0));
        other.save(&dir).unwrap();
        std::fs::rename(
            EstimateCache::path_in(&dir, 0xBEEF),
            EstimateCache::path_in(&dir, 0xF00D),
        )
        .unwrap();
        let (loaded, rebuilt) = EstimateCache::load_reporting(&dir, 0xF00D);
        assert!(loaded.is_empty() && rebuilt);

        // An intact file: loaded, no rebuild.
        let cache = EstimateCache::new(0xF00D);
        cache.insert(1, est(10.0));
        cache.insert(2, est(20.0));
        let path = cache.save(&dir).unwrap();
        let (loaded, rebuilt) = EstimateCache::load_reporting(&dir, 0xF00D);
        assert!(loaded.len() == 2 && !rebuilt);

        // A torn entry line: rebuild.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();
        let (loaded, rebuilt) = EstimateCache::load_reporting(&dir, 0xF00D);
        assert!(loaded.is_empty(), "partial file must not half-load");
        assert!(rebuilt);

        // A well-formed file of the previous format version (keys from
        // the pre-v3 hash stream): every line parses, none is trusted.
        let v2 = text.replace(FORMAT_VERSION, "dhdl-estimate-cache v2");
        assert_ne!(v2, text);
        std::fs::write(&path, v2).unwrap();
        let (loaded, rebuilt) = EstimateCache::load_reporting(&dir, 0xF00D);
        assert!(loaded.is_empty() && loaded.params_len() == 0 && rebuilt);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_round_trip_is_bit_exact() {
        let dir = std::env::temp_dir().join(format!("dhdl-cache-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = EstimateCache::new(0xABCD);
        // Values that stress the format: subnormal, negative zero, huge.
        cache.insert(3, est(f64::MIN_POSITIVE / 2.0));
        cache.insert(1, est(-0.0));
        cache.insert(2, est(1e300));
        // Parameter-memo section: two assignments mapping to key 2.
        cache.insert_params(0x10, 2);
        cache.insert_params(0x11, 2);
        let path = cache.save(&dir).unwrap();
        assert_eq!(path, EstimateCache::path_in(&dir, 0xABCD));

        let loaded = EstimateCache::load(&dir, 0xABCD);
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.params_len(), 2);
        for key in [1u64, 2, 3] {
            let a = cache.get(key).unwrap();
            let b = loaded.get(key).unwrap();
            assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
            assert_eq!(a.area, b.area);
        }
        assert_eq!(loaded.get_params(0x10), Some(2));
        assert_eq!(loaded.get_params(0x11), Some(2));
        assert_eq!(loaded.get_params(0x12), None);
        // A different fingerprint must not see these entries.
        assert!(EstimateCache::load(&dir, 0xABCE).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_truncated_files_load_empty() {
        let dir = std::env::temp_dir().join(format!("dhdl-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = EstimateCache::new(5);
        cache.insert(1, est(2.0));
        cache.insert_params(9, 1);
        let path = cache.save(&dir).unwrap();

        let good = std::fs::read_to_string(&path).unwrap();
        // Truncated memo line (the file's last line): whole file rejected.
        std::fs::write(&path, &good[..good.len() - 5]).unwrap();
        let loaded = EstimateCache::load(&dir, 5);
        assert!(loaded.is_empty() && loaded.params_len() == 0);
        // Wrong header version: rejected.
        std::fs::write(
            &path,
            good.replace(FORMAT_VERSION, "dhdl-estimate-cache v0"),
        )
        .unwrap();
        assert!(EstimateCache::load(&dir, 5).is_empty());
        // An estimate line torn down to two fields must not pass as a
        // memo line (memo lines carry the `p ` prefix).
        let torn: String = good
            .lines()
            .map(|l| {
                if l.starts_with('p') || l.starts_with(FORMAT_VERSION) {
                    format!("{l}\n")
                } else {
                    let cut: Vec<&str> = l.split_ascii_whitespace().take(2).collect();
                    format!("{}\n", cut.join(" "))
                }
            })
            .collect();
        std::fs::write(&path, torn).unwrap();
        assert!(EstimateCache::load(&dir, 5).is_empty());
        // Missing file: empty, no error.
        std::fs::remove_file(&path).unwrap();
        assert!(EstimateCache::load(&dir, 5).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
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
    fn cache_mode_parses_env_values() {
        // from_env reads the process environment, which tests must not
        // mutate (other tests run concurrently); exercise the parser the
        // env path delegates to instead.
        assert_eq!(CacheMode::default(), CacheMode::Disk);
        assert_eq!(CacheMode::parse("off"), Ok(CacheMode::Off));
        assert_eq!(CacheMode::parse("0"), Ok(CacheMode::Off));
        assert_eq!(CacheMode::parse("mem"), Ok(CacheMode::Memory));
        assert_eq!(CacheMode::parse("memory"), Ok(CacheMode::Memory));
        assert_eq!(CacheMode::parse("disk"), Ok(CacheMode::Disk));
        assert_eq!("disk".parse::<CacheMode>(), Ok(CacheMode::Disk));
    }

    #[test]
    fn cache_mode_rejects_garbage() {
        for bad in ["", "dsk", "on", "OFF", "Disk", "disk ", "1", "true"] {
            let r = CacheMode::parse(bad);
            assert!(r.is_err(), "`{bad}` should be rejected, got {r:?}");
            assert!(
                r.unwrap_err().contains("off|mem|disk"),
                "error should name the valid modes"
            );
        }
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
