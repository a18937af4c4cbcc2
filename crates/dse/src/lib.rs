//! # dhdl-dse — design space exploration
//!
//! The exploration phase of the framework (§IV-C): given a benchmark
//! metaprogram and its declared [`dhdl_core::ParamSpace`], enumerate or
//! sample the *legal* subspace (divisor-pruned tile sizes and
//! parallelization factors, automatic banking, per-memory size caps),
//! estimate every point with the fast estimators, and extract the
//! Pareto-optimal surface over execution time and ALM usage — the data
//! behind Figure 5.
//!
//! [`DseOptions::max_points`] bounds a sweep: a legal space no larger is
//! enumerated, a larger one is sampled uniformly with a seed, and every
//! chosen point is estimated. At microseconds an estimate, the whole
//! space of every benchmark takes a fraction of a second, so the
//! experiments enumerate it and there is no model-guided way to choose
//! which points to evaluate (DESIGN.md, "A sweep is the space").
//!
//! Sweeps run on a resilient parallel runner. Points fan out over a
//! work-stealing thread pool, and each is evaluated once with its panics
//! isolated: a panic or a non-finite estimate discards the point with
//! its reason. Discards are accounted per cause in [`OutcomeCounts`],
//! and a wall-clock [`DseOptions::deadline`] truncates gracefully. A
//! sweep is a pure function of its options, so an interrupted one is
//! re-run, not resumed. The crate's tests drive those paths with a
//! deterministic fault injector (`tests/support/fault.rs`).
//!
//! Estimates are memoizable: [`CachedModel`] wraps any [`CostModel`]
//! with a sharded [`EstimateCache`] keyed by the canonical
//! [`dhdl_core::structural_hash`], in memory for the life of the
//! process. A second, parameter-keyed memo level ([`params_key`], enabled per sweep via
//! [`DseOptions::cache_salt`]) lets warm sweeps skip design construction
//! and hashing outright — the warm fast path. Sweeps are bit-identical
//! with the cache off, cold or warm; per-sweep timing, throughput
//! and hit rates surface in [`DseResult::stats`].
//!
//! ```no_run
//! use dhdl_dse::{explore, DseOptions};
//! use dhdl_estimate::Estimator;
//! use dhdl_target::Platform;
//!
//! let estimator = Estimator::calibrate(&Platform::maia(), 1);
//! # let (build, space): (fn(&dhdl_core::ParamValues) -> dhdl_core::Result<dhdl_core::Design>, dhdl_core::ParamSpace) = unimplemented!();
//! let result = explore(build, &space, &estimator, &DseOptions::default());
//! println!(
//!     "space {} points, best {} cycles",
//!     result.space_size,
//!     result.best().unwrap().cycles
//! );
//! ```

#![warn(missing_docs)]

mod cache;
mod objectives;
mod pareto;
mod runner;
mod search;
mod space;
mod word_hash;

pub use cache::{
    devices_key, model_fingerprint, params_key, CacheStats, CachedModel, EstimateCache,
};
pub use objectives::{frontier_along, ResourceAxis};
pub use pareto::{pareto_front, spread};
pub use runner::{device_count, CostModel, DseError, OutcomeCounts, PointOutcome, SweepStats};
pub use search::{explore, DesignPoint, DseOptions, DseResult};
pub use space::LegalSpace;
