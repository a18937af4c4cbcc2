//! # dhdl-apps — the evaluation benchmark suite (Table II)
//!
//! The seven benchmarks of the paper's evaluation, each expressed as a
//! DHDL metaprogram with its declared parameter space, deterministic
//! dataset, reference outputs and CPU work profile:
//!
//! | Benchmark | Description | Paper dataset |
//! |---|---|---|
//! | `dotproduct` | Vector dot product | 187,200,000 |
//! | `outerprod` | Vector outer product | 38,400 × 38,400 |
//! | `gemm` | Tiled matrix multiplication | 1536 × 1536 |
//! | `tpchq6` | TPC-H Query 6 | N = 18,720,000 |
//! | `blackscholes` | Black-Scholes-Merton model | N = 9,995,328 |
//! | `gda` | Gaussian discriminant analysis | R = 360,000, D = 96 |
//! | `kmeans` | k-means clustering | 960,000 pts, k = 8, dim = 384 |
//!
//! Beyond the paper's suite, the [`dnn`] registry adds the post-paper
//! DNN workload frontier: `conv2d` (line-buffer tiles, tile-parallel
//! output channels) and `attention` (GEMM–softmax–GEMM), benchmarked by
//! the `dnnbench` binary.
//!
//! Default dataset sizes are scaled down uniformly so the whole evaluation
//! runs on a laptop-class machine; every benchmark type also has a
//! size-parameterized constructor for tests. All benchmarks operate on
//! single-precision floating point except where the kernel requires
//! integer or boolean inputs (§V-A).
//!
//! ```
//! use dhdl_apps::{all, Benchmark};
//!
//! for b in all() {
//!     let design = b.build(&b.default_params()).unwrap();
//!     assert_eq!(design.name(), b.name());
//! }
//! ```

#![warn(missing_docs)]

pub mod attention;
pub mod blackscholes;
pub mod conv2d;
pub mod data;
pub mod dotproduct;
pub mod gda;
pub mod gemm;
pub mod kmeans;
pub mod outerprod;
pub mod pattern_bench;
pub mod saxpy;
pub mod tpchq6;

use std::collections::BTreeMap;

use dhdl_core::{structural_hash, Design, Fnv64, ParamSpace, ParamValues, Result};
use dhdl_hls::HlsKernel;

pub use attention::Attention;
pub use blackscholes::BlackScholes;
pub use conv2d::Conv2d;
pub use dotproduct::DotProduct;
pub use gda::Gda;
pub use gemm::Gemm;
pub use kmeans::KMeans;
pub use outerprod::OuterProduct;
pub use pattern_bench::PatternBenchmark;
pub use saxpy::Saxpy;
pub use tpchq6::TpchQ6;

/// Named input/output arrays keyed by off-chip memory name.
pub type Arrays = BTreeMap<String, Vec<f64>>;

/// Analytic work profile of one benchmark execution, consumed by the CPU
/// performance model for the Figure 6 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkProfile {
    /// Simple floating point operations (add/sub/mul/compare).
    pub flops: f64,
    /// Divisions.
    pub divs: f64,
    /// Square roots.
    pub sqrts: f64,
    /// Exponentials.
    pub exps: f64,
    /// Logarithms.
    pub lns: f64,
    /// Bytes read from main memory (cold).
    pub bytes_read: f64,
    /// Bytes written to main memory.
    pub bytes_written: f64,
    /// Whether the kernel contains data-dependent branches that stall CPU
    /// pipelines (tpchq6, §V-D).
    pub branchy: bool,
    /// Whether an optimized BLAS-3 library implementation exists (gemm
    /// compares against OpenBLAS, §V-D).
    pub blas3: bool,
    /// Whether the kernel's working set defeats CPU caches and
    /// vectorization (gda rewrites a D x D accumulator per input row,
    /// §V-C1), dropping generated-code throughput to scalar rates.
    pub cache_hostile: bool,
}

impl WorkProfile {
    /// Total bytes moved.
    pub fn bytes(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// Total floating point operations including the complex ones.
    pub fn total_flops(&self) -> f64 {
        self.flops + self.divs + self.sqrts + self.exps + self.lns
    }
}

/// A benchmark of the evaluation suite: a DHDL metaprogram plus everything
/// needed to evaluate it (parameter space, data, reference, work profile).
pub trait Benchmark: Send + Sync {
    /// Benchmark name (also the generated design's name).
    fn name(&self) -> &'static str;

    /// One-line description (Table II).
    fn description(&self) -> &'static str;

    /// The paper's dataset size (Table II), for reporting.
    fn paper_dataset(&self) -> &'static str;

    /// The scaled dataset used by this instance, for reporting.
    fn dataset_desc(&self) -> String;

    /// The tunable design parameters (§III-C: tile sizes, parallelization
    /// factors, MetaPipe toggles).
    fn param_space(&self) -> ParamSpace;

    /// A reasonable mid-range parameter assignment (used by tests and
    /// quick demos; DSE finds better ones).
    fn default_params(&self) -> ParamValues;

    /// Instantiate the design for a parameter assignment.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameters are incomplete or the resulting
    /// design is structurally invalid.
    fn build(&self, p: &ParamValues) -> Result<Design>;

    /// Deterministic input arrays keyed by off-chip memory name.
    fn inputs(&self) -> Arrays;

    /// Expected output arrays keyed by off-chip memory name.
    fn reference(&self) -> Arrays;

    /// Analytic work profile for the CPU model.
    fn work(&self) -> WorkProfile;

    /// The benchmark expressed in the C-like HLS IR, when available
    /// (GDA drives the Table IV comparison).
    fn hls_kernel(&self) -> Option<HlsKernel> {
        None
    }

    /// The parameter-memo salt (`DseOptions::cache_salt`): name, dataset
    /// and the canonical structure of the default-parameter design.
    /// Distinct benchmarks must never share a salt (their identical
    /// parameter assignments would alias in a shared estimate cache),
    /// and mixing in the default design's [`structural_hash`] keeps two
    /// shapes of one metaprogram from sharing memo entries. Every
    /// caller derives it this way, so a cache filled by served
    /// `estimate` requests answers a served `sweep` and vice versa.
    fn salt(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.name().as_bytes());
        h.write(self.dataset_desc().as_bytes());
        match self.build(&self.default_params()) {
            Ok(design) => h.write_u64(structural_hash(&design)),
            // A benchmark whose defaults do not build still sweeps; its
            // memo is simply keyed without the structural guard.
            Err(_) => h.write_u64(0),
        }
        h.finish()
    }
}

/// The seven benchmarks of Table II at their default (scaled) sizes.
pub fn all() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(DotProduct::default()),
        Box::new(OuterProduct::default()),
        Box::new(Gemm::default()),
        Box::new(TpchQ6::default()),
        Box::new(BlackScholes::default()),
        Box::new(Gda::default()),
        Box::new(KMeans::default()),
    ]
}

/// The DNN workload frontier (post-paper): conv2d and attention at their
/// default (scaled) sizes. Kept out of [`all`] so the Table II suite
/// stays pinned to the paper's seven kernels.
pub fn dnn() -> Vec<Box<dyn Benchmark>> {
    vec![Box::new(Conv2d::default()), Box::new(Attention::default())]
}

/// Look up a benchmark by name, across the Table II suite and the DNN
/// workload frontier.
pub fn by_name(name: &str) -> Option<Box<dyn Benchmark>> {
    // Constructs the one asked for: `dhdl-serve` calls this per request.
    Some(match name {
        "dotproduct" => Box::new(DotProduct::default()),
        "outerprod" => Box::new(OuterProduct::default()),
        "gemm" => Box::new(Gemm::default()),
        "tpchq6" => Box::new(TpchQ6::default()),
        "blackscholes" => Box::new(BlackScholes::default()),
        "gda" => Box::new(Gda::default()),
        "kmeans" => Box::new(KMeans::default()),
        "conv2d" => Box::new(Conv2d::default()),
        "attention" => Box::new(Attention::default()),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_seven_benchmarks() {
        let suite = all();
        assert_eq!(suite.len(), 7);
        let names: Vec<&str> = suite.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "dotproduct",
                "outerprod",
                "gemm",
                "tpchq6",
                "blackscholes",
                "gda",
                "kmeans"
            ]
        );
    }

    #[test]
    fn lookup_by_name() {
        // Every registered benchmark, and only those, under its own name.
        for b in all().into_iter().chain(dnn()) {
            let found = by_name(b.name()).unwrap_or_else(|| panic!("{} not found", b.name()));
            assert_eq!(found.name(), b.name());
            assert_eq!(found.dataset_desc(), b.dataset_desc());
        }
        assert!(by_name("nope").is_none());
        assert!(by_name("saxpy").is_none());
    }

    #[test]
    fn dnn_frontier_benchmarks() {
        let suite = dnn();
        let names: Vec<&str> = suite.iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["conv2d", "attention"]);
        for b in &suite {
            let space = b.param_space();
            let p = b.default_params();
            assert!(space.is_legal(&p), "{}: {p}", b.name());
            assert!(space.size() >= 8, "{} space too small", b.name());
            let d = b.build(&p).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert_eq!(d.name(), b.name());
            assert!(b.work().total_flops() > 0.0, "{}", b.name());
            assert!(b.work().bytes() > 0.0, "{}", b.name());
        }
        assert!(by_name("conv2d").is_some());
        assert!(by_name("attention").is_some());
    }

    #[test]
    fn default_params_are_legal_and_buildable() {
        for b in all() {
            let space = b.param_space();
            let p = b.default_params();
            assert!(space.is_legal(&p), "{}: {p}", b.name());
            let d = b.build(&p).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            assert_eq!(d.name(), b.name());
        }
    }

    #[test]
    fn work_profiles_are_positive() {
        for b in all() {
            let w = b.work();
            assert!(w.total_flops() > 0.0, "{}", b.name());
            assert!(w.bytes() > 0.0, "{}", b.name());
        }
    }

    #[test]
    fn hls_kernels_are_consistent() {
        for b in all() {
            let Some(k) = b.hls_kernel() else {
                panic!("{}: every suite benchmark has an HLS form", b.name());
            };
            assert!(k.total_ops() > 0, "{}", b.name());
            // HLS dynamic op count roughly tracks the work profile's flop
            // count (same asymptotic workload, small constant factors).
            let ratio = k.total_ops() as f64 / b.work().total_flops();
            assert!(
                (0.05..=20.0).contains(&ratio),
                "{}: ops/flops ratio {ratio}",
                b.name()
            );
        }
    }

    #[test]
    fn spaces_are_nontrivial() {
        for b in all() {
            assert!(b.param_space().size() >= 8, "{} space too small", b.name());
        }
    }
}
