//! # dhdl-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V).
//! Each experiment is one function taking a calibrated [`Harness`] and
//! the benchmarks to run. It returns a [`Report`] — what to print and
//! which `results/` files to write — beside whatever numbers the tests
//! assert on; `dhdl <experiment>` runs it at full scale and emits the
//! report:
//!
//! * [`table2()`] — the benchmark suite and dataset sizes;
//! * [`table3()`] — average absolute estimation error for ALMs, DSPs,
//!   BRAMs and runtime, over Pareto points per benchmark;
//! * [`table4()`] — estimation speed per design point vs. the mock
//!   commercial HLS tool (restricted and full design spaces);
//! * [`fig5()`] — design-space scatter data (ALM/DSP/BRAM utilization vs.
//!   log-cycles) with Pareto fronts and boundedness analysis;
//! * [`fig6()`] — speedups of the best generated designs over the modeled
//!   6-core Xeon CPU baseline;
//! * [`ablations()`] — MetaPipe-off, raw-analytical-estimator and
//!   pruning-off studies;
//! * [`energy()`] — energy per run against the CPU at TDP;
//! * [`diagnose()`], [`sweep()`] — per-point error breakdown and
//!   one-parameter sensitivity slices;
//! * [`dnnbench()`], [`partbench()`] — the DNN workloads and the
//!   multi-FPGA axis.
//!
//! Each experiment's harness seed is the `SEED` constant of its module.
//! Nothing here measures the toolchain's own speed (Table IV's
//! seconds-per-design aside, which is the paper's experiment): that is
//! `benchmark/`.

#![warn(missing_docs)]

pub mod ablations;
pub mod diagnose;
pub mod dnnbench;
pub mod energy;
pub mod experiments;
pub mod fig5;
pub mod fig6;
pub mod knobs;
pub mod partbench;
pub mod report;
pub mod sweep;
pub mod table2;
pub mod table3;
pub mod table4;

pub use ablations::ablations;
pub use diagnose::diagnose;
pub use dnnbench::dnnbench;
pub use energy::energy;
pub use experiments::{mean_errors, simulate_bench, Harness, PointEval};
pub use fig5::fig5;
pub use fig6::fig6;
pub use knobs::knob;
pub use partbench::partbench;
pub use report::Report;
pub use sweep::sweep;
pub use table2::table2;
pub use table3::table3;
pub use table4::table4;
