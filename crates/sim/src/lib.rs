//! # dhdl-sim — functional and timing simulation of DHDL designs
//!
//! The execution substrate replacing the FPGA board of the paper's
//! evaluation (§V-A: designs were "synthesized and run on an Altera 28nm
//! Stratix V FPGA on a Max4 MAIA board"). [`simulate`] interprets a design
//! instance functionally — producing the benchmark's actual numerical
//! outputs — while computing a cycle-level timing ground truth: measured
//! per-wave MetaPipe pipeline schedules, dynamic DRAM bandwidth sharing
//! ([`DramTimeline`]), and counter/control artifacts the analytical
//! estimator does not model. The gap between simulated and estimated
//! cycles reproduces the runtime-estimation error of Table III.
//!
//! Two execution backends share those semantics, written independently
//! so that one can check the other. [`simulate`] is the reference
//! interpreter: each run resolves the design once (node-indexed state
//! tables, constants quantized into their value slots, every
//! controller's iterators) and then walks the controller hierarchy,
//! evaluating bodies node by node and measuring timing as it goes.
//! [`compile`]/[`Compiled::run`] resolve once per *compile* instead: a
//! flat-arena instruction tape with precomputed timing and one micro-op
//! kernel per pipe body, replayed per input set — bit-identical results
//! (outputs, cycles, profile, trace, errors) at several times the
//! interpreter's throughput. [`simulate_compiled`] prefers the tape and
//! falls back to the interpreter for designs the compiler
//! rejects ([`CompileError::Unsupported`], counted as
//! `sim.tape.fallback`). A multi-device plan never changes the executed
//! run: under a `dhdl_synth` partitioning it is that run plus the plan's
//! `link_cycles`.
//!
//! ```
//! use dhdl_core::{by, DType, DesignBuilder};
//! use dhdl_sim::{simulate, Bindings};
//! use dhdl_target::Platform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DesignBuilder::new("scale");
//! let x = b.off_chip("x", DType::F32, &[64]);
//! let y = b.off_chip("y", DType::F32, &[64]);
//! b.sequential(|b| {
//!     let t = b.bram("t", DType::F32, &[64]);
//!     let z = b.index_const(0);
//!     b.tile_load(x, t, &[z], &[64], 1);
//!     b.pipe(&[by(64, 1)], 1, |b, it| {
//!         let v = b.load(t, &[it[0]]);
//!         let two = b.constant(2.0, DType::F32);
//!         let w = b.mul(v, two);
//!         b.store(t, &[it[0]], w);
//!     });
//!     b.tile_store(y, t, &[z], &[64], 1);
//! });
//! let design = b.finish()?;
//! let inputs = Bindings::new().bind("x", (0..64).map(f64::from).collect());
//! let result = simulate(&design, &Platform::maia(), &inputs)?;
//! assert_eq!(result.output("y")?[3], 6.0);
//! assert!(result.cycles > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod arena;
mod compile;
mod error;
mod interp;
mod memory;
mod tape;
mod trace;

pub use compile::{compile, simulate_compiled, CompileError, Compiled};
pub use error::{Result, SimError};
pub use interp::{simulate, Bindings, ProfileEntry, SimResult};
pub use memory::DramTimeline;
pub use trace::{Trace, TraceEvent};
