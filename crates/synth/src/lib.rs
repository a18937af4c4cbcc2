//! # dhdl-synth — synthesis model and hardware generation
//!
//! The ground-truth substrate replacing the vendor toolchain of the paper
//! (Altera Quartus behind Maxeler's MaxCompiler):
//!
//! * [`elaborate()`] flattens a design instance into raw resource counts
//!   using the characterized template models of [`chardata`] (§IV-B);
//! * [`synthesize`] applies the place-and-route effects of §IV-A — LUT
//!   packing, route-through LUTs, register/BRAM duplication, LAB-mapping
//!   waste — producing the "post place-and-route report" ([`SynthReport`])
//!   that the estimator is validated against in Table III;
//! * [`maxj::generate`] emits MaxJ-style kernel code (§V-A), covering the
//!   Generation requirement of §II;
//! * [`characterize`] provides the per-template sweep harness of §IV-B.
//!
//! ```
//! use dhdl_core::{by, DType, DesignBuilder};
//! use dhdl_target::FpgaTarget;
//!
//! # fn main() -> dhdl_core::Result<()> {
//! let mut b = DesignBuilder::new("square");
//! let x = b.off_chip("x", DType::F32, &[256]);
//! b.sequential(|b| {
//!     let t = b.bram("t", DType::F32, &[256]);
//!     let zero = b.index_const(0);
//!     b.tile_load(x, t, &[zero], &[256], 1);
//!     b.pipe(&[by(256, 1)], 2, |b, it| {
//!         let v = b.load(t, &[it[0]]);
//!         let w = b.mul(v, v);
//!         b.store(t, &[it[0]], w);
//!     });
//! });
//! let design = b.finish()?;
//! let report = dhdl_synth::synthesize(&design, &FpgaTarget::stratix_v());
//! assert!(report.alms > 0.0);
//! let code = dhdl_synth::maxj::generate(&design);
//! assert!(code.contains("extends Kernel"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod characterize;
pub mod chardata;
pub mod elaborate;
pub mod lowlevel;
pub mod maxj;
pub mod partition;

pub use dhdl_core::shape_hash;
pub use elaborate::{
    elaborate, elaborate_with, pipe_depth, AreaBreakdown, LatencyPlan, NetFeatures, Netlist,
    PlanCtrl, Skeleton,
};
pub use lowlevel::{design_hash, place_and_route, synthesize, SynthReport};
pub use partition::{partition, Channel, CutKind, Partition, Partitioning};
