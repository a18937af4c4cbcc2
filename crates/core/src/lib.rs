//! # dhdl-core — the Delite Hardware Definition Language IR
//!
//! DHDL is an intermediate language for describing hardware datapaths as
//! hierarchical dataflow graphs of *parameterizable architectural templates*
//! (Koeplinger et al., ISCA 2016, §III). A DHDL program describes a dataflow
//! graph whose nodes are the templates of Table I: primitive operations,
//! on-/off-chip memories, controllers (`Pipe`, `MetaPipe`, `Sequential`,
//! `Parallel`) and memory command generators (`TileLd`, `TileSt`).
//!
//! Designs are built with the [`DesignBuilder`] embedded DSL. A benchmark is
//! a Rust metaprogram over the builder: calling it with concrete
//! [`ParamValues`] instantiates every template and yields a [`Design`],
//! which downstream crates estimate (`dhdl-estimate`), synthesize
//! (`dhdl-synth`), simulate (`dhdl-sim`) and explore (`dhdl-dse`).
//!
//! ```
//! use dhdl_core::{by, DType, DesignBuilder, ReduceOp};
//!
//! # fn main() -> dhdl_core::Result<()> {
//! // A dot-product accelerator skeleton, parameterized by tile size.
//! let (n, tile, par) = (4096, 64, 4);
//! let mut b = DesignBuilder::new("dotproduct");
//! let va = b.off_chip("a", DType::F32, &[n]);
//! let vb = b.off_chip("b", DType::F32, &[n]);
//! b.sequential(|b| {
//!     let acc = b.reg("acc", DType::F32, 0.0);
//!     b.meta_pipe(&[by(n, tile)], 1, |b, iters| {
//!         let i = iters[0];
//!         let at = b.bram("aT", DType::F32, &[tile]);
//!         let bt = b.bram("bT", DType::F32, &[tile]);
//!         b.parallel(|b| {
//!             b.tile_load(va, at, &[i], &[tile], par);
//!             b.tile_load(vb, bt, &[i], &[tile], par);
//!         });
//!         b.pipe_reduce(&[by(tile, 1)], par as u32, acc, ReduceOp::Add, |b, it| {
//!             let x = b.load(at, &[it[0]]);
//!             let y = b.load(bt, &[it[0]]);
//!             b.mul(x, y)
//!         });
//!     });
//! });
//! let design = b.finish()?;
//! assert_eq!(design.name(), "dotproduct");
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod analysis;
mod builder;
mod design;
mod error;
mod hash;
mod node;
mod params;
pub mod serialize;
mod small;
mod types;

pub use builder::DesignBuilder;
pub use design::Design;
pub use error::{DhdlError, Result};
pub use hash::{shape_hash, structural_hash, Fnv64};
pub use node::{
    by, BramSpec, CounterChain, CounterDim, Extents, Ids, Interleaving, MemFold, Node, NodeId,
    NodeKind, OuterSpec, Pattern, PipeSpec, PrimOp, QueueSpec, ReduceOp, RegReduce, RegSpec,
    TileSpec,
};
pub use params::{ParamDef, ParamKind, ParamSpace, ParamValues, NUM_FPGAS};
pub use small::{ShortStr, SmallList};
pub use types::DType;

pub use analysis::stats::DesignStats;
