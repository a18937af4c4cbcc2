//! Generative differential-conformance harness for DHDL.
//!
//! This crate fuzzes the whole toolchain with *legal* generated designs
//! and cross-checks every layer against an independent oracle:
//!
//! - **Functional**: simulator output vs. a plain-Rust reference
//!   evaluator that mirrors the simulator's quantization semantics
//!   bit-for-bit, plus `patterns`-level interpreter and `dhdl-cpu`
//!   kernel differentials where a reference exists.
//! - **Structural**: full `elaborate` vs. skeleton+recost netlists,
//!   `structural_hash`/serialize round-trip stability, and the banking
//!   and double-buffering `finish()` infers vs. their set-based
//!   definitions.
//! - **Model**: estimator finiteness, monotonicity-in-parallelism,
//!   capacity bounds vs. `dhdl-synth`, and `EstimateCache`
//!   hit-equals-miss bit-identity.
//!
//! Failures auto-shrink (greedy structural reduction; the vendored
//! proptest does not shrink) and persist as replayable cases under
//! `tests/corpus/`. The `dhdl-fuzz` binary is the entry point:
//!
//! ```text
//! cargo run -p dhdl-conformance --bin dhdl-fuzz -- --designs 500 --seed 0
//! ```

#![warn(missing_docs)]

pub mod apps;
pub mod corpus;
pub mod dnn;
pub mod finish;
pub mod gen;
pub mod oracle;
pub mod patgen;
pub mod shrink;

pub use corpus::{CaseKind, CorpusCase};
pub use dnn::{generate_dnn, DnnKind, DnnSpec};
pub use finish::FinishCoverage;
pub use gen::{generate, DesignSpec, MapStep, Operand};
pub use oracle::{Conformance, Violation};
pub use patgen::{generate_pattern, PatternSpec};
pub use shrink::{shrink, shrink_dnn, shrink_pattern};
