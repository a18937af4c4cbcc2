//! # dhdl-serve — DSE as a service
//!
//! A robustness-first serving layer over the exploration stack: a
//! std-only threaded TCP server that accepts design submissions, point
//! estimates and DSE sweeps over a minimal length-prefixed JSON
//! protocol, dispatching onto the existing work-stealing sweep runner
//! and the shard-striped [`dhdl_dse::EstimateCache`].
//!
//! The design center is *graceful degradation under hostility*, not
//! peak throughput:
//!
//! * [`admission`] — bounded per-tenant queues, a global cap, and a
//!   degradation ladder (shed sheddable sweeps when busy; at
//!   saturation, serve only cache hits, flagged `degraded`); overload
//!   is answered with explicit 429-style rejections, never unbounded
//!   queueing;
//! * [`protocol`] — structured errors for every malformed input, and
//!   bit-exact `f64` transport (IEEE-754 bit-pattern strings) so a
//!   sweep fetched through the server is byte-identical to one run
//!   in-process;
//! * [`frame`] — length-prefixed framing with limits enforced before
//!   allocation, plus socket read/write timeouts against stalled peers;
//! * [`client`] — jittered-exponential retries over transport faults
//!   and rejections, with idempotency keys mapping to server-side sweep
//!   checkpoints so a retried sweep resumes rather than restarts;
//! * [`chaos`] — deterministic seeded connection faults (drops, stalls,
//!   truncated frames) mirroring [`dhdl_dse::FaultInjector`] one layer
//!   down; the chaos suite drives both at once and asserts recovery to
//!   bit-identical results;
//! * [`signal`] — SIGTERM/SIGINT drain: stop accepting, finish or
//!   checkpoint in-flight sweeps, flush the obs sinks, exit 0.
//!
//! Binaries: `dhdl-serve` (the server) and `dhdl-loadgen` (a
//! Zipf-skewed mixed-benchmark load generator measuring p50/p99, used
//! by the CI smoke job and `results/BENCH_serve.json`).

#![warn(missing_docs)]

pub mod admission;
pub mod chaos;
pub mod client;
pub mod frame;
pub mod json;
pub mod protocol;
pub mod server;
pub mod signal;

#[cfg(test)]
mod codec_tests;

pub use admission::{Admission, AdmissionConfig, AdmissionStats, LoadLevel, Permit, WorkKind};
pub use chaos::{ChaosConfig, ChaosPlan};
pub use client::{Client, ClientError, RetryPolicy};
pub use frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME, DEFAULT_MAX_RESPONSE};
pub use json::{Json, JsonError};
pub use protocol::{
    bits_str, parse_bits, point_from_json, point_to_json, Header, Op, ProtoError, Request,
    PROTOCOL_VERSION,
};
pub use server::{parse_faults, Server, ServerConfig};
