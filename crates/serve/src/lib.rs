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
//! * [`server`] — deadlines that return a sweep flagged `truncated`
//!   instead of completing it silently; a sweep is a pure function of
//!   its request, so a client that lost an answer sends the request
//!   again, and the points already estimated come back from the cache;
//! * [`signal`] — SIGTERM/SIGINT drain: stop accepting, let in-flight
//!   sweeps finish or hit their deadlines, flush the obs sinks, exit 0.
//!
//! Binary: `dhdl-serve`, the server at [`ServerConfig::default`] with
//! its listen address from `DHDL_SERVE_ADDR`.

#![warn(missing_docs)]

pub mod admission;
pub mod frame;
pub use dhdl_obs::json;
pub mod protocol;
pub mod server;
pub mod signal;

#[cfg(test)]
mod codec_tests;

pub use admission::{Admission, AdmissionConfig, AdmissionStats, LoadLevel, Permit, WorkKind};
pub use frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME, DEFAULT_MAX_RESPONSE};
pub use json::{Json, JsonError};
pub use protocol::{
    bits_str, parse_bits, point_from_json, point_to_json, Header, Op, ProtoError, Request,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};
