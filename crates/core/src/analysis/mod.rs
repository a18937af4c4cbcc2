//! Analysis passes over finished designs.
//!
//! [`validate`] checks structural legality; [`banking`] computes BRAM
//! banking factors from access parallelism (§III-B2); [`double_buffer`]
//! converts MetaPipe inter-stage buffers to double buffers (§III-B3);
//! [`traversal`] provides the flat controller tree and the memory-access
//! visitor the three share; [`stats`] computes
//! whole-design statistics used as estimator features.

pub mod banking;
pub mod double_buffer;
pub mod stats;
pub mod traversal;
pub mod validate;
