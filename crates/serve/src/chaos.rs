//! Connection-level chaos: deterministic, seeded fault injection at the
//! transport layer.
//!
//! The sibling of [`dhdl_dse::FaultInjector`] (which injects *evaluation*
//! faults), this layer injects *connection* faults: dropped connections,
//! response stalls, and truncated response frames. Decisions are pure
//! functions of `(seed, connection id, frame index)` — the same mixing
//! discipline as the DSE fault injector — so a chaos run is exactly
//! reproducible: the same seed kills the same frames on every run,
//! regardless of timing or thread interleaving.
//!
//! The chaos suite in `tests/chaos.rs` runs a full sweep through a
//! server configured with this layer plus injected evaluation panics and
//! asserts the client-visible result is *bit-identical* to a fault-free
//! in-process sweep — faults may cost retries, never correctness.

use std::time::Duration;

/// Fault rates for the connection chaos layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Fraction of request frames answered by dropping the connection
    /// *before* the request is executed (client sees a dead socket and
    /// retries).
    pub drop_rate: f64,
    /// Fraction of responses whose frame is cut off mid-write, then the
    /// connection is closed (client sees a torn frame and retries).
    pub truncate_rate: f64,
    /// Fraction of responses delayed by [`ChaosConfig::stall`] before
    /// writing (exercises client timeouts without killing the request).
    pub stall_rate: f64,
    /// Stall duration for stalled responses.
    pub stall: Duration,
}

impl ChaosConfig {
    /// A disabled configuration (all rates zero).
    pub fn disabled() -> Self {
        ChaosConfig {
            seed: 0xC4A05,
            drop_rate: 0.0,
            truncate_rate: 0.0,
            stall_rate: 0.0,
            stall: Duration::from_millis(5),
        }
    }

    /// The faults planned for frame `frame` of connection `conn` — a
    /// pure function of the config seed and those indices.
    pub fn plan(&self, conn: u64, frame: u64) -> ChaosPlan {
        ChaosPlan {
            drop_conn: decide(self.seed ^ 0xD809, conn, frame, self.drop_rate),
            truncate: decide(self.seed ^ 0x7095, conn, frame, self.truncate_rate),
            stall: decide(self.seed ^ 0x57A1, conn, frame, self.stall_rate),
        }
    }
}

/// The faults planned for one `(connection, frame)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Drop the connection before executing the request.
    pub drop_conn: bool,
    /// Execute, then write only half the response frame and close.
    pub truncate: bool,
    /// Sleep before responding.
    pub stall: bool,
}

/// SplitMix64-style avalanche of `(seed, conn, frame)`.
fn mix(seed: u64, conn: u64, frame: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(conn.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(frame.wrapping_mul(0x94D0_49BB_1331_11EB));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `true` with probability `rate`, decided purely by the mixed hash of
/// `(salted seed, conn, frame)` — the same discipline as
/// [`dhdl_dse::FaultInjector`]'s per-design decisions.
fn decide(salted_seed: u64, conn: u64, frame: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    let h = mix(salted_seed, conn, frame);
    // 53 high bits → uniform dyadic rational in [0, 1).
    let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    u < rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_rate_faithful() {
        let cfg = ChaosConfig {
            drop_rate: 0.2,
            truncate_rate: 0.1,
            stall_rate: 0.05,
            ..ChaosConfig::disabled()
        };
        // Pure in (conn, frame): same inputs, same plan, every time.
        for conn in 0..20u64 {
            for frame in 0..20u64 {
                assert_eq!(cfg.plan(conn, frame), cfg.plan(conn, frame));
            }
        }
        // Empirical rates over many decisions land near the configured
        // ones (law of large numbers; wide tolerance keeps this stable).
        let n = 20_000u64;
        let (mut drops, mut truncs, mut stalls) = (0u64, 0u64, 0u64);
        for i in 0..n {
            let p = cfg.plan(i / 64, i % 64);
            drops += u64::from(p.drop_conn);
            truncs += u64::from(p.truncate);
            stalls += u64::from(p.stall);
        }
        let frac = |c: u64| c as f64 / n as f64;
        assert!((frac(drops) - 0.2).abs() < 0.02, "{}", frac(drops));
        assert!((frac(truncs) - 0.1).abs() < 0.02, "{}", frac(truncs));
        assert!((frac(stalls) - 0.05).abs() < 0.02, "{}", frac(stalls));
        // Disabled chaos plans nothing.
        let off = ChaosConfig::disabled();
        for i in 0..100 {
            let p = off.plan(i, i);
            assert!(!p.drop_conn && !p.truncate && !p.stall);
        }
    }
}
