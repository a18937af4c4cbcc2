//! Graceful-drain signal handling, std-only.
//!
//! On unix, a raw `extern "C"` binding to libc's `signal` installs an
//! async-signal-safe handler for `SIGTERM`/`SIGINT` that does exactly
//! one thing: store into a process-global [`AtomicBool`]. The accept
//! loop polls [`drain_requested`] between (nonblocking) accepts and
//! begins the drain sequence when it flips — stop accepting, let
//! in-flight sweeps finish or hit their deadlines, flush the obs sinks,
//! exit 0.
//!
//! On non-unix targets the handler is a no-op and drain is reachable
//! only via the `shutdown` protocol op, which sets the same flag through
//! [`request_drain`].

use std::sync::atomic::{AtomicBool, Ordering};

static DRAIN: AtomicBool = AtomicBool::new(false);

/// Whether a drain has been requested (signal or `shutdown` op).
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

/// Request a drain programmatically (the `shutdown` op path).
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Reset the drain flag — test-only, so one process can run several
/// server lifecycles.
pub fn reset_for_tests() {
    DRAIN.store(false, Ordering::SeqCst);
}

#[cfg(unix)]
mod imp {
    use super::DRAIN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        // Only async-signal-safe work is allowed here: one atomic store.
        DRAIN.store(true, Ordering::SeqCst);
    }

    /// Install the SIGTERM/SIGINT drain handler.
    pub fn install() {
        // SAFETY: `signal` with a function pointer of the correct
        // signature is the documented libc contract; the handler body is
        // async-signal-safe (a single atomic store).
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signal support on this target; drain is reachable only via the
    /// `shutdown` protocol op.
    pub fn install() {}
}

/// Install the platform drain handler (idempotent).
pub fn install_handlers() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_flag_round_trips() {
        reset_for_tests();
        assert!(!drain_requested());
        request_drain();
        assert!(drain_requested());
        reset_for_tests();
        assert!(!drain_requested());
        // Installing handlers must not flip the flag.
        install_handlers();
        assert!(!drain_requested());
    }
}
