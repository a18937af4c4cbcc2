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
//! The `shutdown` protocol op does not touch this flag: it closes the
//! server's admission gate, which the accept loop polls too. On non-unix
//! targets the handler is a no-op and `shutdown` is the only way to
//! drain.

use std::sync::atomic::{AtomicBool, Ordering};

static DRAIN: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM or SIGINT has asked for a drain.
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
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
    fn installing_the_handlers_does_not_request_a_drain() {
        // Only a signal sets the flag, and no test sends one: the server
        // tests in this binary read it on every cache hit.
        assert!(!drain_requested());
        install_handlers();
        assert!(!drain_requested());
    }
}
