//! Cooperative SIGINT/SIGTERM handling without any C dependency.
//!
//! [`install`] registers a minimal `extern "C"` handler (via the libc
//! `signal` symbol every Unix process already links) that flips one
//! process-global atomic flag. Long-running loops — CLI training at its
//! episode or checkpoint boundaries, the `serve` command's wait loop —
//! poll [`requested`] at their natural boundaries, flush a final
//! checkpoint plus telemetry, and exit with [`EXIT_INTERRUPTED`] so
//! scripts can distinguish an interrupted run from a failed one.
//!
//! On non-Unix targets everything compiles to a no-op flag that only
//! tests can set.

use std::sync::atomic::{AtomicBool, Ordering};

/// Exit code for a run stopped by SIGINT/SIGTERM after a clean flush
/// (128 + SIGINT, the conventional shell encoding).
pub const EXIT_INTERRUPTED: i32 = 130;

static REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::{AtomicBool, Ordering, REQUESTED};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: anything else is unsound in a handler.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    static INSTALLED: AtomicBool = AtomicBool::new(false);

    pub fn install() {
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return;
        }
        // SAFETY: `signal` is the POSIX libc function; the handler only
        // performs an async-signal-safe atomic store.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handler (idempotent; no-op off Unix).
pub fn install() {
    imp::install();
}

/// Whether a shutdown signal has arrived since the last [`reset`].
#[must_use]
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// Clears the flag (tests, or a caller that handled the signal).
pub fn reset() {
    REQUESTED.store(false, Ordering::SeqCst);
}

/// Sets the flag as if a signal had arrived (used by tests and by the
/// daemon's `POST /shutdown` to share the drain path).
pub fn trigger() {
    REQUESTED.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_lifecycle() {
        reset();
        assert!(!requested());
        trigger();
        assert!(requested());
        reset();
        assert!(!requested());
    }

    #[cfg(unix)]
    #[test]
    fn real_signal_sets_flag() {
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        install();
        install(); // idempotent
        reset();
        // SAFETY: raising SIGINT in-process; our installed handler only
        // stores to an atomic.
        unsafe {
            raise(2);
        }
        // The handler runs synchronously for a self-raised signal.
        assert!(requested(), "SIGINT must set the shutdown flag");
        reset();
    }
}
