//! SIGTERM/SIGINT → a process-wide shutdown flag, and SIGPIPE's default
//! disposition for the `gdp` commands that only write to stdout.
//!
//! The workspace carries no `libc` crate, so the one foreign call this
//! needs — `signal(2)` — is declared by hand in the one
//! `#[allow(unsafe_code)]` island of the crate.  The handler body is the
//! minimal async-signal-safe action: a relaxed store into an `AtomicBool`.
//! Everything else (draining workers, flushing connections) happens on
//! ordinary threads that poll [`requested`].
//!
//! glibc's `signal()` installs BSD semantics (`SA_RESTART`), so a blocking
//! `accept` would simply restart after the handler runs — which is why the
//! server's accept loop is nonblocking and polls this flag between
//! `WouldBlock`s instead of sleeping in the kernel.

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide "stop accepting, drain, exit 0" flag.  Set by the
/// signal handler and by a `shutdown` protocol request.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether shutdown has been requested (by signal or by protocol).
#[must_use]
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Requests shutdown (the `shutdown` protocol request lands here).
pub fn request() {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Resets the flag — test support only, so consecutive in-process servers
/// in one test binary do not see each other's shutdown.
pub fn reset() {
    SHUTDOWN.store(false, Ordering::Relaxed);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod ffi {
    /// The `SIGINT`, `SIGPIPE` and `SIGTERM` numbers and `SIG_DFL` are part
    /// of the POSIX ABI on every platform this repo targets.
    const SIGINT: i32 = 2;
    const SIGPIPE: i32 = 13;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;

    extern "C" {
        /// POSIX `signal(2)`; `sighandler_t` is pointer-sized, declared as
        /// `usize` to keep the binding dependency-free.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        super::request();
    }

    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` is the POSIX libc entry point; the handler is an
        // `extern "C" fn(i32)` that performs only an atomic store, which is
        // async-signal-safe.  The return value (the previous handler) is
        // deliberately ignored.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub fn default_sigpipe() {
        // SAFETY: as in `install`; `SIG_DFL` installs no handler at all.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

#[cfg(not(unix))]
mod ffi {
    /// Non-Unix fallback: no signal wiring; the `shutdown` protocol request
    /// still works.
    pub fn install() {}

    /// Non-Unix fallback: there is no SIGPIPE.
    pub fn default_sigpipe() {}
}

/// Installs the SIGINT/SIGTERM handlers (idempotent).
pub fn install() {
    ffi::install();
}

/// Restores SIGPIPE's default disposition, which the Rust runtime sets to
/// "ignore", so a write to a closed pipe ends the process as it ends any
/// Unix filter instead of making `println!` panic on `EPIPE`.  A server
/// must not call this: a vanished client must be a write error.
pub fn default_sigpipe() {
    ffi::default_sigpipe();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_flag_round_trips() {
        reset();
        assert!(!requested());
        request();
        assert!(requested());
        reset();
        assert!(!requested());
        // Installing handlers must not flip the flag.
        install();
        assert!(!requested());
    }
}
