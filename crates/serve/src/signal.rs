//! Minimal SIGTERM/SIGINT-to-flag plumbing for graceful drain.
//!
//! No `libc` crate: on Unix we call the C library's `signal` symbol
//! directly (std already links it) and the handlers do nothing but store
//! into a static `AtomicBool` — the only thing that is async-signal-safe
//! anyway. On other platforms installation is a no-op and the flags simply
//! never trip (stdin-close remains the drain trigger there).
//!
//! `unet serve` installs only the SIGTERM flag (Ctrl-C keeps its abrupt
//! default for operators who want out *now*); `unet shard` supervises
//! child processes, so it additionally catches SIGINT to drain the whole
//! tree instead of orphaning the backends.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM: AtomicBool = AtomicBool::new(false);
static INT: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" fn on_int(_sig: i32) {
    INT.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
unsafe fn install(signum: i32, handler: extern "C" fn(i32)) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    signal(signum, handler as *const () as usize);
}

/// Install a SIGTERM handler that sets a process-global flag; returns the
/// flag. Safe to call more than once.
pub fn install_sigterm_flag() -> &'static AtomicBool {
    #[cfg(unix)]
    unsafe {
        const SIGTERM: i32 = 15;
        install(SIGTERM, on_term);
    }
    &TERM
}

/// Install a SIGINT handler that sets a process-global flag; returns the
/// flag. Safe to call more than once.
pub fn install_sigint_flag() -> &'static AtomicBool {
    #[cfg(unix)]
    unsafe {
        const SIGINT: i32 = 2;
        install(SIGINT, on_int);
    }
    &INT
}
