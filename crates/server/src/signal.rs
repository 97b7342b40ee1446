//! SIGTERM/SIGINT → graceful-shutdown flag, without libc bindings.
//!
//! The workspace is std-only, so there is no `signal_hook` or `libc`
//! crate to lean on. On unix, std itself links the platform C library,
//! so declaring `signal(2)` directly is enough to register a handler.
//! The handler only stores to a static atomic (the one async-signal-safe
//! thing a handler may do); the server's accept loop polls the flag.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    /// `signal(2)` from the C library std already links.
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    TERMINATED.store(true, Ordering::SeqCst);
}

/// True once SIGTERM or SIGINT has been delivered.
pub fn termination_requested() -> bool {
    TERMINATED.load(Ordering::SeqCst)
}

/// Install the flag-setting handler for SIGTERM and SIGINT
/// (idempotent).
pub fn install_termination_handler() {
    let handler = on_signal as *const () as usize;
    // SAFETY: `on_signal` has the C handler signature and only touches
    // an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_install_is_safe() {
        install_termination_handler();
        install_termination_handler();
        assert!(!termination_requested());
    }
}
