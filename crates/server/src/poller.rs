//! Readiness polling for the nonblocking event loop: `poll(2)`.
//!
//! `poll(2)` is declared directly, the same way [`crate::signal`]
//! declares `signal(2)`, so the crate stays free of libc bindings. It
//! runs on every unix, which makes `ped-serve` unix-only. Registrations
//! live in a map and the pollfd array is rebuilt on each wait — O(n) in
//! registered connections, the same order as the loop's idle sweep.

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::Duration;

/// One readiness report. `readable`/`writable` are *hints*: the loop
/// tolerates spurious readiness, and error conditions are folded into
/// both directions so the next read or write observes the failure.
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    // `nfds_t` is `unsigned long` on Linux and `unsigned int` on
    // macOS; passing the wider type is benign for the counts we use
    // (the callee reads the low 32 bits on LP64 ABIs).
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;
const POLLNVAL: i16 = 0x20;

/// A readiness poller over registered connections.
#[derive(Default)]
pub struct Poller {
    /// token → (fd, write interest).
    regs: HashMap<usize, (i32, bool)>,
}

impl Poller {
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Start watching `stream` under `token`. Read interest is always
    /// on; `want_write` adds write interest.
    pub fn register(&mut self, stream: &TcpStream, token: usize, want_write: bool) {
        self.regs.insert(token, (stream.as_raw_fd(), want_write));
    }

    /// Change write interest for an already registered token.
    pub fn update(&mut self, token: usize, want_write: bool) {
        if let Some(e) = self.regs.get_mut(&token) {
            e.1 = want_write;
        }
    }

    /// Stop watching a token (its fd may be about to close).
    pub fn deregister(&mut self, token: usize) {
        self.regs.remove(&token);
    }

    /// Wait up to `timeout` for readiness; fills `events` (cleared
    /// first). An interrupted wait reports zero events.
    pub fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        events.clear();
        if self.regs.is_empty() {
            std::thread::sleep(timeout);
            return Ok(());
        }
        let mut tokens: Vec<usize> = Vec::with_capacity(self.regs.len());
        let mut fds: Vec<PollFd> = Vec::with_capacity(self.regs.len());
        for (&token, &(fd, want_write)) in &self.regs {
            tokens.push(token);
            fds.push(PollFd {
                fd,
                events: POLLIN | if want_write { POLLOUT } else { 0 },
                revents: 0,
            });
        }
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is a live, correctly laid out pollfd array of
        // exactly `fds.len()` entries for the duration of the call.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for (token, f) in tokens.into_iter().zip(&fds) {
            if f.revents == 0 {
                continue;
            }
            let err = f.revents & (POLLERR | POLLHUP | POLLNVAL) != 0;
            events.push(PollEvent {
                token,
                readable: f.revents & POLLIN != 0 || err,
                writable: f.revents & POLLOUT != 0 || err,
            });
        }
        Ok(())
    }
}
