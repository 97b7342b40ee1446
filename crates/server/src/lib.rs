//! # ped-server — `ped-serve`, the concurrent multi-session PED service
//!
//! PED was a single-user editor; this crate is the subsystem that turns
//! the session engine into a long-lived service. `ped-serve` listens on
//! a `std::net::TcpListener`, speaks a newline-delimited JSON protocol
//! (hand-rolled in [`json`] — the workspace is hermetic std-only), and
//! multiplexes many concurrent [`ped::session::PedSession`]s through a
//! sharded [`manager::SessionManager`] and a set of nonblocking
//! [`eventloop`] threads.
//!
//! Layers:
//!
//! * [`json`] — ordered, deterministic JSON values, parser and encoder;
//! * [`protocol`] — the request/response envelope and the method
//!   dispatcher ([`protocol::dispatch_line`]), shared by the TCP path
//!   and in-process callers (which is how tests prove that concurrent
//!   server output is byte-identical to a single-threaded session);
//! * [`manager`] — the sharded session registry: snapshot-isolated
//!   reads (each entry publishes its latest [`ped::SessionSnapshot`]
//!   as an `Arc` behind a mutex held only for one refcount bump),
//!   per-session write serialization, admission control and idle
//!   eviction;
//! * [`poller`] — `poll(2)` readiness, declared directly (no libc
//!   crate);
//! * [`conn`] — per-connection read/write buffers, request framing and
//!   partial-write bookkeeping;
//! * [`eventloop`] — the nonblocking loops that multiplex connections,
//!   dispatch inline, sweep idle connections, and drain gracefully on
//!   shutdown;
//! * [`server`] — listener, acceptor thread, configuration, handle;
//! * [`signal`] — SIGTERM/SIGINT → shutdown flag, without libc crates.
//!
//! The crate is unix-only: readiness and signal handling call `poll(2)`
//! and `signal(2)` from the C library std already links, and those two
//! declarations are its only `unsafe` code.
//!
//! See DESIGN.md §5b and §5f for the architecture discussion and the
//! README for a quickstart transcript.

pub mod batchio;
pub mod conn;
mod eventloop;
pub mod json;
pub mod lintio;
pub mod manager;
pub mod pario;
pub mod poller;
pub mod protocol;
pub mod server;
pub mod signal;

pub use manager::{ManagerConfig, SessionManager};
pub use protocol::{dispatch_line, parse_request};
pub use server::{spawn, ServerConfig, ServerHandle};

/// Replay request lines against a fresh single-threaded registry — the
/// oracle the concurrency tests and the load harness compare server
/// bytes against. Returns one response line (no `\n`) per request.
pub fn oracle_replay(lines: &[String]) -> Vec<String> {
    use std::sync::atomic::AtomicBool;
    let mgr = SessionManager::new(ManagerConfig::default());
    let flag = AtomicBool::new(false);
    lines
        .iter()
        .map(|l| dispatch_line(&mgr, &flag, l))
        .collect()
}
