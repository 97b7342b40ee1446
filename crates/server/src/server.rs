//! The TCP front end: listener, acceptor thread, event-loop threads.
//!
//! `spawn` binds the listener and starts `workers` event-loop threads
//! (see [`crate::eventloop`]) plus one acceptor. The acceptor is the
//! only thread that touches the listener: it accepts nonblocking,
//! deals new sockets round-robin into the loops' injector queues, and
//! doubles as the janitor that sweeps idle *sessions* (connection idle
//! eviction is each loop's own sweep). Each loop then
//! multiplexes its share of connections — thousands of mostly-idle
//! editor sessions cost one fd and a few hundred buffered bytes each,
//! not a thread.
//!
//! Shutdown (a `shutdown` request or SIGTERM) closes the listener and
//! drains: loops stop reading, serve already-received requests, and
//! flush responses — partial-write aware — before closing, bounded by
//! `drain_deadline`. `stop()` joins the acceptor, which joins the
//! loops, so when it returns every socket is flushed and closed.

use crate::eventloop::{run_loop, Injector, LoopCfg};
use crate::manager::{ManagerConfig, SessionManager};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Server shape and limits.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 = ephemeral).
    pub addr: String,
    /// Event-loop threads; connections are dealt round-robin.
    pub workers: usize,
    /// Longest accepted request line, in bytes.
    pub max_request_bytes: usize,
    /// How often the janitor sweeps idle sessions.
    pub eviction_interval: Duration,
    /// Registry limits.
    pub manager: ManagerConfig,
    /// Per-connection queued-response cap; a client that lets this
    /// much output pile up unread is disconnected.
    pub write_buf_cap: usize,
    /// Connections idle (no bytes either way) past this are closed.
    pub conn_idle_ttl: Duration,
    /// How long shutdown waits for response buffers to flush before
    /// cutting stragglers off.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(4),
            max_request_bytes: 1 << 20,
            eviction_interval: Duration::from_secs(30),
            manager: ManagerConfig::default(),
            write_buf_cap: 8 << 20,
            conn_idle_ttl: Duration::from_secs(15 * 60),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// A running server; `stop()` (or drop) shuts it down gracefully.
pub struct ServerHandle {
    pub addr: SocketAddr,
    pub manager: Arc<SessionManager>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Request shutdown and wait for the acceptor and every event
    /// loop to drain (in-flight responses flush before sockets close).
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// True once the server has begun shutting down.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Block until the shutdown flag is set (by a `shutdown` request or
    /// SIGTERM), then drain.
    pub fn wait(&mut self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            if crate::signal::termination_requested() {
                self.shutdown.store(true, Ordering::SeqCst);
                break;
            }
            std::thread::sleep(POLL_INTERVAL);
        }
        self.stop();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind and start serving on background threads; returns immediately.
pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let manager = Arc::new(SessionManager::new(cfg.manager.clone()));
    let shutdown = Arc::new(AtomicBool::new(false));

    let loop_cfg = LoopCfg {
        max_request_bytes: cfg.max_request_bytes,
        write_buf_cap: cfg.write_buf_cap.max(1),
        conn_idle_ttl_ms: cfg.conn_idle_ttl.as_millis().max(1) as u64,
        drain_deadline_ms: cfg.drain_deadline.as_millis() as u64,
    };
    let nloops = cfg.workers.max(1);
    let mut injectors: Vec<Arc<Injector>> = Vec::with_capacity(nloops);
    let mut loop_threads: Vec<JoinHandle<()>> = Vec::with_capacity(nloops);
    for i in 0..nloops {
        let injector = Arc::new(Injector::new());
        injectors.push(Arc::clone(&injector));
        let cfg = loop_cfg.clone();
        let mgr = Arc::clone(&manager);
        let stop = Arc::clone(&shutdown);
        loop_threads.push(
            std::thread::Builder::new()
                .name(format!("ped-serve-loop-{i}"))
                .spawn(move || run_loop(cfg, injector, mgr, stop))?,
        );
    }

    let accept_mgr = Arc::clone(&manager);
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_thread = std::thread::Builder::new()
        .name("ped-serve-accept".into())
        .spawn(move || {
            accept_loop(listener, cfg, injectors, accept_mgr, accept_shutdown);
            for t in loop_threads {
                let _ = t.join();
            }
        })?;

    Ok(ServerHandle {
        addr,
        manager,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(
    listener: TcpListener,
    cfg: ServerConfig,
    injectors: Vec<Arc<Injector>>,
    manager: Arc<SessionManager>,
    shutdown: Arc<AtomicBool>,
) {
    let mut last_sweep = std::time::Instant::now();
    let mut next_loop = 0usize;
    while !shutdown.load(Ordering::SeqCst) && !crate::signal::termination_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                injectors[next_loop].queue.lock().unwrap().push(stream);
                next_loop = (next_loop + 1) % injectors.len();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
        if last_sweep.elapsed() >= cfg.eviction_interval {
            manager.evict_idle();
            last_sweep = std::time::Instant::now();
        }
    }
    // Listener closes here; the loops observe the flag and drain.
    drop(listener);
}
