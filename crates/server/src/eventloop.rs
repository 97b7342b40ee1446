//! The nonblocking event loop: one thread multiplexing many
//! connections.
//!
//! Each loop owns a `poll(2)` [`Poller`] and a token-indexed slab of
//! [`Conn`]s. The acceptor thread injects new sockets through a mutexed
//! queue (locked once per loop iteration, never per byte); everything
//! else — reading, framing, dispatching, partial writes — happens on
//! the loop thread with nonblocking I/O. Readiness reports are treated
//! strictly as *hints*: every read and write tolerates `WouldBlock`, so
//! a spurious wakeup costs one failed syscall and nothing else.
//!
//! Dispatch is inline: request handling is dominated by dependence
//! analysis on in-memory sessions (microseconds to low milliseconds),
//! so shipping work to a separate pool would cost more in handoff than
//! it saves — and read-only methods never wait on a session's writer
//! thanks to the snapshot split in [`crate::manager`].
//!
//! Idle eviction is a linear sweep, run once per `granularity` ms: any
//! connection with no byte movement for `conn_idle_ttl_ms` is closed.
//! Every `poll(2)` wait already walks all registered connections, so
//! the sweep adds nothing to the loop's order of cost.
//!
//! Backpressure: responses queue in the connection's write buffer and
//! drain as the socket accepts them. A client that stops reading while
//! the buffer exceeds `write_buf_cap` is disconnected (bounding server
//! memory); a client that dribbles bytes one at a time is simply slow,
//! not special.
//!
//! Shutdown drain: when the shutdown flag rises, every loop stops
//! reading, serves request lines that were already fully received,
//! then flushes write buffers — partial-write aware — until empty or
//! until `drain_deadline_ms` passes, at which point stragglers are cut
//! off. A `shutdown` request therefore always gets its response before
//! the connection closes.

use crate::conn::{Conn, Fill, Line};
use crate::json::Value;
use crate::manager::SessionManager;
use crate::poller::{PollEvent, Poller};
use crate::protocol::{dispatch_line, err_response};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long one poll wait lasts; bounds the latency of noticing
/// injected connections and the shutdown flag.
const WAIT: Duration = Duration::from_millis(10);

/// Per-loop limits, copied from `ServerConfig` at spawn.
#[derive(Clone)]
pub(crate) struct LoopCfg {
    pub max_request_bytes: usize,
    pub write_buf_cap: usize,
    pub conn_idle_ttl_ms: u64,
    pub drain_deadline_ms: u64,
}

/// The acceptor-to-loop handoff queue.
pub(crate) struct Injector {
    pub queue: Mutex<Vec<TcpStream>>,
}

impl Injector {
    pub fn new() -> Injector {
        Injector {
            queue: Mutex::new(Vec::new()),
        }
    }
}

enum Verdict {
    Keep,
    Close,
}

enum Pump {
    Ok,
    Kill,
}

/// Run one event loop until shutdown (plus drain) completes.
pub(crate) fn run_loop(
    cfg: LoopCfg,
    injector: Arc<Injector>,
    manager: Arc<SessionManager>,
    shutdown: Arc<AtomicBool>,
) {
    let mut poller = Poller::new();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let granularity = (cfg.conn_idle_ttl_ms / 16).clamp(10, 1000);
    let mut last_sweep: u64 = 0;
    let started = Instant::now();
    let mut events: Vec<PollEvent> = Vec::new();
    let mut draining_since: Option<u64> = None;

    loop {
        let now = started.elapsed().as_millis() as u64;
        let down = shutdown.load(Ordering::SeqCst) || crate::signal::termination_requested();
        if down && draining_since.is_none() {
            draining_since = Some(now);
            // Entering drain: serve requests already fully received,
            // stop reading, start flushing.
            for token in 0..conns.len() {
                let verdict = match &mut conns[token] {
                    Some(conn) => service(conn, false, true, now, &cfg, &manager, &shutdown, true),
                    None => continue,
                };
                apply(verdict, token, &mut conns, &mut poller, &mut free);
            }
        }

        if draining_since.is_none() {
            adopt(&injector, &mut conns, &mut free, &mut poller, now);
        } else {
            // Late arrivals during drain are turned away.
            injector.queue.lock().unwrap().clear();
        }

        let _ = poller.wait(&mut events, WAIT);
        let now = started.elapsed().as_millis() as u64;
        for &ev in &events {
            let verdict = match conns.get_mut(ev.token) {
                Some(Some(conn)) => service(
                    conn,
                    ev.readable,
                    ev.writable,
                    now,
                    &cfg,
                    &manager,
                    &shutdown,
                    false,
                ),
                // Stale event for a token closed earlier this batch.
                _ => continue,
            };
            apply(verdict, ev.token, &mut conns, &mut poller, &mut free);
        }

        // Idle eviction: a linear sweep once per granularity.
        if now.saturating_sub(last_sweep) >= granularity {
            last_sweep = now;
            close_where(&mut conns, &mut poller, &mut free, |c| {
                now.saturating_sub(c.last_activity) >= cfg.conn_idle_ttl_ms
            });
        }

        if let Some(t0) = draining_since {
            let expired = now.saturating_sub(t0) >= cfg.drain_deadline_ms;
            close_where(&mut conns, &mut poller, &mut free, |c| {
                expired || c.pending_out() == 0
            });
            if conns.iter().all(|c| c.is_none()) {
                return;
            }
        }
    }
}

/// Pull newly accepted sockets out of the injector and register them.
fn adopt(
    injector: &Injector,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    poller: &mut Poller,
    now: u64,
) {
    let streams: Vec<TcpStream> = {
        let mut queue = injector.queue.lock().unwrap();
        queue.drain(..).collect()
    };
    for stream in streams {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            continue;
        }
        let token = free.pop().unwrap_or_else(|| {
            conns.push(None);
            conns.len() - 1
        });
        let conn = Conn::new(stream, now);
        poller.register(&conn.stream, token, false);
        conns[token] = Some(conn);
    }
}

/// Make progress on one connection given readiness hints. `drain_start`
/// marks the transition into shutdown drain: serve buffered complete
/// requests, then read no more.
#[allow(clippy::too_many_arguments)]
fn service(
    conn: &mut Conn,
    readable: bool,
    writable: bool,
    now: u64,
    cfg: &LoopCfg,
    manager: &SessionManager,
    shutdown: &AtomicBool,
    drain_start: bool,
) -> Verdict {
    let mut progress = false;
    if drain_start {
        conn.closing = true;
        if let Pump::Kill = pump_lines(conn, cfg, manager, shutdown) {
            return Verdict::Close;
        }
    }
    if readable && !conn.closing {
        loop {
            match conn.fill() {
                Ok(Fill::Data(_)) => {
                    progress = true;
                    if let Pump::Kill = pump_lines(conn, cfg, manager, shutdown) {
                        return Verdict::Close;
                    }
                    if conn.closing {
                        break; // framing lost (TooLong): flush the error, then close
                    }
                }
                Ok(Fill::Eof) => {
                    progress = true;
                    conn.closing = true;
                    break;
                }
                Ok(Fill::Blocked) => break,
                Err(_) => return Verdict::Close,
            }
        }
    }
    let before = conn.pending_out();
    if before > 0 || writable {
        if conn.flush().is_err() {
            return Verdict::Close;
        }
        if conn.pending_out() != before {
            progress = true;
        }
    }
    // Only actual byte movement counts as activity: a spurious
    // readiness hint must not keep an idle connection alive.
    if progress {
        conn.last_activity = now;
    }
    if conn.closing && conn.pending_out() == 0 {
        return Verdict::Close;
    }
    Verdict::Keep
}

/// Serve every complete request line currently buffered.
fn pump_lines(
    conn: &mut Conn,
    cfg: &LoopCfg,
    manager: &SessionManager,
    shutdown: &AtomicBool,
) -> Pump {
    loop {
        match conn.next_line(cfg.max_request_bytes) {
            Line::Ready(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let response = dispatch_line(manager, shutdown, &line);
                conn.queue(&response);
                if conn.pending_out() > cfg.write_buf_cap {
                    // Give the socket one chance before declaring the
                    // client dead.
                    if conn.flush().is_err() || conn.pending_out() > cfg.write_buf_cap {
                        return Pump::Kill; // peer isn't reading: cut it off
                    }
                }
            }
            Line::TooLong => {
                let response = err_response(
                    &Value::Null,
                    &format!("request exceeds {} bytes", cfg.max_request_bytes),
                );
                conn.queue(&response);
                conn.closing = true; // framing is lost; drop after the error flushes
                return Pump::Ok;
            }
            Line::None => return Pump::Ok,
        }
    }
}

/// Apply a service verdict: refresh poller write interest or tear the
/// connection down.
fn apply(
    verdict: Verdict,
    token: usize,
    conns: &mut [Option<Conn>],
    poller: &mut Poller,
    free: &mut Vec<usize>,
) {
    match verdict {
        Verdict::Keep => {
            if let Some(Some(conn)) = conns.get(token) {
                poller.update(token, conn.pending_out() > 0);
            }
        }
        Verdict::Close => close_token(token, conns, poller, free),
    }
}

/// Close every open connection that `pred` selects.
fn close_where(
    conns: &mut [Option<Conn>],
    poller: &mut Poller,
    free: &mut Vec<usize>,
    pred: impl Fn(&Conn) -> bool,
) {
    for token in 0..conns.len() {
        if conns[token].as_ref().is_some_and(&pred) {
            close_token(token, conns, poller, free);
        }
    }
}

fn close_token(
    token: usize,
    conns: &mut [Option<Conn>],
    poller: &mut Poller,
    free: &mut Vec<usize>,
) {
    if let Some(slot) = conns.get_mut(token) {
        if slot.take().is_some() {
            poller.deregister(token);
            free.push(token);
        }
    }
}
