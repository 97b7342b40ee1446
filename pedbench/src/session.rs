//! The `session-edit` workload: one client in a closed loop against an
//! in-process `ped-serve` (`ped_server::spawn`, one event-loop thread)
//! over loopback TCP.
//!
//! Set-up opens the eight workshop programs, selects in each the first
//! unit with an assignment directly inside a DO loop, and runs one
//! `parallelize` per program. Every timed cycle then visits the programs
//! in a seeded order and edits that assignment twice — to `<stmt> + 1`
//! and back — so every cycle has the same composition. After each edit
//! the client sends `stmts` (to learn the statement's new id), then
//! `select_loop 0`, `deps`, `vars`, `lint`, `parallelize` (a memo miss)
//! and `parallelize` again (a memo hit).
//!
//! The traced run replays the recorded request lines through
//! `ped_server::dispatch_line` in-process, and runs the same script on
//! in-process `PedSession`s calling the session methods directly.

use crate::kv::Kv;
use crate::stats::{median, percentile};
use crate::trace::Layers;
use ped::{DepFilter, PedSession, VarFilter};
use ped_analysis::loops::LoopId;
use ped_fortran::ast::{walk_stmts, StmtId, StmtKind};
use ped_server::json::{self, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

/// Set-ups per run, each in a fresh process; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Cycles a run times at least: 7 cycles give 112 samples per
/// once-per-edit class, enough for a p90 with 10 samples beyond it.
const MIN_CYCLES: usize = 7;
/// Cycles the traced run replays.
const TRACED_CYCLES: i64 = 5;

/// Request classes. Percentiles are taken over one class at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Setup,
    Edit,
    Stmts,
    Select,
    Read,
    Lint,
    ParMiss,
    ParHit,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Setup => "setup",
            Class::Edit => "edit",
            Class::Stmts => "stmts",
            Class::Select => "select",
            Class::Read => "read",
            Class::Lint => "lint",
            Class::ParMiss => "par_miss",
            Class::ParHit => "par_hit",
        }
    }

    fn parse(s: &str) -> Option<Class> {
        [
            Class::Setup,
            Class::Edit,
            Class::Stmts,
            Class::Select,
            Class::Read,
            Class::Lint,
            Class::ParMiss,
            Class::ParHit,
        ]
        .into_iter()
        .find(|c| c.name() == s)
    }
}

/// The statement one program's cycles edit.
#[derive(Clone, Debug)]
struct Target {
    program: &'static str,
    unit: String,
    /// Position of the assignment in the unit's statement listing
    /// (preorder), which an edit keeps while the id changes.
    position: usize,
}

/// For every workshop program, the first unit with an assignment
/// directly inside a DO loop, and that assignment.
fn targets() -> Vec<Target> {
    ped_workloads::all_programs()
        .into_iter()
        .map(|wp| {
            let program = wp.parse();
            for unit in &program.units {
                let mut listing = Vec::new();
                walk_stmts(&unit.body, &mut |s| listing.push(s.id));
                let mut found = None;
                walk_stmts(&unit.body, &mut |s| {
                    if found.is_some() {
                        return;
                    }
                    if let StmtKind::Do { body, .. } = &s.kind {
                        found = body
                            .iter()
                            .find(|b| matches!(b.kind, StmtKind::Assign { .. }))
                            .map(|b| b.id);
                    }
                });
                if let Some(id) = found {
                    return Target {
                        program: wp.name,
                        unit: unit.name.clone(),
                        position: listing
                            .iter()
                            .position(|&x| x == id)
                            .expect("the listing holds every statement"),
                    };
                }
            }
            panic!("workload {} has no assignment inside a DO loop", wp.name)
        })
        .collect()
}

/// One request/response exchange as the client saw it.
struct Exchange {
    request: String,
    response: String,
    class: Class,
    /// Timed cycle number, or -1 during set-up.
    cycle: i64,
    ms: f64,
}

/// A closed-loop client on one connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: i64,
    log: Vec<Exchange>,
    errors: usize,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to ped-serve");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        Client {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
            next_id: 1,
            log: Vec::new(),
            errors: 0,
        }
    }

    /// Send one request and wait for its response; record the exchange.
    fn call(
        &mut self,
        class: Class,
        cycle: i64,
        method: &str,
        params: Vec<(&str, Value)>,
    ) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        let request = Value::Obj(vec![
            ("id".into(), Value::int(id)),
            ("method".into(), Value::str(method)),
            (
                "params".into(),
                Value::Obj(
                    params
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                ),
            ),
        ])
        .encode();
        let (response, ms) = self.exchange(&request);
        if !response.starts_with(&format!("{{\"id\":{id},\"ok\":true")) {
            self.errors += 1;
        }
        self.log.push(Exchange {
            request,
            response,
            class,
            cycle,
            ms,
        });
        self.log.len() - 1
    }

    /// Send one request line and wait for the response line. The latency
    /// runs from just before the write to just after the full line is read.
    fn exchange(&mut self, request: &str) -> (String, f64) {
        let t = Instant::now();
        self.writer
            .write_all(request.as_bytes())
            .expect("send request");
        self.writer.write_all(b"\n").expect("send request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if response.ends_with('\n') {
            response.pop();
        }
        (response, ms)
    }

    /// List the current unit's statements; the id and text of the one
    /// at `position`.
    fn stmt_at(
        &mut self,
        class: Class,
        cycle: i64,
        session: &str,
        position: usize,
    ) -> Option<(u32, String)> {
        let i = self.call(
            class,
            cycle,
            "stmts",
            vec![("session", Value::str(session))],
        );
        let v = json::parse(&self.log[i].response).ok()?;
        let row = v.get("result")?.get("stmts")?.as_array()?.get(position)?;
        let id = row.get("id")?.as_i64()? as u32;
        Some((id, row.get("text")?.as_str()?.to_string()))
    }
}

/// Per-program edit state.
struct Edited {
    session: String,
    stmt: u32,
    original: String,
}

/// An in-process `ped-serve` with one event-loop thread.
fn spawn_server() -> Result<ped_server::ServerHandle, String> {
    ped_server::spawn(ped_server::ServerConfig {
        workers: 1,
        ..ped_server::ServerConfig::default()
    })
    .map_err(|e| format!("spawn ped-serve: {e}"))
}

/// Start a server and bring every program to its edit-ready state.
fn setup(targets: &[Target]) -> Result<(ped_server::ServerHandle, Client, Vec<Edited>), String> {
    let server = spawn_server()?;
    let mut c = Client::connect(server.addr);
    let mut state = Vec::new();
    for t in targets {
        let session = t.program.to_string();
        let s = || Value::str(session.clone());
        c.call(
            Class::Setup,
            -1,
            "open",
            vec![("session", s()), ("program", Value::str(t.program))],
        );
        c.call(
            Class::Setup,
            -1,
            "select_unit",
            vec![("session", s()), ("unit", Value::str(t.unit.clone()))],
        );
        let (stmt, original) = c
            .stmt_at(Class::Setup, -1, &session, t.position)
            .ok_or_else(|| format!("{}: no statement at position {}", t.program, t.position))?;
        c.call(Class::Setup, -1, "parallelize", vec![("session", s())]);
        state.push(Edited {
            session,
            stmt,
            original,
        });
    }
    if c.errors > 0 {
        return Err(format!("{} set-up requests failed", c.errors));
    }
    Ok((server, c, state))
}

/// xorshift64*, seeded; the program order of every cycle.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// One timed cycle: two edits of every program, in a seeded order.
fn cycle(
    c: &mut Client,
    targets: &[Target],
    state: &mut [Edited],
    order: &[usize],
    n: i64,
) -> Result<(), String> {
    for &p in order {
        for plus in [true, false] {
            let st = &mut state[p];
            let s = || Value::str(st.session.clone());
            let text = if plus {
                format!("{} + 1", st.original)
            } else {
                st.original.clone()
            };
            c.call(
                Class::Edit,
                n,
                "edit",
                vec![
                    ("session", s()),
                    ("stmt", Value::int(st.stmt as i64)),
                    ("text", Value::str(text)),
                ],
            );
            st.stmt = c
                .stmt_at(Class::Stmts, n, &st.session, targets[p].position)
                .ok_or_else(|| format!("{}: edited statement vanished", st.session))?
                .0;
            c.call(
                Class::Select,
                n,
                "select_loop",
                vec![("session", s()), ("loop", Value::int(0))],
            );
            c.call(Class::Read, n, "deps", vec![("session", s())]);
            c.call(Class::Read, n, "vars", vec![("session", s())]);
            c.call(Class::Lint, n, "lint", vec![("session", s())]);
            c.call(Class::ParMiss, n, "parallelize", vec![("session", s())]);
            c.call(Class::ParHit, n, "parallelize", vec![("session", s())]);
        }
    }
    Ok(())
}

/// Writes exchanges to the work directory as they complete, keeping
/// only (cycle, class, latency, response size) in memory so the client's
/// footprint does not grow with the number of cycles.
struct Recorder {
    requests: std::io::BufWriter<std::fs::File>,
    responses: std::io::BufWriter<std::fs::File>,
    script: std::io::BufWriter<std::fs::File>,
    samples: Vec<(i64, Class, f64, usize)>,
}

impl Recorder {
    fn create(work: &Path) -> Result<Recorder, String> {
        let open = |name: &str| {
            std::fs::File::create(work.join(name))
                .map(std::io::BufWriter::new)
                .map_err(|e| format!("create {name}: {e}"))
        };
        Ok(Recorder {
            requests: open("requests.txt")?,
            responses: open("responses.txt")?,
            script: open("script.txt")?,
            samples: Vec::new(),
        })
    }

    /// Move the client's exchanges so far to disk.
    fn drain(&mut self, c: &mut Client) -> Result<(), String> {
        for e in c.log.drain(..) {
            writeln!(self.requests, "{}", e.request)
                .and_then(|_| writeln!(self.responses, "{}", e.response))
                .and_then(|_| writeln!(self.script, "{} {} {}", e.cycle, e.class.name(), e.ms))
                .map_err(|e| format!("record exchange: {e}"))?;
            self.samples
                .push((e.cycle, e.class, e.ms, e.response.len() + 1));
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Vec<(i64, Class, f64, usize)>, String> {
        for w in [&mut self.requests, &mut self.responses, &mut self.script] {
            w.flush().map_err(|e| format!("record exchange: {e}"))?;
        }
        Ok(self.samples)
    }
}

/// The measured child.
pub fn measure(seed: u64, seconds: f64, work: &Path, out: &mut Kv) -> Result<(), String> {
    let targets = targets();
    let t = Instant::now();
    let (mut server, mut c, mut state) = setup(&targets)?;
    out.set("setup_s", t.elapsed().as_secs_f64());
    let mut rec = Recorder::create(work)?;
    rec.drain(&mut c)?;
    crate::host::check_peak_reader(out);

    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..targets.len()).collect();
    let mut cycle_s = Vec::new();
    let mut cycle_rss = Vec::new();
    let meter = crate::host::Meter::start();
    let t_run = Instant::now();
    while t_run.elapsed().as_secs_f64() < seconds || cycle_s.len() < MIN_CYCLES {
        rng.shuffle(&mut order);
        crate::host::reset_peak_rss();
        let t = Instant::now();
        cycle(&mut c, &targets, &mut state, &order, cycle_s.len() as i64)?;
        cycle_s.push(t.elapsed().as_secs_f64());
        cycle_rss.push(crate::host::peak_rss_mb().unwrap_or(0.0));
        // Between cycles, outside the cycle's clock.
        rec.drain(&mut c)?;
    }
    meter.finish(out);
    let errors = c.errors;
    drop(c);
    server.stop();
    let samples = rec.finish()?;

    let cycles = cycle_s.len() as f64;
    let timed = || samples.iter().filter(|e| e.0 >= 0);
    let pct = |class: Class, p: f64| -> Result<f64, String> {
        let xs: Vec<f64> = timed().filter(|e| e.1 == class).map(|e| e.2).collect();
        percentile(&xs, p)
            .ok_or_else(|| format!("too few {} samples ({}) for p{p}", class.name(), xs.len()))
    };
    out.set("peak_rss_mb", median(&cycle_rss));
    // Every edit changes one unit, and its cycle brings that unit's
    // views back up to date: a cycle carries `2 × programs` units.
    let units = 2.0 * targets.len() as f64;
    let rates: Vec<f64> = cycle_s.iter().map(|s| units / s).collect();
    out.set("units_per_s", median(&rates));
    out.set("server.edit_ms_p50", pct(Class::Edit, 50.0)?);
    out.set("server.read_ms_p50", pct(Class::Read, 50.0)?);
    out.set("server.lint_ms_p50", pct(Class::Lint, 50.0)?);
    out.set("server.par_ms_p50", pct(Class::ParMiss, 50.0)?);
    out.set("server.par_ms_p90", pct(Class::ParMiss, 90.0)?);
    out.set("server.hit_ms_p50", pct(Class::ParHit, 50.0)?);
    out.set("cycles", cycles);
    out.set(
        "client_other_ms_per_cycle",
        timed()
            .filter(|e| e.1 != Class::ParMiss)
            .map(|e| e.2)
            .sum::<f64>()
            / cycles,
    );
    out.set(
        "response_bytes_per_cycle",
        timed().map(|e| e.3 as f64).sum::<f64>() / cycles,
    );
    out.set("errors", errors as f64);
    Ok(())
}

/// One more set-up, in a child process of its own: the VM's compile
/// cache is process-wide and keyed by program content, so a second set-up
/// in the measured process would skip every compile the first one made.
pub fn setup_once(out: &mut Kv) -> Result<(), String> {
    let targets = targets();
    let t = Instant::now();
    let (mut server, c, _) = setup(&targets)?;
    out.set("setup_s", t.elapsed().as_secs_f64());
    drop(c);
    server.stop();
    Ok(())
}

/// The recorded exchange, read back by the parent and the traced child.
struct Recorded {
    requests: Vec<String>,
    responses: Vec<String>,
    script: Vec<(i64, Class)>,
}

fn read_recorded(work: &Path) -> Result<Recorded, String> {
    let read = |name: &str| -> Result<Vec<String>, String> {
        Ok(std::fs::read_to_string(work.join(name))
            .map_err(|e| format!("read {name}: {e}"))?
            .lines()
            .map(str::to_string)
            .collect())
    };
    let script = read("script.txt")?
        .iter()
        .map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?.parse().ok()?, Class::parse(f.next()?)?))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("bad script line")?;
    Ok(Recorded {
        requests: read("requests.txt")?,
        responses: read("responses.txt")?,
        script,
    })
}

/// Compare every recorded response with `ped_server::oracle_replay` of
/// the same request lines. Returns (attempted, failed).
pub fn check(work: &Path, child: &Kv) -> Result<(u64, u64), String> {
    let rec = read_recorded(work)?;
    let oracle = ped_server::oracle_replay(&rec.requests);
    let mismatches = oracle
        .iter()
        .zip(&rec.responses)
        .filter(|(o, r)| o != r)
        .count();
    if mismatches > 0 {
        eprintln!("pedbench: {mismatches} responses differ from the oracle replay");
    }
    let failed = mismatches as u64 + child.get("errors") as u64;
    Ok((rec.requests.len() as u64, failed))
}

/// The traced run, in the parent after the measured child has exited.
/// The recorded request lines of set-up and the first traced cycles run
/// three ways in lock step, one request at a time, so that a change in
/// host speed falls on all three alike:
///
/// 1. untraced, over loopback TCP to a fresh in-process server: the
///    untraced end-to-end figure;
/// 2. through in-process `dispatch_line`: the server without the wire;
/// 3. as direct `PedSession` calls with a span around each: the session
///    layers.
///
/// Every response of 1 and 2 must equal the measured run's, and so must
/// the outputs of 3 that have a public wire encoder (lint findings,
/// parallelization reports). Memo-miss `parallelize` lines are dispatched
/// in 2 but not timed: their time is the verify gate, which 3 splits into
/// `par.static_ms` and `par.verify_ms`, and subtracting two gate runs
/// would leave mostly the gate's noise. Their server share is the report
/// encoding, which 3 times. The VM's compile cache is process-wide, so
/// whichever of 1 and 3 runs a memo miss first compiles for both; they
/// take turns.
pub fn trace(work: &Path, child: &Kv) -> Result<Kv, String> {
    let rec = read_recorded(work)?;
    let mut server = spawn_server()?;
    let mut wire = Client::connect(server.addr);
    let mgr = ped_server::SessionManager::new(ped_server::ManagerConfig::default());
    let flag = std::sync::atomic::AtomicBool::new(false);
    let mut direct = Direct::default();
    let mut before = None;
    let (mut untraced_ms, mut traced_ms, mut dispatch_ms) = (0.0, 0.0, 0.0);
    let mut misses = 0usize;
    for (i, line) in rec.requests.iter().enumerate() {
        let (cycle, class) = rec.script[i];
        if cycle >= TRACED_CYCLES {
            break;
        }
        let timed = cycle >= 0;
        if timed && before.is_none() {
            before = Some(totals(&direct.sessions));
        }
        let miss = timed && class == Class::ParMiss;
        misses += miss as usize;
        let direct_first = miss && misses % 2 == 0;
        let expected = &rec.responses[i];
        let mut traced = 0.0;
        if direct_first {
            traced = direct.call(i, line, class, timed, expected)?;
        }
        let (response, wire_ms) = wire.exchange(line);
        if response != *expected {
            return Err(format!(
                "replayed line {i} differs from the measured server's response"
            ));
        }
        if !direct_first {
            traced = direct.call(i, line, class, timed, expected)?;
        }
        let t = Instant::now();
        let response = ped_server::dispatch_line(&mgr, &flag, line);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if response != *expected {
            return Err(format!(
                "in-process dispatch of line {i} differs from the server's response"
            ));
        }
        if timed {
            untraced_ms += wire_ms;
            traced_ms += traced;
            if !miss {
                dispatch_ms += ms;
            }
        }
    }
    drop(wire);
    server.stop();

    let n = TRACED_CYCLES as f64;
    let mut kv = direct.layers.scaled(n).into_kv();
    for name in SESSION_LAYERS
        .iter()
        .chain(&["par.static_ms", "par.verify_ms", "miss_encode_ms"])
    {
        kv.0.entry(name.to_string()).or_insert(0.0);
    }
    let session: f64 = SESSION_LAYERS.iter().map(|&l| kv.get(l)).sum();
    let gate = kv.get("par.static_ms") + kv.get("par.verify_ms");
    let encode = kv.get("miss_encode_ms");
    kv.0.remove("miss_encode_ms");
    let (b, a) = (
        before.ok_or("no timed cycles recorded")?,
        totals(&direct.sessions),
    );
    let ratio = |hits: u64, misses: u64| hits as f64 / ((hits + misses).max(1)) as f64;
    kv.set("core.pair_hit_ratio", ratio(a.0 - b.0, a.1 - b.1));
    kv.set("core.scalar_hit_ratio", ratio(a.2 - b.2, a.3 - b.3));
    kv.set("core.lint_hit_ratio", ratio(a.4 - b.4, a.5 - b.5));
    // Per cycle, over every request but the memo misses. The client
    // latency is the measured run's: in lock step the server's thread
    // wakes from colder caches than in the closed loop a user drives.
    let client = child.get("client_other_ms_per_cycle");
    let dispatch = dispatch_ms / n;
    kv.set("server.dispatch_ms", dispatch - session + encode);
    kv.set("server.wire_ms", client - dispatch);
    kv.set(
        "server.response_bytes",
        child.get("response_bytes_per_cycle"),
    );
    let sum = (client - dispatch) + (dispatch - session + encode) + session + gate;
    let untraced = untraced_ms / n;
    kv.set("trace.layer_sum_ms", sum);
    kv.set("trace.untraced_ms", untraced);
    kv.set("trace.layer_sum_ratio", sum / untraced);
    kv.set("trace.overhead_ms", traced_ms / n - untraced);
    Ok(kv)
}

/// Session-level layers of the direct calls for every request but the
/// memo misses.
const SESSION_LAYERS: [&str; 5] = [
    "core.reanalyze_ms",
    "core.select_ms",
    "core.read_ms",
    "core.lint_ms",
    "core.par_hit_ms",
];

/// The session script executed as direct `PedSession` calls.
#[derive(Default)]
struct Direct {
    sessions: HashMap<String, PedSession>,
    layers: Layers,
}

impl Direct {
    /// Execute recorded request line `i` and return its wall time in ms,
    /// the spans and the calls that only split a layer included. Spans
    /// are recorded only for `timed` lines.
    fn call(
        &mut self,
        i: usize,
        line: &str,
        class: Class,
        timed: bool,
        expected: &str,
    ) -> Result<f64, String> {
        let t = Instant::now();
        let req = ped_server::parse_request(line)?;
        let p = &req.params;
        let name = p
            .get("session")
            .and_then(Value::as_str)
            .ok_or("request without session")?;
        if req.method == "open" {
            let wp = ped_workloads::program(name).ok_or("unknown program")?;
            self.sessions
                .insert(name.to_string(), PedSession::open(wp.parse()));
            return Ok(t.elapsed().as_secs_f64() * 1e3);
        }
        let Direct { sessions, layers } = self;
        let s = sessions.get_mut(name).ok_or("unknown session")?;
        let at = |l: &mut Layers, layer: &str, ms: f64| {
            if timed {
                l.add(layer, ms);
            }
        };
        let encode = |value: Value| ped_server::protocol::ok_response(&req.id, value);
        let same = |line: String, what: &str| {
            if line == expected {
                Ok(())
            } else {
                Err(format!(
                    "direct {what} of line {i} differs from the server's response"
                ))
            }
        };
        match req.method.as_str() {
            "select_unit" => {
                let unit = p.get("unit").and_then(Value::as_str).ok_or("no unit")?;
                s.select_unit(unit)?;
            }
            "stmts" => {}
            "edit" => {
                let stmt = StmtId(p.get("stmt").and_then(Value::as_i64).ok_or("no stmt")? as u32);
                let text = p.get("text").and_then(Value::as_str).ok_or("no text")?;
                let (ms, r) = layers.measure(|| s.edit_statement(stmt, text));
                r?;
                at(layers, "core.reanalyze_ms", ms);
            }
            "select_loop" => {
                let l = LoopId(p.get("loop").and_then(Value::as_i64).ok_or("no loop")? as u32);
                let (ms, r) = layers.measure(|| s.select_loop(l));
                r?;
                at(layers, "core.select_ms", ms);
            }
            "deps" => {
                let (ms, _) = layers.measure(|| s.dependence_rows(&DepFilter::All));
                at(layers, "core.read_ms", ms);
            }
            "vars" => {
                let (ms, _) = layers.measure(|| s.variable_rows(&VarFilter::All));
                at(layers, "core.read_ms", ms);
            }
            "lint" => {
                let (ms, findings) = layers.measure(|| s.lint());
                at(layers, "core.lint_ms", ms);
                same(
                    encode(ped_server::lintio::findings_value(&findings)),
                    "lint",
                )?;
            }
            "parallelize" if timed && class == Class::ParMiss => {
                let static_opts = ped_par::ParOptions {
                    verify: false,
                    ..ped_par::ParOptions::default()
                };
                let (st, _) =
                    layers.measure(|| ped_par::parallelize_program(&s.program, &static_opts));
                let (full, report) = layers.measure(|| s.parallelize());
                layers.add("par.static_ms", st);
                layers.add("par.verify_ms", full - st);
                let demoted = report.verify.as_ref().map_or(0, |v| v.demoted.len());
                layers.add("par.demotions", demoted as f64);
                vm_breakdown(&s.program, layers);
                let (ms, line) =
                    layers.measure(|| encode(ped_server::pario::report_value(&report)));
                layers.add("miss_encode_ms", ms);
                same(line, "parallelize")?;
            }
            "parallelize" => {
                let (ms, report) = layers.measure(|| s.parallelize());
                at(layers, "core.par_hit_ms", ms);
                same(
                    encode(ped_server::pario::report_value(&report)),
                    "parallelize",
                )?;
            }
            other => return Err(format!("unexpected method '{other}' in the script")),
        }
        Ok(t.elapsed().as_secs_f64() * 1e3)
    }
}

/// Compile and run the edited program once on one worker: what each run
/// of the verify gate costs. Not part of the layer sum.
fn vm_breakdown(program: &ped_fortran::Program, layers: &mut Layers) {
    let t = Instant::now();
    let compiled = ped_vm::compile(program);
    let compile_ms = t.elapsed().as_secs_f64() * 1e3;
    let opts = ped_runtime::RunOptions::default();
    match compiled {
        Ok(c) => {
            let t = Instant::now();
            let _ = ped_vm::run_metered(&c, &opts);
            layers.add("vm.compile_ms", compile_ms);
            layers.add("vm.exec_ms", t.elapsed().as_secs_f64() * 1e3);
        }
        Err(_) => {
            let t = Instant::now();
            let _ = ped_runtime::run_tree(program, opts);
            layers.add("runtime.fallbacks", 1.0);
            layers.add("runtime.tree_ms", t.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// Session cache counters summed over all sessions: pair, scalar and
/// lint memo (hits, misses).
fn totals(sessions: &HashMap<String, PedSession>) -> (u64, u64, u64, u64, u64, u64) {
    sessions.values().fold((0, 0, 0, 0, 0, 0), |acc, s| {
        let st = s.stats();
        (
            acc.0 + st.pair_hits,
            acc.1 + st.pair_misses,
            acc.2 + st.scalar_hits,
            acc.3 + st.scalar_misses,
            acc.4 + st.lint_hits,
            acc.5 + st.lint_misses,
        )
    })
}
