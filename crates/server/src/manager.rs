//! The sharded session registry with snapshot-isolated reads.
//!
//! `ped-serve` holds many concurrent [`PedSession`]s. Each session is an
//! exclusive interactive state machine (selection, marks, assertions),
//! and its entry carries **two** faces of that state:
//!
//! * the authoritative session behind the **writer lock** — mutating
//!   methods (`edit`/`mark`/`classify`/`assert`/`transform`/
//!   `select_*`) serialize here, rebuild copy-on-write, and publish;
//! * the currently published **snapshot**, an `Arc<SessionSnapshot>`
//!   behind its own small mutex — read methods (`deps`/`vars`/`stmts`/
//!   `lint`/`stats`) clone the `Arc` under that mutex and never touch
//!   the writer lock, so a long edit on one connection cannot stall
//!   queries on another. The snapshot mutex guards one refcount bump
//!   (a read) or one pointer swap (a publish) and nothing else; the
//!   swapped-out `Arc` is dropped after the mutex is released.
//!
//! To keep registry bookkeeping off the hot path the id → session map
//! is sharded by a hash of the session id: a lookup locks only its
//! shard, clones the entry `Arc`, and releases the shard lock before
//! any analysis work runs.
//!
//! The cloned `Arc<Entry>` (plus the cloned `Arc<SessionSnapshot>`)
//! also *pins* the session for the request lifetime: the janitor may
//! evict the entry from the map mid-request, but the state a reader is
//! rendering stays alive until its reply is encoded.
//!
//! The manager also enforces the service limits: a maximum live-session
//! count (admission control) and an idle TTL (a janitor sweep evicts
//! sessions nobody has touched, reclaiming their analysis state).

use ped::session::PedSession;
use ped::snapshot::SessionSnapshot;
use ped_fortran::ast::Program;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Registry limits and shape.
#[derive(Clone, Debug)]
pub struct ManagerConfig {
    /// Number of independent registry shards.
    pub shards: usize,
    /// Maximum number of live sessions; `open` beyond this is rejected.
    pub max_sessions: usize,
    /// Sessions untouched for this long are evicted by `evict_idle`.
    pub idle_ttl: Duration,
    /// Persistent analysis cache directory. When set, every session's
    /// `AnalysisCache` gets a [`ped::DiskCache`] attached at open (lint
    /// and parallelize memo misses fall through to disk), and the
    /// `batch` wire method runs against the same store. `None` keeps
    /// the server fully in-memory.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Root directory the sessionless `batch` wire method may read.
    /// Client-supplied paths are resolved against it and must
    /// canonicalize to somewhere inside it — a wire client can never
    /// walk the server into arbitrary filesystem reads. `None` (the
    /// default) disables the `batch` method entirely, the safe stance
    /// for a server facing untrusted clients.
    pub batch_root: Option<std::path::PathBuf>,
}

impl Default for ManagerConfig {
    fn default() -> ManagerConfig {
        ManagerConfig {
            shards: 16,
            max_sessions: 1024,
            idle_ttl: Duration::from_secs(15 * 60),
            cache_dir: None,
            batch_root: None,
        }
    }
}

struct Entry {
    /// The authoritative session; write methods serialize here.
    writer: Mutex<PedSession>,
    /// The published snapshot; read methods clone the `Arc` and
    /// release the lock before any work runs.
    snap: Mutex<Arc<SessionSnapshot>>,
    /// Milliseconds since manager start at last touch.
    last_used: AtomicU64,
}

/// Sharded, thread-safe registry of live sessions.
pub struct SessionManager {
    shards: Vec<Mutex<HashMap<String, Arc<Entry>>>>,
    cfg: ManagerConfig,
    live: AtomicUsize,
    next_anon: AtomicU64,
    epoch: Instant,
    /// Lifetime counters: sessions opened / closed / evicted.
    opened: AtomicU64,
    closed: AtomicU64,
    evicted: AtomicU64,
}

impl SessionManager {
    pub fn new(cfg: ManagerConfig) -> SessionManager {
        let shards = cfg.shards.max(1);
        SessionManager {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            cfg,
            live: AtomicUsize::new(0),
            next_anon: AtomicU64::new(1),
            epoch: Instant::now(),
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn shard_of(&self, id: &str) -> &Mutex<HashMap<String, Arc<Entry>>> {
        let h = ped_fortran::fingerprint::Fnv::new().str(id).done();
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured persistent-cache directory, if any.
    pub fn cache_dir(&self) -> Option<&std::path::Path> {
        self.cfg.cache_dir.as_deref()
    }

    /// The directory the `batch` wire method may read, if enabled.
    pub fn batch_root(&self) -> Option<&std::path::Path> {
        self.cfg.batch_root.as_deref()
    }

    /// (opened, closed, evicted) lifetime counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.opened.load(Ordering::SeqCst),
            self.closed.load(Ordering::SeqCst),
            self.evicted.load(Ordering::SeqCst),
        )
    }

    /// Open a session on `program` under `requested` (or an assigned
    /// `s<n>` id). Fails when the id is taken or the server is full.
    /// The fresh session is published at epoch 1 immediately, so reads
    /// racing the open either miss the id or see a complete snapshot.
    pub fn create(&self, requested: Option<String>, program: Program) -> Result<String, String> {
        // Admission control first: don't build state we'd throw away.
        // (Optimistic increment; undone on failure.)
        let prev = self.live.fetch_add(1, Ordering::SeqCst);
        if prev >= self.cfg.max_sessions {
            self.live.fetch_sub(1, Ordering::SeqCst);
            return Err(format!(
                "session limit reached ({} live)",
                self.cfg.max_sessions
            ));
        }
        let id = requested
            .unwrap_or_else(|| format!("s{}", self.next_anon.fetch_add(1, Ordering::SeqCst)));
        let session = PedSession::open(program);
        session.usage.prime_epoch();
        // Best-effort: a cache dir that cannot be opened (permissions,
        // read-only fs) degrades to in-memory, it does not fail `open`.
        if let Some(dir) = &self.cfg.cache_dir {
            if let Ok(disk) = ped::persist::DiskCache::open(dir) {
                session.cache.attach_disk(disk);
            }
        }
        let snap = Mutex::new(Arc::new(SessionSnapshot::capture(&session, 1)));
        let entry = Arc::new(Entry {
            writer: Mutex::new(session),
            snap,
            last_used: AtomicU64::new(self.now_ms()),
        });
        let mut shard = self.shard_of(&id).lock().unwrap();
        if shard.contains_key(&id) {
            drop(shard);
            self.live.fetch_sub(1, Ordering::SeqCst);
            return Err(format!("session '{id}' already exists"));
        }
        shard.insert(id.clone(), entry);
        drop(shard);
        self.opened.fetch_add(1, Ordering::SeqCst);
        Ok(id)
    }

    /// Clone the entry `Arc` out of its shard — the caller now pins the
    /// session against eviction for as long as it holds the `Arc`.
    fn lookup(&self, id: &str) -> Result<Arc<Entry>, String> {
        let shard = self.shard_of(id).lock().unwrap();
        shard
            .get(id)
            .cloned()
            .ok_or_else(|| format!("unknown session '{id}'"))
    }

    /// Run `f` with exclusive access to session `id` (the write path).
    /// The shard lock is held only for the lookup; `f` runs under the
    /// session's writer lock, so other sessions stay fully concurrent —
    /// and when `f` returns, the next snapshot is captured and
    /// published, so subsequent reads observe the mutation.
    pub fn with_session<R>(
        &self,
        id: &str,
        f: impl FnOnce(&mut PedSession) -> R,
    ) -> Result<R, String> {
        let entry = self.lookup(id)?;
        entry.last_used.store(self.now_ms(), Ordering::SeqCst);
        let mut session = entry.writer.lock().unwrap();
        let r = f(&mut session);
        // Publish unconditionally (even when `f` reported an
        // application-level error): the epoch/publish counters must
        // advance identically under the server and the sequential
        // oracle for replies to stay byte-identical.
        let epoch = session.usage.note_publish();
        let next = Arc::new(SessionSnapshot::capture(&session, epoch));
        // The guard is a temporary of this statement, so `_retired` is
        // dropped only after the snapshot lock is released.
        let _retired = std::mem::replace(
            &mut *entry.snap.lock().expect("snapshot lock poisoned"),
            next,
        );
        Ok(r)
    }

    /// Run `f` against the published snapshot of session `id` (the read
    /// path). The writer lock is never taken: the snapshot `Arc` is
    /// cloned under the snapshot lock, which is released before `f`
    /// runs. Both the entry and the snapshot stay pinned (alive) until
    /// `f` finishes encoding its reply — a concurrent eviction or edit
    /// cannot pull the state out from under it.
    pub fn with_read<R>(
        &self,
        id: &str,
        f: impl FnOnce(&SessionSnapshot) -> R,
    ) -> Result<R, String> {
        let entry = self.lookup(id)?;
        entry.last_used.store(self.now_ms(), Ordering::SeqCst);
        let snap = Arc::clone(&entry.snap.lock().expect("snapshot lock poisoned"));
        snap.usage.note_snapshot_read();
        Ok(f(&snap))
    }

    /// Close (remove) session `id`.
    pub fn close(&self, id: &str) -> Result<(), String> {
        let removed = self.shard_of(id).lock().unwrap().remove(id);
        match removed {
            Some(_) => {
                self.live.fetch_sub(1, Ordering::SeqCst);
                self.closed.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
            None => Err(format!("unknown session '{id}'")),
        }
    }

    /// Evict every session idle longer than the TTL; returns how many.
    /// Sessions currently executing a write are never evicted (their
    /// writer lock is held), and their `last_used` was refreshed at
    /// dispatch. In-flight readers are safe regardless: they pinned the
    /// entry and its snapshot, so removal from the map only drops the
    /// registry's reference.
    pub fn evict_idle(&self) -> usize {
        let ttl_ms = self.cfg.idle_ttl.as_millis() as u64;
        let now = self.now_ms();
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            shard.retain(|_, e| {
                let idle = now.saturating_sub(e.last_used.load(Ordering::SeqCst));
                let busy = e.writer.try_lock().is_err();
                let keep = busy || idle < ttl_ms;
                if !keep {
                    evicted += 1;
                }
                keep
            });
        }
        if evicted > 0 {
            self.live.fetch_sub(evicted, Ordering::SeqCst);
            self.evicted.fetch_add(evicted as u64, Ordering::SeqCst);
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parser::parse_ok;

    const SRC: &str =
        "      REAL A(100)\n      DO 10 I = 2, N\n      A(I) = A(I-1)\n   10 CONTINUE\n      END\n";

    fn cfg(max: usize, ttl_ms: u64) -> ManagerConfig {
        ManagerConfig {
            shards: 4,
            max_sessions: max,
            idle_ttl: Duration::from_millis(ttl_ms),
            cache_dir: None,
            batch_root: None,
        }
    }

    #[test]
    fn create_lookup_close() {
        let m = SessionManager::new(cfg(8, 60_000));
        let id = m.create(Some("a".into()), parse_ok(SRC)).unwrap();
        assert_eq!(id, "a");
        assert_eq!(m.len(), 1);
        let nloops = m.with_session("a", |s| s.ua.nest.len()).unwrap();
        assert_eq!(nloops, 1);
        assert!(m.with_session("b", |_| ()).is_err());
        m.close("a").unwrap();
        assert!(m.is_empty());
        assert!(m.close("a").is_err());
    }

    #[test]
    fn duplicate_and_anonymous_ids() {
        let m = SessionManager::new(cfg(8, 60_000));
        m.create(Some("a".into()), parse_ok(SRC)).unwrap();
        assert!(m.create(Some("a".into()), parse_ok(SRC)).is_err());
        let anon = m.create(None, parse_ok(SRC)).unwrap();
        assert!(anon.starts_with('s'));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn max_sessions_enforced() {
        let m = SessionManager::new(cfg(2, 60_000));
        m.create(Some("a".into()), parse_ok(SRC)).unwrap();
        m.create(Some("b".into()), parse_ok(SRC)).unwrap();
        assert!(m.create(Some("c".into()), parse_ok(SRC)).is_err());
        m.close("a").unwrap();
        m.create(Some("c".into()), parse_ok(SRC)).unwrap();
    }

    #[test]
    fn idle_eviction() {
        let m = SessionManager::new(cfg(8, 30));
        m.create(Some("a".into()), parse_ok(SRC)).unwrap();
        assert_eq!(m.evict_idle(), 0, "fresh session must survive");
        std::thread::sleep(Duration::from_millis(60));
        m.create(Some("b".into()), parse_ok(SRC)).unwrap();
        assert_eq!(m.evict_idle(), 1, "only the idle session goes");
        assert_eq!(m.len(), 1);
        assert!(m.with_session("a", |_| ()).is_err());
        assert!(m.with_session("b", |_| ()).is_ok());
        assert_eq!(m.counters(), (2, 0, 1));
    }

    #[test]
    fn cross_session_parallelism() {
        // Two sessions make progress concurrently even while one holds
        // its session lock for a long critical section.
        let m = Arc::new(SessionManager::new(cfg(8, 60_000)));
        m.create(Some("slow".into()), parse_ok(SRC)).unwrap();
        m.create(Some("fast".into()), parse_ok(SRC)).unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let m2 = Arc::clone(&m);
        let slow = std::thread::spawn(move || {
            m2.with_session("slow", |_| {
                // Signal we hold the lock, then stall.
                tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(150));
            })
            .unwrap();
        });
        rx.recv().unwrap();
        let t = Instant::now();
        m.with_session("fast", |_| ()).unwrap();
        assert!(
            t.elapsed() < Duration::from_millis(100),
            "a busy session must not block other sessions"
        );
        slow.join().unwrap();
    }

    #[test]
    fn reads_do_not_block_on_a_held_writer_lock() {
        let m = Arc::new(SessionManager::new(cfg(8, 60_000)));
        m.create(Some("a".into()), parse_ok(SRC)).unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let m2 = Arc::clone(&m);
        let writer = std::thread::spawn(move || {
            m2.with_session("a", |_| {
                tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(150));
            })
            .unwrap();
        });
        rx.recv().unwrap(); // writer holds the lock now
        let t = Instant::now();
        let nloops = m.with_read("a", |s| s.ua.nest.len()).unwrap();
        assert_eq!(nloops, 1);
        assert!(
            t.elapsed() < Duration::from_millis(100),
            "snapshot read must not wait for the writer lock"
        );
        writer.join().unwrap();
    }

    #[test]
    fn writes_publish_and_reads_observe_the_new_epoch() {
        let m = SessionManager::new(cfg(8, 60_000));
        m.create(Some("a".into()), parse_ok(SRC)).unwrap();
        let epoch0 = m.with_read("a", |s| s.stats().snapshot_epoch).unwrap();
        assert_eq!(epoch0, 1, "open publishes epoch 1");
        m.with_session("a", |s| {
            s.select_loop(ped_analysis::loops::LoopId(0)).unwrap()
        })
        .unwrap();
        let st = m.with_read("a", |s| s.stats()).unwrap();
        assert_eq!(st.snapshot_epoch, 2);
        assert_eq!(st.writer_publishes, 1);
        assert!(st.snapshot_reads >= 2);
        let sel = m.with_read("a", |s| s.selected).unwrap();
        assert_eq!(sel, Some(ped_analysis::loops::LoopId(0)));
    }

    #[test]
    fn eviction_cannot_unpin_an_inflight_read() {
        // Hammer eviction + close/reopen against concurrent snapshot
        // reads: a read that found the entry must complete against
        // coherent pinned state even when the janitor rips the session
        // out of the registry mid-request.
        let m = Arc::new(SessionManager::new(cfg(64, 0))); // ttl 0: everything idle
        m.create(Some("hot".into()), parse_ok(SRC)).unwrap();
        let stop = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut served = 0usize;
                    while stop.load(Ordering::SeqCst) == 0 {
                        // Either "unknown session" or a complete,
                        // coherent snapshot — never a torn state.
                        if let Ok(n) = m.with_read("hot", |s| {
                            // Touch analysis state the way a reply
                            // encoder would.
                            let _ = s.ua.graph.deps.len();
                            let _ = s.stats();
                            s.ua.nest.len()
                        }) {
                            assert_eq!(n, 1);
                            served += 1;
                        }
                    }
                    served
                })
            })
            .collect();
        for _ in 0..200 {
            m.evict_idle();
            // Recreate so readers keep finding it sometimes.
            let _ = m.create(Some("hot".into()), parse_ok(SRC));
        }
        stop.store(1, Ordering::SeqCst);
        let mut served = 0;
        for r in readers {
            served += r.join().expect("reader panicked");
        }
        assert!(served > 0, "readers never overlapped a live session");
    }
}
