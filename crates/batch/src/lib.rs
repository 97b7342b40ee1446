//! # ped-batch — corpus-scale batch analysis
//!
//! The paper's tool is interactive: one user, one program, one loop at
//! a time. This crate is the other operating mode the workshop groups
//! kept asking for — run the *whole pipeline* (parse → scalar facts →
//! dependences → lint → parallelize) over a directory or manifest of
//! Fortran programs, in parallel, and keep the results.
//!
//! Two properties carry the design:
//!
//! * **Determinism.** Jobs run under a work-stealing scheduler
//!   ([`steal::StealQueues`]) but results land in input-indexed slots,
//!   so the merged report is byte-identical for any thread count and
//!   any steal interleaving.
//! * **Persistence.** Each program's result surface (a
//!   [`ProgramSummary`]: per-unit dependence summaries, lint findings,
//!   the parallelization report) serializes losslessly through
//!   `ped_fortran::codec` and is stored in a [`ped::DiskCache`] keyed
//!   by the source's content fingerprint. A warm run loads summaries
//!   instead of re-analyzing — skipping even the parse — and still
//!   renders byte-identically to the cold run, because the renderer
//!   only ever reads the summary.
//!
//! Corrupt or truncated cache entries are *recomputed, never trusted*:
//! the framing checks live in `ped::persist`, the payload decoders
//! reject trailing garbage and unknown tags, and on any failure the
//! driver falls back to the cold path and overwrites the bad entry.

pub mod steal;

use ped::persist::DiskCache;
use ped_dependence::DepSummary;
use ped_fortran::codec::{Dec, DecodeError, Enc};
use ped_fortran::fingerprint::source_fingerprint;
use ped_interproc::ProgramFacts;
use ped_lint::{Finding, LintOptions};
use ped_par::{ParOptions, ParReport};
use ped_transform::ctx::UnitAnalysis;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Cache namespace for whole-program batch summaries (static analysis,
/// the default `verify: false` mode).
pub const KIND_BATCH: &str = "batch";

/// Cache namespace for `verify: true` summaries. The differential
/// execution gate changes the result surface — `ParReport` gains its
/// verify section and directives the verifier refutes are demoted — so
/// verify and non-verify runs must never answer each other's lookups:
/// a shared namespace would let a non-verify-populated cache silently
/// skip verification (or leak verify output into non-verify runs,
/// breaking cold==warm byte identity).
pub const KIND_BATCH_VERIFY: &str = "batch-v";

/// The cache namespace for a given options set.
fn cache_kind(verify: bool) -> &'static str {
    if verify {
        KIND_BATCH_VERIFY
    } else {
        KIND_BATCH
    }
}

/// One input program: a name (file path or corpus id) and its source.
#[derive(Clone, Debug)]
pub struct BatchJob {
    pub name: String,
    pub source: String,
}

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Worker threads; 0 = one per available core (capped at 8).
    pub threads: usize,
    /// Persistent cache; `None` disables persistence entirely.
    pub cache: Option<DiskCache>,
    /// Run ped-par's differential execution gate per program (slow;
    /// off by default — batch runs are static analysis).
    pub verify: bool,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            threads: 0,
            cache: None,
            verify: false,
        }
    }
}

/// One program's cached result surface. Everything the renderer needs
/// and nothing it doesn't: decoding one of these from disk yields the
/// same report bytes as a full recompute.
#[derive(Clone, Debug)]
pub struct ProgramSummary {
    pub name: String,
    /// Parse diagnostics (line: message); non-empty means the analyses
    /// below were skipped.
    pub parse_errors: Vec<String>,
    /// Per-unit dependence summaries, in unit order.
    pub units: Vec<DepSummary>,
    /// Lint findings, report-sorted.
    pub findings: Vec<Finding>,
    /// Whole-program parallelization report (absent on parse failure).
    pub par: Option<ParReport>,
}

/// Encode a summary for the disk cache (framing/versioning/checksum are
/// the cache layer's job — this is payload only).
pub fn encode_summary(s: &ProgramSummary) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(&s.name);
    e.strs(&s.parse_errors);
    e.bytes(&ped_dependence::summary::encode_summaries(&s.units));
    e.bytes(&ped_lint::encode_findings(&s.findings));
    match &s.par {
        Some(p) => {
            e.bool(true);
            e.bytes(&ped_par::encode_report(p));
        }
        None => e.bool(false),
    }
    e.into_bytes()
}

/// Decode a summary; any structural damage is an error, never a panic.
pub fn decode_summary(bytes: &[u8]) -> Result<ProgramSummary, DecodeError> {
    let mut d = Dec::new(bytes);
    let name = d.str()?;
    let parse_errors = d.strs()?;
    let units = ped_dependence::summary::decode_summaries(&d.bytes()?)?;
    let findings = ped_lint::decode_findings(&d.bytes()?)?;
    let par = if d.bool()? {
        Some(ped_par::decode_report(&d.bytes()?)?)
    } else {
        None
    };
    if !d.done() {
        return Err(DecodeError {
            what: "trailing bytes after program summary",
            offset: d.offset(),
        });
    }
    Ok(ProgramSummary {
        name,
        parse_errors,
        units,
        findings,
        par,
    })
}

/// One job's outcome.
#[derive(Clone, Debug)]
pub struct ProgramResult {
    pub summary: ProgramSummary,
    /// Content fingerprint of the source — the cache key.
    pub key: u64,
    /// True when the summary was loaded from disk instead of computed.
    pub from_cache: bool,
}

/// Aggregate counters for one batch run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    pub programs: usize,
    pub units: usize,
    pub findings: usize,
    pub parse_failures: usize,
    /// Nests ped-par classified parallel (directly or after transform).
    pub parallel_nests: usize,
    pub serial_nests: usize,
    /// Programs answered from the disk cache.
    pub cache_hits: usize,
    pub cache_misses: usize,
    /// Worker threads actually used.
    pub threads: usize,
    /// Work-stealing telemetry: (steal operations, jobs moved).
    pub steals: u64,
    pub stolen_jobs: u64,
}

/// The merged, deterministic batch report.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-program results in input order, independent of scheduling.
    pub results: Vec<ProgramResult>,
    pub stats: BatchStats,
}

impl BatchReport {
    /// The deterministic report body: every program's rendering, in
    /// input order. Contains no cache/timing/thread information, which
    /// is what makes `cold bytes == warm bytes` a meaningful gate.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&render_program(&r.summary));
        }
        out
    }
}

/// Render one program's result surface. Reads only the summary — never
/// the AST or the graphs — so a disk-loaded summary renders the exact
/// bytes a cold recompute does.
pub fn render_program(s: &ProgramSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", s.name);
    for e in &s.parse_errors {
        let _ = writeln!(out, "parse error: {e}");
    }
    for u in &s.units {
        let _ = writeln!(
            out,
            "unit {}: deps={} carried={} independent={} exact={}",
            u.unit, u.deps, u.carried, u.independent, u.exact
        );
        for line in u.canonical.lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    for f in &s.findings {
        let _ = writeln!(out, "{}", finding_line(&s.name, f));
    }
    if let Some(p) = &s.par {
        out.push_str(&ped_par::render_report(&s.name, p));
    }
    out
}

/// `name:line: severity: [CODE] message` — one line per finding.
pub fn finding_line(name: &str, f: &Finding) -> String {
    format!(
        "{name}:{}: {}: [{}] {}",
        f.span.start,
        f.severity(),
        f.rule.code(),
        f.message
    )
}

/// Analyze one source cold: parse, per-unit dependence graphs, lint,
/// parallelize. This is the single implementation behind both the cold
/// path and every differential oracle — there is no second pipeline to
/// drift from.
pub fn analyze_source(name: &str, source: &str, verify: bool) -> ProgramSummary {
    let (program, diags) = ped_fortran::parser::parse(source);
    let parse_errors: Vec<String> = diags
        .errors()
        .map(|d| format!("{}: {}", d.span.start, d.message))
        .collect();
    if !parse_errors.is_empty() {
        return ProgramSummary {
            name: name.to_string(),
            parse_errors,
            units: Vec::new(),
            findings: Vec::new(),
            par: None,
        };
    }
    // Each unit's environment is the one the lint engine builds too:
    // global interprocedural facts plus the unit's local invariants.
    let facts = ProgramFacts::build(&program);
    let units: Vec<DepSummary> = (0..program.units.len())
        .map(|idx| {
            let unit = &program.units[idx];
            let env = facts.unit_env(&program, idx);
            let ua =
                UnitAnalysis::from_tables(unit, facts.tables.unit(idx), env, Some(&facts.effects));
            DepSummary::of(&unit.name.to_ascii_uppercase(), &ua.graph)
        })
        .collect();
    drop(facts);
    let mut findings = ped_lint::lint_program(&program, &LintOptions { threads: 1 });
    ped_lint::sort_findings(&mut findings);
    let par_opts = ParOptions {
        threads: 1,
        verify,
        verify_workers: 2,
        ..ParOptions::default()
    };
    let (par, _) = ped_par::parallelize_program(&program, &par_opts);
    ProgramSummary {
        name: name.to_string(),
        parse_errors,
        units,
        findings,
        par: Some(par),
    }
}

/// Run one job through the cache: disk hit → decode; anything else →
/// cold compute + write-through. A cache entry that frames correctly
/// but fails payload decoding is treated exactly like a miss.
fn run_job(job: &BatchJob, opts: &BatchOptions) -> ProgramResult {
    let key = source_fingerprint(&job.source);
    let kind = cache_kind(opts.verify);
    if let Some(cache) = &opts.cache {
        if let Some(bytes) = cache.load(kind, key) {
            if let Ok(summary) = decode_summary(&bytes) {
                return ProgramResult {
                    summary,
                    key,
                    from_cache: true,
                };
            }
        }
    }
    let summary = analyze_source(&job.name, &job.source, opts.verify);
    if let Some(cache) = &opts.cache {
        cache.store(kind, key, &encode_summary(&summary));
    }
    ProgramResult {
        summary,
        key,
        from_cache: false,
    }
}

/// Run the batch. Results come back in input order regardless of the
/// worker count or which worker ran which job.
pub fn run_batch(jobs: &[BatchJob], opts: &BatchOptions) -> BatchReport {
    let n = jobs.len();
    let workers = match opts.threads {
        0 => ped_dependence::probe_cores().min(8).min(n.max(1)),
        t => t.min(n.max(1)),
    };
    let mut results: Vec<Option<ProgramResult>> = (0..n).map(|_| None).collect();
    let mut steals = (0u64, 0u64);
    if workers <= 1 {
        for (i, job) in jobs.iter().enumerate() {
            results[i] = Some(run_job(job, opts));
        }
    } else {
        let queues = steal::StealQueues::deal(n, workers);
        let slots: Vec<std::sync::Mutex<&mut Option<ProgramResult>>> =
            results.iter_mut().map(std::sync::Mutex::new).collect();
        std::thread::scope(|s| {
            for w in 0..workers {
                let queues = &queues;
                let slots = &slots;
                s.spawn(move || {
                    while let Some(j) = queues.pop(w) {
                        let r = run_job(&jobs[j], opts);
                        **slots[j].lock().unwrap() = Some(r);
                    }
                });
            }
        });
        steals = queues.steal_counts();
    }
    let results: Vec<ProgramResult> = results
        .into_iter()
        .map(|r| r.expect("batch worker panicked"))
        .collect();
    let mut stats = BatchStats {
        programs: n,
        threads: workers,
        steals: steals.0,
        stolen_jobs: steals.1,
        ..BatchStats::default()
    };
    for r in &results {
        stats.units += r.summary.units.len();
        stats.findings += r.summary.findings.len();
        if !r.summary.parse_errors.is_empty() {
            stats.parse_failures += 1;
        }
        if let Some(p) = &r.summary.par {
            let c = p.counts();
            stats.parallel_nests += c.parallel + c.after_transform;
            stats.serial_nests += c.serial;
        }
        if r.from_cache {
            stats.cache_hits += 1;
        } else {
            stats.cache_misses += 1;
        }
    }
    BatchReport { results, stats }
}

/// True for the Fortran source extensions the batch driver accepts.
pub fn is_fortran_path(p: &Path) -> bool {
    matches!(
        p.extension().and_then(|e| e.to_str()),
        Some(e) if e.eq_ignore_ascii_case("f")
            || e.eq_ignore_ascii_case("for")
            || e.eq_ignore_ascii_case("f77")
    )
}

/// Collect `.f`/`.for`/`.f77` files under `path` (recursively, sorted)
/// into jobs. A single file is one job, and must carry one of those
/// extensions too. Symlinks inside the walk are skipped: a directory
/// symlink can form a cycle (unbounded recursion) and symlinked
/// duplicates would be analyzed twice. The explicitly named `path`
/// itself may be a symlink.
pub fn jobs_from_path(path: &Path) -> Result<Vec<BatchJob>, String> {
    fn collect(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
        let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
        if meta.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .collect();
            entries.sort();
            for entry in entries {
                let Ok(emeta) = std::fs::symlink_metadata(&entry) else {
                    continue;
                };
                if emeta.file_type().is_symlink() {
                    continue;
                }
                if emeta.is_dir() {
                    collect(&entry, out)?;
                } else if is_fortran_path(&entry) {
                    out.push(entry);
                }
            }
        } else if is_fortran_path(path) {
            out.push(path.to_path_buf());
        } else {
            return Err(format!(
                "{}: not a Fortran source (.f/.for/.f77)",
                path.display()
            ));
        }
        Ok(())
    }
    let mut files = Vec::new();
    collect(path, &mut files)?;
    files
        .into_iter()
        .map(|f| {
            let source =
                std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            Ok(BatchJob {
                name: f.display().to_string(),
                source,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(n: usize) -> Vec<BatchJob> {
        ped_workloads::synth_corpus(11, n, &ped_workloads::CorpusParams::default())
            .into_iter()
            .map(|(name, source)| BatchJob { name, source })
            .collect()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ped-batch-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn summary_round_trips_losslessly() {
        let jobs = corpus(2);
        for j in &jobs {
            let s = analyze_source(&j.name, &j.source, false);
            assert!(s.parse_errors.is_empty(), "{}", j.name);
            assert!(!s.units.is_empty());
            let back = decode_summary(&encode_summary(&s)).unwrap();
            assert_eq!(render_program(&s), render_program(&back));
            assert_eq!(encode_summary(&s), encode_summary(&back));
        }
    }

    #[test]
    fn parse_failure_is_reported_not_fatal() {
        let jobs = vec![
            BatchJob {
                name: "bad".into(),
                source: "      DO 10 I = \n      END\n".into(),
            },
            BatchJob {
                name: "good".into(),
                source: "      REAL A(10)\n      DO 10 I = 2, 9\n      A(I) = A(I-1)\n   10 CONTINUE\n      END\n".into(),
            },
        ];
        let report = run_batch(&jobs, &BatchOptions::default());
        assert_eq!(report.stats.parse_failures, 1);
        assert!(report.results[0].summary.par.is_none());
        assert!(report.results[1].summary.par.is_some());
        let body = report.render();
        assert!(body.contains("parse error:"), "{body}");
    }

    #[test]
    fn warm_run_is_byte_identical_and_all_hits() {
        let dir = tmpdir("warm");
        let jobs = corpus(6);
        let cold = run_batch(
            &jobs,
            &BatchOptions {
                cache: Some(DiskCache::open(&dir).unwrap()),
                ..BatchOptions::default()
            },
        );
        assert_eq!(cold.stats.cache_hits, 0);
        // Fresh handle = fresh process as far as the cache can tell.
        let warm = run_batch(
            &jobs,
            &BatchOptions {
                cache: Some(DiskCache::open(&dir).unwrap()),
                ..BatchOptions::default()
            },
        );
        assert_eq!(warm.stats.cache_hits, jobs.len());
        assert_eq!(cold.render(), warm.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_recompute_identically() {
        let dir = tmpdir("corrupt");
        let jobs = corpus(4);
        let mk = || BatchOptions {
            cache: Some(DiskCache::open(&dir).unwrap()),
            ..BatchOptions::default()
        };
        let cold = run_batch(&jobs, &mk());
        // Vandalize every cache file a different way.
        let mut files: Vec<std::path::PathBuf> = Vec::new();
        fn walk(d: &Path, out: &mut Vec<std::path::PathBuf>) {
            if let Ok(rd) = std::fs::read_dir(d) {
                for e in rd.flatten() {
                    let p = e.path();
                    if p.is_dir() {
                        walk(&p, out);
                    } else if p.extension().is_some_and(|x| x == "ped") {
                        out.push(p);
                    }
                }
            }
        }
        walk(&dir, &mut files);
        assert_eq!(files.len(), jobs.len());
        files.sort();
        for (i, f) in files.iter().enumerate() {
            match i % 3 {
                0 => {
                    // Truncate mid-payload.
                    let bytes = std::fs::read(f).unwrap();
                    std::fs::write(f, &bytes[..bytes.len() / 2]).unwrap();
                }
                1 => {
                    // Flip a payload byte (checksum catches it).
                    let mut bytes = std::fs::read(f).unwrap();
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0xff;
                    std::fs::write(f, bytes).unwrap();
                }
                _ => std::fs::write(f, b"not a cache entry").unwrap(),
            }
        }
        let healed = run_batch(&jobs, &mk());
        assert_eq!(healed.stats.cache_hits, 0, "all entries were corrupt");
        assert_eq!(cold.render(), healed.render(), "recompute matches cold");
        // And the rewrite healed the cache: next run is all hits.
        let warm = run_batch(&jobs, &mk());
        assert_eq!(warm.stats.cache_hits, jobs.len());
        assert_eq!(cold.render(), warm.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_schedule_same_bytes() {
        let jobs = corpus(5);
        let base = run_batch(
            &jobs,
            &BatchOptions {
                threads: 1,
                ..BatchOptions::default()
            },
        );
        for threads in [2, 4, 7] {
            let r = run_batch(
                &jobs,
                &BatchOptions {
                    threads,
                    ..BatchOptions::default()
                },
            );
            assert_eq!(base.render(), r.render(), "threads={threads}");
        }
    }

    #[test]
    fn verify_runs_never_share_cache_entries_with_static_runs() {
        let dir = tmpdir("verify-ns");
        let jobs = corpus(2);
        let mk = |verify: bool| BatchOptions {
            cache: Some(DiskCache::open(&dir).unwrap()),
            verify,
            ..BatchOptions::default()
        };
        // Populate the cache without --verify...
        let plain_cold = run_batch(&jobs, &mk(false));
        assert_eq!(plain_cold.stats.cache_hits, 0);
        // ...then a --verify run must NOT be answered from it: the
        // differential gate has to actually run.
        let verified_cold = run_batch(&jobs, &mk(true));
        assert_eq!(
            verified_cold.stats.cache_hits, 0,
            "verify run answered from a non-verify cache"
        );
        // Each mode warms only from its own namespace, byte-identically.
        let plain_warm = run_batch(&jobs, &mk(false));
        assert_eq!(plain_warm.stats.cache_hits, jobs.len());
        assert_eq!(plain_cold.render(), plain_warm.render());
        let verified_warm = run_batch(&jobs, &mk(true));
        assert_eq!(verified_warm.stats.cache_hits, jobs.len());
        assert_eq!(verified_cold.render(), verified_warm.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_file_jobs_require_fortran_extension() {
        let dir = tmpdir("ext");
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("prog.f");
        std::fs::write(&f, "      END\n").unwrap();
        let jobs = jobs_from_path(&f).unwrap();
        assert_eq!(jobs.len(), 1);
        let secret = dir.join("secret.txt");
        std::fs::write(&secret, "not fortran").unwrap();
        let err = jobs_from_path(&secret).unwrap_err();
        assert!(err.contains("not a Fortran source"), "{err}");
        // Directory walks only ever picked up Fortran extensions.
        let jobs = jobs_from_path(&dir).unwrap();
        assert_eq!(jobs.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn symlink_cycles_and_duplicates_are_skipped() {
        let dir = tmpdir("symlink");
        let sub = dir.join("sub");
        std::fs::create_dir_all(&sub).unwrap();
        std::fs::write(sub.join("a.f"), "      END\n").unwrap();
        // A cycle back to the root and a duplicate link to the file:
        // both must be ignored by the walk.
        std::os::unix::fs::symlink(&dir, sub.join("loop")).unwrap();
        std::os::unix::fs::symlink(sub.join("a.f"), sub.join("dup.f")).unwrap();
        let jobs = jobs_from_path(&dir).unwrap();
        assert_eq!(jobs.len(), 1, "cycle skipped, duplicate not re-analyzed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_share_one_cache_safely() {
        // Two batches over the same corpus racing into one cache dir:
        // atomic rename means readers never see torn entries, and the
        // final state serves byte-identical warm runs.
        let dir = tmpdir("race");
        let jobs = corpus(4);
        let oracle = run_batch(&jobs, &BatchOptions::default());
        std::thread::scope(|s| {
            for _ in 0..2 {
                let dir = dir.clone();
                let jobs = &jobs;
                s.spawn(move || {
                    run_batch(
                        jobs,
                        &BatchOptions {
                            threads: 2,
                            cache: Some(DiskCache::open(&dir).unwrap()),
                            ..BatchOptions::default()
                        },
                    )
                });
            }
        });
        let warm = run_batch(
            &jobs,
            &BatchOptions {
                cache: Some(DiskCache::open(&dir).unwrap()),
                ..BatchOptions::default()
            },
        );
        assert_eq!(warm.stats.cache_hits, jobs.len());
        assert_eq!(oracle.render(), warm.render());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
