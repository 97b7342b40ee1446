//! `ped-batch` — corpus-scale batch analysis with a persistent cache.
//!
//! ```text
//! ped-batch [--json] [--threads N] [--cache-dir DIR] [--no-cache]
//!           [--verify] [--corpus N [--seed S]] [--smoke] [PATH...]
//! ```
//!
//! Runs the whole pipeline (parse → dependences → lint → parallelize)
//! over every `.f`/`.for`/`.f77` file under the given paths — or over
//! `--corpus N` deterministic synthetic programs — on a work-stealing
//! thread pool, warmed by the on-disk cache at `--cache-dir` (default
//! `.ped-cache/`; `--no-cache` disables persistence).
//!
//! The report body is byte-identical for any `--threads` value and for
//! cold vs disk-warm runs; `stderr` carries the run statistics so the
//! comparable body stays pure.
//!
//! `--smoke` is the self-checking CI gate: cold run, warm run, and a
//! warm run after deliberately corrupting cache entries must all render
//! byte-identical bodies, the warm run must be answered from disk, and
//! the corrupt entries must heal. The static report of the 125-program
//! seed-42 corpus must also hash to the digest the benchmark pins
//! (`pedbench/expected/corpus-seed42.digest`). Exit 0 only if every
//! check holds.

use ped::persist::DiskCache;
use ped_batch::{jobs_from_path, run_batch, BatchJob, BatchOptions, BatchReport};
use ped_fortran::fingerprint::Fnv;
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!(
        "usage: ped-batch [--json] [--threads N] [--cache-dir DIR] [--no-cache] \
         [--verify] [--corpus N [--seed S]] [--smoke] [PATH...]"
    );
    std::process::exit(2);
}

fn corpus_jobs(seed: u64, programs: usize) -> Vec<BatchJob> {
    ped_workloads::synth_corpus(seed, programs, &ped_workloads::CorpusParams::default())
        .into_iter()
        .map(|(name, source)| BatchJob { name, source })
        .collect()
}

fn eprint_stats(report: &BatchReport, cache: Option<&DiskCache>) {
    let st = &report.stats;
    eprintln!(
        "ped-batch: {} program(s), {} unit(s), {} finding(s), {} parallel / {} serial nest(s)",
        st.programs, st.units, st.findings, st.parallel_nests, st.serial_nests
    );
    eprintln!(
        "ped-batch: {} thread(s), {} steal(s) ({} job(s) moved), cache {} hit(s) / {} miss(es)",
        st.threads, st.steals, st.stolen_jobs, st.cache_hits, st.cache_misses
    );
    if let Some(c) = cache {
        let (bytes, files) = c.size_on_disk();
        eprintln!(
            "ped-batch: cache at {} holds {} file(s), {} byte(s)",
            c.root().display(),
            files,
            bytes
        );
    }
}

/// The `--smoke` gate. Uses a throwaway cache dir under the system temp
/// dir so repeated CI runs start cold.
fn smoke(threads: usize) -> i32 {
    let dir = std::env::temp_dir().join(format!("ped-batch-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = corpus_jobs(42, 30);
    let opts = |cache: Option<DiskCache>| BatchOptions {
        threads,
        cache,
        verify: false,
    };
    let mut failures = 0;
    let mut check = |name: &str, ok: bool| {
        println!("smoke: {name:<44} {}", if ok { "ok" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    let cold = run_batch(&jobs, &opts(Some(DiskCache::open(&dir).unwrap())));
    let cold_body = cold.render();
    check(
        "cold run computes every program",
        cold.stats.cache_misses == jobs.len(),
    );

    let warm = run_batch(&jobs, &opts(Some(DiskCache::open(&dir).unwrap())));
    check(
        "warm run answers from disk",
        warm.stats.cache_hits == jobs.len(),
    );
    check("warm bytes == cold bytes", warm.render() == cold_body);

    // Vandalize every third cache entry; the driver must fall back to
    // recompute (same bytes) and heal the store.
    let mut files: Vec<PathBuf> = Vec::new();
    fn walk(d: &Path, out: &mut Vec<PathBuf>) {
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
    files.sort();
    let mut clobbered = 0;
    for f in files.iter().step_by(3) {
        let bytes = std::fs::read(f).unwrap_or_default();
        let _ = std::fs::write(f, &bytes[..bytes.len() / 2]);
        clobbered += 1;
    }
    check("smoke corpus produced cache files", !files.is_empty());
    let healed = run_batch(&jobs, &opts(Some(DiskCache::open(&dir).unwrap())));
    check(
        "corrupt entries recompute, rest still hit",
        healed.stats.cache_misses == clobbered && healed.stats.cache_hits == jobs.len() - clobbered,
    );
    check(
        "post-corruption bytes == cold bytes",
        healed.render() == cold_body,
    );

    let rewarm = run_batch(&jobs, &opts(Some(DiskCache::open(&dir).unwrap())));
    check(
        "cache self-heals to all hits",
        rewarm.stats.cache_hits == jobs.len(),
    );

    let nocache = run_batch(&jobs, &opts(None));
    check(
        "uncached bytes == cold bytes",
        nocache.render() == cold_body,
    );

    // The static report of the benchmark's pinned corpus keeps its
    // committed digest, so an exactness break in the pipeline fails here.
    let pinned = include_str!("../../../../pedbench/expected/corpus-seed42.digest");
    let body = run_batch(&corpus_jobs(42, 125), &opts(None)).render();
    check(
        "seed-42 corpus report == pinned digest",
        format!("{:016x}", Fnv::new().bytes(body.as_bytes()).done()) == pinned.trim(),
    );

    let _ = std::fs::remove_dir_all(&dir);
    if failures == 0 {
        println!("smoke: all checks passed ({} programs)", jobs.len());
        0
    } else {
        println!("smoke: {failures} check(s) FAILED");
        1
    }
}

fn main() {
    let mut json = false;
    let mut threads = 0usize;
    let mut cache_dir: PathBuf = PathBuf::from(".ped-cache");
    let mut no_cache = false;
    let mut verify = false;
    let mut corpus: Option<usize> = None;
    let mut seed = 42u64;
    let mut run_smoke = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--json" => json = true,
            "--threads" => threads = val().parse().unwrap_or_else(|_| usage()),
            "--cache-dir" => cache_dir = val().into(),
            "--no-cache" => no_cache = true,
            "--verify" => verify = true,
            "--corpus" => corpus = Some(val().parse().unwrap_or_else(|_| usage())),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--smoke" => run_smoke = true,
            "--help" | "-h" => usage(),
            f if f.starts_with("--") => usage(),
            f => paths.push(PathBuf::from(f)),
        }
    }

    if run_smoke {
        std::process::exit(smoke(threads));
    }

    let mut jobs: Vec<BatchJob> = Vec::new();
    if let Some(n) = corpus {
        jobs.extend(corpus_jobs(seed, n));
    }
    for p in &paths {
        match jobs_from_path(p) {
            Ok(j) => jobs.extend(j),
            Err(e) => {
                eprintln!("ped-batch: {e}");
                std::process::exit(2);
            }
        }
    }
    if jobs.is_empty() {
        usage();
    }

    let cache = if no_cache {
        None
    } else {
        match DiskCache::open(&cache_dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!(
                    "ped-batch: cannot open cache at {}: {e} (running uncached)",
                    cache_dir.display()
                );
                None
            }
        }
    };
    let report = run_batch(
        &jobs,
        &BatchOptions {
            threads,
            cache: cache.clone(),
            verify,
        },
    );
    if json {
        println!("{}", ped_server::batchio::batch_value(&report).encode());
    } else {
        print!("{}", report.render());
    }
    eprint_stats(&report, cache.as_ref());
    if report.stats.parse_failures > 0 {
        std::process::exit(1);
    }
}
