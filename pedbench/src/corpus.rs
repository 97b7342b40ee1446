//! The `corpus-cold` and `corpus-warm` workloads: `ped_batch::run_batch`
//! over a seeded synthetic corpus, with a write-through `ped::DiskCache`.
//!
//! * `corpus-cold` — every timed pass analyzes all 500 units from
//!   scratch into a fresh, empty cache directory (static pipeline plus
//!   encode and write-through). No cache reads, no VM, no server.
//! * `corpus-warm` — set-up fills the cache once; every timed pass opens
//!   a fresh cache handle, answers every program from disk and renders
//!   the report. No analysis at all.
//!
//! The traced run re-runs the same path one program at a time by calling
//! the functions `ped_batch::analyze_source` calls (cold) or the cache
//! load and codec (warm), in the same order, and checks that the renders
//! come out byte-identical to the untraced path's.

use crate::kv::Kv;
use crate::stats::median;
use crate::trace::Layers;
use ped::DiskCache;
use ped_batch::{BatchJob, BatchOptions, BatchReport};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Programs per corpus; `CorpusParams::default()` gives 4 units each.
pub const PROGRAMS: usize = 125;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes a run times at least, however short `--seconds` is.
const MIN_PASSES: usize = 5;

/// The `k`-th seeded input corpus of a run; `corpus(seed, 0)` is
/// `synth_corpus(seed, …)` itself. The cost per unit of one 125-program
/// corpus varies by about ±12 % from seed to seed, so a run spreads its
/// passes over several corpora instead of timing one corpus many times.
pub fn corpus(seed: u64, k: u64) -> Vec<BatchJob> {
    ped_workloads::synth_corpus(
        seed ^ (k << 32),
        PROGRAMS,
        &ped_workloads::CorpusParams::default(),
    )
    .into_iter()
    .map(|(name, source)| BatchJob { name, source })
    .collect()
}

/// Worker threads for the timed passes: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fresh, empty cache directory under `work`.
fn fresh_cache(work: &Path, tag: &str) -> (PathBuf, DiskCache) {
    let dir = work.join(format!("cache-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::open(&dir).expect("create cache directory");
    (dir, cache)
}

/// One static batch pass through the public entry point.
fn batch(jobs: &[BatchJob], threads: usize, cache: Option<DiskCache>) -> BatchReport {
    ped_batch::run_batch(
        jobs,
        &BatchOptions {
            threads,
            cache,
            verify: false,
        },
    )
}

/// Per-program renders of a report, in input order. Their concatenation
/// is `BatchReport::render`.
fn program_renders(report: &BatchReport) -> Vec<String> {
    report
        .results
        .iter()
        .map(|r| ped_batch::render_program(&r.summary))
        .collect()
}

fn write_renders(path: &Path, renders: &[String]) {
    std::fs::write(path, renders.join("\0")).expect("write renders");
}

fn read_renders(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("read renders");
    text.split('\0').map(str::to_string).collect()
}

/// Set-up: generation of corpus `i` plus one full cold pass into a fresh
/// cache, for `i` in `0..SETUPS`. Records `setup_s` (the median) and
/// leaves every filled cache directory, with its renders, in `work`.
pub fn fill(seed: u64, work: &Path, out: &mut Kv) {
    let mut setups = Vec::new();
    for i in 0..SETUPS as u64 {
        let t = Instant::now();
        let jobs = corpus(seed, i);
        let (dir, cache) = fresh_cache(work, &format!("fill{i}"));
        let report = batch(&jobs, workers(), Some(cache));
        setups.push(t.elapsed().as_secs_f64());
        write_renders(&dir.with_extension("renders"), &program_renders(&report));
    }
    out.set("setup_s", median(&setups));
}

/// The measured child: set-up, then timed passes until `seconds` have
/// elapsed.
///
/// * `corpus-cold`: set-up is the untimed warm-up passes; timed pass `j`
///   then analyzes the never-seen corpus `3 + j` into a fresh, empty
///   cache.
/// * `corpus-warm`: set-up fills three caches; timed pass `j` reads
///   corpus `j % 3` back from disk.
///
/// Writes the last pass's renders and corpus index for the checks.
pub fn measure(warm: bool, seed: u64, seconds: f64, work: &Path, out: &mut Kv) {
    let workers = workers();
    fill(seed, work, out);
    crate::host::check_peak_reader(out);

    let mut rates = Vec::new();
    let mut pass_rss = Vec::new();
    let mut steals = Vec::new();
    let mut bad_passes = 0usize;
    let mut last = None;
    let meter = crate::host::Meter::start();
    let t_run = Instant::now();
    while t_run.elapsed().as_secs_f64() < seconds || rates.len() < MIN_PASSES {
        let j = rates.len() as u64;
        // Only one pass's results are alive at a time, and every pass
        // starts from a trimmed heap (see README: Noise handling).
        drop(last.take());
        let (k, cache) = if warm {
            let k = j % SETUPS as u64;
            (
                k,
                DiskCache::open(&work.join(format!("cache-fill{k}"))).expect("open cache"),
            )
        } else {
            // Cold passes alternate between two directories, emptied
            // before the clock starts.
            (
                SETUPS as u64 + j,
                fresh_cache(work, &format!("pass{}", j % 2)).1,
            )
        };
        let jobs = corpus(seed, k);
        crate::host::trim_heap();
        crate::host::reset_peak_rss();
        let t = Instant::now();
        let report = batch(&jobs, workers, Some(cache));
        std::hint::black_box(report.render());
        let dt = t.elapsed().as_secs_f64();
        pass_rss.push(crate::host::peak_rss_mb().unwrap_or(0.0));
        rates.push(report.stats.units as f64 / dt);
        steals.push(report.stats.steals as f64);
        let expect_hits = if warm { jobs.len() } else { 0 };
        if report.stats.cache_hits != expect_hits || report.stats.parse_failures > 0 {
            bad_passes += 1;
        }
        last = Some((k, report));
    }
    meter.finish(out);
    let (k, last_report) = last.expect("the loop runs at least MIN_PASSES passes");
    let dir = if warm {
        format!("cache-fill{k}")
    } else {
        format!("cache-pass{}", (rates.len() - 1) % 2)
    };

    let rate = median(&rates);
    out.set("units_per_s", rate);
    out.set("pass_ms", 1e3 * last_report.stats.units as f64 / rate);
    out.set("passes", rates.len() as f64);
    out.set("programs", last_report.results.len() as f64);
    out.set("steals", median(&steals));
    out.set("bad_passes", bad_passes as f64);
    out.set("peak_rss_mb", median(&pass_rss));
    out.set("last_corpus", k as f64);
    write_renders(&work.join("last.renders"), &program_renders(&last_report));
    std::fs::write(work.join("last.dir"), dir).expect("write cache path");
}

/// Output checks, in the parent after the measured child has exited.
/// On the last pass's corpus, the cold render (the timed pass, or for
/// `corpus-warm` the fill), the warm render (the timed pass, or for
/// `corpus-cold` a read-back of the pass's cache) and an uncached
/// one-worker render must be byte-identical program by program, and the
/// read-back must find every program on disk. Every timed pass must parse
/// every program and be answered all cold or all from disk. For the
/// pinned seed the fill of corpus 0 must match the committed digest.
/// Returns (attempted, failed), counting each of these checks once.
pub fn check(warm: bool, seed: u64, work: &Path, child: &Kv) -> Result<(u64, u64), String> {
    let k = child.get("last_corpus") as u64;
    let jobs = corpus(seed, k);
    let last = read_renders(&work.join("last.renders"));
    let dir = work.join(std::fs::read_to_string(work.join("last.dir")).map_err(|e| e.to_string())?);
    let read_back = batch(
        &jobs,
        1,
        Some(DiskCache::open(&dir).map_err(|e| e.to_string())?),
    );
    let mut attempted = jobs.len() as u64;
    let mut failed = (jobs.len() - read_back.stats.cache_hits) as u64;
    if failed > 0 {
        eprintln!("pedbench: read-back missed {failed} programs on disk");
    }
    let read_back = program_renders(&read_back);
    let uncached = program_renders(&batch(&jobs, 1, None));
    let fill = if warm {
        read_renders(&work.join(format!("cache-fill{k}.renders")))
    } else {
        last.clone()
    };
    // Each of the cold, warm and read-back renders against the uncached
    // one; for `corpus-cold` the cold and warm render are the same pass.
    let renders: &[&[String]] = if warm {
        &[&fill, &last, &read_back]
    } else {
        &[&last, &read_back]
    };
    for i in 0..jobs.len() {
        for r in renders {
            attempted += 1;
            if r.get(i) != Some(&uncached[i]) {
                failed += 1;
                eprintln!("pedbench: render mismatch for {}", jobs[i].name);
            }
        }
    }
    attempted += child.get("passes") as u64;
    let bad_passes = child.get("bad_passes") as u64;
    if bad_passes > 0 {
        failed += bad_passes;
        eprintln!(
            "pedbench: {bad_passes} timed passes failed to parse a program or were not \
             answered all from disk (warm) or all cold"
        );
    }
    if let Some(pinned) = crate::pinned_digest(seed) {
        attempted += 1;
        let fill0 = read_renders(&work.join("cache-fill0.renders"));
        let got = crate::digest(fill0.concat().as_bytes());
        if got != pinned {
            failed += 1;
            eprintln!(
                "pedbench: seed {seed} report digest {got:016x} is not the pinned {pinned:016x}"
            );
        }
    }
    Ok((attempted, failed))
}

/// Layer times of one program's traced cold analysis; returns its render.
fn traced_cold_program(job: &BatchJob, cache: &DiskCache, layers: &mut Layers) -> String {
    let opts = ped_par::ParOptions {
        threads: 1,
        verify: false,
        verify_workers: 2,
        ..ped_par::ParOptions::default()
    };
    let key = layers.time("fortran.fingerprint_ms", || {
        ped_fortran::fingerprint::source_fingerprint(&job.source)
    });
    let (program, diags) = layers.time("fortran.parse_ms", || {
        ped_fortran::parser::parse(&job.source)
    });
    assert!(!diags.has_errors(), "{} does not parse", job.name);
    let effects = layers.time("interproc.modref_ms", || {
        ped_interproc::modref_analyze(&program)
    });
    let mut units = Vec::with_capacity(program.units.len());
    for unit in &program.units {
        let mut env = layers.time("interproc.global_facts_ms", || {
            ped_interproc::global_symbolic_facts(&program)
        });
        layers.time("analysis.unit_facts_ms", || {
            let symbols = ped_fortran::symbols::SymbolTable::build(unit);
            let refs = ped_analysis::refs::RefTable::build(unit, &symbols);
            let cfg = ped_analysis::Cfg::build(unit);
            let local =
                ped_analysis::symbolic::detect_invariant_relations(unit, &symbols, &refs, &cfg);
            for (nm, l) in local.subst {
                env.add_subst(nm, l);
            }
            for (nm, r) in local.ranges {
                env.add_range(nm, r);
            }
        });
        let summary = layers.time("dependence.graph_ms", || {
            let ua = ped_transform::ctx::UnitAnalysis::build(unit, env, Some(&effects));
            ped_dependence::DepSummary::of(&unit.name.to_ascii_uppercase(), &ua.graph)
        });
        layers.add("dependence.edges", summary.deps as f64);
        units.push(summary);
    }
    let findings = layers.time("lint.program_ms", || {
        let mut f = ped_lint::lint_program(&program, &ped_lint::LintOptions { threads: 1 });
        ped_lint::sort_findings(&mut f);
        f
    });
    layers.add("lint.findings", findings.len() as f64);
    // Classify and plan alone, then the whole static pass; emit is
    // the difference. The extra `analyze` call is tracing overhead.
    let (plan_ms, _) = layers.measure(|| ped_par::analyze(&program, &opts));
    let (static_ms, (par, _)) = layers.measure(|| ped_par::parallelize_program(&program, &opts));
    layers.add("par.classify_plan_ms", plan_ms);
    layers.add("par.emit_ms", static_ms - plan_ms);
    layers.add("par.nests", par.decisions.len() as f64);
    layers.add("par.directives", par.directives.len() as f64);
    let summary = ped_batch::ProgramSummary {
        name: job.name.clone(),
        parse_errors: Vec::new(),
        units,
        findings,
        par: Some(par),
    };
    let bytes = layers.time("batch.encode_ms", || ped_batch::encode_summary(&summary));
    layers.add("core.cache_bytes", bytes.len() as f64);
    layers.time("core.persist_store_ms", || {
        cache.store(ped_batch::KIND_BATCH, key, &bytes)
    });
    layers.time("batch.render_ms", || ped_batch::render_program(&summary))
}

/// Layer times of one program's traced warm read; returns its render.
fn traced_warm_program(job: &BatchJob, cache: &DiskCache, layers: &mut Layers) -> String {
    let key = layers.time("fortran.fingerprint_ms", || {
        ped_fortran::fingerprint::source_fingerprint(&job.source)
    });
    let bytes = layers
        .time("core.persist_load_ms", || {
            cache.load(ped_batch::KIND_BATCH, key)
        })
        .expect("warm cache entry");
    let summary = layers
        .time("batch.decode_ms", || ped_batch::decode_summary(&bytes))
        .expect("decodable cache entry");
    layers.time("batch.render_ms", || ped_batch::render_program(&summary))
}

/// Traced passes of the corpus workload. Each program is also run
/// untraced, through `run_batch` with one worker, right before or after
/// its traced run (they take turns), so that a change in host speed falls
/// on both alike; the untraced pass time is the sum of these runs.
pub fn trace(warm: bool, seed: u64, work: &Path, child: &Kv) -> Result<Kv, String> {
    let jobs = corpus(seed, child.get("last_corpus") as u64);
    let expected = read_renders(&work.join("last.renders"));
    let reps = if warm { 15 } else { 2 };
    let fill_dir = work.join("cache-trace-fill");
    if warm {
        let _ = std::fs::remove_dir_all(&fill_dir);
        batch(
            &jobs,
            1,
            Some(DiskCache::open(&fill_dir).map_err(|e| e.to_string())?),
        );
    }
    let open = |tag: &str| -> Result<DiskCache, String> {
        if warm {
            DiskCache::open(&fill_dir).map_err(|e| e.to_string())
        } else {
            Ok(fresh_cache(work, tag).1)
        }
    };
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut runs = Vec::new();
    let mut hit_ratio = 0.0;
    for rep in 0..reps {
        let plain = open("trace-plain")?;
        let cache = open("trace-traced")?;
        let mut layers = Layers::default();
        let (mut untraced, mut traced) = (0.0, 0.0);
        for (i, job) in jobs.iter().enumerate() {
            for plain_turn in [i % 2 == 0, i % 2 == 1] {
                let t = Instant::now();
                let render = if plain_turn {
                    let report = batch(std::slice::from_ref(job), 1, Some(plain.clone()));
                    let render = report.render();
                    untraced += ms(t);
                    render
                } else {
                    let render = if warm {
                        traced_warm_program(job, &cache, &mut layers)
                    } else {
                        traced_cold_program(job, &cache, &mut layers)
                    };
                    traced += ms(t);
                    render
                };
                if expected.get(i) != Some(&render) {
                    return Err(format!(
                        "pass {rep}: {} render differs from the measured pass's",
                        job.name
                    ));
                }
            }
        }
        untraced_ms.push(untraced);
        traced_ms.push(traced);
        if warm {
            let st = cache.stats();
            hit_ratio = st.hits as f64 / (st.hits + st.misses + st.corrupt).max(1) as f64;
        }
        runs.push(layers);
    }
    let out = Layers::median_of(&runs);
    let untraced = median(&untraced_ms);
    let traced = median(&traced_ms);
    let sum = out.layer_sum();
    let mut kv = out.into_kv();
    kv.set("core.disk_hit_ratio", if warm { hit_ratio } else { 0.0 });
    // Wall time of the parallel pass beyond a perfect split of the
    // per-program work over the workers.
    kv.set(
        "batch.driver_overhead_ms",
        child.get("pass_ms") - sum / workers() as f64,
    );
    kv.set("batch.steals", child.get("steals"));
    kv.set("trace.layer_sum_ms", sum);
    kv.set("trace.untraced_ms", untraced);
    kv.set("trace.layer_sum_ratio", sum / untraced);
    kv.set("trace.overhead_ms", traced - untraced);
    Ok(kv)
}
