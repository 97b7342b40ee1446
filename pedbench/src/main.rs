//! `pedbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run -q --release --offline --manifest-path pedbench/Cargo.toml -- \
//!     --workload corpus-cold|corpus-warm|session-edit \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The command measures one workload in a child process that runs only
//! that workload (so its peak RSS is the workload's), checks every output
//! in this process after the child has exited, and with `--trace 1` runs
//! the separate traced run for the per-layer figures. For `session-edit`
//! it also times further set-ups, each in a fresh child process, so that
//! every set-up starts with the VM's process-wide compile cache empty.
//! It prints a table and, as its last line, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! See `pedbench/README.md`.

mod corpus;
mod host;
mod kv;
mod session;
mod stats;
mod trace;

use kv::Kv;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const ALL: &[&str] = &["corpus-cold", "corpus-warm", "session-edit"];

/// End-to-end metrics: name and unit. Every workload reports all of
/// them, each in the workload's own terms (see `pedbench/README.md`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The session's per-class client latencies. They are reported with the
/// per-layer metrics of a traced run, since the corpus workloads make no
/// requests.
const SESSION_LATENCIES: &[&str] = &[
    "server.edit_ms_p50",
    "server.read_ms_p50",
    "server.lint_ms_p50",
    "server.par_ms_p50",
    "server.par_ms_p90",
    "server.hit_ms_p50",
];

/// Per-layer metrics, named after the crate (or host facility) they
/// measure. Every traced run prints all of them; a layer a workload
/// does not touch reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("fortran.fingerprint_ms", "ms"),
    ("fortran.parse_ms", "ms"),
    ("interproc.modref_ms", "ms"),
    ("interproc.global_facts_ms", "ms"),
    ("analysis.unit_facts_ms", "ms"),
    ("dependence.graph_ms", "ms"),
    ("dependence.edges", "count"),
    ("lint.program_ms", "ms"),
    ("lint.findings", "count"),
    ("par.classify_plan_ms", "ms"),
    ("par.emit_ms", "ms"),
    ("par.nests", "count"),
    ("par.directives", "count"),
    ("batch.encode_ms", "ms"),
    ("core.persist_store_ms", "ms"),
    ("core.cache_bytes", "bytes"),
    ("core.persist_load_ms", "ms"),
    ("batch.decode_ms", "ms"),
    ("batch.render_ms", "ms"),
    ("core.disk_hit_ratio", "ratio"),
    ("batch.driver_overhead_ms", "ms"),
    ("batch.steals", "count"),
    ("core.reanalyze_ms", "ms"),
    ("core.pair_hit_ratio", "ratio"),
    ("core.scalar_hit_ratio", "ratio"),
    ("core.select_ms", "ms"),
    ("core.read_ms", "ms"),
    ("core.lint_ms", "ms"),
    ("core.lint_hit_ratio", "ratio"),
    ("core.par_hit_ms", "ms"),
    ("par.static_ms", "ms"),
    ("par.verify_ms", "ms"),
    ("par.demotions", "count"),
    ("vm.compile_ms", "ms"),
    ("vm.exec_ms", "ms"),
    ("runtime.fallbacks", "count"),
    ("runtime.tree_ms", "ms"),
    ("server.dispatch_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("server.response_bytes", "bytes"),
    ("server.edit_ms_p50", "ms"),
    ("server.read_ms_p50", "ms"),
    ("server.lint_ms_p50", "ms"),
    ("server.par_ms_p50", "ms"),
    ("server.par_ms_p90", "ms"),
    ("server.hit_ms_p50", "ms"),
    ("host.steal_s", "s"),
    ("host.cpu_s", "s"),
    ("host.nproc", "count"),
    ("trace.layer_sum_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.layer_sum_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// FNV-1a 64 of a rendered report.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The committed digest of the corpus report for the pinned seed.
pub fn pinned_digest(seed: u64) -> Option<u64> {
    const PINNED_SEED: u64 = 42;
    const PINNED: &str = include_str!("../expected/corpus-seed42.digest");
    (seed == PINNED_SEED)
        .then(|| u64::from_str_radix(PINNED.trim(), 16).expect("pinned digest is hex"))
}

#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<String>,
    work: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        child: None,
        work: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--child" => args.child = Some(value()?),
            "--work" => args.work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !ALL.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", ALL.join(", ")));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pedbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.child.clone() {
        Some(role) => run_child(&role, &args),
        None => run_parent(&args),
    };
    if let Err(e) = result {
        eprintln!("pedbench: {e}");
        std::process::exit(1);
    }
}

/// Work directory inside the checkout for cache directories and the
/// files the processes exchange.
fn work_dir(args: &Args) -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    Ok(cwd
        .join(".pedbench-work")
        .join(format!("{}-{}", args.workload, std::process::id())))
}

fn run_child(role: &str, args: &Args) -> Result<(), String> {
    let work = args.work.as_deref().ok_or("--child needs --work")?;
    let mut out = Kv::default();
    let file = match role {
        "measure" => {
            match args.workload.as_str() {
                "corpus-cold" => corpus::measure(false, args.seed, args.seconds, work, &mut out),
                "corpus-warm" => corpus::measure(true, args.seed, args.seconds, work, &mut out),
                _ => session::measure(args.seed, args.seconds, work, &mut out)?,
            }
            "measure.kv"
        }
        "setup" => {
            session::setup_once(&mut out)?;
            "setup.kv"
        }
        other => return Err(format!("unknown child role '{other}'")),
    };
    out.write(&work.join(file)).map_err(|e| e.to_string())
}

/// Run this executable as a child with `role`, wait for it, and read
/// the measurements it wrote.
fn spawn_child(role: &str, args: &Args, work: &Path, output: &str) -> Result<Kv, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--child", role, "--workload", &args.workload])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .arg("--work")
        .arg(work)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("start {role} child: {e}"))?;
    if !status.success() {
        return Err(format!("{role} child failed ({status})"));
    }
    Kv::read(&work.join(output))
}

fn run_parent(args: &Args) -> Result<(), String> {
    let work = work_dir(args)?;
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure_and_check(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let (correct, attempted, failed, metrics) = result?;
    print_result(args, correct, attempted, failed, &metrics);
    Ok(())
}

/// How far the traced layers may sum from the untraced figure.
const LAYER_SUM_TOLERANCE: f64 = 0.10;

type Outcome = (bool, u64, u64, Vec<(&'static str, f64, &'static str)>);

fn measure_and_check(args: &Args, work: &Path) -> Result<Outcome, String> {
    let session = args.workload == "session-edit";
    // The session's extra set-ups are spread over the run, half before the
    // measured child and half after the checks, so that one burst of host
    // contention does not slow most of them.
    let mut setups = Vec::new();
    let extra_setups = |n: usize, setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..n {
            setups.push(spawn_child("setup", args, work, "setup.kv")?.get("setup_s"));
        }
        Ok(())
    };
    if session {
        extra_setups((session::SETUPS - 1) / 2, &mut setups)?;
    }
    let mut child = spawn_child("measure", args, work, "measure.kv")?;
    let layers = match (args.trace, session) {
        (false, _) => None,
        (true, true) => Some(session::trace(work, &child)?),
        (true, false) => Some(corpus::trace(
            args.workload == "corpus-warm",
            args.seed,
            work,
            &child,
        )?),
    };
    let (mut attempted, mut failed) = if session {
        session::check(work, &child)?
    } else {
        corpus::check(args.workload == "corpus-warm", args.seed, work, &child)?
    };
    if session {
        setups.push(child.get("setup_s"));
        extra_setups(session::SETUPS - setups.len(), &mut setups)?;
        child.set("setup_s", stats::median(&setups));
    }
    let metrics = match layers {
        None => END_TO_END
            .iter()
            .map(|&(name, unit)| (name, child.get(name), unit))
            .collect(),
        Some(mut layers) => {
            if session {
                for name in SESSION_LATENCIES {
                    layers.set(name, child.get(name));
                }
            }
            layers.set("host.steal_s", child.get("steal_s"));
            layers.set("host.cpu_s", child.get("cpu_s"));
            layers.set("host.nproc", corpus::workers() as f64);
            // The layer split is checked like any output: layers that
            // sum to more than 10 % off the untraced figure mean one is
            // missing or counted twice.
            let ratio = layers.get("trace.layer_sum_ratio");
            attempted += 1;
            if (ratio - 1.0).abs() > LAYER_SUM_TOLERANCE {
                failed += 1;
                eprintln!("pedbench: layers sum to {ratio:.3} of the untraced figure");
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, layers.0.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        }
    };
    Ok((failed == 0, attempted, failed, metrics))
}

fn print_result(
    args: &Args,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) {
    println!(
        "pedbench {} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        corpus::workers()
    );
    for (name, value, unit) in metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    println!("  correct={correct} attempted={attempted} failed={failed}");
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_server::json::{parse, Value};

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).unwrap();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, ALL);
    }

    #[test]
    fn digest_is_fnv1a_64() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert!(pinned_digest(42).is_some());
        assert!(pinned_digest(7).is_none());
    }
}
