//! Wire rendering for batch results: [`ped_batch::BatchReport`] →
//! deterministic JSON, shared by the `batch` protocol method and the
//! `ped-batch` CLI's `--json` mode (one implementation, one byte
//! surface).

use crate::json::Value;
use ped_batch::BatchReport;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The whole report as one JSON document. `body_fingerprint` is the
/// FNV-1a hash of [`BatchReport::render`]'s bytes — two runs (cold vs
/// warm, 1 thread vs N) agree iff these match, which lets a client
/// check byte-identity without shipping the body.
pub fn batch_value(report: &BatchReport) -> Value {
    let body = report.render();
    let body_fp = ped_fortran::fingerprint::source_fingerprint(&body);
    let programs: Vec<Value> = report
        .results
        .iter()
        .map(|r| {
            let s = &r.summary;
            let mut fields = vec![
                ("name", Value::str(s.name.clone())),
                ("key", Value::str(format!("{:016x}", r.key))),
                ("from_cache", Value::Bool(r.from_cache)),
                ("units", Value::int(s.units.len() as i64)),
                ("findings", Value::int(s.findings.len() as i64)),
                (
                    "parse_errors",
                    Value::Arr(s.parse_errors.iter().map(Value::str).collect()),
                ),
                (
                    "deps",
                    Value::int(s.units.iter().map(|u| u.deps as i64).sum()),
                ),
                (
                    "carried",
                    Value::int(s.units.iter().map(|u| u.carried as i64).sum()),
                ),
            ];
            if let Some(p) = &s.par {
                let c = p.counts();
                fields.push(("nests", Value::int(c.nests as i64)));
                fields.push((
                    "parallel",
                    Value::int((c.parallel + c.after_transform) as i64),
                ));
                fields.push(("serial", Value::int(c.serial as i64)));
            }
            obj(fields)
        })
        .collect();
    let st = &report.stats;
    obj(vec![
        ("programs", Value::Arr(programs)),
        ("units", Value::int(st.units as i64)),
        ("findings", Value::int(st.findings as i64)),
        ("parse_failures", Value::int(st.parse_failures as i64)),
        ("parallel_nests", Value::int(st.parallel_nests as i64)),
        ("serial_nests", Value::int(st.serial_nests as i64)),
        ("cache_hits", Value::int(st.cache_hits as i64)),
        ("cache_misses", Value::int(st.cache_misses as i64)),
        ("threads", Value::int(st.threads as i64)),
        ("steals", Value::int(st.steals as i64)),
        ("body_fingerprint", Value::str(format!("{body_fp:016x}"))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_batch::{run_batch, BatchJob, BatchOptions};

    #[test]
    fn batch_value_is_deterministic_and_thread_independent() {
        let jobs: Vec<BatchJob> = ped_workloads::all_programs()
            .into_iter()
            .take(3)
            .map(|p| BatchJob {
                name: p.name.to_string(),
                source: p.source.to_string(),
            })
            .collect();
        // Same options → byte-identical JSON. One worker, so nothing can
        // be stolen: the document carries the steal count, which under
        // several workers depends on scheduling.
        let one = BatchOptions {
            threads: 1,
            ..BatchOptions::default()
        };
        let a = batch_value(&run_batch(&jobs, &one)).encode();
        let a2 = batch_value(&run_batch(&jobs, &one)).encode();
        assert_eq!(a, a2);
        // Different thread counts change run telemetry but never the
        // analyzed body: the fingerprints must agree.
        let fp = |s: &str| {
            let key = "\"body_fingerprint\":\"";
            let at = s.find(key).expect("fingerprint present") + key.len();
            s[at..at + 16].to_string()
        };
        let b = batch_value(&run_batch(
            &jobs,
            &BatchOptions {
                threads: 4,
                ..BatchOptions::default()
            },
        ))
        .encode();
        assert_eq!(fp(&a), fp(&b));
    }
}
