//! The differential verification gate (the Hood–Jost protocol from
//! "Support for Debugging Automatically Parallelized Programs"): the
//! rewritten program must produce byte-identical output lines at 1
//! worker and at N workers, and the deterministic shadow tracker must
//! log zero races. A directive that fails the gate is demoted back to
//! sequential and the demotion is reported — the emitted set is always
//! gate-clean by construction.
//!
//! Each distinct run happens once. At one worker without validation
//! neither engine reads a loop's schedule, so a serial run's output does
//! not depend on which loops carry directives: the original program's
//! serial run is the baseline for every round, the rewritten program
//! runs serially only when `emit` attempted a transformation, and each
//! demotion round runs just the N-worker and shadow runs.

use crate::{Directive, NestClass, NestDecision, TransformRejection, VerifyStatus, VerifySummary};
use ped_fortran::ast::{LoopSched, Program, StmtKind};
use ped_runtime::RunOptions;

#[cfg(test)]
thread_local! {
    /// Engine runs the gate started on this thread.
    static RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn run(
    program: &Program,
    workers: usize,
    validate: bool,
) -> Result<ped_runtime::RunOutput, String> {
    #[cfg(test)]
    RUNS.with(|r| r.set(r.get() + 1));
    ped_runtime::run(
        program,
        RunOptions {
            workers,
            validate_parallel: validate,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())
}

/// Demote one directive: mark its loop sequential again and record why.
fn demote(
    rewritten: &mut Program,
    directives: &mut Vec<Directive>,
    decisions: &mut [NestDecision],
    idx: usize,
    reason: &str,
    demoted: &mut Vec<String>,
) {
    let dir = directives.remove(idx);
    ped_transform::util::with_do_mut(&mut rewritten.units[dir.unit_idx].body, dir.stmt, |s| {
        if let StmtKind::Do { sched, .. } = &mut s.kind {
            *sched = LoopSched::Sequential;
        }
    });
    for d in decisions
        .iter_mut()
        .filter(|d| d.unit_idx == dir.unit_idx && d.stmt == dir.stmt)
    {
        d.emitted = false;
        d.emit_skip = Some(format!("demoted by the differential gate: {reason}"));
    }
    demoted.push(format!("{}:{}: {reason}", dir.unit, dir.line));
}

/// Index of the least-profitable directive (the first demotion victim).
fn least_profitable(directives: &[Directive]) -> usize {
    let mut best = 0usize;
    for (i, d) in directives.iter().enumerate() {
        if d.weight < directives[best].weight {
            best = i;
        }
    }
    best
}

pub(crate) fn differential_gate(
    original: &Program,
    rewritten: &mut Program,
    directives: &mut Vec<Directive>,
    decisions: &mut [NestDecision],
    transformed: bool,
    workers: usize,
) -> VerifySummary {
    let mut demoted = Vec::new();
    // The gate needs the program to execute on its own (workload-style
    // fixtures embed their data). A program that cannot run is reported
    // as skipped, with the directives left in statically-decided form.
    let base = match run(original, 1, false) {
        Ok(o) => o,
        Err(e) => {
            return VerifySummary {
                workers,
                directives: directives.len(),
                status: VerifyStatus::Skipped(format!("program does not run: {e}")),
                demoted,
            }
        }
    };
    // Transformation soundness: the rewritten program must be serially
    // byte-identical to the original. If not, every fired transformation
    // is rolled back and only the untransformed directives survive.
    // Without a transformation the two differ in schedules only.
    let serial_ok = !transformed
        || match run(rewritten, 1, false) {
            Ok(o) => o.lines == base.lines,
            Err(_) => false,
        };
    if !serial_ok {
        let mut plain = original.clone();
        directives.retain(|dir| {
            if dir.origin == "direct" {
                ped_transform::util::with_do_mut(
                    &mut plain.units[dir.unit_idx].body,
                    dir.stmt,
                    |s| {
                        if let StmtKind::Do { sched, .. } = &mut s.kind {
                            *sched = LoopSched::Parallel;
                        }
                    },
                );
                true
            } else {
                demoted.push(format!(
                    "{}:{}: transformation changed serial output; rolled back",
                    dir.unit, dir.line
                ));
                false
            }
        });
        for d in decisions
            .iter_mut()
            .filter(|d| d.class == NestClass::ParallelAfterTransform)
        {
            let t = d.transform.take().unwrap_or_else(|| "transform".into());
            d.class = NestClass::Serial;
            d.emitted = false;
            d.emit_skip = None;
            d.rejections.push(TransformRejection {
                transform: t,
                category: "apply-failed",
                rule: "differential gate: transformation changed serial output".into(),
            });
        }
        *rewritten = plain;
    }
    // The gate proper: parallel and shadow-tracked runs against the
    // serial baseline, demoting the least-profitable directive until the
    // program is gate-clean. The rewritten program's serial output is
    // `base.lines` from here on: a demotion only changes a schedule.
    loop {
        let parallel = run(rewritten, workers, false);
        let shadow = run(rewritten, 1, true);
        let failure = match (&parallel, &shadow) {
            (Ok(p), Ok(v)) => {
                if base.lines != p.lines {
                    Some(format!("output diverged at {workers} workers"))
                } else if !v.races.is_empty() {
                    Some(format!("shadow tracker logged {} race(s)", v.races.len()))
                } else {
                    return VerifySummary {
                        workers,
                        directives: directives.len(),
                        status: VerifyStatus::Verified {
                            lines: base.lines.len(),
                            races: 0,
                            parallel_loops: p.stats.parallel_loops,
                        },
                        demoted,
                    };
                }
            }
            (Err(e), _) | (_, Err(e)) => Some(format!("runtime error under the gate: {e}")),
        };
        let reason = failure.unwrap();
        if directives.is_empty() {
            return VerifySummary {
                workers,
                directives: 0,
                status: VerifyStatus::Skipped(format!(
                    "gate failed with no directives left: {reason}"
                )),
                demoted,
            };
        }
        let idx = least_profitable(directives);
        demote(rewritten, directives, decisions, idx, &reason, &mut demoted);
    }
}

#[cfg(test)]
mod tests {
    use super::RUNS;
    use crate::{parallelize_program, ParOptions, VerifySummary};
    use ped_fortran::parser::parse_ok;

    /// The gate's summary and the engine runs it took.
    fn gate(src: &str) -> (VerifySummary, usize) {
        let before = RUNS.with(|r| r.get());
        let (report, _) = parallelize_program(&parse_ok(src), &ParOptions::default());
        let runs = RUNS.with(|r| r.get()) - before;
        (report.verify.expect("the gate ran"), runs)
    }

    #[test]
    fn a_clean_program_takes_base_parallel_and_shadow_runs() {
        let (v, runs) = gate(
            "      REAL A(100), B(100)\n      DO 5 I = 1, 100\n      B(I) = 1.0\n\
             \x20   5 CONTINUE\n      DO 10 I = 1, 100\n      A(I) = B(I) * 2.0\n\
             \x20  10 CONTINUE\n      WRITE (*,*) A(7)\n      END\n",
        );
        assert_eq!((v.directives, v.demoted.len()), (2, 0));
        assert_eq!(runs, 3);
    }

    #[test]
    fn an_attempted_transform_adds_one_serial_run() {
        let (v, runs) = gate(
            "      REAL A(100), B(100), C(100)\n      DO 5 K = 1, 100\n      A(K) = 1.0\n\
             \x20     C(K) = 2.0\n    5 CONTINUE\n      DO 10 I = 2, 100\n\
             \x20     A(I) = A(I-1) + 1.0\n      B(I) = C(I) * 2.0\n   10 CONTINUE\n\
             \x20     WRITE (*,*) A(50) + B(50)\n      END\n",
        );
        assert!(v.demoted.is_empty());
        assert_eq!(runs, 4);
    }

    #[test]
    fn each_demotion_round_adds_two_runs() {
        // The second loop STOPs mid-way: fine serially, an escape from
        // a parallel loop at 8 workers. The gate demotes the cheaper
        // loop first, fails again, then demotes the STOP loop.
        let (v, runs) = gate(
            "      PROGRAM P\n      REAL A(100)\n      DO 10 I = 1, 100\n\
             \x20     A(I) = I * 2.0\n   10 CONTINUE\n      DO 20 I = 1, 100\n\
             \x20     IF (A(I) .GT. 150.0) STOP\n      A(I) = A(I) + 1.0\n\
             \x20  20 CONTINUE\n      WRITE(*,*) A(5)\n      END\n",
        );
        let why = "runtime error under the gate: runtime error: \
                   control flow escapes a parallel loop";
        assert_eq!(v.demoted, [format!("P:3: {why}"), format!("P:6: {why}")]);
        assert_eq!(v.directives, 0);
        assert_eq!(runs, 3 + 2 * 2);
    }
}
