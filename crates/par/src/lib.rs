//! `ped-par` — whole-program static auto-parallelization with
//! differentially verified DOALL decisions.
//!
//! The interactive editor (PED) leaves the parallelize/serialize call to
//! the user; this crate closes the loop the paper's conclusion asks for:
//! a *batch* pass that walks every loop nest of every unit, re-derives
//! the loop-carried dependences surviving privatization, reduction
//! recognition and interprocedural MOD/REF summaries, and classifies
//! each nest as
//!
//! * **parallel** — no surviving inhibitors; a DOALL candidate as-is;
//! * **parallel-after-transform** — a dependence-breaking transformation
//!   from `ped_transform` (distribution, interchange, reversal,
//!   induction-variable elimination) provably exposes a new DOALL;
//! * **serial** — with a machine-readable *explanation record* naming
//!   the blocking dependence edges and the rule that rejected each
//!   candidate transformation.
//!
//! Profitable DOALLs are ranked with `ped_estimate` and emitted as
//! `CDOALL` directives into a rewritten program, and every emitted
//! directive is verified the Hood–Jost way: differential execution at
//! 1 worker vs N workers must produce byte-identical output lines and a
//! race-free shadow tracker, or the offending directive is demoted back
//! to sequential (and the demotion reported).
//!
//! The whole report is deterministic: per-unit analysis may fan out over
//! threads, but results merge in unit order and nothing in the report
//! depends on timing, so the rendered bytes are invariant under thread
//! count and run order.

mod classify;
mod plan;
mod report;
mod serial;
mod verify;

pub use classify::has_io;
pub use report::{render_report, render_summary, summary_row};
pub use serial::{decode_report, encode_report};

use ped_fortran::ast::{LoopSched, Program, StmtId, StmtKind};
use ped_interproc::ProgramFacts;
use std::collections::{HashMap, HashSet};

/// Options for the pass.
#[derive(Clone, Debug)]
pub struct ParOptions {
    /// Worker threads for per-unit analysis. The report is byte-identical
    /// for any value (results merge in unit order).
    pub threads: usize,
    /// Attempt dependence-breaking transformations on serial nests.
    pub plan_transforms: bool,
    /// Profitability floor: a DOALL is emitted only when its estimated
    /// share of program cost (in percent) is at least this.
    pub min_percent: f64,
    /// Run the differential gate (1 worker vs `verify_workers`,
    /// byte-identical output lines, race-free shadow tracker).
    pub verify: bool,
    /// Parallel worker count of the differential gate.
    pub verify_workers: usize,
}

impl Default for ParOptions {
    fn default() -> Self {
        ParOptions {
            threads: 1,
            plan_transforms: true,
            min_percent: 0.0,
            verify: true,
            verify_workers: 8,
        }
    }
}

/// Classification of one loop nest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NestClass {
    Parallel,
    ParallelAfterTransform,
    Serial,
}

impl NestClass {
    pub fn label(self) -> &'static str {
        match self {
            NestClass::Parallel => "parallel",
            NestClass::ParallelAfterTransform => "parallel-after-transform",
            NestClass::Serial => "serial",
        }
    }
}

/// One blocking dependence edge in a serial nest's explanation record.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockingDep {
    pub var: String,
    /// Dependence kind (`true`, `anti`, `output`).
    pub kind: String,
    /// Human-readable derivation: level, direction vector, exactness.
    pub detail: String,
}

/// Why a candidate transformation was not fired on a nest: the rejecting
/// rule, machine-readable by category.
#[derive(Clone, Debug, PartialEq)]
pub struct TransformRejection {
    /// Transformation name (`distribution`, `interchange`, …).
    pub transform: String,
    /// `not-applicable` | `unsafe` | `unprofitable` | `no-effect` |
    /// `apply-failed`.
    pub category: &'static str,
    /// The rule text that rejected the candidate.
    pub rule: String,
}

/// The decision record for one loop nest.
#[derive(Clone, Debug)]
pub struct NestDecision {
    /// Unit name, uppercased.
    pub unit: String,
    pub unit_idx: usize,
    /// `DO` statement of the nest in the *original* program.
    pub stmt: StmtId,
    /// Source line of the `DO` statement.
    pub line: u32,
    /// Loop control variable.
    pub var: String,
    /// Nesting level (1 = outermost).
    pub level: u32,
    pub class: NestClass,
    /// Fired transformation for `ParallelAfterTransform`.
    pub transform: Option<String>,
    /// Blocking dependence edges (empty unless `Serial`).
    pub blocking: Vec<BlockingDep>,
    /// Candidate transformations tried and the rule that rejected each.
    pub rejections: Vec<TransformRejection>,
    /// Scalars privatization explains away.
    pub privatized: Vec<String>,
    /// Arrays array-kill privatization explains away.
    pub privatized_arrays: Vec<String>,
    /// Recognized reduction accumulators.
    pub reductions: Vec<String>,
    /// Estimated cost weight and share of program total (percent).
    pub weight: f64,
    pub percent: f64,
    /// A `CDOALL` directive for this nest survived emission (and the
    /// differential gate, when run).
    pub emitted: bool,
    /// Why a parallel-classified nest was not emitted.
    pub emit_skip: Option<String>,
}

/// One emitted `CDOALL` directive in the rewritten program.
#[derive(Clone, Debug)]
pub struct Directive {
    pub unit: String,
    pub unit_idx: usize,
    /// `DO` statement in the *rewritten* program.
    pub stmt: StmtId,
    pub line: u32,
    pub var: String,
    /// `direct` for an untransformed nest, otherwise the transformation
    /// that exposed the loop.
    pub origin: String,
    pub weight: f64,
    pub percent: f64,
}

/// Outcome of the differential verification gate.
#[derive(Clone, Debug)]
pub enum VerifyStatus {
    /// The gate ran; all surviving directives passed.
    Verified {
        /// Output lines compared (byte-identical across worker counts).
        lines: usize,
        /// Shadow-tracker races observed (always 0 for a pass).
        races: usize,
        /// Parallel loop executions observed at `workers`.
        parallel_loops: u64,
    },
    /// The gate could not run (e.g. the program needs input).
    Skipped(String),
}

/// Differential-gate summary attached to a report when `opts.verify`.
#[derive(Clone, Debug)]
pub struct VerifySummary {
    /// Parallel worker count of the gate.
    pub workers: usize,
    /// Directives that survived the gate.
    pub directives: usize,
    pub status: VerifyStatus,
    /// Directives demoted back to sequential, as `UNIT:line: reason`.
    pub demoted: Vec<String>,
}

/// The pass result: per-nest decisions (unit order, then loop order),
/// the emitted directives, and the gate summary.
#[derive(Clone, Debug)]
pub struct ParReport {
    pub decisions: Vec<NestDecision>,
    pub directives: Vec<Directive>,
    pub verify: Option<VerifySummary>,
}

/// Aggregate tallies of a report (the Table-3/4-style row).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParCounts {
    pub nests: usize,
    pub parallel: usize,
    pub after_transform: usize,
    pub serial: usize,
    pub directives: usize,
    pub demoted: usize,
}

impl ParReport {
    pub fn counts(&self) -> ParCounts {
        let mut c = ParCounts {
            nests: self.decisions.len(),
            directives: self.directives.len(),
            demoted: self.verify.as_ref().map_or(0, |v| v.demoted.len()),
            ..Default::default()
        };
        for d in &self.decisions {
            match d.class {
                NestClass::Parallel => c.parallel += 1,
                NestClass::ParallelAfterTransform => c.after_transform += 1,
                NestClass::Serial => c.serial += 1,
            }
        }
        c
    }

    /// Fired transformations by kind, name-sorted.
    pub fn transforms_fired(&self) -> Vec<(String, usize)> {
        let mut m: HashMap<&str, usize> = HashMap::new();
        for d in &self.decisions {
            if let Some(t) = &d.transform {
                *m.entry(t.as_str()).or_default() += 1;
            }
        }
        let mut v: Vec<(String, usize)> = m.into_iter().map(|(k, n)| (k.to_string(), n)).collect();
        v.sort();
        v
    }

    /// Rejection tallies by category, name-sorted.
    pub fn rejection_tally(&self) -> Vec<(&'static str, usize)> {
        let mut m: HashMap<&'static str, usize> = HashMap::new();
        for d in &self.decisions {
            for r in &d.rejections {
                *m.entry(r.category).or_default() += 1;
            }
        }
        let mut v: Vec<(&'static str, usize)> = m.into_iter().collect();
        v.sort();
        v
    }
}

/// Run the whole pipeline: classify, plan, emit, verify. Returns the
/// report and the rewritten program carrying the verified `CDOALL`
/// directives (plus any fired transformations).
pub fn parallelize_program(program: &Program, opts: &ParOptions) -> (ParReport, Program) {
    let facts = ProgramFacts::build(program);
    let mut decisions = classify::classify_program(program, &facts, opts);
    // `emit` consumes (and drops) the table set before the gate runs.
    let (mut rewritten, mut directives) = emit(program, facts, &mut decisions, opts);
    let verify = if opts.verify {
        Some(verify::differential_gate(
            program,
            &mut rewritten,
            &mut directives,
            &mut decisions,
            opts.verify_workers,
        ))
    } else {
        None
    };
    (
        ParReport {
            decisions,
            directives,
            verify,
        },
        rewritten,
    )
}

/// Static analysis only: classify and plan, but do not rewrite or run.
pub fn analyze(program: &Program, opts: &ParOptions) -> ParReport {
    let decisions = classify::classify_program(program, &ProgramFacts::build(program), opts);
    ParReport {
        decisions,
        directives: Vec::new(),
        verify: None,
    }
}

/// Build the rewritten program: apply each fired transformation, then
/// mark every profitable outermost parallel nest `CDOALL`. Updates the
/// decisions' `emitted`/`emit_skip` fields. `facts` describes `program`.
fn emit(
    program: &Program,
    facts: ProgramFacts,
    decisions: &mut [NestDecision],
    opts: &ParOptions,
) -> (Program, Vec<Directive>) {
    let mut out = program.clone();
    // The running table set of `out`, and its MOD/REF and global facts
    // while no apply has touched `out` since they were computed. The
    // first apply runs on `out == program` and reuses `facts`.
    let mut tables = facts.tables.clone();
    let mut current = Some(facts);
    // 1. Apply fired transformations, in decision order. Each decision's
    // target loop is located by its original `DO` statement id, which
    // earlier transformations of *other* nests do not disturb.
    for d in decisions.iter_mut() {
        let Some(t) = d.transform.clone() else {
            continue;
        };
        let facts = current.get_or_insert_with(|| ProgramFacts::new(&out, tables.clone()));
        let applied = plan::apply_by_name(&mut out, facts, d.unit_idx, d.stmt, &t);
        // Transforms rewrite only their own unit; rebuild it after a
        // failed attempt too, which may have rewritten part of it.
        tables.rebuild(&out, d.unit_idx);
        current = None;
        if let Err(e) = applied {
            d.class = NestClass::Serial;
            d.transform = None;
            d.rejections.push(TransformRejection {
                transform: t,
                category: "apply-failed",
                rule: e,
            });
        }
    }
    // 2. Mark profitable outermost parallel nests in the rewritten
    // program and record the directives. Marking sets only `LoopSched`,
    // which neither MOD/REF nor the global facts read, so both are
    // computed once for all units.
    let facts = current.unwrap_or_else(|| ProgramFacts::new(&out, tables));
    let ranks = rank_map(&out);
    let mut directives = Vec::new();
    for unit_idx in 0..out.units.len() {
        let ua = classify::unit_analysis(&out, unit_idx, &facts);
        let unit = &out.units[unit_idx];
        let uname = unit.name.to_ascii_uppercase();
        // Dependence-parallel loops of the rewritten unit.
        let eligible: HashSet<ped_analysis::loops::LoopId> = ua
            .nest
            .loops
            .iter()
            .filter(|info| ped_transform::analyze_parallelization(unit, &ua, info.id).is_parallel())
            .map(|info| info.id)
            .collect();
        let mut skip: HashMap<StmtId, String> = HashMap::new();
        let mut marks: Vec<(StmtId, u32, String, f64, f64)> = Vec::new();
        for info in &ua.nest.loops {
            if !eligible.contains(&info.id) {
                continue;
            }
            if ua
                .nest
                .enclosing_chain(info.id)
                .iter()
                .any(|a| *a != info.id && eligible.contains(a))
            {
                skip.insert(info.stmt, "inner loop of an emitted DOALL".into());
                continue;
            }
            if classify::has_io(unit, info) {
                skip.insert(
                    info.stmt,
                    "contains I/O; parallel execution would reorder output".into(),
                );
                continue;
            }
            let (weight, percent) = ranks
                .get(&(uname.clone(), info.stmt))
                .copied()
                .unwrap_or((0.0, 0.0));
            if percent < opts.min_percent {
                skip.insert(
                    info.stmt,
                    format!(
                        "below profitability floor ({percent:.1}% < {:.1}%)",
                        opts.min_percent
                    ),
                );
                continue;
            }
            marks.push((
                info.stmt,
                classify::line_of(unit, info.stmt),
                info.var.clone(),
                weight,
                percent,
            ));
        }
        // Decision origin per original `DO` statement of this unit. A
        // statement id not in this map was created by a restructuring
        // transformation; attribute it to the unit's fired transform
        // when that is unambiguous.
        let origin_of: HashMap<StmtId, String> = decisions
            .iter()
            .filter(|d| d.unit_idx == unit_idx)
            .map(|d| {
                let o = match d.class {
                    NestClass::ParallelAfterTransform => {
                        d.transform.clone().unwrap_or_else(|| "transformed".into())
                    }
                    _ => "direct".into(),
                };
                (d.stmt, o)
            })
            .collect();
        let mut fired: Vec<&str> = decisions
            .iter()
            .filter(|d| d.unit_idx == unit_idx)
            .filter_map(|d| d.transform.as_deref())
            .collect();
        fired.sort();
        fired.dedup();
        let new_stmt_origin: String = match fired.as_slice() {
            [one] => (*one).to_string(),
            _ => "transformed".into(),
        };
        for (stmt, line, var, weight, percent) in marks {
            ped_transform::util::with_do_mut(&mut out.units[unit_idx].body, stmt, |s| {
                if let StmtKind::Do { sched, .. } = &mut s.kind {
                    *sched = LoopSched::Parallel;
                }
            });
            directives.push(Directive {
                unit: uname.clone(),
                unit_idx,
                stmt,
                line,
                var,
                origin: origin_of
                    .get(&stmt)
                    .cloned()
                    .unwrap_or_else(|| new_stmt_origin.clone()),
                weight,
                percent,
            });
        }
        // Reflect the outcome in the unit's decisions.
        for d in decisions.iter_mut().filter(|d| d.unit_idx == unit_idx) {
            if directives
                .iter()
                .any(|dir| dir.unit_idx == unit_idx && dir.stmt == d.stmt)
            {
                d.emitted = true;
            } else if let Some(why) = skip.get(&d.stmt) {
                d.emit_skip = Some(why.clone());
            } else if d.class == NestClass::ParallelAfterTransform {
                // The transform replaced this loop with new nests; their
                // directives are attributed to the transformation.
                d.emit_skip = Some("restructured by the fired transformation".into());
            }
        }
    }
    (out, directives)
}

/// `(unit, DO stmt) → (weight, percent)` from the static cost estimate.
fn rank_map(program: &Program) -> HashMap<(String, StmtId), (f64, f64)> {
    ped_estimate::rank_loops(program, &ped_estimate::CostModel::default(), None)
        .into_iter()
        .map(|r| ((r.unit.to_ascii_uppercase(), r.stmt), (r.weight, r.percent)))
        .collect()
}

/// Fingerprint of a whole program (every unit's content, in order) —
/// the memo key for `PedSession::parallelize()`.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = ped_fortran::fingerprint::Fnv::new().u64(program.units.len() as u64);
    for u in &program.units {
        h = h.u64(ped_fortran::fingerprint::unit_fingerprint(u));
    }
    h.done()
}
