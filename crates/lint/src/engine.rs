//! The lint engine: runs every registered rule over one unit or a whole
//! program and returns deterministically ordered findings.
//!
//! The race core (PED001) re-derives, for each loop marked parallel, the
//! loop-carried dependences that survive privatization, array-kill
//! privatization, reduction recognition, user deletion, and user PRIVATE
//! classification — exactly the filters the parallelization transform
//! applies — and attaches a concrete iteration-pair witness to each
//! survivor. Runtime-observed races are therefore always a subset of the
//! static report (the soundness gate in `tests/lint_soundness.rs`).

use crate::rules::RuleCode;
use crate::witness::{witness_for, Witness};
use ped_analysis::constprop::Constants;
use ped_analysis::defuse::EffectsMap;
use ped_analysis::loops::LoopInfo;
use ped_analysis::privatize::{analyze_loop as priv_analyze, PrivStatus};
use ped_analysis::reductions::find_reductions;
use ped_analysis::symbolic::{LinExpr, Range, SymbolicEnv};
use ped_dependence::{DepKind, Mark};
use ped_fortran::ast::*;
use ped_fortran::diag::{Diagnostic, Severity};
use ped_fortran::span::Span;
use ped_interproc::SeedMap;
use ped_transform::ctx::UnitAnalysis;
use std::collections::HashSet;

/// One lint finding, anchored to a unit and a source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    pub rule: RuleCode,
    /// Unit name (uppercased, as in the symbol tables).
    pub unit: String,
    /// Index of the unit in the program.
    pub unit_idx: usize,
    pub span: Span,
    /// Variable the finding is about (may be empty for e.g. I/O lints).
    pub var: String,
    pub message: String,
    /// Race findings carry a replayable iteration pair.
    pub witness: Option<Witness>,
}

impl Finding {
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }

    /// Render through the front end's diagnostic type.
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic {
            severity: self.severity(),
            span: self.span,
            message: format!("[{}] {}", self.rule.code(), self.message),
        }
    }
}

/// An assertion the user made, pre-lowered to symbolic facts so the lint
/// engine can test them against what the analyses already know.
#[derive(Clone, Debug, Default)]
pub struct AssertedFact {
    /// Display form of the assertion.
    pub text: String,
    /// Facts of the form `e >= 0`.
    pub nonneg: Vec<LinExpr>,
    /// Range facts `lo <= name <= hi`.
    pub ranges: Vec<(String, Range)>,
}

/// User decisions that scope the race analysis: PRIVATE classifications
/// suppress the corresponding carried dependences (the user took
/// responsibility), and assertions are audited for contradictions.
#[derive(Clone, Debug, Default)]
pub struct UserContext {
    /// `(loop id, variable)` pairs the user classified PRIVATE.
    pub private: HashSet<(u32, String)>,
    /// `(loop id, variable)` pairs with *any* user classification.
    pub classified: HashSet<(u32, String)>,
    /// Assertions in force, lowered to symbolic facts.
    pub asserted: Vec<AssertedFact>,
}

/// Options for whole-program linting.
#[derive(Clone, Debug)]
pub struct LintOptions {
    /// Worker threads for per-unit analysis (results are merged in unit
    /// order, so the report is identical for any thread count).
    pub threads: usize,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions { threads: 1 }
    }
}

/// Deterministic report order: unit, then source position, then rule
/// code, then variable, then message.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.unit_idx, a.span.start, a.rule, &a.var, &a.message).cmp(&(
            b.unit_idx,
            b.span.start,
            b.rule,
            &b.var,
            &b.message,
        ))
    });
}

fn span_of(unit: &ProcUnit, id: StmtId) -> Span {
    find_stmt(&unit.body, id)
        .map(|s| s.span)
        .unwrap_or(unit.span)
}

/// The schedule of the loop's `DO` statement.
fn sched_of(unit: &ProcUnit, info: &LoopInfo) -> LoopSched {
    match find_stmt(&unit.body, info.stmt) {
        Some(Stmt {
            kind: StmtKind::Do { sched, .. },
            ..
        }) => *sched,
        _ => LoopSched::Sequential,
    }
}

/// Lint a single analyzed unit under the user's decisions.
pub fn lint_unit(
    program: &Program,
    unit_idx: usize,
    ua: &UnitAnalysis,
    effects: &EffectsMap,
    seeds: &SeedMap,
    user: &UserContext,
) -> Vec<Finding> {
    let unit = &program.units[unit_idx];
    let uname = unit.name.to_ascii_uppercase();
    let mut out = Vec::new();
    let push = |out: &mut Vec<Finding>,
                rule: RuleCode,
                span: Span,
                var: &str,
                message: String,
                witness: Option<Witness>| {
        out.push(Finding {
            rule,
            unit: uname.clone(),
            unit_idx,
            span,
            var: var.to_string(),
            message,
            witness,
        });
    };

    for info in &ua.nest.loops {
        let l = info.id;
        let parallel = sched_of(unit, info) == LoopSched::Parallel;
        if parallel {
            let privs = priv_analyze(&ua.symbols, &ua.cfg, &ua.refs, &ua.defuse, info);
            let akills = ped_analysis::array_kill::analyze_loop(unit, &ua.symbols, &ua.env, info);
            let reds = find_reductions(unit, &ua.symbols, &ua.refs, info);
            let red_stmts: HashSet<StmtId> = reds.iter().map(|r| r.stmt).collect();
            let red_vars: HashSet<&str> = reds.iter().map(|r| r.var.as_str()).collect();
            let scalar_private = |name: &str| {
                matches!(
                    privs.status(name),
                    Some(PrivStatus::Private) | Some(PrivStatus::PrivateNeedsLastValue)
                )
            };
            // PED001: surviving loop-carried dependences ⇒ races.
            for d in ua.active_inhibitors(l) {
                if !ua.symbols.is_array(&d.var) {
                    if scalar_private(&d.var) {
                        continue;
                    }
                } else if akills.get(&d.var)
                    == Some(&ped_analysis::array_kill::ArrayKillStatus::Private)
                {
                    continue;
                }
                if red_vars.contains(d.var.as_str())
                    && red_stmts.contains(&d.src_stmt)
                    && red_stmts.contains(&d.sink_stmt)
                {
                    continue;
                }
                if user.private.contains(&(l.0, d.var.clone())) {
                    continue;
                }
                let w = witness_for(d, &ua.nest, &ua.refs, &ua.env);
                push(
                    &mut out,
                    RuleCode::ParallelLoopRace,
                    span_of(unit, d.src_stmt),
                    &d.var,
                    format!(
                        "loop {} is marked parallel but a {} dependence on {} is \
                         carried at level {} ({} test); running it as a DOALL races — {}",
                        info.var,
                        d.kind,
                        d.var,
                        d.level.unwrap_or(0),
                        d.test,
                        w
                    ),
                    Some(w),
                );
            }
            // PED004: written scalars with no privatization/reduction
            // proof and no user classification.
            let induction: HashSet<&str> = std::iter::once(info.var.as_str())
                .chain(
                    ua.nest
                        .subtree(l)
                        .into_iter()
                        .map(|c| ua.nest.get(c).var.as_str()),
                )
                .collect();
            let mut flagged: HashSet<&str> = HashSet::new();
            for r in &ua.refs.refs {
                if !r.is_def
                    || ua.symbols.is_array(&r.name)
                    || !info.contains(r.stmt)
                    || induction.contains(r.name.as_str())
                    || flagged.contains(r.name.as_str())
                {
                    continue;
                }
                if scalar_private(&r.name)
                    || red_vars.contains(r.name.as_str())
                    || user.classified.contains(&(l.0, r.name.clone()))
                {
                    continue;
                }
                flagged.insert(r.name.as_str());
                push(
                    &mut out,
                    RuleCode::UnclassifiedShared,
                    span_of(unit, r.stmt),
                    &r.name,
                    format!(
                        "scalar {} is written inside parallel loop {} but is neither \
                         provably private, a recognized reduction, nor classified \
                         shared/private by the user",
                        r.name, info.var
                    ),
                    None,
                );
            }
            // PED005 + PED008: statement-shape hazards in the body.
            let commons_here: HashSet<&str> = ua
                .refs
                .refs
                .iter()
                .filter(|r| info.contains(r.stmt))
                .filter(|r| {
                    ua.symbols
                        .get(&r.name)
                        .is_some_and(|s| s.common_block.is_some())
                })
                .map(|r| r.name.as_str())
                .collect();
            if let Some(Stmt {
                kind: StmtKind::Do { body, .. },
                ..
            }) = find_stmt(&unit.body, info.stmt)
            {
                walk_stmts(body, &mut |s| match &s.kind {
                    StmtKind::Call { name, .. } => {
                        let callee = name.to_ascii_uppercase();
                        match effects.get(&callee) {
                            Some(fx) => {
                                for g in &fx.mod_globals {
                                    let also_local = commons_here.contains(g.as_str());
                                    push(
                                        &mut out,
                                        RuleCode::CommonAliasing,
                                        s.span,
                                        g,
                                        format!(
                                            "CALL {} inside parallel loop {} may modify \
                                             COMMON variable {}{}; iterations race \
                                             through COMMON storage",
                                            callee,
                                            info.var,
                                            g,
                                            if also_local {
                                                " (also referenced in the loop body)"
                                            } else {
                                                ""
                                            }
                                        ),
                                        None,
                                    );
                                }
                            }
                            None => push(
                                &mut out,
                                RuleCode::CommonAliasing,
                                s.span,
                                name,
                                format!(
                                    "CALL {} inside parallel loop {} has no MOD/REF \
                                     summary (callee outside the program); COMMON \
                                     side effects are unknown",
                                    callee, info.var
                                ),
                                None,
                            ),
                        }
                    }
                    StmtKind::Read { .. } | StmtKind::Write { .. } => {
                        let what = if matches!(s.kind, StmtKind::Read { .. }) {
                            "READ"
                        } else {
                            "WRITE"
                        };
                        push(
                            &mut out,
                            RuleCode::IoInParallel,
                            s.span,
                            "",
                            format!(
                                "{} inside parallel loop {} executes in \
                                 nondeterministic iteration order",
                                what, info.var
                            ),
                            None,
                        );
                    }
                    _ => {}
                });
            }
        } else if info.parent.is_none() {
            // PED007: outermost sequential loops that are already clean.
            let report = ped_transform::parallelize::analyze_parallelization(unit, ua, l);
            if report.is_parallel() {
                push(
                    &mut out,
                    RuleCode::MissedParallelism,
                    span_of(unit, info.stmt),
                    &info.var,
                    format!(
                        "loop {} has no surviving loop-carried dependences \
                         ({} privatized, {} reductions) and could run parallel",
                        info.var,
                        report.privatized.len() + report.privatized_arrays.len(),
                        report.reductions.len()
                    ),
                    None,
                );
            }
        }
    }

    // PED009: calls whose argument lists disagree with the callee's
    // declared dummies — the interprocedural summaries composed across
    // such a call (MOD/REF, constant seeds) are unreliable.
    for issue in ped_interproc::compose_check(program) {
        match issue {
            ped_interproc::ComposeIssue::ArgCountMismatch {
                caller,
                callee,
                stmt,
                got,
                want,
            } if caller == uname => push(
                &mut out,
                RuleCode::ArgMismatch,
                span_of(unit, stmt),
                &callee,
                format!(
                    "CALL {callee} passes {got} argument(s) but the declaration \
                     has {want}; summaries composed across this call are unreliable",
                ),
                None,
            ),
            ped_interproc::ComposeIssue::ArgTypeMismatch {
                caller,
                callee,
                stmt,
                pos,
                got,
                want,
            } if caller == uname => push(
                &mut out,
                RuleCode::ArgMismatch,
                span_of(unit, stmt),
                &callee,
                format!(
                    "CALL {callee}, argument {}: actual is {got} but the formal \
                     is {want}",
                    pos + 1
                ),
                None,
            ),
            _ => {}
        }
    }

    // PED002 / PED003: audit user-deleted dependences.
    for d in &ua.graph.deps {
        if ua.marking.mark_of(d.id) != Mark::Rejected {
            continue;
        }
        let reason = ua
            .marking
            .reason_of(d.id)
            .map(|r| format!(" (reason: {r})"))
            .unwrap_or_default();
        if d.level.is_some() {
            push(
                &mut out,
                RuleCode::FaithRejection,
                span_of(unit, d.src_stmt),
                &d.var,
                format!(
                    "user-rejected {} dependence on {} is still derived by the \
                     {} test at level {}; the deletion is taken on faith{}",
                    d.kind,
                    d.var,
                    d.test,
                    d.level.unwrap_or(0),
                    reason
                ),
                None,
            );
        } else if d.kind != DepKind::Control {
            push(
                &mut out,
                RuleCode::RedundantRejection,
                span_of(unit, d.src_stmt),
                &d.var,
                format!(
                    "rejected {} dependence on {} is loop-independent; rejecting \
                     it cannot enable any loop to run parallel{}",
                    d.kind, d.var, reason
                ),
                None,
            );
        }
    }

    // PED006: assertions contradicted by known facts.
    if !user.asserted.is_empty() {
        // Facts the analyses derive *without* assertions — the baseline
        // an assertion must be consistent with.
        let base = base_env(program, unit_idx, ua);
        let consts = Constants::build(unit, &ua.symbols, &ua.cfg, seeds.get(&uname));
        let headers: Vec<StmtId> = ua.nest.loops.iter().map(|i| i.stmt).collect();
        for fact in &user.asserted {
            let mut contradicted = None;
            for e in &fact.nonneg {
                // Symbolic: the base environment proves e < 0.
                if base.range_of(e).hi.is_some_and(|h| h < 0) {
                    contradicted = Some(format!(
                        "symbolic analysis proves the asserted quantity is negative"
                    ));
                    break;
                }
                // Constant propagation at each loop header.
                for &h in &headers {
                    let mut val = Some(e.konst);
                    for (n, c) in &e.terms {
                        val = match (val, consts.int_at(h, n)) {
                            (Some(acc), Some(v)) => Some(acc + c * v),
                            _ => None,
                        };
                    }
                    if val.is_some_and(|v| v < 0) {
                        contradicted = Some(format!(
                            "constant propagation at line {} evaluates the asserted \
                             quantity to {}",
                            span_of(unit, h).start,
                            val.unwrap()
                        ));
                        break;
                    }
                }
                if contradicted.is_some() {
                    break;
                }
            }
            for (name, r) in &fact.ranges {
                if contradicted.is_some() {
                    break;
                }
                let known = base.range_of(&LinExpr::var(name.clone()));
                let disjoint = matches!((known.hi, r.lo), (Some(h), Some(lo)) if h < lo)
                    || matches!((known.lo, r.hi), (Some(l), Some(hi)) if l > hi);
                if disjoint {
                    contradicted = Some(format!(
                        "known range of {} is disjoint from the asserted range",
                        name
                    ));
                }
            }
            if let Some(why) = contradicted {
                push(
                    &mut out,
                    RuleCode::AssertionContradicted,
                    unit.span,
                    "",
                    format!(
                        "assertion \"{}\" contradicts known facts: {}",
                        fact.text, why
                    ),
                    None,
                );
            }
        }
    }

    sort_findings(&mut out);
    out
}

/// The symbolic environment a unit gets before any user assertion:
/// whole-program facts plus local invariant relations.
fn base_env(program: &Program, unit_idx: usize, ua: &UnitAnalysis) -> SymbolicEnv {
    let mut env = ped_interproc::global_symbolic_facts(program);
    let unit = &program.units[unit_idx];
    let local =
        ped_analysis::symbolic::detect_invariant_relations(unit, &ua.symbols, &ua.refs, &ua.cfg);
    for (n, l) in local.subst {
        env.add_subst(n, l);
    }
    for (n, r) in local.ranges {
        env.add_range(n, r);
    }
    env
}

/// Lint every unit of a program with no user context (CLI mode).
/// Analysis runs per-unit, optionally on several threads; the merged
/// report is byte-identical for any thread count.
pub fn lint_program(program: &Program, opts: &LintOptions) -> Vec<Finding> {
    let facts = ped_interproc::ProgramFacts::build(program);
    let seeds = ped_interproc::propagate_constants(program);
    let user = UserContext::default();
    let per_unit = ped_interproc::par_map_units(program.units.len(), opts.threads, |idx| {
        let ua = UnitAnalysis::from_tables(
            &program.units[idx],
            facts.tables.unit(idx),
            facts.unit_env(program, idx),
            Some(&facts.effects),
        );
        lint_unit(program, idx, &ua, &facts.effects, &seeds, &user)
    });
    let mut out: Vec<Finding> = per_unit.into_iter().flatten().collect();
    sort_findings(&mut out);
    out
}

/// Summary counts by severity.
pub fn tally(findings: &[Finding]) -> (usize, usize, usize) {
    let mut e = 0;
    let mut w = 0;
    let mut n = 0;
    for f in findings {
        match f.severity() {
            Severity::Error => e += 1,
            Severity::Warning => w += 1,
            Severity::Note => n += 1,
        }
    }
    (e, w, n)
}

/// A stable content key for a finding list (used by cache tests).
pub fn findings_fingerprint(findings: &[Finding]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in findings {
        mix(f.rule.code().as_bytes());
        mix(f.unit.as_bytes());
        mix(&f.span.start.to_le_bytes());
        mix(f.var.as_bytes());
        mix(f.message.as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parser::parse_ok;

    fn lint_src(src: &str) -> Vec<Finding> {
        let p = parse_ok(src);
        lint_program(&p, &LintOptions::default())
    }

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule.code()).collect()
    }

    #[test]
    fn clean_parallel_loop_has_no_errors() {
        let f = lint_src(
            "CDOALL\n      DO 10 I = 1, 100\n      A(I) = B(I)\n   10 CONTINUE\n      END\n",
        );
        assert!(!f.iter().any(|x| x.severity() == Severity::Error), "{f:?}");
    }

    #[test]
    fn recurrence_marked_parallel_is_a_race_with_witness() {
        let f = lint_src(
            "      REAL A(100)\nCDOALL\n      DO 10 I = 2, 100\n      A(I) = A(I-1)\n   10 CONTINUE\n      END\n",
        );
        let race = f
            .iter()
            .find(|x| x.rule == RuleCode::ParallelLoopRace)
            .expect("race finding");
        let w = race.witness.as_ref().expect("witness");
        assert_eq!(w.src_iter, [2]);
        assert_eq!(w.sink_iter, [3]);
        assert!(w.exact);
    }

    #[test]
    fn sequential_clean_loop_is_missed_parallelism() {
        let f =
            lint_src("      REAL A(100)\n      DO 10 I = 1, 100\n      A(I) = 0.0\n   10 CONTINUE\n      END\n");
        assert!(codes(&f).contains(&"PED007"), "{f:?}");
    }

    #[test]
    fn io_in_parallel_loop_flagged() {
        let f = lint_src(
            "      REAL A(100)\nCDOALL\n      DO 10 I = 1, 100\n      A(I) = 1.0\n      WRITE (*,*) A(I)\n   10 CONTINUE\n      END\n",
        );
        assert!(codes(&f).contains(&"PED008"), "{f:?}");
    }

    #[test]
    fn unknown_callee_in_parallel_loop_flagged() {
        let f = lint_src(
            "      COMMON /BLK/ X\nCDOALL\n      DO 10 I = 1, 100\n      CALL MYSTERY(I)\n   10 CONTINUE\n      END\n",
        );
        assert!(codes(&f).contains(&"PED005"), "{f:?}");
    }

    #[test]
    fn common_writing_callee_flagged() {
        let src = "      COMMON /BLK/ X\nCDOALL\n      DO 10 I = 1, 100\n      CALL BUMP\n   10 CONTINUE\n      END\n      SUBROUTINE BUMP\n      COMMON /BLK/ X\n      X = X + 1.0\n      END\n";
        let f = lint_src(src);
        let hit = f
            .iter()
            .find(|x| x.rule == RuleCode::CommonAliasing)
            .expect("PED005");
        assert_eq!(hit.var, "X");
    }

    #[test]
    fn unclassified_shared_scalar_flagged() {
        // T carries a value across iterations (read before write).
        let f = lint_src(
            "      REAL A(100)\nCDOALL\n      DO 10 I = 1, 100\n      A(I) = T\n      T = A(I) + 1.0\n   10 CONTINUE\n      END\n",
        );
        assert!(codes(&f).contains(&"PED004"), "{f:?}");
    }

    #[test]
    fn arg_count_mismatch_is_reported_in_the_caller() {
        let f = lint_src(
            "      REAL X(10)\n      CALL S(X)\n      END\n      SUBROUTINE S(A, N)\n      REAL A(N)\n      A(1) = 0.0\n      RETURN\n      END\n",
        );
        let hits: Vec<&Finding> = f
            .iter()
            .filter(|x| x.rule == RuleCode::ArgMismatch)
            .collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        assert_eq!(hits[0].var, "S");
        assert_eq!(hits[0].unit_idx, 0, "finding belongs to the caller");
        assert!(
            hits[0].message.contains("passes 1 argument(s)"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn arg_type_mismatch_is_reported_in_the_caller() {
        // INTEGER literal passed where the (implicitly REAL) formal X is
        // expected — the classic production-code bug.
        let f = lint_src(
            "      CALL S(5)\n      END\n      SUBROUTINE S(X)\n      Y = X\n      RETURN\n      END\n",
        );
        let hit = f
            .iter()
            .find(|x| x.rule == RuleCode::ArgMismatch)
            .expect("PED009");
        assert_eq!(hit.var, "S");
        assert_eq!(hit.severity(), Severity::Warning);
        assert!(hit.message.contains("argument 1"), "{}", hit.message);
    }

    #[test]
    fn report_is_sorted_and_thread_count_invariant() {
        let src = "      REAL A(100)\nCDOALL\n      DO 10 I = 2, 100\n      A(I) = A(I-1)\n      WRITE (*,*) A(I)\n   10 CONTINUE\n      END\n      SUBROUTINE S2\n      REAL B(50)\n      DO 20 J = 1, 50\n      B(J) = 0.0\n   20 CONTINUE\n      END\n";
        let p = parse_ok(src);
        let f1 = lint_program(&p, &LintOptions { threads: 1 });
        let f4 = lint_program(&p, &LintOptions { threads: 4 });
        assert_eq!(f1, f4);
        let mut sorted = f1.clone();
        sort_findings(&mut sorted);
        assert_eq!(f1, sorted);
    }
}
