//! Transformation planning for serial nests.
//!
//! For each nest with surviving inhibitors the planner tries a fixed,
//! ordered list of dependence-breaking transformations (the "power
//! steering" advice of §5.1 decides applicability/safety/profitability
//! without running anything), applies each surviving candidate to a
//! scratch copy of the program, rebuilds the unit's analyses, and fires
//! the first candidate that exposes a loop which was not parallel
//! before. Every rejected candidate leaves a machine-readable record of
//! the rule that rejected it.

use crate::{classify, NestClass, NestDecision, TransformRejection};
use ped_analysis::loops::LoopId;
use ped_fortran::ast::{Program, StmtId};
use ped_interproc::ProgramFacts;
use ped_transform::advice::{Advice, Profit, Safety};
use ped_transform::ctx::UnitAnalysis;
use std::collections::HashSet;

/// `DO` statements of the unit's dependence-parallel loops.
fn parallel_set(program: &Program, unit_idx: usize, ua: &UnitAnalysis) -> HashSet<StmtId> {
    let unit = &program.units[unit_idx];
    ua.nest
        .loops
        .iter()
        .filter(|info| ped_transform::analyze_parallelization(unit, ua, info.id).is_parallel())
        .map(|info| info.stmt)
        .collect()
}

/// Candidate transformations, in the order they are tried.
fn candidates(ua: &UnitAnalysis, d: &NestDecision) -> Vec<String> {
    let mut v = vec![
        "distribution".to_string(),
        "interchange".to_string(),
        "reversal".to_string(),
    ];
    // Induction-variable elimination targets a specific blocking scalar.
    let mut vars: Vec<&str> = d
        .blocking
        .iter()
        .filter(|b| !ua.symbols.is_array(&b.var))
        .map(|b| b.var.as_str())
        .collect();
    vars.sort();
    vars.dedup();
    for var in vars {
        v.push(format!("induction-elimination({var})"));
    }
    v
}

fn advice_for(
    name: &str,
    program: &Program,
    unit_idx: usize,
    ua: &UnitAnalysis,
    l: LoopId,
) -> Advice {
    let unit = &program.units[unit_idx];
    match name {
        "distribution" => ped_transform::reorder::distribute_advice(unit, ua, l),
        "interchange" => ped_transform::reorder::interchange_advice(unit, ua, l),
        "reversal" => ped_transform::reorder::reversal_advice(ua, l),
        _ => {
            let var = induction_var(name);
            ped_transform::induction::induction_elimination_advice(unit, ua, l, var)
        }
    }
}

fn apply(
    name: &str,
    program: &mut Program,
    unit_idx: usize,
    ua: &UnitAnalysis,
    l: LoopId,
) -> Result<(), String> {
    let r = match name {
        "distribution" => ped_transform::reorder::distribute(program, unit_idx, ua, l),
        "interchange" => ped_transform::reorder::interchange(program, unit_idx, ua, l),
        "reversal" => ped_transform::reorder::reverse(program, unit_idx, ua, l),
        _ => ped_transform::induction::induction_elimination(
            program,
            unit_idx,
            ua,
            l,
            induction_var(name),
        ),
    };
    r.map(|_| ()).map_err(|e| e.to_string())
}

fn induction_var(name: &str) -> &str {
    name.strip_prefix("induction-elimination(")
        .and_then(|s| s.strip_suffix(')'))
        .unwrap_or(name)
}

/// Try every candidate on `d`'s nest; fire the first one that exposes a
/// new parallel loop (one not in `p0`, the unit's parallel set as
/// classified), recording the rejecting rule for the rest.
pub(crate) fn plan_nest(
    program: &Program,
    unit_idx: usize,
    facts: &ProgramFacts,
    ua: &UnitAnalysis,
    p0: &HashSet<StmtId>,
    l: LoopId,
    d: &mut NestDecision,
) {
    for name in candidates(ua, d) {
        let advice = advice_for(&name, program, unit_idx, ua, l);
        if !advice.applicable {
            d.rejections.push(TransformRejection {
                transform: name,
                category: "not-applicable",
                rule: advice.why_not.unwrap_or_else(|| "not applicable".into()),
            });
            continue;
        }
        if let Safety::Unsafe(rule) = advice.safety {
            d.rejections.push(TransformRejection {
                transform: name,
                category: "unsafe",
                rule,
            });
            continue;
        }
        if let Profit::No(rule) = advice.profit {
            d.rejections.push(TransformRejection {
                transform: name,
                category: "unprofitable",
                rule,
            });
            continue;
        }
        // Dry-run on a scratch copy and re-derive the dependences. The
        // transform rewrote only unit `unit_idx`, so every other unit's
        // tables carry over; the scratch program's MOD/REF and global
        // facts are recomputed from them.
        let mut scratch = program.clone();
        if let Err(rule) = apply(&name, &mut scratch, unit_idx, ua, l) {
            d.rejections.push(TransformRejection {
                transform: name,
                category: "apply-failed",
                rule,
            });
            continue;
        }
        let mut tables = facts.tables.clone();
        tables.rebuild(&scratch, unit_idx);
        let sfacts = ProgramFacts::new(&scratch, tables);
        let sua = classify::unit_analysis(&scratch, unit_idx, &sfacts);
        let p1 = parallel_set(&scratch, unit_idx, &sua);
        if p1.difference(p0).next().is_some() {
            d.class = NestClass::ParallelAfterTransform;
            d.transform = Some(name);
            return;
        }
        d.rejections.push(TransformRejection {
            transform: name,
            category: "no-effect",
            rule: "applied cleanly but exposed no new parallel loop".into(),
        });
    }
}

/// Re-apply a fired transformation inside `emit`, locating the target
/// nest by its original `DO` statement id. `facts` must describe
/// `program` as it is now.
pub(crate) fn apply_by_name(
    program: &mut Program,
    facts: &ProgramFacts,
    unit_idx: usize,
    stmt: StmtId,
    name: &str,
) -> Result<(), String> {
    let ua = classify::unit_analysis(program, unit_idx, facts);
    let l = ua
        .nest
        .by_stmt(stmt)
        .map(|info| info.id)
        .ok_or_else(|| "target loop no longer present".to_string())?;
    apply(name, program, unit_idx, &ua, l)
}
