//! Per-unit nest classification: analyze the unit the same way the lint
//! engine does (interprocedural MOD/REF effects, global symbolic facts,
//! local invariant relations — all read from the program's shared
//! [`ProgramFacts`]), then decide each loop nest and, for serial nests,
//! plan dependence-breaking transforms.

use crate::{plan, BlockingDep, NestClass, NestDecision, ParOptions};
use ped_analysis::loops::LoopInfo;
use ped_fortran::ast::{find_stmt, walk_stmts, ProcUnit, Program, StmtId, StmtKind};
use ped_interproc::{par_map_units, ProgramFacts};
use ped_transform::ctx::UnitAnalysis;
use std::collections::HashSet;

/// Build one unit's analysis bundle for the batch pass over the
/// program's shared tables: global interprocedural symbolic facts plus
/// the unit's invariant relations, with MOD/REF effects threaded into
/// reference collection.
pub(crate) fn unit_analysis(
    program: &Program,
    unit_idx: usize,
    facts: &ProgramFacts,
) -> UnitAnalysis {
    UnitAnalysis::from_tables(
        &program.units[unit_idx],
        facts.tables.unit(unit_idx),
        facts.unit_env(program, unit_idx),
        Some(&facts.effects),
    )
}

/// Source line of a statement (falls back to the unit header).
pub(crate) fn line_of(unit: &ProcUnit, id: StmtId) -> u32 {
    find_stmt(&unit.body, id)
        .map(|s| s.span.start)
        .unwrap_or(unit.span.start)
}

/// True if the loop body contains a `READ`/`WRITE` statement — running
/// such a loop as a DOALL would reorder the I/O stream.
pub fn has_io(unit: &ProcUnit, info: &LoopInfo) -> bool {
    let Some(stmt) = find_stmt(&unit.body, info.stmt) else {
        return false;
    };
    let mut io = false;
    for block in stmt.kind.blocks() {
        walk_stmts(block, &mut |s| {
            if matches!(s.kind, StmtKind::Read { .. } | StmtKind::Write { .. }) {
                io = true;
            }
        });
    }
    io
}

/// Classify every loop nest of every unit. Per-unit work optionally
/// fans out over `opts.threads` workers; results merge in unit order so
/// the report is thread-count invariant.
pub(crate) fn classify_program(
    program: &Program,
    facts: &ProgramFacts,
    opts: &ParOptions,
) -> Vec<NestDecision> {
    let ranks = crate::rank_map(program);
    par_map_units(program.units.len(), opts.threads, |idx| {
        classify_unit(program, idx, facts, opts, &ranks)
    })
    .into_iter()
    .flatten()
    .collect()
}

fn classify_unit(
    program: &Program,
    unit_idx: usize,
    facts: &ProgramFacts,
    opts: &ParOptions,
    ranks: &std::collections::HashMap<(String, StmtId), (f64, f64)>,
) -> Vec<NestDecision> {
    let ua = unit_analysis(program, unit_idx, facts);
    let unit = &program.units[unit_idx];
    let uname = unit.name.to_ascii_uppercase();
    let reports: Vec<_> = ua
        .nest
        .loops
        .iter()
        .map(|info| ped_transform::analyze_parallelization(unit, &ua, info.id))
        .collect();
    // The unit's parallel set before any transform: the baseline every
    // plan dry-run is measured against.
    let p0: HashSet<StmtId> = ua
        .nest
        .loops
        .iter()
        .zip(&reports)
        .filter(|(_, rep)| rep.is_parallel())
        .map(|(info, _)| info.stmt)
        .collect();
    let mut out = Vec::new();
    for (info, rep) in ua.nest.loops.iter().zip(reports) {
        let (weight, percent) = ranks
            .get(&(uname.clone(), info.stmt))
            .copied()
            .unwrap_or((0.0, 0.0));
        let mut d = NestDecision {
            unit: uname.clone(),
            unit_idx,
            stmt: info.stmt,
            line: line_of(unit, info.stmt),
            var: info.var.clone(),
            level: info.level,
            class: NestClass::Serial,
            transform: None,
            blocking: rep
                .impediments
                .iter()
                .map(|i| BlockingDep {
                    var: i.var.clone(),
                    kind: i.kind.clone(),
                    detail: i.detail.clone(),
                })
                .collect(),
            rejections: Vec::new(),
            privatized: rep.privatized.clone(),
            privatized_arrays: rep.privatized_arrays.clone(),
            reductions: rep.reductions.clone(),
            weight,
            percent,
            emitted: false,
            emit_skip: None,
        };
        if rep.is_parallel() {
            d.class = NestClass::Parallel;
        } else if opts.plan_transforms {
            plan::plan_nest(program, unit_idx, facts, &ua, &p0, info.id, &mut d);
        }
        out.push(d);
    }
    out
}
