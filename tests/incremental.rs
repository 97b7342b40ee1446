//! Incremental reanalysis must be invisible: a session that reuses
//! cached analyses after edits must end up in exactly the state a cold
//! session opened on the final program would compute.

use ped::filter::DepFilter;
use ped::session::PedSession;
use ped::usage::Feature;
use ped_analysis::loops::LoopId;
use ped_dependence::marking::Mark;
use ped_fortran::ast::{walk_stmts, StmtId, StmtKind};
use ped_fortran::parser::parse_ok;

/// First assignment statement whose printed form contains `needle`.
fn find_assign(unit: &ped_fortran::ProcUnit, needle: &str) -> StmtId {
    let mut found = None;
    walk_stmts(&unit.body, &mut |s| {
        if found.is_none() && matches!(s.kind, StmtKind::Assign { .. }) {
            let mut text = String::new();
            ped_fortran::pretty::print_block(std::slice::from_ref(s), 0, &mut text);
            if text.contains(needle) {
                found = Some(s.id);
            }
        }
    });
    found.expect("assignment not found")
}

#[test]
fn noop_reanalyze_hits_and_preserves_everything() {
    let src = "      INTEGER IX(100)\n      REAL A(100)\n      DO 10 I = 1, N\n      A(IX(I)) = A(IX(I)) + 1.0\n   10 CONTINUE\n      END\n";
    let mut s = PedSession::open(parse_ok(src));
    s.select_loop(LoopId(0)).unwrap();
    let dep =
        s.ua.graph
            .deps
            .iter()
            .find(|d| d.var == "A" && d.level.is_some())
            .unwrap()
            .id;
    s.mark_dependence(dep, Mark::Rejected, Some("IX is a permutation".into()))
        .unwrap();
    let before = format!("{:?}", s.ua.graph.deps);
    s.reanalyze();
    s.reanalyze();
    let st = s.stats();
    assert_eq!(
        st.analysis_hits, 2,
        "no-op reanalyze must be answered from cache"
    );
    assert_eq!(st.analysis_misses, 0);
    assert_eq!(st.reanalyze_hits, 2);
    assert!(st
        .features
        .iter()
        .any(|(f, n)| *f == Feature::AnalysisCacheHit && *n == 2));
    assert_eq!(format!("{:?}", s.ua.graph.deps), before);
    // The mark survives untouched (same DepId — nothing was rebuilt).
    assert_eq!(s.ua.marking.mark_of(dep), Mark::Rejected);
    assert_eq!(s.selected, Some(LoopId(0)));
}

#[test]
fn reanalyze_after_edit_matches_cold_session() {
    // Two disjoint loops: edit the second, then the warm session (pair
    // cache hot for the untouched first loop) must equal a cold open of
    // the edited program.
    let src = "      REAL A(100), B(100)\n      DO 10 I = 2, N\n      A(I) = A(I-1)\n   10 CONTINUE\n      DO 20 I = 2, N\n      B(I) = B(I-1)\n   20 CONTINUE\n      END\n";
    let mut s = PedSession::open(parse_ok(src));
    let target = find_assign(s.current_unit(), "B(I - 1)");
    s.edit_statement(target, "B(I) = B(I-2)").unwrap();
    let (_, misses, pair_hits, _) = s.cache_stats();
    assert_eq!(misses, 1, "a real edit must rebuild");
    assert!(
        pair_hits >= 1,
        "the untouched A recurrence must be cache-hot"
    );
    let cold = PedSession::open((*s.program).clone());
    assert_eq!(
        cold.ua.graph.deps, s.ua.graph.deps,
        "incremental reanalysis diverged from a cold build"
    );
    // And the edit is really reflected: B now carries distance 2.
    assert!(s
        .ua
        .graph
        .deps
        .iter()
        .any(|d| d.var == "B" && d.distances[0] == Some(2)));
}

#[test]
fn assertion_invalidates_pair_cache_and_matches_cold_session() {
    let src = "      REAL UF(10000)\n      INTEGER ISTRT(10), IENDV(10)\n      DO 300 I = ISTRT(IR), IENDV(IR)\n      UF(I) = UF(I + MCN) + 1.0\n  300 CONTINUE\n      END\n";
    let mut s = PedSession::open(parse_ok(src));
    assert!(!s.impediments(LoopId(0)).is_parallel());
    s.assert_fact("MCN .GT. IENDV(IR) - ISTRT(IR)").unwrap();
    assert!(
        s.impediments(LoopId(0)).is_parallel(),
        "stale cached tests survived the assertion"
    );
    let mut cold = PedSession::open(parse_ok(src));
    cold.assert_fact("MCN .GT. IENDV(IR) - ISTRT(IR)").unwrap();
    assert_eq!(cold.ua.graph.deps, s.ua.graph.deps);
}

#[test]
fn marks_carry_across_real_rebuilds() {
    let src = "      INTEGER IX(100)\n      REAL A(100), B(100)\n      DO 10 I = 1, N\n      A(IX(I)) = A(IX(I)) + 1.0\n   10 CONTINUE\n      DO 20 I = 1, N\n      B(I) = 7.0\n   20 CONTINUE\n      END\n";
    let mut s = PedSession::open(parse_ok(src));
    s.select_loop(LoopId(0)).unwrap();
    let n = s.mark_dependences_where(
        &DepFilter::parse("mark=pending & var=A").unwrap(),
        Mark::Rejected,
        Some("permutation"),
    );
    assert!(n > 0);
    // A genuine edit elsewhere forces a rebuild; the rejections survive.
    let target = find_assign(s.current_unit(), "B(I) = 7.0");
    s.edit_statement(target, "B(I) = 8.0").unwrap();
    let rejected =
        s.ua.graph
            .deps
            .iter()
            .filter(|d| d.var == "A" && s.ua.marking.mark_of(d.id) == Mark::Rejected)
            .count();
    assert_eq!(rejected, n, "user marks lost across incremental rebuild");
}

#[test]
fn warm_rebuild_matches_cold_open_on_all_workloads() {
    let mut sources: Vec<(String, String)> = ped_workloads::all_programs()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    sources.push(("synth60".into(), ped_workloads::synthetic_source(60)));
    for (name, source) in sources {
        let prog = parse_ok(&source);
        let units = prog.units.len() as u64;
        let mut warm = PedSession::open(prog.clone());
        let before = warm.stats();
        // Force a rebuild with the pair cache fully hot.
        warm.cache.invalidate();
        warm.reanalyze();
        // The scalar-facts store serves every unit of the unchanged
        // program: no rebuild, exactly one hit per unit.
        let after = warm.stats();
        assert_eq!(
            after.scalar_misses, before.scalar_misses,
            "{name}: forced no-op reanalyze rebuilt scalar facts"
        );
        assert_eq!(
            after.scalar_hits - before.scalar_hits,
            units,
            "{name}: forced no-op reanalyze must hit once per unit"
        );
        let cold = PedSession::open(prog);
        assert_eq!(
            cold.ua.graph.deps, warm.ua.graph.deps,
            "{name}: warm rebuild diverged from cold open"
        );
        let (_, _, pair_hits, _) = warm.cache_stats();
        if !warm.ua.graph.is_empty() {
            assert!(
                pair_hits > 0,
                "{name}: rebuild of unchanged unit should hit"
            );
        }
    }
}
