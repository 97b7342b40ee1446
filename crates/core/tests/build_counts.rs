//! The duplicate-construction regression test.
//!
//! Before the `ScalarFacts` store, one `reanalyze()` miss built the
//! unit's `SymbolTable`, `RefTable` and `Cfg` twice: once in the
//! symbolic-environment computation and again in
//! `UnitAnalysis::build_with`. The store runs the scalar pipeline once
//! and shares the artifacts, which this test pins with the global
//! build counters.
//!
//! The counters are process-wide atomics, so this file holds a single
//! `#[test]` and therefore gets its own process — no other test's
//! builds can leak into the deltas.

use ped::session::PedSession;
use ped_fortran::parser::parse_ok;

const TWO_UNITS: &str = "      REAL A(100)\n      DO 10 I = 2, N\n      A(I) = A(I-1)\n   10 CONTINUE\n      END\n      SUBROUTINE S2\n      REAL B(50)\n      DO 20 J = 1, 50\n      B(J) = 1.0\n   20 CONTINUE\n      END\n";

fn counts() -> (u64, u64, u64) {
    (
        ped_fortran::symbols::build_count(),
        ped_analysis::refs::build_count(),
        ped_analysis::cfg::build_count(),
    )
}

#[test]
fn scalar_pipeline_builds_each_artifact_once() {
    let mut s = PedSession::open(parse_ok(TWO_UNITS));

    // A no-op reanalyze is answered from the whole-analysis key:
    // nothing is rebuilt at all.
    let before = counts();
    s.reanalyze();
    assert_eq!(counts(), before, "no-op reanalyze must build nothing");

    // An edit dirties exactly one unit. The miss runs the scalar
    // pipeline exactly once: one SymbolTable, one RefTable (the unit is
    // CALL-free, so the plain and effects-aware tables share a single
    // build), one Cfg — not the historical two of each.
    let body_stmt = s.ua.nest.get(ped_analysis::loops::LoopId(0)).body[0];
    let hits0 = s.stats().scalar_hits;
    let (sym0, refs0, cfg0) = counts();
    s.edit_statement(body_stmt, "A(I) = 0.0").unwrap();
    let (sym1, refs1, cfg1) = counts();
    assert_eq!(sym1 - sym0, 1, "SymbolTable built once per miss");
    assert_eq!(refs1 - refs0, 1, "RefTable built once per miss");
    assert_eq!(cfg1 - cfg0, 1, "Cfg built once per miss");

    // And the edit invalidated only its own unit: stats show exactly
    // one scalar miss beyond open's two prewarm builds.
    let st = s.stats();
    assert_eq!(st.scalar_misses, 3, "2 prewarm builds + 1 edit rebuild");
    assert_eq!(
        st.scalar_hits - hits0,
        1,
        "the unedited unit is served from the memo"
    );
}
