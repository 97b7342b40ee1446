//! Build-count gate for the cold static pipeline.
//!
//! One cold `analyze_source` pass over `synth_corpus(42, 12)` must not
//! rebuild per-unit tables it already holds: MOD/REF, the global
//! symbolic facts, plan dry-runs and emit all read one per-program table
//! set. Before that table set the pass built 4064 `SymbolTable`s, 4048
//! `RefTable`s and 1632 `Cfg`s; the bounds below are half, a quarter and
//! two thirds of those.
//!
//! The counters are process-wide atomics, so this file holds a single
//! `#[test]` and gets its own process.

use ped_workloads::{synth_corpus, CorpusParams};

fn counts() -> (u64, u64, u64) {
    (
        ped_fortran::symbols::build_count(),
        ped_analysis::refs::build_count(),
        ped_analysis::cfg::build_count(),
    )
}

#[test]
fn cold_static_pass_reuses_unit_tables() {
    let corpus = synth_corpus(42, 12, &CorpusParams::default());
    let (s0, r0, c0) = counts();
    for (name, src) in &corpus {
        let s = ped_batch::analyze_source(name, src, false);
        assert!(s.parse_errors.is_empty(), "{name} does not parse");
    }
    let (s1, r1, c1) = counts();
    let (symbols, refs, cfgs) = (s1 - s0, r1 - r0, c1 - c0);
    eprintln!("builds: {symbols} SymbolTable, {refs} RefTable, {cfgs} Cfg");
    assert!(symbols <= 2032, "{symbols} SymbolTable builds (bound 2032)");
    assert!(refs <= 1012, "{refs} RefTable builds (bound 1012)");
    assert!(cfgs <= 1088, "{cfgs} Cfg builds (bound 1088)");
}
