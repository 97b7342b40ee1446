//! Exactness goldens for the cold static pipeline.
//!
//! Each digest is FNV-1a 64 over the concatenated
//! `render_program(&analyze_source(..))` of a seeded synthetic corpus —
//! the same hash the benchmark pins for its corpus report. The values
//! were recorded before the per-program table set was introduced, so any
//! reuse that changes a byte of a report fails here.

use ped_batch::{analyze_source, render_program};
use ped_fortran::fingerprint::Fnv;
use ped_workloads::{synth_corpus, CorpusParams};

fn corpus_digest(seed: u64, verify: bool) -> u64 {
    let mut out = String::new();
    for (name, src) in synth_corpus(seed, 12, &CorpusParams::default()) {
        out.push_str(&render_program(&analyze_source(&name, &src, verify)));
    }
    Fnv::new().bytes(out.as_bytes()).done()
}

#[test]
fn seed_42_static_digest() {
    assert_eq!(
        format!("{:016x}", corpus_digest(42, false)),
        "ad7e69d5c1929b9a"
    );
}

#[test]
fn seed_7_static_digest() {
    assert_eq!(
        format!("{:016x}", corpus_digest(7, false)),
        "f4ea0ea7dbd8fcd1"
    );
}

#[test]
fn seed_1001_static_digest() {
    assert_eq!(
        format!("{:016x}", corpus_digest(1001, false)),
        "dd8129c8312f8983"
    );
}

#[test]
fn seed_42_verified_digest() {
    assert_eq!(
        format!("{:016x}", corpus_digest(42, true)),
        "3ef317631af81a41"
    );
}

/// A `CALL` cycle (WALK → STEP → WALK) whose units share COMMON: MOD/REF
/// needs more than one fixpoint round, and both cycle members carry
/// parallel and serial nests.
#[test]
fn recursive_program_render() {
    let src = include_str!("golden/recursive.f");
    let got = render_program(&analyze_source("recursive.f", src, false));
    let want = include_str!("golden/recursive.render");
    assert_eq!(got, want, "render of recursive.f changed:\n{got}");
}

/// Two units named `S`: MOD/REF, the call graph and `Program::unit` would
/// each resolve the name differently, so the program must not parse.
#[test]
fn duplicate_unit_names_do_not_analyze() {
    let src = "      PROGRAM P
      REAL A(100)
      CALL S(A)
      END
      SUBROUTINE S(A)
      REAL A(100)
      A(1) = 0.0
      END
      SUBROUTINE S(A)
      REAL A(100)
      A(2) = A(1)
      END
";
    let s = analyze_source("dup.f", src, false);
    assert_eq!(s.parse_errors, ["9: duplicate program unit name S"]);
    assert!(s.par.is_none());
}
