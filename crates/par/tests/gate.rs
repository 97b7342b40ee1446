//! The differential gate over whole programs: the BENCH_8 census, the
//! call-depth bound through a verified pass, and 1-vs-8-worker
//! byte-identity of gate-verified programs from the seeded generator.

use ped_fortran::parser::parse_ok;
use ped_par::{parallelize_program, ParOptions, VerifyStatus};
use ped_runtime::{run_metered, run_tree, RunOptions, RunOutput};

/// One census row: nests, parallel / after-transform / serial,
/// directives emitted, directives verified, and the demotions.
type Row = (usize, usize, usize, usize, usize, usize, Vec<String>);

fn census(src: &str) -> Row {
    let (report, _) = parallelize_program(&parse_ok(src), &ParOptions::default());
    let c = report.counts();
    let v = report.verify.expect("the gate ran");
    let verified = match v.status {
        VerifyStatus::Verified { .. } => v.directives,
        VerifyStatus::Skipped(why) => panic!("gate skipped: {why}"),
    };
    (
        c.nests,
        c.parallel,
        c.after_transform,
        c.serial,
        c.directives,
        verified,
        v.demoted,
    )
}

/// The `ped-par-bench` census recorded in BENCH_8.json: 146 nests, 104
/// directives, all 104 verified, no demotions.
#[test]
fn bench8_census_is_unchanged() {
    let want: [(&str, [usize; 6]); 9] = [
        ("spec77", [12, 9, 0, 3, 6, 6]),
        ("neoss", [9, 6, 1, 2, 5, 5]),
        ("nxsns", [9, 7, 0, 2, 5, 5]),
        ("dpmin", [11, 8, 0, 3, 6, 6]),
        ("slab2d", [11, 11, 0, 0, 6, 6]),
        ("slalom", [8, 5, 0, 3, 4, 4]),
        ("pueblo3d", [14, 9, 1, 4, 7, 7]),
        ("arc3d", [12, 11, 0, 1, 5, 5]),
        ("synth60", [60, 0, 60, 0, 60, 60]),
    ];
    let mut sources: Vec<(String, String)> = ped_workloads::all_programs()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    sources.push(("synth60".into(), ped_workloads::synthetic_source(60)));
    assert_eq!(sources.len(), want.len());
    let (mut directives, mut verified) = (0, 0);
    for ((name, src), (want_name, w)) in sources.iter().zip(want) {
        assert_eq!(name, want_name);
        let (n, p, x, s, d, v, demoted) = census(src);
        assert_eq!([n, p, x, s, d, v], w, "{name}: census row");
        assert!(demoted.is_empty(), "{name}: demoted {demoted:?}");
        directives += d;
        verified += v;
    }
    assert_eq!((directives, verified), (104, 104));
}

#[test]
fn a_recursive_program_skips_the_gate_with_a_typed_error() {
    let src = "      PROGRAM P\n      CALL S\n      END\n\
               \x20     SUBROUTINE S\n      X = 1.0\n      CALL S\n      END\n";
    let (report, _) = parallelize_program(&parse_ok(src), &ParOptions::default());
    match report.verify.expect("the gate ran").status {
        VerifyStatus::Skipped(why) => assert_eq!(
            why,
            "program does not run: runtime error: call depth exceeds 64 entering S"
        ),
        VerifyStatus::Verified { .. } => panic!("endless recursion cannot verify"),
    }
}

fn assert_identical(name: &str, what: &str, a: &RunOutput, b: &RunOutput) {
    assert_eq!(a.lines, b.lines, "{name} [{what}]: output lines");
    assert_eq!(a.races, b.races, "{name} [{what}]: race logs");
    assert_eq!(a.stats.steps, b.stats.steps, "{name} [{what}]: steps");
    assert_eq!(
        a.stats.parallel_loops, b.stats.parallel_loops,
        "{name} [{what}]: parallel loops"
    );
    assert_eq!(
        a.stats.parallel_iterations, b.stats.parallel_iterations,
        "{name} [{what}]: parallel iterations"
    );
    assert_eq!(
        a.stats.loop_iterations, b.stats.loop_iterations,
        "{name} [{what}]: loop profiles"
    );
}

/// Every runnable program of `synth_corpus(42, 40)`, after `parallelize`:
/// the VM at 8 workers (the team) must match the VM at 1 worker and the
/// tree walk at 8 workers. Parallel-loop stats count DOALLs executed as
/// such, which a 1-worker run does not, so the serial comparison covers
/// lines, races, steps and loop profiles.
#[test]
fn team_runs_match_serial_and_tree_runs_over_generated_programs() {
    let corpus = ped_workloads::synth::synth_corpus(42, 40, &Default::default());
    let mut runnable = 0;
    let mut doalls = 0;
    for (name, src) in &corpus {
        let (report, rewritten) = parallelize_program(&parse_ok(src), &ParOptions::default());
        if !matches!(
            report.verify.as_ref().map(|v| &v.status),
            Some(VerifyStatus::Verified { .. })
        ) {
            continue;
        }
        let opts = |workers| RunOptions {
            workers,
            ..Default::default()
        };
        let (team, engine) = run_metered(&rewritten, opts(8)).expect("verified programs run");
        assert_eq!(engine.engine, "vm", "{name}: the VM runs it");
        let (serial, _) = run_metered(&rewritten, opts(1)).expect("serial run");
        let tree = run_tree(&rewritten, opts(8)).expect("tree-walk run");
        assert_identical(name, "VM 8 vs tree 8", &team, &tree);
        assert_eq!(team.lines, serial.lines, "{name} [VM 8 vs VM 1]: lines");
        assert_eq!(team.races, serial.races, "{name} [VM 8 vs VM 1]: races");
        assert_eq!(
            team.stats.steps, serial.stats.steps,
            "{name} [VM 8 vs VM 1]: steps"
        );
        assert_eq!(
            team.stats.loop_iterations, serial.stats.loop_iterations,
            "{name} [VM 8 vs VM 1]: loop profiles"
        );
        runnable += 1;
        doalls += team.stats.parallel_loops;
    }
    // The other 33 stop on an out-of-bounds subscript, so the gate
    // skips them.
    assert_eq!(runnable, 7, "runnable programs of the seed-42 corpus");
    assert!(doalls > 0, "no DOALL ran in parallel");
}
