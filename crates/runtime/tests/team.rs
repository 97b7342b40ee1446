//! The VM's persistent worker team and the call-depth bound.
//!
//! Each team case runs on a helper thread under a deadline, so a
//! deadlock fails the test instead of hanging the suite, and must match
//! the tree walk: output lines, race logs, steps, parallel-loop stats
//! and loop profiles, or the same runtime error.

use ped_fortran::parser::parse_ok;
use ped_runtime::{run_metered, run_tree, RunOptions, RunOutput, RuntimeError};
use std::sync::mpsc;
use std::time::Duration;

/// Run `f` on its own thread; fail if it has not finished in time.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: no result in 120 s (deadlock?)"),
        // The sender dropped without sending: `f` panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(p) => std::panic::resume_unwind(p),
            Ok(()) => unreachable!("{what}: finished without a result"),
        },
    }
}

fn opts(workers: usize) -> RunOptions {
    RunOptions {
        workers,
        ..Default::default()
    }
}

/// The VM's result (asserting the VM, not the fallback, ran it).
fn vm(src: &str, workers: usize) -> Result<RunOutput, RuntimeError> {
    let (out, metrics) = run_metered(&parse_ok(src), opts(workers))?;
    assert_eq!(metrics.engine, "vm", "the VM compiles this program");
    Ok(out)
}

fn assert_same(
    name: &str,
    vm: &Result<RunOutput, RuntimeError>,
    tree: &Result<RunOutput, RuntimeError>,
) {
    match (vm, tree) {
        (Ok(v), Ok(t)) => {
            assert_eq!(v.lines, t.lines, "{name}: output lines");
            assert_eq!(v.races, t.races, "{name}: race logs");
            assert_eq!(v.stats.steps, t.stats.steps, "{name}: steps");
            assert_eq!(
                v.stats.parallel_loops, t.stats.parallel_loops,
                "{name}: parallel loops"
            );
            assert_eq!(
                v.stats.parallel_iterations, t.stats.parallel_iterations,
                "{name}: parallel iterations"
            );
            assert_eq!(
                v.stats.loop_iterations, t.stats.loop_iterations,
                "{name}: loop profiles"
            );
        }
        (Err(v), Err(t)) => assert_eq!(v, t, "{name}: runtime error"),
        _ => panic!("{name}: VM {vm:?} vs tree walk {tree:?}"),
    }
}

/// Run `src` on the VM at 8 workers (the team) and on the tree walk at
/// 8 workers, under the deadline, and require the same result.
fn team_matches_tree(name: &'static str, src: &'static str) -> Result<RunOutput, RuntimeError> {
    let (v, t) = within(name, move || {
        (vm(src, 8), run_tree(&parse_ok(src), opts(8)))
    });
    assert_same(name, &v, &t);
    v
}

#[test]
fn a_runtime_error_in_one_chunk_is_the_error_of_the_run() {
    // 80 trips over 8 workers: I = 37 falls in chunk 3, on a member.
    let src = "      PROGRAM P\n      REAL A(80)\n\
               CDOALL\n      DO 10 I = 1, 80\n      A(I) = I\n\
               \x20     IF (I .EQ. 37) A(I + 100) = 0.0\n   10 CONTINUE\n\
               \x20     WRITE(*,*) A(1)\n      END\n";
    let r = team_matches_tree("error in a chunk", src);
    assert!(r.is_err(), "out-of-bounds store is an error: {r:?}");
}

#[test]
fn control_flow_escaping_a_doall_is_an_error() {
    let src = "      PROGRAM P\n      REAL A(80)\n\
               CDOALL\n      DO 10 I = 1, 80\n      A(I) = I\n\
               \x20     IF (I .EQ. 50) GOTO 20\n   10 CONTINUE\n\
               \x20  20 WRITE(*,*) A(1)\n      END\n";
    let r = team_matches_tree("escape", src);
    assert_eq!(
        r.unwrap_err().0,
        "control flow escapes a parallel loop",
        "an escape is the parallel-loop error"
    );
}

#[test]
fn a_doall_in_a_function_called_from_a_doall_runs_inline() {
    // F's DOALL is reached from a team member (functions reset
    // in_parallel); it must run there, not be posted to the busy team.
    let src = "      PROGRAM P\n      REAL A(16)\n\
               CDOALL\n      DO 10 I = 1, 16\n      A(I) = F(I)\n   10 CONTINUE\n\
               \x20     S = 0.0\n      DO 20 I = 1, 16\n      S = S + A(I)\n   20 CONTINUE\n\
               \x20     WRITE(*,*) S, A(1), A(16)\n      END\n\
               \x20     REAL FUNCTION F(K)\n      REAL W(12)\n\
               CDOALL\n      DO 30 J = 1, 12\n      W(J) = K * J\n   30 CONTINUE\n\
               \x20     F = W(1) + W(12)\n      END\n";
    let out = team_matches_tree("re-entrant", src).expect("runs");
    assert_eq!(
        out.lines,
        within("serial", move || vm(src, 1)).unwrap().lines
    );
    // 1 outer DOALL plus one inner DOALL per outer iteration.
    assert_eq!(out.stats.parallel_loops, 17);
}

#[test]
fn doalls_with_fewer_trips_than_workers_leave_members_idle() {
    let src = "      PROGRAM P\n      REAL A(3), B(20)\n\
               \x20     DO 30 T = 1, 50\n\
               CDOALL\n      DO 10 I = 1, 3\n      A(I) = A(I) + T\n   10 CONTINUE\n\
               CDOALL\n      DO 20 I = 1, 20\n      B(I) = B(I) + A(MOD(I, 3) + 1)\n\
               \x20  20 CONTINUE\n   30 CONTINUE\n      WRITE(*,*) A(1), A(3), B(1), B(20)\n\
               \x20     END\n";
    let out = team_matches_tree("few trips", src).expect("runs");
    assert_eq!(out.stats.parallel_loops, 100);
}

#[test]
fn a_thousand_back_to_back_doalls_reuse_one_team() {
    let src = "      PROGRAM P\n      REAL A(16)\n      S = 0.0\n\
               \x20     DO 20 T = 1, 1000\n\
               CDOALL\n      DO 10 I = 1, 16\n      A(I) = A(I) + I * T\n   10 CONTINUE\n\
               \x20  20 CONTINUE\n      DO 30 I = 1, 16\n      S = S + A(I)\n   30 CONTINUE\n\
               \x20     WRITE(*,*) S\n      END\n";
    let out = team_matches_tree("time steps", src).expect("runs");
    assert_eq!(out.stats.parallel_loops, 1000);
    assert_eq!(out.stats.parallel_iterations, 16_000);
}

/// A panic on a team member reaches the caller instead of hanging the
/// run. Unoptimized builds panic on integer overflow, which gives a
/// Fortran-level way to make one chunk (I = 7 of 16, a member's) panic.
#[cfg(debug_assertions)]
#[test]
fn a_panic_on_a_member_propagates() {
    let src = "      PROGRAM P\n      INTEGER A(16)\n      K = 9223372036854775807\n\
               CDOALL\n      DO 10 I = 1, 16\n      A(I) = I\n\
               \x20     IF (I .EQ. 7) A(I) = K + I\n   10 CONTINUE\n\
               \x20     WRITE(*,*) A(1)\n      END\n";
    let caught = within("member panic", move || {
        std::panic::catch_unwind(|| vm(src, 8)).is_err()
    });
    assert!(caught, "the member's panic propagates to the caller");
}

const RECURSIVE: &str = "      PROGRAM P\n      CALL S\n      END\n\
                         \x20     SUBROUTINE S\n      X = 1.0\n      CALL S\n      END\n";

#[test]
fn unbounded_recursion_is_a_runtime_error_in_both_engines() {
    let v = within("vm recursion", || vm(RECURSIVE, 1));
    let t = within("tree recursion", || run_tree(&parse_ok(RECURSIVE), opts(1)));
    assert_same("recursion", &v, &t);
    assert_eq!(v.unwrap_err().0, "call depth exceeds 64 entering S");
}

#[test]
fn recursion_inside_a_doall_body_is_bounded_on_every_member() {
    let src = "      PROGRAM P\n      REAL A(16)\n\
               CDOALL\n      DO 10 I = 1, 16\n      CALL S(A, I)\n   10 CONTINUE\n\
               \x20     WRITE(*,*) A(1)\n      END\n\
               \x20     SUBROUTINE S(A, I)\n      REAL A(16)\n      A(I) = I\n\
               \x20     CALL S(A, I)\n      END\n";
    let r = team_matches_tree("recursion in a DOALL", src);
    assert_eq!(r.unwrap_err().0, "call depth exceeds 64 entering S");
}

#[test]
fn the_depth_bound_admits_exactly_sixty_four_activations() {
    // R(K) recurses K more times below itself: CALL R(63) reaches depth
    // 64 and runs; CALL R(64) would enter depth 65.
    let prog = |k: u32| {
        format!(
            "      PROGRAM P\n      N = 0\n      CALL R({k}, N)\n      WRITE(*,*) N\n      END\n\
             \x20     SUBROUTINE R(K, N)\n      N = N + 1\n      IF (K .GT. 0) CALL R(K - 1, N)\n\
             \x20     END\n"
        )
    };
    let deep = prog(63);
    let fits = within("depth 64", move || {
        (vm(&deep, 1), run_tree(&parse_ok(&deep), opts(1)))
    });
    assert_same("depth 64", &fits.0, &fits.1);
    assert_eq!(fits.0.expect("depth 64 runs").lines, ["64"]);
    let deeper = prog(64);
    let over = within("depth 65", move || {
        (vm(&deeper, 1), run_tree(&parse_ok(&deeper), opts(1)))
    });
    assert_same("depth 65", &over.0, &over.1);
    assert_eq!(over.0.unwrap_err().0, "call depth exceeds 64 entering R");
}
