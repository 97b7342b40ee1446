//! # ped-runtime — parallel execution substrate for PED
//!
//! The reproduction's stand-in for the paper's shared-memory targets
//! (8-processor Alliant FX/8, Cray Y-MP): sequential semantics, DOALL
//! execution over worker threads with scalar privatization and
//! reduction combining, loop-level profiling, a deterministic race
//! checker for certified loops, and run-time validation of user
//! assertions (§3.3).
//!
//! Two engines sit behind [`run`]: a register-bytecode VM (`ped-vm`)
//! that compiles the typed AST once and dispatches a dense op stream,
//! and the original tree-walking interpreter ([`interp`]). The VM is
//! the default; programs its compiler rejects (aliasing formals,
//! non-constant shapes it cannot prove, …) fall back to the tree walk.
//! Both produce byte-identical [`RunOutput`]s — `tests/vm_oracle.rs`
//! pins that contract across every workload.

pub mod interp;
pub mod value;
pub mod verify;

pub use interp::{run as run_tree, RunOptions, RunOutput, RunStats, RuntimeError};
pub use value::{ArrayObj, Cell, Value};
pub use verify::{verify_index_fact, Shadow};

use ped_fortran::ast::Program;

/// Which engine executed a run, plus its meters.
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// `"vm"` or `"tree"`.
    pub engine: &'static str,
    /// Bytecode instructions dispatched (0 for the tree walk).
    pub vm_instrs: u64,
    /// Nanoseconds spent compiling to bytecode (0 on a compile-cache
    /// hit or for the tree walk).
    pub vm_compile_ns: u64,
}

/// Run a program's main unit: bytecode VM when the program compiles,
/// tree-walking interpreter otherwise.
pub fn run(program: &Program, opts: RunOptions) -> Result<RunOutput, RuntimeError> {
    run_metered(program, opts).map(|(out, _)| out)
}

/// [`run`], also reporting which engine ran and its instruction /
/// compile-time meters.
pub fn run_metered(
    program: &Program,
    opts: RunOptions,
) -> Result<(RunOutput, EngineMetrics), RuntimeError> {
    let (compiled, compile_ns) = ped_vm::compile_cached(program);
    match compiled {
        Ok(c) => {
            let (out, instrs) = ped_vm::exec::run_metered(&c, &opts)?;
            Ok((
                out,
                EngineMetrics {
                    engine: "vm",
                    vm_instrs: instrs,
                    vm_compile_ns: compile_ns,
                },
            ))
        }
        Err(_) => {
            let out = interp::run(program, opts)?;
            Ok((
                out,
                EngineMetrics {
                    engine: "tree",
                    ..Default::default()
                },
            ))
        }
    }
}
