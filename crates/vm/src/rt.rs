//! Shared run-surface types and scalar semantics.
//!
//! Both execution engines — the tree-walking interpreter in
//! `ped-runtime` and the bytecode dispatch loop in [`crate::exec`] —
//! speak this vocabulary: [`RunOptions`] in, [`RunOutput`] out, and one
//! set of arithmetic/intrinsic helpers so a `+` or a `MAX` can never
//! disagree between the engines. Byte-identity of the two engines
//! (`tests/vm_oracle.rs` in ped-runtime) depends on this module being
//! the single source of truth for value semantics.

use crate::value::{Cell, Value};
use ped_fortran::ast::{BinOp, DimBound, Expr, StmtId, Type};
use ped_fortran::symbols::SymbolTable;
use std::collections::HashMap;

/// Execution options.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker threads for DOALL loops (1 = sequential even if marked).
    pub workers: usize,
    /// Values consumed by `READ` statements.
    pub input: Vec<Value>,
    /// Abort after this many executed statements (runaway guard).
    pub max_steps: u64,
    /// Old-dialect one-trip DO semantics (neoss/nxsns/dpmin, §5.3).
    pub one_trip_do: bool,
    /// Run DOALL loops sequentially with deterministic per-element
    /// conflict tracking instead of actually parallel; conflicts appear
    /// in [`RunOutput::races`]. This is the run-time verification of
    /// §3.3.
    pub validate_parallel: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: 1,
            input: Vec::new(),
            max_steps: 200_000_000,
            one_trip_do: false,
            validate_parallel: false,
        }
    }
}

/// Execution statistics.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    pub steps: u64,
    pub parallel_loops: u64,
    pub parallel_iterations: u64,
    /// Iterations executed per `DO` statement (loop-level profiling, the
    /// Forge-style profile users asked for in §3.2).
    pub loop_iterations: HashMap<StmtId, u64>,
}

/// Result of a run.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    /// Lines produced by WRITE/PRINT.
    pub lines: Vec<String>,
    pub stats: RunStats,
    /// Conflicts found by the deterministic DOALL checker
    /// (`validate_parallel`); empty means the certifications held.
    pub races: Vec<String>,
}

/// Runtime errors.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeError(pub String);

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: {}", self.0)
    }
}

impl std::error::Error for RuntimeError {}

pub fn err<T>(msg: impl Into<String>) -> Result<T, RuntimeError> {
    Err(RuntimeError(msg.into()))
}

/// Deepest activation either engine enters: the main program is depth
/// 0, and each CALL or function reference is one deeper than its
/// caller. Fortran 77 has no recursion, and both engines recurse on the
/// native stack per activation, so runaway recursion must end as a
/// runtime error before it overflows a thread's stack. 64 activations
/// take under 1 MiB of stack in an unoptimized build (about 11 KiB
/// each on the VM, 9 KiB on the tree walk, without nested blocks), so
/// the bound holds on a 2 MiB thread.
pub const MAX_CALL_DEPTH: u32 = 64;

/// The error both engines raise when entering `unit` at `depth` would
/// pass [`MAX_CALL_DEPTH`].
pub fn check_call_depth(depth: u32, unit: &str) -> RunResult<()> {
    if depth > MAX_CALL_DEPTH {
        return err(format!(
            "call depth exceeds {MAX_CALL_DEPTH} entering {unit}"
        ));
    }
    Ok(())
}

pub type RunResult<T> = Result<T, RuntimeError>;

pub fn zero_of(ty: Type) -> Value {
    match ty {
        Type::Integer => Value::Int(0),
        Type::Real | Type::DoublePrecision => Value::Real(0.0),
        Type::Logical => Value::Logical(false),
        Type::Character => Value::Str(String::new()),
    }
}

pub fn proto_of(ty: Type) -> Cell {
    match ty {
        Type::Integer => Cell::I(0),
        Type::Logical => Cell::L(false),
        _ => Cell::R(0.0),
    }
}

pub fn identity_of(op: ped_analysis::reductions::ReduceOp, current: Option<&Value>) -> Value {
    use ped_analysis::reductions::ReduceOp::*;
    let is_int = matches!(current, Some(Value::Int(_)));
    match (op, is_int) {
        (Sum, true) => Value::Int(0),
        (Sum, false) => Value::Real(0.0),
        (Product, true) => Value::Int(1),
        (Product, false) => Value::Real(1.0),
        (Max, true) => Value::Int(i64::MIN),
        (Max, false) => Value::Real(f64::NEG_INFINITY),
        (Min, true) => Value::Int(i64::MAX),
        (Min, false) => Value::Real(f64::INFINITY),
    }
}

pub fn combine(op: ped_analysis::reductions::ReduceOp, a: &Value, b: &Value) -> RunResult<Value> {
    use ped_analysis::reductions::ReduceOp::*;
    match op {
        Sum => eval_binop(BinOp::Add, a.clone(), b.clone()),
        Product => eval_binop(BinOp::Mul, a.clone(), b.clone()),
        Max => eval_intrinsic("MAX", &[a.clone(), b.clone()]),
        Min => eval_intrinsic("MIN", &[a.clone(), b.clone()]),
    }
}

pub fn eval_binop(op: BinOp, a: Value, b: Value) -> RunResult<Value> {
    use BinOp::*;
    match op {
        And | Or => {
            let (x, y) = match (a.as_bool(), b.as_bool()) {
                (Some(x), Some(y)) => (x, y),
                _ => return err("logical operator on non-logical"),
            };
            Ok(Value::Logical(if op == And { x && y } else { x || y }))
        }
        Lt | Le | Gt | Ge | Eq | Ne => {
            let (x, y) = match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => (x, y),
                _ => match (&a, &b) {
                    (Value::Logical(x), Value::Logical(y)) => {
                        return Ok(Value::Logical(match op {
                            Eq => x == y,
                            Ne => x != y,
                            _ => return err("ordering on logicals"),
                        }))
                    }
                    _ => return err("comparison on non-numeric"),
                },
            };
            Ok(Value::Logical(match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                Eq => x == y,
                Ne => x != y,
                _ => unreachable!(),
            }))
        }
        Add | Sub | Mul | Div | Pow => match (a, b) {
            (Value::Int(x), Value::Int(y)) => Ok(match op {
                Add => Value::Int(x + y),
                Sub => Value::Int(x - y),
                Mul => Value::Int(x * y),
                Div => {
                    if y == 0 {
                        return err("integer division by zero");
                    }
                    Value::Int(x / y)
                }
                Pow => {
                    if (0..63).contains(&y) {
                        Value::Int(x.pow(y as u32))
                    } else {
                        Value::Real((x as f64).powf(y as f64))
                    }
                }
                _ => unreachable!(),
            }),
            (a, b) => {
                let (x, y) = match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => (x, y),
                    _ => return err("arithmetic on non-numeric"),
                };
                Ok(Value::Real(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    Pow => x.powf(y),
                    _ => unreachable!(),
                }))
            }
        },
    }
}

pub fn eval_intrinsic(name: &str, args: &[Value]) -> RunResult<Value> {
    let f1 = |f: fn(f64) -> f64| -> RunResult<Value> {
        args.first()
            .and_then(|v| v.as_f64())
            .map(|x| Value::Real(f(x)))
            .ok_or_else(|| RuntimeError(format!("{name}: bad argument")))
    };
    match name.to_ascii_uppercase().as_str() {
        "ABS" | "DABS" => match args.first() {
            Some(Value::Int(v)) => Ok(Value::Int(v.abs())),
            Some(v) => v
                .as_f64()
                .map(|x| Value::Real(x.abs()))
                .ok_or_else(|| RuntimeError("ABS: bad argument".into())),
            None => err("ABS: missing argument"),
        },
        "IABS" => args
            .first()
            .and_then(|v| v.as_int())
            .map(Value::Int)
            .ok_or_else(|| RuntimeError("IABS: bad argument".into()))
            .map(|v| match v {
                Value::Int(x) => Value::Int(x.abs()),
                v => v,
            }),
        "SQRT" | "DSQRT" => f1(f64::sqrt),
        "EXP" | "DEXP" => f1(f64::exp),
        "LOG" | "DLOG" => f1(f64::ln),
        "SIN" => f1(f64::sin),
        "COS" => f1(f64::cos),
        "TAN" => f1(f64::tan),
        "ATAN" => f1(f64::atan),
        "INT" | "NINT" => args
            .first()
            .and_then(|v| v.as_f64())
            .map(|x| {
                Value::Int(if name.eq_ignore_ascii_case("NINT") {
                    x.round() as i64
                } else {
                    x.trunc() as i64
                })
            })
            .ok_or_else(|| RuntimeError("INT: bad argument".into())),
        "REAL" | "FLOAT" | "DBLE" => args
            .first()
            .and_then(|v| v.as_f64())
            .map(Value::Real)
            .ok_or_else(|| RuntimeError("REAL: bad argument".into())),
        "MAX" | "AMAX1" | "MAX0" | "DMAX1" => fold_minmax(args, true),
        "MIN" | "AMIN1" | "MIN0" | "DMIN1" => fold_minmax(args, false),
        "MOD" => match (args.first(), args.get(1)) {
            (Some(Value::Int(a)), Some(Value::Int(b))) if *b != 0 => Ok(Value::Int(a % b)),
            (Some(a), Some(b)) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) if y != 0.0 => Ok(Value::Real(x % y)),
                _ => err("MOD: bad arguments"),
            },
            _ => err("MOD: missing arguments"),
        },
        "SIGN" => match (
            args.first().and_then(|v| v.as_f64()),
            args.get(1).and_then(|v| v.as_f64()),
        ) {
            (Some(a), Some(b)) => Ok(Value::Real(a.abs() * if b < 0.0 { -1.0 } else { 1.0 })),
            _ => err("SIGN: bad arguments"),
        },
        "DIM" => match (
            args.first().and_then(|v| v.as_f64()),
            args.get(1).and_then(|v| v.as_f64()),
        ) {
            (Some(a), Some(b)) => Ok(Value::Real((a - b).max(0.0))),
            _ => err("DIM: bad arguments"),
        },
        other => err(format!("unimplemented intrinsic {other}")),
    }
}

pub fn fold_minmax(args: &[Value], max: bool) -> RunResult<Value> {
    if args.is_empty() {
        return err("MAX/MIN: no arguments");
    }
    let all_int = args.iter().all(|v| matches!(v, Value::Int(_)));
    if all_int {
        let it = args.iter().filter_map(|v| v.as_int());
        Ok(Value::Int(if max {
            it.max().unwrap()
        } else {
            it.min().unwrap()
        }))
    } else {
        let mut acc: Option<f64> = None;
        for v in args {
            let x = v
                .as_f64()
                .ok_or_else(|| RuntimeError("MAX/MIN: bad argument".into()))?;
            acc = Some(match acc {
                None => x,
                Some(a) => {
                    if max {
                        a.max(x)
                    } else {
                        a.min(x)
                    }
                }
            });
        }
        Ok(Value::Real(acc.unwrap()))
    }
}

/// Evaluate dimension declarators that must be compile-time constant
/// (COMMON arrays).
pub fn eval_dims(dims: &[DimBound], st: &SymbolTable) -> RunResult<Vec<(i64, i64)>> {
    dims.iter()
        .map(|d| {
            let lo = d
                .lower
                .as_int()
                .or_else(|| const_int(&d.lower, st))
                .ok_or_else(|| RuntimeError("COMMON array bound not constant".into()))?;
            let hi = d
                .upper
                .as_int()
                .or_else(|| const_int(&d.upper, st))
                .ok_or_else(|| RuntimeError("COMMON array bound not constant".into()))?;
            Ok((lo, hi))
        })
        .collect()
}

pub fn const_int(e: &Expr, st: &SymbolTable) -> Option<i64> {
    match e {
        Expr::Var(n) => st.const_int(n),
        _ => e.as_int(),
    }
}
