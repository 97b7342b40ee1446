//! The static cost model.

use ped_analysis::constprop::{CVal, Constants};
use ped_analysis::loops::{LoopId, LoopNest};
use ped_analysis::Cfg;
use ped_fortran::ast::*;
use ped_fortran::symbols::SymbolTable;
use std::collections::HashMap;

/// Tunable operation costs (arbitrary "cycle" units; only relative
/// magnitudes matter for navigation).
#[derive(Clone, Debug)]
pub struct CostModel {
    pub arith: f64,
    pub memory: f64,
    pub branch: f64,
    pub intrinsic: f64,
    pub call_overhead: f64,
    /// Assumed trip count for loops whose bounds cannot be folded.
    pub default_trip: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            arith: 1.0,
            memory: 2.0,
            branch: 2.0,
            intrinsic: 8.0,
            call_overhead: 10.0,
            default_trip: 100.0,
        }
    }
}

/// Estimated cost of one loop.
#[derive(Clone, Debug)]
pub struct LoopCost {
    pub id: LoopId,
    pub stmt: StmtId,
    pub var: String,
    pub level: u32,
    /// Cost of a single iteration (body only).
    pub per_iteration: f64,
    /// Estimated trip count.
    pub trips: f64,
    /// Total = per_iteration × trips × enclosing trip product.
    pub total: f64,
}

/// Estimated cost of one unit.
#[derive(Clone, Debug)]
pub struct UnitCost {
    pub name: String,
    /// One invocation of the unit.
    pub per_call: f64,
    pub loops: Vec<LoopCost>,
}

/// Whole-program estimate.
#[derive(Clone, Debug)]
pub struct ProgramCost {
    pub units: Vec<UnitCost>,
    /// Total cost of the main unit (transitively including calls).
    pub main_total: f64,
}

impl ProgramCost {
    pub fn unit(&self, name: &str) -> Option<&UnitCost> {
        self.units
            .iter()
            .find(|u| u.name.eq_ignore_ascii_case(name))
    }
}

/// Estimate every unit bottom-up so call sites can charge callee costs.
pub fn estimate_program(program: &Program, model: &CostModel) -> ProgramCost {
    // Two passes handle forward references (recursion converges to the
    // second-pass value with recursive calls charged at overhead only).
    // Only the callee costs change between passes; each unit's tables
    // are built once.
    let inputs: Vec<CostInputs> = program.units.iter().map(CostInputs::build).collect();
    let mut unit_costs: HashMap<String, f64> = HashMap::new();
    let mut result = Vec::new();
    for _pass in 0..2 {
        result.clear();
        for (u, t) in program.units.iter().zip(&inputs) {
            let uc = t.estimate(u, model, &unit_costs);
            unit_costs.insert(u.name.to_ascii_uppercase(), uc.per_call);
            result.push(uc);
        }
    }
    let main_total = program
        .main()
        .and_then(|m| unit_costs.get(&m.name.to_ascii_uppercase()))
        .copied()
        .unwrap_or(0.0);
    ProgramCost {
        units: result,
        main_total,
    }
}

/// Estimate one unit given the (possibly partial) costs of callees.
pub fn estimate_unit(
    unit: &ProcUnit,
    model: &CostModel,
    callee_costs: &HashMap<String, f64>,
) -> UnitCost {
    CostInputs::build(unit).estimate(unit, model, callee_costs)
}

/// The per-unit tables the cost model reads (built once per unit).
struct CostInputs {
    symbols: SymbolTable,
    consts: Constants,
    nest: LoopNest,
}

impl CostInputs {
    fn build(unit: &ProcUnit) -> CostInputs {
        let symbols = SymbolTable::build(unit);
        let cfg = Cfg::build(unit);
        let consts = Constants::build(unit, &symbols, &cfg, None);
        CostInputs {
            symbols,
            consts,
            nest: LoopNest::build(unit),
        }
    }

    fn estimate(
        &self,
        unit: &ProcUnit,
        model: &CostModel,
        callee_costs: &HashMap<String, f64>,
    ) -> UnitCost {
        let mut loops = Vec::new();
        let per_call = block_cost(
            &unit.body,
            model,
            &self.symbols,
            &self.consts,
            callee_costs,
            &self.nest,
            1.0,
            &mut loops,
        );
        UnitCost {
            name: unit.name.to_ascii_uppercase(),
            per_call,
            loops,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn block_cost(
    body: &[Stmt],
    model: &CostModel,
    symbols: &SymbolTable,
    consts: &Constants,
    callees: &HashMap<String, f64>,
    nest: &LoopNest,
    outer_factor: f64,
    loops: &mut Vec<LoopCost>,
) -> f64 {
    let mut total = 0.0;
    for s in body {
        total += stmt_cost(
            s,
            model,
            symbols,
            consts,
            callees,
            nest,
            outer_factor,
            loops,
        );
    }
    total
}

#[allow(clippy::too_many_arguments)]
fn stmt_cost(
    s: &Stmt,
    model: &CostModel,
    symbols: &SymbolTable,
    consts: &Constants,
    callees: &HashMap<String, f64>,
    nest: &LoopNest,
    outer_factor: f64,
    loops: &mut Vec<LoopCost>,
) -> f64 {
    match &s.kind {
        StmtKind::Assign { lhs, rhs } => {
            let mut c = expr_cost(rhs, model, symbols, callees);
            for e in lhs.subs() {
                c += expr_cost(e, model, symbols, callees);
            }
            c + model.memory
        }
        StmtKind::Do {
            lo, hi, step, body, ..
        } => {
            let trips = trip_estimate(s.id, lo, hi, step.as_ref(), consts, model);
            let per_iter = block_cost(
                body,
                model,
                symbols,
                consts,
                callees,
                nest,
                outer_factor * trips,
                loops,
            );
            let total = per_iter * trips;
            if let Some(info) = nest.by_stmt(s.id) {
                loops.push(LoopCost {
                    id: info.id,
                    stmt: s.id,
                    var: info.var.clone(),
                    level: info.level,
                    per_iteration: per_iter,
                    trips,
                    total: total * outer_factor,
                });
            }
            total + model.branch * trips
        }
        StmtKind::If { arms, else_body } => {
            // Charge the test plus the average arm.
            let mut c = 0.0;
            let mut n = 0.0;
            for (cond, b) in arms {
                c += expr_cost(cond, model, symbols, callees) + model.branch;
                c += block_cost(
                    b,
                    model,
                    symbols,
                    consts,
                    callees,
                    nest,
                    outer_factor,
                    loops,
                );
                n += 1.0;
            }
            if let Some(b) = else_body {
                c += block_cost(
                    b,
                    model,
                    symbols,
                    consts,
                    callees,
                    nest,
                    outer_factor,
                    loops,
                );
                n += 1.0;
            }
            if n > 1.0 {
                c / n + model.branch
            } else {
                c
            }
        }
        StmtKind::LogicalIf { cond, then } => {
            expr_cost(cond, model, symbols, callees)
                + model.branch
                + 0.5
                    * stmt_cost(
                        then,
                        model,
                        symbols,
                        consts,
                        callees,
                        nest,
                        outer_factor,
                        loops,
                    )
        }
        StmtKind::ArithIf { expr, .. } => expr_cost(expr, model, symbols, callees) + model.branch,
        StmtKind::Goto(_) | StmtKind::ComputedGoto { .. } => model.branch,
        StmtKind::Call { name, args } => {
            let mut c = model.call_overhead;
            for a in args {
                c += expr_cost(a, model, symbols, callees);
            }
            c + callees
                .get(&name.to_ascii_uppercase())
                .copied()
                .unwrap_or(model.call_overhead)
        }
        StmtKind::Read { items } => model.memory * items.len() as f64,
        StmtKind::Write { items } => model.memory * items.len() as f64,
        StmtKind::Continue | StmtKind::Return | StmtKind::Stop | StmtKind::Opaque(_) => 0.0,
    }
}

fn expr_cost(
    e: &Expr,
    model: &CostModel,
    symbols: &SymbolTable,
    callees: &HashMap<String, f64>,
) -> f64 {
    match e {
        Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) | Expr::Str(_) => 0.0,
        Expr::Var(_) => model.memory * 0.5,
        Expr::Index { name, subs } => {
            let inner: f64 = subs
                .iter()
                .map(|x| expr_cost(x, model, symbols, callees))
                .sum();
            if symbols.is_array(name) {
                inner + model.memory
            } else if ped_fortran::symbols::is_intrinsic(name) {
                inner + model.intrinsic
            } else {
                inner
                    + model.call_overhead
                    + callees
                        .get(&name.to_ascii_uppercase())
                        .copied()
                        .unwrap_or(0.0)
            }
        }
        Expr::Call { name, args } => {
            let inner: f64 = args
                .iter()
                .map(|x| expr_cost(x, model, symbols, callees))
                .sum();
            if ped_fortran::symbols::is_intrinsic(name) {
                inner + model.intrinsic
            } else {
                inner
                    + model.call_overhead
                    + callees
                        .get(&name.to_ascii_uppercase())
                        .copied()
                        .unwrap_or(0.0)
            }
        }
        Expr::Bin { op, l, r } => {
            let base = if *op == BinOp::Pow || *op == BinOp::Div {
                model.arith * 4.0
            } else {
                model.arith
            };
            base + expr_cost(l, model, symbols, callees) + expr_cost(r, model, symbols, callees)
        }
        Expr::Un { e, .. } => model.arith * 0.5 + expr_cost(e, model, symbols, callees),
    }
}

fn trip_estimate(
    stmt: StmtId,
    lo: &Expr,
    hi: &Expr,
    step: Option<&Expr>,
    consts: &Constants,
    model: &CostModel,
) -> f64 {
    let lo_v = consts.fold_at(stmt, lo).and_then(CVal::as_int);
    let hi_v = consts.fold_at(stmt, hi).and_then(CVal::as_int);
    let step_v = match step {
        None => Some(1),
        Some(e) => consts.fold_at(stmt, e).and_then(CVal::as_int),
    };
    match (lo_v, hi_v, step_v) {
        (Some(l), Some(h), Some(st)) if st != 0 => (((h - l + st) / st).max(0)) as f64,
        _ => model.default_trip,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parser::parse_ok;

    fn estimate(src: &str) -> ProgramCost {
        estimate_program(&parse_ok(src), &CostModel::default())
    }

    #[test]
    fn constant_trip_counts_folded() {
        let src = "      REAL A(100)\n      DO 10 I = 1, 100\n      A(I) = 0.0\n   10 CONTINUE\n      END\n";
        let pc = estimate(src);
        let u = &pc.units[0];
        assert_eq!(u.loops.len(), 1);
        assert_eq!(u.loops[0].trips, 100.0);
    }

    #[test]
    fn parameter_bounds_folded() {
        let src = "      PARAMETER (N = 64)\n      REAL A(N)\n      DO 10 I = 1, N\n      A(I) = 0.0\n   10 CONTINUE\n      END\n";
        let pc = estimate(src);
        assert_eq!(pc.units[0].loops[0].trips, 64.0);
    }

    #[test]
    fn symbolic_bounds_use_default() {
        let src = "      REAL A(100)\n      DO 10 I = 1, N\n      A(I) = 0.0\n   10 CONTINUE\n      END\n";
        let pc = estimate(src);
        assert_eq!(
            pc.units[0].loops[0].trips,
            CostModel::default().default_trip
        );
    }

    #[test]
    fn nested_loops_multiply() {
        let src = "      REAL A(10,20)\n      DO 10 I = 1, 10\n      DO 20 J = 1, 20\n      A(I,J) = 0.0\n   20 CONTINUE\n   10 CONTINUE\n      END\n";
        let pc = estimate(src);
        let u = &pc.units[0];
        let outer = u.loops.iter().find(|l| l.var == "I").unwrap();
        let inner = u.loops.iter().find(|l| l.var == "J").unwrap();
        // Inner total (including the outer factor) ≈ outer total.
        assert!(inner.total <= outer.total);
        assert!(inner.total > 0.5 * outer.total);
        assert_eq!(inner.trips, 20.0);
    }

    #[test]
    fn call_sites_charge_callee() {
        let src = "      PROGRAM MAIN\n      CALL HEAVY\n      CALL LIGHT\n      END\n      SUBROUTINE HEAVY\n      REAL A(1000)\n      DO 10 I = 1, 1000\n      A(I) = SQRT(REAL(I))\n   10 CONTINUE\n      RETURN\n      END\n      SUBROUTINE LIGHT\n      X = 1.0\n      RETURN\n      END\n";
        let pc = estimate(src);
        let heavy = pc.unit("HEAVY").unwrap().per_call;
        let light = pc.unit("LIGHT").unwrap().per_call;
        assert!(heavy > 100.0 * light, "heavy={heavy} light={light}");
        // Main includes both.
        assert!(pc.main_total > heavy);
    }

    #[test]
    fn main_total_positive() {
        let pc = estimate("      X = 1.0 + 2.0\n      END\n");
        assert!(pc.main_total > 0.0);
    }
}
