//! The per-program table set and the per-unit fan-out.
//!
//! Interprocedural MOD/REF, the global symbolic facts and each unit's
//! invariant relations all read the same three per-unit tables (symbols,
//! plain references, CFG). A [`ProgramTables`] builds them once per unit
//! and hands them out by unit index; [`ProgramFacts`] computes the
//! whole-program summaries from it once, so a pass over every unit no
//! longer rebuilds every other unit's tables for each one.
//!
//! The set is indexed by position, not by name or content fingerprint,
//! and it is only as exact as its owner keeps it: whoever mutates
//! `program.units[i]` must [`ProgramTables::rebuild`] entry `i` before
//! the set is read again. (A fingerprint key would be wrong here: unit
//! fingerprints omit statement ids and spans, which transforms mint and
//! reports print.)

use ped_analysis::defuse::EffectsMap;
use ped_analysis::refs::RefTable;
use ped_analysis::symbolic::SymbolicEnv;
use ped_analysis::{Cfg, UnitTables};
use ped_fortran::ast::Program;
use ped_fortran::symbols::SymbolTable;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Every unit's [`UnitTables`], in unit order. `Clone` bumps refcounts.
#[derive(Clone)]
pub struct ProgramTables {
    units: Vec<UnitTables>,
}

impl ProgramTables {
    pub fn build(program: &Program) -> ProgramTables {
        ProgramTables {
            units: program.units.iter().map(UnitTables::build).collect(),
        }
    }

    /// Rebuild entry `unit_idx` after `program.units[unit_idx]` changed.
    pub fn rebuild(&mut self, program: &Program, unit_idx: usize) {
        self.units[unit_idx] = UnitTables::build(&program.units[unit_idx]);
    }

    pub fn unit(&self, unit_idx: usize) -> &UnitTables {
        &self.units[unit_idx]
    }

    /// `(symbols, plain refs, cfg)` per unit, the shape
    /// [`crate::modref::analyze_from`] takes.
    pub fn triples(&self) -> Vec<(&SymbolTable, &RefTable, &Cfg)> {
        self.units
            .iter()
            .map(|t| (&*t.symbols, &*t.refs, &*t.cfg))
            .collect()
    }
}

/// One program's MOD/REF summaries and global symbolic facts, computed
/// once from its table set.
pub struct ProgramFacts {
    pub tables: ProgramTables,
    pub effects: EffectsMap,
    pub global: SymbolicEnv,
}

impl ProgramFacts {
    /// Build the table set, then the summaries from it.
    pub fn build(program: &Program) -> ProgramFacts {
        ProgramFacts::new(program, ProgramTables::build(program))
    }

    /// The summaries of `program`, whose units `tables` must describe.
    pub fn new(program: &Program, tables: ProgramTables) -> ProgramFacts {
        let effects = crate::modref::analyze_from(program, &tables.triples());
        let pairs: Vec<(&SymbolTable, &RefTable)> = tables
            .units
            .iter()
            .map(|t| (&*t.symbols, &*t.refs))
            .collect();
        let global = ped_analysis::global::global_symbolic_facts_from(program, &pairs);
        ProgramFacts {
            tables,
            effects,
            global,
        }
    }

    /// A unit's symbolic environment: the global facts plus the unit's
    /// own invariant relations.
    pub fn unit_env(&self, program: &Program, unit_idx: usize) -> SymbolicEnv {
        let t = self.tables.unit(unit_idx);
        let local = ped_analysis::symbolic::detect_invariant_relations(
            &program.units[unit_idx],
            &t.symbols,
            &t.refs,
            &t.cfg,
        );
        let mut env = self.global.clone();
        for (n, l) in local.subst {
            env.add_subst(n, l);
        }
        for (n, r) in local.ranges {
            env.add_range(n, r);
        }
        env
    }
}

/// `f` over unit indices `0..n`, on up to `threads` scoped workers that
/// take the next index as they finish. Results come back in unit order,
/// so the output is the same for any thread count.
pub fn par_map_units<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // The counter only hands out indices; results are published through
    // the slot mutexes and the scope's join, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let r = f(idx);
                *slots[idx]
                    .lock()
                    .expect("slot lock is never held across a panic") = Some(r);
            });
        }
    });
    // `scope` re-raises any worker panic, so every slot is filled here.
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock is never held across a panic")
                .expect("every unit index is taken once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_fortran::parser::parse_ok;

    #[test]
    fn par_map_units_keeps_unit_order() {
        let want: Vec<usize> = (0..10).map(|i| i * i).collect();
        for threads in [1, 3, 8] {
            assert_eq!(par_map_units(10, threads, |i| i * i), want);
        }
        assert!(par_map_units(0, 4, |i| i).is_empty());
    }

    #[test]
    fn facts_match_whole_program_functions() {
        let src = "      PROGRAM P\n      COMMON /C/ N, JM\n      N = 10\n      JM = N - 1\n      CALL S\n      END\n      SUBROUTINE S\n      COMMON /C/ N, JM\n      REAL A(100)\n      DO 10 I = 1, JM\n      A(I) = 0.0\n   10 CONTINUE\n      END\n";
        let p = parse_ok(src);
        let f = ProgramFacts::build(&p);
        let fx = crate::modref::analyze(&p);
        assert_eq!(fx.len(), f.effects.len());
        for (name, e) in &fx {
            let g = &f.effects[name];
            assert_eq!(
                (&g.mod_params, &g.ref_params),
                (&e.mod_params, &e.ref_params)
            );
            assert_eq!(
                (&g.mod_globals, &g.ref_globals),
                (&e.mod_globals, &e.ref_globals)
            );
            assert_eq!(
                (&g.kill_params, &g.kill_globals),
                (&e.kill_params, &e.kill_globals)
            );
        }
        let global = crate::global_symbolic_facts(&p);
        assert!(global.subst.contains_key("JM"));
        assert_eq!(f.global.fingerprint(), global.fingerprint());
    }
}
