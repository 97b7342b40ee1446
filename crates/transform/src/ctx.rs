//! Per-unit analysis bundle used by transformations.
//!
//! Transformations consult dependences, the loop tree and the marking
//! state to decide safety ("power steering": the system advises whether
//! the transformation is applicable, safe and profitable — §5.1). After
//! a transformation mutates the AST the bundle is stale; callers rebuild
//! it with [`UnitAnalysis::build`] or incrementally via
//! [`crate::update`].

use ped_analysis::defuse::{DefUse, EffectsMap};
use ped_analysis::loops::LoopNest;
use ped_analysis::refs::RefTable;
use ped_analysis::symbolic::SymbolicEnv;
use ped_analysis::{Cfg, ScalarFacts, UnitTables};
use ped_dependence::cache::PairCache;
use ped_dependence::graph::{BuildOptions, DepKind, DependenceGraph};
use ped_dependence::marking::{Mark, Marking};
use ped_fortran::ast::{ProcUnit, StmtId};
use ped_fortran::symbols::SymbolTable;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Everything the transformations need to reason about one unit.
///
/// The content-derived artifacts are `Arc`-shared so the bundle can be
/// assembled from a memoized [`ped_analysis::ScalarFacts`] without
/// copying (deref coercion keeps `&ua.symbols`-style call sites
/// unchanged); the graph, marking and environment depend on user state
/// and are owned. `Clone` bumps the `Arc`s and copies only the owned
/// user-state pieces — that is what makes session-snapshot publication
/// (the server's copy-on-write read path) cheap.
#[derive(Clone)]
pub struct UnitAnalysis {
    pub symbols: Arc<SymbolTable>,
    pub refs: Arc<RefTable>,
    pub nest: Arc<LoopNest>,
    pub cfg: Arc<Cfg>,
    pub defuse: Arc<DefUse>,
    pub graph: DependenceGraph,
    pub marking: Marking,
    pub env: SymbolicEnv,
}

impl UnitAnalysis {
    /// Build the bundle for a unit. `env` carries the symbolic facts
    /// (constants, relations, assertions); `effects` the interprocedural
    /// summaries, when available.
    pub fn build(unit: &ProcUnit, env: SymbolicEnv, effects: Option<&EffectsMap>) -> UnitAnalysis {
        Self::build_with(unit, env, effects, None)
    }

    /// Build, memoizing reference-pair dependence tests in `cache` so a
    /// rebuild after a localized edit only re-tests the pairs whose
    /// statements or enclosing loops changed.
    pub fn build_with(
        unit: &ProcUnit,
        env: SymbolicEnv,
        effects: Option<&EffectsMap>,
        cache: Option<&mut PairCache>,
    ) -> UnitAnalysis {
        let symbols = Arc::new(SymbolTable::build(unit));
        let refs = Arc::new(RefTable::build_with_effects(unit, &symbols, effects));
        let cfg = Arc::new(Cfg::build(unit));
        Self::assemble(unit, symbols, refs, cfg, env, effects, cache)
    }

    /// Build the bundle over a unit's already-built base tables (one
    /// entry of a program's shared table set). The symbol table and CFG
    /// are shared; the plain reference table stands in for the
    /// effects-aware one unless the unit has a `CALL` (the only
    /// statement effects change). Byte-identical to
    /// [`UnitAnalysis::build`] with the same environment and effects.
    pub fn from_tables(
        unit: &ProcUnit,
        tables: &UnitTables,
        env: SymbolicEnv,
        effects: Option<&EffectsMap>,
    ) -> UnitAnalysis {
        let refs = if effects.is_some() && ped_analysis::facts::has_call(unit) {
            Arc::new(RefTable::build_with_effects(unit, &tables.symbols, effects))
        } else {
            tables.refs.clone()
        };
        let (symbols, cfg) = (tables.symbols.clone(), tables.cfg.clone());
        Self::assemble(unit, symbols, refs, cfg, env, effects, None)
    }

    /// The loop nest, def-use chains, dependence graph and initial
    /// marking over given scalar tables.
    fn assemble(
        unit: &ProcUnit,
        symbols: Arc<SymbolTable>,
        refs: Arc<RefTable>,
        cfg: Arc<Cfg>,
        env: SymbolicEnv,
        effects: Option<&EffectsMap>,
        cache: Option<&mut PairCache>,
    ) -> UnitAnalysis {
        let nest = Arc::new(LoopNest::build(unit));
        let defuse = Arc::new(DefUse::build(unit, &symbols, &cfg, &refs, effects));
        let graph = DependenceGraph::build_full(
            unit,
            &symbols,
            &refs,
            &nest,
            Some(&cfg),
            &env,
            &BuildOptions::default(),
            cache,
        );
        let marking = Marking::initial(&graph);
        UnitAnalysis {
            symbols,
            refs,
            nest,
            cfg,
            defuse,
            graph,
            marking,
            env,
        }
    }

    /// Assemble the bundle from a memoized [`ScalarFacts`], sharing
    /// every content-derived artifact and building only the user-state
    /// pieces (dependence graph + marking). This is the warm path: a
    /// session whose unit content is unchanged pays zero scalar-analysis
    /// rebuilds here.
    pub fn build_from_facts(
        unit: &ProcUnit,
        facts: &ScalarFacts,
        env: SymbolicEnv,
        cache: Option<&mut PairCache>,
    ) -> UnitAnalysis {
        let graph = DependenceGraph::build_full(
            unit,
            &facts.symbols,
            &facts.refs,
            &facts.nest,
            Some(&facts.cfg),
            &env,
            &BuildOptions::default(),
            cache,
        );
        let marking = Marking::initial(&graph);
        UnitAnalysis {
            symbols: facts.symbols.clone(),
            refs: facts.refs.clone(),
            nest: facts.nest.clone(),
            cfg: facts.cfg.clone(),
            defuse: facts.defuse.clone(),
            graph,
            marking,
            env,
        }
    }

    /// Rebuild after an AST mutation, preserving user marks where the
    /// dependence still exists (match by src/sink statement + variable +
    /// level).
    pub fn rebuild(&mut self, unit: &ProcUnit) {
        let old_graph = std::mem::take(&mut self.graph);
        let old_marking = std::mem::take(&mut self.marking);
        self.symbols = Arc::new(SymbolTable::build(unit));
        self.refs = Arc::new(RefTable::build(unit, &self.symbols));
        self.nest = Arc::new(LoopNest::build(unit));
        self.cfg = Arc::new(Cfg::build(unit));
        self.defuse = Arc::new(DefUse::build(
            unit,
            &self.symbols,
            &self.cfg,
            &self.refs,
            None,
        ));
        self.graph = DependenceGraph::build(
            unit,
            &self.symbols,
            &self.refs,
            &self.nest,
            &self.env,
            &BuildOptions::default(),
        );
        self.marking = Marking::initial(&self.graph);
        carry_user_marks(
            &old_graph,
            &old_marking,
            &self.graph,
            &mut self.marking,
            None,
        );
    }

    /// Active (non-rejected) loop-carried data dependences of a loop.
    pub fn active_inhibitors(
        &self,
        l: ped_analysis::loops::LoopId,
    ) -> Vec<&ped_dependence::graph::Dependence> {
        self.graph
            .parallelism_inhibitors(l)
            .filter(|d| self.marking.is_active(d.id))
            .collect()
    }
}

/// Carry user `Accepted`/`Rejected` marks from an old graph onto a newly
/// built one, matching dependences by (src stmt, sink stmt, variable,
/// level, kind). One hash map over the old deps, one lookup per new dep —
/// O(old + new), not O(old × new). New dependences with an endpoint in
/// `skip` never inherit (used by the incremental updater for the edited
/// region, whose dependences may have genuinely changed meaning).
pub fn carry_user_marks(
    old_graph: &DependenceGraph,
    old_marking: &Marking,
    new_graph: &DependenceGraph,
    new_marking: &mut Marking,
    skip: Option<&HashSet<StmtId>>,
) {
    type Key<'a> = (StmtId, StmtId, &'a str, Option<u32>, DepKind);
    let mut marks: HashMap<Key, (Mark, Option<String>)> = HashMap::new();
    for old in &old_graph.deps {
        let m = old_marking.mark_of(old.id);
        if matches!(m, Mark::Accepted | Mark::Rejected) {
            marks.insert(
                (
                    old.src_stmt,
                    old.sink_stmt,
                    old.var.as_str(),
                    old.level,
                    old.kind,
                ),
                (m, old_marking.reason_of(old.id).map(|s| s.to_string())),
            );
        }
    }
    if marks.is_empty() {
        return;
    }
    for new in &new_graph.deps {
        if let Some(skip) = skip {
            if skip.contains(&new.src_stmt) || skip.contains(&new.sink_stmt) {
                continue;
            }
        }
        let key = (
            new.src_stmt,
            new.sink_stmt,
            new.var.as_str(),
            new.level,
            new.kind,
        );
        if let Some((m, reason)) = marks.get(&key) {
            let _ = new_marking.set(new.id, *m, reason.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ped_dependence::marking::Mark;
    use ped_fortran::parser::parse_ok;

    #[test]
    fn build_and_query() {
        let p = parse_ok(
            "      REAL A(100)\n      DO 10 I = 2, N\n      A(I) = A(I-1)\n   10 CONTINUE\n      END\n",
        );
        let ua = UnitAnalysis::build(&p.units[0], SymbolicEnv::new(), None);
        assert_eq!(ua.nest.len(), 1);
        assert!(!ua.active_inhibitors(ua.nest.roots[0]).is_empty());
    }

    #[test]
    fn rebuild_preserves_user_marks() {
        let p = parse_ok(
            "      INTEGER IX(100)\n      REAL A(100)\n      DO 10 I = 1, N\n      A(IX(I)) = A(IX(I)) + 1.0\n   10 CONTINUE\n      END\n",
        );
        let mut ua = UnitAnalysis::build(&p.units[0], SymbolicEnv::new(), None);
        let dep = ua
            .graph
            .deps
            .iter()
            .find(|d| d.var == "A" && d.level.is_some())
            .unwrap()
            .id;
        ua.marking
            .set(dep, Mark::Rejected, Some("permutation".into()))
            .unwrap();
        let before = ua.active_inhibitors(ua.nest.roots[0]).len();
        ua.rebuild(&p.units[0]); // no AST change: marks must survive
        let after = ua.active_inhibitors(ua.nest.roots[0]).len();
        assert_eq!(before, after);
        assert!(ua
            .graph
            .deps
            .iter()
            .any(|d| ua.marking.mark_of(d.id) == Mark::Rejected));
    }
}
