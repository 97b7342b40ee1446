//! # ped-interproc — interprocedural analysis for PED
//!
//! "One of the distinguishing features of PED's dependence information is
//! the incorporation of an extensive suite of interprocedural analysis
//! techniques" (§4.1): call graphs, flow-insensitive MOD/REF summaries,
//! flow-sensitive scalar and array KILL analysis, bounded regular section
//! summaries, interprocedural constants and global symbolic relations,
//! and the Composition Editor's cross-procedure consistency checks.

pub mod callgraph;
pub mod compose;
pub mod constants;
pub mod kill;
pub mod modref;
pub mod sections;
pub mod tables;

pub use callgraph::{CallGraph, CallSite};
pub use compose::{check as compose_check, ComposeIssue};
pub use constants::{global_symbolic_facts, propagate_constants, SeedMap};
pub use kill::{array_kills, full_kill_map, ArrayKills};
pub use modref::{analyze as modref_analyze, CallSiteEffects};
pub use sections::{analyze as sections_analyze, call_may_conflict, SectionMap, SectionSummary};
pub use tables::{par_map_units, ProgramFacts, ProgramTables};
