//! The paper's contribution: tie-breaking semantics and structural
//! totality for Datalog with negation.
//!
//! This crate implements, on top of the `datalog-ast` / `signed-graph` /
//! `datalog-ground` substrates:
//!
//! **Interpreters** ([`semantics`]):
//! * [`semantics::well_founded()`] — Algorithm Well-Founded (paper §2),
//! * [`semantics::pure_tie_breaking`] — Algorithm Pure Tie-Breaking (§3),
//! * [`semantics::well_founded_tie_breaking`] — Algorithm Well-Founded
//!   Tie-Breaking (§3), with pluggable [`semantics::TiePolicy`] choices,
//! * [`semantics::stratified`] — level-by-level least fixpoints via a
//!   semi-naive engine, for stratified programs,
//! * [`semantics::perfect`] — Przymusinski's perfect model for locally
//!   stratified programs,
//! * checkers and enumerators for **fixpoints** (supported models) and
//!   **stable models** ([`semantics::fixpoint`], [`semantics::stable`],
//!   [`semantics::enumerate`]).
//!
//! **Analyses** ([`analysis`]):
//! * the signed program graph *G(Π)* ([`analysis::program_graph`]),
//! * stratification (Theorem 5's boundary), with odd/negative cycle
//!   witnesses,
//! * **structural totality** — Theorem 2: *G(Π)* odd-cycle-free — and its
//!   nonuniform refinement via useless predicates and the reduced program
//!   Π′ — Theorem 3 ([`analysis::structural`], [`analysis::useless`]),
//! * local stratification on the ground graph ([`analysis::local_strat`]),
//! * brute-force **totality oracles** on bounded instance spaces
//!   ([`analysis::totality`]) — the undecidable property (Theorem 6),
//!   decided exhaustively where that is possible.
//!
//! These analyses are the building blocks; the one program-level report
//! over them (certificates, Theorem 3 verdict, lints) is the
//! `datalog-analyze` crate's, behind `datalog check`.
//!
//! The production evaluator is the `tiebreak-runtime` crate's `Solver`:
//! it grounds, closes and condenses once and walks the condensation with
//! this crate's kernel ([`semantics::process_components`]), configured by
//! [`EngineConfig`] ([`engine`]). The paper-literal interpreters above are
//! the references it is checked against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod engine;
pub mod semantics;

pub use datalog_ground::{GroundConfig, GroundMode};
pub use engine::{EngineConfig, Mutation, PrepareDelta, RuntimeConfig};
pub use semantics::{
    EvalOptions, InterpreterRun, RandomPolicy, RootFalsePolicy, RootTruePolicy, RunStats,
    ScriptedPolicy, SemanticsError, TiePolicy, TieView,
};
