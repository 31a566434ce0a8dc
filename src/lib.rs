//! # tie-breaking-datalog
//!
//! A complete Rust reproduction of Papadimitriou & Yannakakis,
//! *"Tie-Breaking Semantics and Structural Totality"*
//! (PODS 1992; JCSS 54, 1997): a Datalog-with-negation engine with
//!
//! * the **well-founded** interpreter (§2),
//! * the **pure** and **well-founded tie-breaking** interpreters (§3)
//!   with pluggable tie policies,
//! * fixpoint (supported-model) and stable-model checkers and exhaustive
//!   enumerators,
//! * stratified and perfect-model evaluation,
//! * the paper's structural analyses — program graph, stratification,
//!   **structural totality** (Theorem 2), useless predicates and the
//!   reduced program (Theorem 3), bounded totality oracles (§5),
//! * every proof construction as executable code: alphabetic variants,
//!   the monotone-circuit P-completeness reduction (Theorem 4), 2-counter
//!   machines and the undecidability reduction (Theorem 6), and the
//!   ∀∃-SAT Π₂ᵖ reduction (§5 Proposition).
//!
//! ## Quickstart
//!
//! ```
//! use tie_breaking_datalog::prelude::*;
//!
//! // The paper's archetypal structurally-total, unstratifiable program,
//! // prepared once by the session solver: ground, close, condense.
//! let solver = Solver::from_sources(
//!     "p(X) :- not q(X).\n q(X) :- not p(X).",
//!     "e(a).",
//! ).unwrap();
//!
//! let report = analyze(solver.program(), Some(solver.database()), &AnalyzeConfig::default());
//! assert_eq!(
//!     report.certificate.map(|c| c.grade),
//!     Some(CertificateGrade::CallConsistent) // Theorem 2
//! );
//! assert!(report.nonuniformly_total); // Theorem 3
//! let out = solver.well_founded_tie_breaking(&mut RootTruePolicy).unwrap();
//! assert!(out.total);
//! ```
//!
//! The crates re-exported here can also be used individually:
//! [`ast`] (language front-end), [`graph`] (signed graphs and ties),
//! [`ground`] (ground graphs and `close`), [`core`] (semantics and
//! analyses), [`analyze`] (the one static analyzer, behind `datalog check`:
//! safety lints, totality certificates, the Theorem 3 verdict, grounding
//! cost estimates),
//! [`runtime`] (the session solver: ground once, close once, serve many
//! evaluations), [`trace`] (structured tracing and metrics
//! across every layer), and [`constructions`] (reductions and
//! generators).

pub use datalog_analyze as analyze;
pub use datalog_ast as ast;
pub use datalog_ground as ground;
pub use paper_constructions as constructions;
pub use signed_graph as graph;
pub use tiebreak_core as core;
pub use tiebreak_runtime as runtime;
pub use tiebreak_trace as trace;

/// The most commonly used items in one import.
pub mod prelude {
    pub use datalog_analyze::{
        analyze, AnalysisReport, AnalyzeConfig, CertificateGrade, Lint, LintCode, Severity,
        TotalityCertificate,
    };
    pub use datalog_ast::{
        parse_database, parse_program, Atom, Database, GroundAtom, Literal, Program,
        ProgramBuilder, Rule, Term,
    };
    pub use datalog_ground::{ground, GroundConfig, GroundMode, PartialModel, TruthValue};
    pub use tiebreak_core::analysis::{
        stratify, structural_nonuniform_totality, structural_totality, useless_predicates,
    };
    pub use tiebreak_core::semantics::{
        pure_tie_breaking, well_founded, well_founded_tie_breaking, RandomPolicy, RootFalsePolicy,
        RootTruePolicy, ScriptedPolicy, TiePolicy,
    };
    pub use tiebreak_core::{EngineConfig, EvalOptions, Mutation, PrepareDelta};
    pub use tiebreak_runtime::Solver;
    pub use tiebreak_trace::{metrics, MetricsSnapshot, Trace};
}
