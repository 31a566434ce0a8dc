//! The interpreters and model-theoretic checkers.

pub mod alternating;
pub mod enumerate;
pub mod fixpoint;
pub mod outcomes;
pub mod perfect;
pub mod reduct;
pub mod scc_stratified;
pub mod seminaive;
pub mod stable;
pub mod stratified;
pub mod tie_breaking;
pub mod well_founded;

use std::fmt;

use datalog_ground::{AtomId, CloseConflict, GroundError, PartialModel};

pub use scc_stratified::{process_components, ComponentPass};
pub use tie_breaking::{
    pure_tie_breaking, pure_tie_breaking_with, well_founded_tie_breaking,
    well_founded_tie_breaking_with, RandomPolicy, RootFalsePolicy, RootTruePolicy, ScriptedPolicy,
    TiePolicy, TieView,
};
pub use well_founded::{well_founded, well_founded_with};

/// Per-run evaluation knobs shared by the `*_with` interpreters.
///
/// The `*_with` entry points ([`well_founded_with`],
/// [`pure_tie_breaking_with`], [`well_founded_tie_breaking_with`],
/// [`outcomes::all_outcomes_with`]) always run the condensation-driven
/// interpreter of [`scc_stratified`]. The paper-literal global loops and
/// the per-script enumerator over them are reached only through the
/// plain names ([`well_founded()`], [`pure_tie_breaking()`],
/// [`well_founded_tie_breaking()`], [`outcomes::all_outcomes`]): they are
/// the paper-exact references the differential suites check the `*_with`
/// interpreters against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalOptions {
    /// Record per-event details in [`RunStats`] (`tie_log`,
    /// `component_rounds`). Off by default: large enumerations would
    /// otherwise grow the logs without bound; the scalar counters
    /// (`ties_broken`, `components_processed`, …) are always kept.
    pub detailed_stats: bool,
    /// The program carries a stratification-grade totality certificate
    /// (see the `datalog-analyze` crate): the well-founded model is total
    /// and unique, so no tie can ever fire. When set, the wf-tb
    /// interpreters skip the tie-policy machinery entirely and run the
    /// plain well-founded path — bit-identical results, none of the
    /// tie-bookkeeping cost. Certificates are the analyzer's to issue;
    /// setting this on an uncertified program degrades wf-tb back to
    /// plain wf (ties would surface as a partial model, not be broken).
    pub certified_total: bool,
}

/// Statistics collected by an interpreter run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of `close` fixpoint rounds (external-assignment batches).
    pub close_rounds: usize,
    /// Number of nonempty unfounded sets falsified.
    pub unfounded_rounds: usize,
    /// Number of ties broken.
    pub ties_broken: usize,
    /// Residual components visited (0 for the paper-literal global
    /// loops, which do not condense).
    pub components_processed: usize,
    /// Largest number of unfounded/tie rounds any single component needed
    /// (0 for the paper-literal global loops).
    pub max_component_rounds: usize,
    /// Per-component round counts in processing order. Recorded only when
    /// [`EvalOptions::detailed_stats`] is set.
    pub component_rounds: Vec<usize>,
    /// Per broken tie: `(|K|, |L|, root_side_true)` where K is the side
    /// containing the spanning-tree root. Recorded only when
    /// [`EvalOptions::detailed_stats`] is set; `ties_broken` always
    /// carries the count.
    pub tie_log: Vec<(usize, usize, bool)>,
}

impl RunStats {
    /// Records one broken tie (the log entry only when `detailed`).
    pub(crate) fn record_tie(&mut self, k: usize, l: usize, root_true: bool, detailed: bool) {
        if detailed {
            self.tie_log.push((k, l, root_true));
        }
        self.ties_broken += 1;
    }

    /// Records one finished component (the round entry only when
    /// `detailed`).
    pub(crate) fn record_component(&mut self, rounds: usize, detailed: bool) {
        self.components_processed += 1;
        self.max_component_rounds = self.max_component_rounds.max(rounds);
        if detailed {
            self.component_rounds.push(rounds);
        }
    }
}

/// The outcome of an interpreter.
#[derive(Clone, Debug)]
pub struct InterpreterRun {
    /// The computed (possibly partial) model.
    pub model: PartialModel,
    /// `true` iff the model is total (every ground atom valued).
    pub total: bool,
    /// Run statistics.
    pub stats: RunStats,
}

impl InterpreterRun {
    /// The atoms left undefined (empty iff total).
    pub fn residue(&self) -> Vec<AtomId> {
        self.model.undefined_atoms().collect()
    }
}

/// Errors from the high-level evaluation paths.
#[derive(Clone, Debug)]
pub enum SemanticsError {
    /// Grounding failed (budget or signature).
    Ground(GroundError),
    /// Propagation derived a contradiction — indicates misuse of the
    /// low-level API (the paper's algorithms never conflict).
    Conflict(CloseConflict),
    /// The requested semantics does not apply to this program (e.g.
    /// stratified evaluation of an unstratifiable program).
    NotApplicable(String),
    /// Static analysis rejected the program before evaluation (error-level
    /// lints under [`crate::engine::EngineConfig`] analysis / server
    /// strict mode). The message lists the offending lints.
    Rejected(String),
}

impl fmt::Display for SemanticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticsError::Ground(e) => e.fmt(f),
            SemanticsError::Conflict(e) => e.fmt(f),
            SemanticsError::NotApplicable(msg) => write!(f, "semantics not applicable: {msg}"),
            SemanticsError::Rejected(msg) => write!(f, "program rejected by analysis: {msg}"),
        }
    }
}

impl std::error::Error for SemanticsError {}

impl From<GroundError> for SemanticsError {
    fn from(e: GroundError) -> Self {
        SemanticsError::Ground(e)
    }
}

impl From<CloseConflict> for SemanticsError {
    fn from(e: CloseConflict) -> Self {
        SemanticsError::Conflict(e)
    }
}
