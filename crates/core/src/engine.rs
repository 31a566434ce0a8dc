//! Engine configuration and the value types the evaluators share:
//! [`EngineConfig`] (grounding budgets, stats detail), the decoded
//! [`EvalOutcome`], and the session runtime's [`Mutation`] and
//! [`PrepareDelta`].
//!
//! ```
//! use tiebreak_core::EngineConfig;
//!
//! // The session grounds relevant instances only, within these budgets.
//! let config = EngineConfig::default().with_detailed_stats(true);
//! assert_eq!(config.ground.max_atoms, 4_000_000);
//! assert!(config.eval.detailed_stats);
//! ```

use datalog_ast::GroundAtom;
use datalog_ground::{GroundConfig, TruthValue};

use crate::semantics::{EvalOptions, InterpreterRun, RunStats};

/// Nothing to configure. Only `perfbench` uses it;
/// goes with ROADMAP item 1's benchmark cleanup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeConfig;

impl RuntimeConfig {
    /// Ignores `_threads`. Only `perfbench` calls it;
    /// goes with ROADMAP item 1's benchmark cleanup.
    #[must_use]
    pub fn with_threads(_threads: usize) -> Self {
        RuntimeConfig
    }
}

/// A single database mutation for the session solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Add a ground fact to Δ (no-op if already present).
    Insert(GroundAtom),
    /// Remove a ground fact from Δ (no-op if absent).
    Retract(GroundAtom),
}

impl Mutation {
    /// The fact being inserted or retracted.
    pub fn fact(&self) -> &GroundAtom {
        match self {
            Mutation::Insert(f) | Mutation::Retract(f) => f,
        }
    }
}

/// What applying a batch of [`Mutation`]s did to a session's prepared
/// state — the observability surface of the incremental pipeline.
///
/// When `rebuilt` is set the mutation fell back to a full re-prepare
/// (`rebuild_reason` says why) and the cone/delta fields describe the
/// whole instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrepareDelta {
    /// The session epoch after this batch (incremented once per
    /// state-changing `apply`).
    pub epoch: u64,
    /// Facts actually added to Δ (duplicates and cancelled pairs drop
    /// out).
    pub inserted: usize,
    /// Facts actually removed from Δ.
    pub retracted: usize,
    /// The batch fell back to a full re-prepare.
    pub rebuilt: bool,
    /// Why the full re-prepare happened, when it did.
    pub rebuild_reason: Option<String>,
    /// Atoms in the mutation's forward cone (re-closed).
    pub cone_atoms: usize,
    /// Rule nodes in the mutation's forward cone.
    pub cone_rules: usize,
    /// Atoms appended by delta grounding.
    pub new_atoms: usize,
    /// Rule instances appended by delta grounding.
    pub new_rules: usize,
    /// Newly supportable atoms (|ΔS|).
    pub delta_supportable: usize,
    /// Condensation components retired by the cone patch.
    pub components_removed: usize,
    /// Condensation components created by the cone patch.
    pub components_added: usize,
    /// Always 0. Only `perfbench` reads it;
    /// goes with ROADMAP item 1's benchmark cleanup.
    pub branches_invalidated: usize,
    /// Components the served well-founded state re-evaluated while
    /// advancing over the cone (0 when the session held no state: the
    /// next read then evaluates in full).
    pub components_reevaluated: usize,
    /// Residual (alive) atoms after the re-close.
    pub residual_atoms: usize,
}

/// Grounding budgets and evaluation options of the `tiebreak-runtime`
/// solver.
///
/// The solver grounds relevantly ([`datalog_ground::SessionGrounder`])
/// and evaluates with the condensation-driven kernel
/// ([`crate::semantics::process_components`]). The paper-literal
/// references — `Full` grounding ([`datalog_ground::ground`]) and the
/// global evaluation loops, the plain
/// [`crate::semantics::well_founded()`]-style functions — are the test
/// oracles the differential suites check it against; no field selects
/// them.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// Grounding budgets.
    pub ground: GroundConfig,
    /// Stats detail for the interpreters.
    pub eval: EvalOptions,
}

impl EngineConfig {
    /// Returns `self` unchanged. Only `perfbench` calls it;
    /// goes with ROADMAP item 1's benchmark cleanup.
    #[must_use]
    pub fn with_runtime(self, _runtime: RuntimeConfig) -> Self {
        self
    }

    /// Opts into detailed per-event statistics (`RunStats::tie_log`,
    /// `RunStats::component_rounds`). Off by default so long enumerations
    /// keep constant-size stats.
    #[must_use]
    pub fn with_detailed_stats(mut self, detailed: bool) -> Self {
        self.eval.detailed_stats = detailed;
        self
    }
}

/// The decoded outcome of an interpreter run.
#[derive(Clone, Debug)]
pub struct EvalOutcome {
    /// True ground atoms, sorted.
    pub true_facts: Vec<GroundAtom>,
    /// Atoms left undefined (empty iff `total`), sorted.
    pub undefined: Vec<GroundAtom>,
    /// Whether the model is total.
    pub total: bool,
    /// Interpreter statistics.
    pub stats: RunStats,
}

impl EvalOutcome {
    /// Decodes an interpreter run against its atom table: true and
    /// undefined facts, each in text order — predicate name, then
    /// argument names ([`GroundAtom::text_cmp`]) — so the printed order
    /// does not depend on the process's interning history. Both lists
    /// are filters of the table's cached text order
    /// ([`datalog_ground::AtomTable::text_order`]); nothing is sorted.
    ///
    /// The single decoding point of the `tiebreak-runtime` session
    /// solver's decoded evaluations.
    pub fn decode(atoms: &datalog_ground::AtomTable, run: InterpreterRun) -> EvalOutcome {
        let in_text_order = |value: TruthValue| -> Vec<GroundAtom> {
            atoms
                .text_order()
                .iter()
                .filter(|&&id| id.index() < run.model.len() && run.model.get(id) == value)
                .map(|&id| atoms.decode(id))
                .collect()
        };
        EvalOutcome {
            true_facts: in_text_order(TruthValue::True),
            undefined: in_text_order(TruthValue::Undefined),
            total: run.total,
            stats: run.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_defaults_are_relevant_stratified() {
        let config = EngineConfig::default();
        assert_eq!(config.ground.max_atoms, GroundConfig::default().max_atoms);
        assert_eq!(config.eval, EvalOptions::default());
        assert!(
            EngineConfig::default()
                .with_detailed_stats(true)
                .eval
                .detailed_stats
        );
    }

    #[test]
    fn prepare_delta_and_mutation_defaults() {
        let delta = PrepareDelta::default();
        assert!(!delta.rebuilt && delta.rebuild_reason.is_none());
        let m = Mutation::Insert(GroundAtom::from_texts("p", &["a"]));
        assert_eq!(m.fact().pred.as_str(), "p");
    }
}
