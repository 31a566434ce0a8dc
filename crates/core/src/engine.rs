//! A one-stop facade over parsing, analysis, grounding, and evaluation.
//!
//! ```
//! use tiebreak_core::{Engine, RootTruePolicy};
//!
//! let engine = Engine::from_sources(
//!     "win(X) :- move(X, Y), not win(Y).",
//!     "move(a, b). move(b, a).",
//! )
//! .unwrap();
//!
//! let report = engine.analyze().unwrap();
//! assert!(!report.stratified);          // win depends negatively on win
//! assert!(!report.structurally_total);  // odd self-cycle at `win`
//!
//! // Not structurally total — yet for THIS database the ground cycle is
//! // even (a ↔ b), so the tie-breaking interpreter still finds a fixpoint
//! // where the well-founded semantics leaves the draw undefined.
//! let outcome = engine
//!     .well_founded_tie_breaking(&mut RootTruePolicy)
//!     .unwrap();
//! assert!(outcome.total);
//! ```

use std::fmt;

use datalog_ast::{AstError, Database, GroundAtom, Program};
use datalog_ground::{ground, GroundConfig, GroundGraph, GroundMode, PartialModel, TruthValue};

use crate::analysis::{
    self, stratify, structural_nonuniform_totality, structural_totality, useless_predicates,
};
use crate::semantics::enumerate::{enumerate_fixpoints, enumerate_stable, EnumerateConfig};
use crate::semantics::stratified::{stratified, StratifiedRun};
use crate::semantics::tie_breaking::{
    pure_tie_breaking_with, well_founded_tie_breaking_with, TiePolicy,
};
use crate::semantics::well_founded::well_founded_with;
use crate::semantics::{EvalOptions, InterpreterRun, RunStats, SemanticsError};

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

/// Incremental-session knobs (used by the `tiebreak-runtime` solver;
/// the one-shot [`Engine`] facade re-prepares per query regardless).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionConfig {
    /// Serve mutations incrementally (delta grounding + cone re-close +
    /// condensation patch). When `false` — or whenever the incremental
    /// preconditions fail (a constant enters or leaves the universe,
    /// `prune_decided` grounding) — every mutation re-prepares from
    /// scratch; results are identical either way, only the cost differs.
    pub incremental: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { incremental: true }
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
    /// Newly supportable atoms (|ΔS|; `Relevant` grounding only).
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

/// Engine-wide budgets, grounding mode, evaluation options, and session
/// behaviour.
///
/// The default is the **production path**: `GroundMode::Relevant`
/// grounding, evaluated by the condensation-driven interpreters (the only
/// ones the facade and the session runtime run). `GroundMode::Full` via
/// [`EngineConfig::with_ground_mode`] restores the paper-literal dense
/// grounding; the paper-literal global evaluation loops are the plain
/// [`crate::semantics::well_founded()`]-style functions, which the
/// differential suites check the production path against.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Grounding budgets and [`GroundMode`].
    pub ground: GroundConfig,
    /// Enumeration budgets.
    pub enumerate: EnumerateConfig,
    /// Stats detail and totality certificate for the interpreters.
    pub eval: EvalOptions,
    /// Incremental-session behaviour for the `tiebreak-runtime` solver.
    pub session: SessionConfig,
    /// Run the `datalog-analyze` static pass before preparing a session
    /// (`tiebreak-runtime` solver): error-level lints reject the program
    /// with [`SemanticsError::Rejected`] before any grounding work, and a
    /// stratification-grade totality certificate arms
    /// [`EvalOptions::certified_total`]. Off by default; the sequential
    /// [`Engine`] facade exposes analysis as an explicit call instead.
    pub analysis: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            ground: GroundConfig {
                mode: GroundMode::Relevant,
                ..GroundConfig::default()
            },
            enumerate: EnumerateConfig::default(),
            eval: EvalOptions::default(),
            session: SessionConfig::default(),
            analysis: false,
        }
    }
}

impl EngineConfig {
    /// Selects the grounding mode (`Relevant` — the production default —
    /// grounds only supportable instances; `Full` is the paper-literal
    /// dense instantiation — identical post-`close` semantics).
    #[must_use]
    pub fn with_ground_mode(mut self, mode: GroundMode) -> Self {
        self.ground.mode = mode;
        self
    }

    /// Returns `self` unchanged. Only `perfbench` calls it;
    /// goes with ROADMAP item 1's benchmark cleanup.
    #[must_use]
    pub fn with_runtime(self, _runtime: RuntimeConfig) -> Self {
        self
    }

    /// Enables or disables incremental mutation serving in the
    /// `tiebreak-runtime` session solver (on by default; `false` forces
    /// every mutation through a full re-prepare — the differential
    /// baseline and the churn benchmarks use this).
    #[must_use]
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.session.incremental = incremental;
        self
    }

    /// Enables the pre-prepare static-analysis pass (see
    /// [`EngineConfig::analysis`]).
    #[must_use]
    pub fn with_analysis(mut self, analysis: bool) -> Self {
        self.analysis = analysis;
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

/// The static analysis report for a program (and, where noted, database).
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Is the program stratified (Theorem 5's class)?
    pub stratified: bool,
    /// Is it structurally total — *G(Π)* odd-cycle-free (Theorem 2)?
    pub structurally_total: bool,
    /// Odd-cycle witness when not structurally total.
    pub odd_cycle: Option<analysis::PredCycle>,
    /// Structurally nonuniformly total — *G(Π′)* odd-cycle-free (Thm 3)?
    pub structurally_nonuniform_total: bool,
    /// The useless predicates (Theorem 3 machinery).
    pub useless_predicates: Vec<String>,
    /// Locally stratified for the engine's database (strict, full ground
    /// graph)?
    pub locally_stratified: Option<bool>,
    /// Are all rules range-restricted (safe)?
    pub safe: bool,
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "stratified:                     {}", self.stratified)?;
        writeln!(
            f,
            "structurally total (Thm 2):     {}",
            self.structurally_total
        )?;
        if let Some(cycle) = &self.odd_cycle {
            writeln!(f, "  odd cycle: {cycle}")?;
        }
        writeln!(
            f,
            "struct. nonuniform total (Thm 3): {}",
            self.structurally_nonuniform_total
        )?;
        if !self.useless_predicates.is_empty() {
            writeln!(
                f,
                "  useless predicates: {}",
                self.useless_predicates.join(", ")
            )?;
        }
        if let Some(ls) = self.locally_stratified {
            writeln!(f, "locally stratified (this Δ):    {ls}")?;
        }
        writeln!(f, "safe (range-restricted):        {}", self.safe)
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
    /// undefined facts, each sorted by text — predicate name, then
    /// argument names ([`GroundAtom::text_cmp`]) — so the printed order
    /// does not depend on the process's interning history.
    ///
    /// The single decoding point for every front-end — the `Engine`
    /// facade and the `tiebreak-runtime` session solver both go through
    /// it, so their printed fact order can never drift apart.
    pub fn decode(atoms: &datalog_ground::AtomTable, run: InterpreterRun) -> EvalOutcome {
        let mut true_facts = run.model.true_atoms(atoms);
        true_facts.sort_unstable_by(GroundAtom::text_cmp);
        let mut undefined: Vec<GroundAtom> = run
            .model
            .undefined_atoms()
            .map(|id| atoms.decode(id))
            .collect();
        undefined.sort_unstable_by(GroundAtom::text_cmp);
        EvalOutcome {
            true_facts,
            undefined,
            total: run.total,
            stats: run.stats,
        }
    }
}

/// The facade: a program, a database, and budgets.
#[derive(Clone, Debug)]
pub struct Engine {
    program: Program,
    database: Database,
    config: EngineConfig,
}

impl Engine {
    /// Builds an engine from parsed parts.
    pub fn new(program: Program, database: Database) -> Self {
        Engine {
            program,
            database,
            config: EngineConfig::default(),
        }
    }

    /// Parses program and database sources.
    ///
    /// # Errors
    ///
    /// [`AstError`] on syntax or arity problems.
    pub fn from_sources(program_src: &str, database_src: &str) -> Result<Self, AstError> {
        Ok(Engine::new(
            datalog_ast::parse_program(program_src)?,
            datalog_ast::parse_database(database_src)?,
        ))
    }

    /// Replaces the budgets.
    #[must_use]
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The database.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Grounds the instance.
    ///
    /// # Errors
    ///
    /// [`SemanticsError::Ground`] over budget or on arity conflicts.
    pub fn ground(&self) -> Result<GroundGraph, SemanticsError> {
        Ok(ground(&self.program, &self.database, &self.config.ground)?)
    }

    /// Runs every static analysis. Local stratification is included when
    /// the instance grounds within budget.
    ///
    /// # Errors
    ///
    /// Never fails on analysis itself; returns `Err` only if the *ground*
    /// step both fails and was required (it is optional here — a grounding
    /// failure yields `locally_stratified: None`).
    pub fn analyze(&self) -> Result<AnalysisReport, SemanticsError> {
        let strat = stratify(&self.program);
        let st = structural_totality(&self.program);
        let non = structural_nonuniform_totality(&self.program);
        let useless = useless_predicates(&self.program);
        let locally = self
            .ground()
            .ok()
            .map(|g| analysis::locally_stratified(&g).locally_stratified);
        let mut useless_names: Vec<String> = useless
            .useless
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        useless_names.sort();
        Ok(AnalysisReport {
            stratified: strat.stratified,
            structurally_total: st.total,
            odd_cycle: st.witness,
            structurally_nonuniform_total: non.total,
            useless_predicates: useless_names,
            locally_stratified: locally,
            safe: self.program.is_safe(),
        })
    }

    fn decode(&self, graph: &GroundGraph, run: InterpreterRun) -> EvalOutcome {
        EvalOutcome::decode(graph.atoms(), run)
    }

    /// Runs the well-founded interpreter.
    ///
    /// # Errors
    ///
    /// Grounding failures.
    pub fn well_founded(&self) -> Result<EvalOutcome, SemanticsError> {
        let graph = self.ground()?;
        let _span = tiebreak_trace::span("eval", "well_founded", &[]);
        let run = well_founded_with(&graph, &self.program, &self.database, &self.config.eval)?;
        Ok(self.decode(&graph, run))
    }

    /// Runs the pure tie-breaking interpreter with `policy`.
    ///
    /// # Errors
    ///
    /// Grounding failures.
    pub fn pure_tie_breaking<P: TiePolicy>(
        &self,
        policy: &mut P,
    ) -> Result<EvalOutcome, SemanticsError> {
        let graph = self.ground()?;
        let _span = tiebreak_trace::span("eval", "pure_tie_breaking", &[]);
        let run = pure_tie_breaking_with(
            &graph,
            &self.program,
            &self.database,
            policy,
            &self.config.eval,
        )?;
        Ok(self.decode(&graph, run))
    }

    /// Runs the well-founded tie-breaking interpreter with `policy`.
    ///
    /// # Errors
    ///
    /// Grounding failures.
    pub fn well_founded_tie_breaking<P: TiePolicy>(
        &self,
        policy: &mut P,
    ) -> Result<EvalOutcome, SemanticsError> {
        let graph = self.ground()?;
        let _span = tiebreak_trace::span("eval", "well_founded_tie_breaking", &[]);
        let run = well_founded_tie_breaking_with(
            &graph,
            &self.program,
            &self.database,
            policy,
            &self.config.eval,
        )?;
        Ok(self.decode(&graph, run))
    }

    /// Runs stratified evaluation (errors on unstratified programs).
    ///
    /// # Errors
    ///
    /// [`SemanticsError::NotApplicable`] when not stratified.
    pub fn stratified(&self) -> Result<StratifiedRun, SemanticsError> {
        stratified(&self.program, &self.database)
    }

    /// Enumerates fixpoints (bounded; see [`EnumerateConfig`]).
    ///
    /// # Errors
    ///
    /// Grounding failures or enumeration budget.
    pub fn fixpoints(&self) -> Result<Vec<Vec<GroundAtom>>, SemanticsError> {
        let graph = self.ground()?;
        let models = enumerate_fixpoints(
            &graph,
            &self.program,
            &self.database,
            &self.config.enumerate,
        )?;
        Ok(models.iter().map(|m| sorted_true(m, &graph)).collect())
    }

    /// Enumerates stable models (bounded).
    ///
    /// # Errors
    ///
    /// Grounding failures or enumeration budget.
    pub fn stable_models(&self) -> Result<Vec<Vec<GroundAtom>>, SemanticsError> {
        let graph = self.ground()?;
        let models = enumerate_stable(
            &graph,
            &self.program,
            &self.database,
            &self.config.enumerate,
        )?;
        Ok(models.iter().map(|m| sorted_true(m, &graph)).collect())
    }
}

fn sorted_true(model: &PartialModel, graph: &GroundGraph) -> Vec<GroundAtom> {
    let mut v: Vec<GroundAtom> = model
        .defined()
        .filter(|&(_, t)| t == TruthValue::True)
        .map(|(id, _)| graph.atoms().decode(id))
        .collect();
    v.sort_by(|a, b| (a.pred.as_str(), &a.args).cmp(&(b.pred.as_str(), &b.args)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::tie_breaking::RootTruePolicy;

    #[test]
    fn facade_pipeline() {
        let engine = Engine::from_sources(
            "win(X) :- move(X, Y), not win(Y).",
            "move(a, b).\nmove(b, c).",
        )
        .unwrap();
        let report = engine.analyze().unwrap();
        assert!(!report.stratified);
        assert!(!report.structurally_total);
        assert!(report.odd_cycle.is_some());
        assert!(report.safe);

        let wf = engine.well_founded().unwrap();
        assert!(wf.total);
        assert!(wf.true_facts.iter().any(|f| f.to_string() == "win(b)"));
    }

    #[test]
    fn analysis_report_displays() {
        let engine = Engine::from_sources("p :- not q.\nq :- not p.", "").unwrap();
        let report = engine.analyze().unwrap();
        let text = report.to_string();
        assert!(text.contains("structurally total (Thm 2):     true"));
        assert!(text.contains("stratified:                     false"));
    }

    #[test]
    fn fixpoint_and_stable_enumeration_via_facade() {
        let engine = Engine::from_sources("p :- not q.\nq :- not p.", "").unwrap();
        assert_eq!(engine.fixpoints().unwrap().len(), 2);
        assert_eq!(engine.stable_models().unwrap().len(), 2);
    }

    #[test]
    fn tie_breaking_via_facade() {
        let engine = Engine::from_sources("p :- not q.\nq :- not p.", "").unwrap();
        let out = engine
            .well_founded_tie_breaking(&mut RootTruePolicy)
            .unwrap();
        assert!(out.total);
        assert_eq!(out.true_facts.len(), 1);
        assert_eq!(out.stats.ties_broken, 1);
    }

    #[test]
    fn relevant_mode_agrees_through_the_facade() {
        let sources = (
            "win(X) :- move(X, Y), not win(Y).",
            "move(a, b).\nmove(b, c).\nmove(d, d).",
        );
        let full = Engine::from_sources(sources.0, sources.1)
            .unwrap()
            .with_config(EngineConfig::default().with_ground_mode(GroundMode::Full));
        let relevant = Engine::from_sources(sources.0, sources.1)
            .unwrap()
            .with_config(EngineConfig::default().with_ground_mode(GroundMode::Relevant));

        let a = full.well_founded().unwrap();
        let b = relevant.well_founded().unwrap();
        assert_eq!(a.true_facts, b.true_facts);
        assert_eq!(a.undefined, b.undefined);
        assert_eq!(a.total, b.total);
        // The relevant graph is strictly smaller pre-close.
        assert!(relevant.ground().unwrap().rule_count() < full.ground().unwrap().rule_count());
    }

    #[test]
    fn stratified_eval_mode_agrees_through_the_facade() {
        // The facade runs the condensation-driven interpreters; the
        // paper-literal global loops over the same ground graph are the
        // oracle.
        let sources = (
            "win(X) :- move(X, Y), not win(Y).",
            "move(a, b).\nmove(b, a).\nmove(c, a).\nmove(d, e).\nmove(e, d).",
        );
        let engine = Engine::from_sources(sources.0, sources.1).unwrap();
        let graph = engine.ground().unwrap();
        let (program, database) = (engine.program(), engine.database());

        let wf = engine.well_founded().unwrap();
        let oracle = engine.decode(
            &graph,
            crate::semantics::well_founded(&graph, program, database).unwrap(),
        );
        assert_eq!(wf.true_facts, oracle.true_facts);
        assert_eq!(wf.undefined, oracle.undefined);
        assert_eq!(wf.total, oracle.total);

        // The d ↔ e pocket is a tie both interpreters can break.
        let tb = engine
            .well_founded_tie_breaking(&mut RootTruePolicy)
            .unwrap();
        let oracle = crate::semantics::well_founded_tie_breaking(
            &graph,
            program,
            database,
            &mut RootTruePolicy,
        )
        .unwrap();
        assert_eq!(tb.total, oracle.total);
        assert_eq!(tb.stats.ties_broken, oracle.stats.ties_broken);
        // Detailed stats stay off by default (the tie_log bugfix).
        assert!(tb.stats.tie_log.is_empty());
        let detailed = Engine::from_sources(sources.0, sources.1)
            .unwrap()
            .with_config(EngineConfig::default().with_detailed_stats(true));
        let td = detailed
            .well_founded_tie_breaking(&mut RootTruePolicy)
            .unwrap();
        assert_eq!(td.stats.tie_log.len(), td.stats.ties_broken);
    }

    #[test]
    fn production_defaults_are_relevant_stratified() {
        let config = EngineConfig::default();
        assert_eq!(config.ground.mode, GroundMode::Relevant);
        assert_eq!(config.eval, EvalOptions::default());
        let full = EngineConfig::default().with_ground_mode(GroundMode::Full);
        assert_eq!(full.ground.mode, GroundMode::Full);
        // Every facade evaluation walks the condensation: the
        // stratified interpreter reports the components it visited.
        let engine = Engine::from_sources("p :- not q.\nq :- not p.", "").unwrap();
        let out = engine.well_founded().unwrap();
        assert!(out.stats.components_processed > 0);
    }

    #[test]
    fn session_config_defaults_and_toggle() {
        assert!(EngineConfig::default().session.incremental);
        assert!(
            !EngineConfig::default()
                .with_incremental(false)
                .session
                .incremental
        );
        let delta = PrepareDelta::default();
        assert!(!delta.rebuilt && delta.rebuild_reason.is_none());
        let m = Mutation::Insert(GroundAtom::from_texts("p", &["a"]));
        assert_eq!(m.fact().pred.as_str(), "p");
    }

    #[test]
    fn stratified_via_facade() {
        let engine = Engine::from_sources(
            "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).",
            "e(a, b).\ne(b, c).",
        )
        .unwrap();
        let run = engine.stratified().unwrap();
        assert_eq!(run.facts.relation("t".into()).unwrap().len(), 3);
    }
}
