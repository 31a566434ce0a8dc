//! The [`Solver`] session: prepared-once state serving many evaluations,
//! mutable in place between them.

use std::fmt;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use datalog_ast::{AstError, ConstSym, Database, FxHashMap, FxHashSet, GroundAtom, Program};
use datalog_ground::{
    AtomId, CloseState, Closer, Cone, GroundGraph, PartialModel, RuleId, SessionGrounder,
    TruthValue, UnfoundedEngine,
};
use tiebreak_core::engine::EvalOutcome;
use tiebreak_core::semantics::outcomes::OutcomeSet;
use tiebreak_core::semantics::SemanticsError;
use tiebreak_core::{EngineConfig, InterpreterRun, Mutation, PrepareDelta, TiePolicy};

use crate::reply::{self, Reply};
use crate::wf_state::WfState;
use crate::{eval, outcomes};

/// Errors from building a [`Solver`] out of source text.
#[derive(Clone, Debug)]
pub enum SolverError {
    /// The program or database failed to parse.
    Ast(AstError),
    /// Grounding or the initial `close` failed.
    Semantics(SemanticsError),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::Ast(e) => e.fmt(f),
            SolverError::Semantics(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<AstError> for SolverError {
    fn from(e: AstError) -> Self {
        SolverError::Ast(e)
    }
}

impl From<SemanticsError> for SolverError {
    fn from(e: SemanticsError) -> Self {
        SolverError::Semantics(e)
    }
}

/// The prepared state of one epoch: everything [`Solver::apply`] swaps
/// out on a full re-prepare.
struct Prepared {
    graph: GroundGraph,
    grounder: SessionGrounder,
    /// M₀ for the *current* database (maintained under mutation).
    m0: PartialModel,
    base_model: PartialModel,
    base_close: CloseState,
    /// Atoms `base_close` leaves alive.
    residual_atoms: usize,
    engine: UnfoundedEngine,
}

/// The read memo: the served well-founded state (see
/// [`crate::wf_state`]) and the encoded bodies of the `? wf` reply and of
/// the last `? outcomes N` reply read, each computed on the first read
/// that needs it. A body is rendered under the solver's reply cap, and
/// one that outgrows it is kept as the verdict alone. [`Solver::apply`]
/// advances the state over each mutation's cone and drops both bodies.
#[derive(Default)]
struct ReadMemo {
    wf: Option<WfState>,
    model: Option<Reply>,
    /// One slot, keyed by `(pure, max_runs)`: a read of another key
    /// overwrites it, so a state retains at most one body.
    outcomes: Option<((bool, usize), Reply)>,
}

impl ReadMemo {
    /// The served run, evaluating it in full if the memo holds no state.
    fn run(&mut self, solver: &Solver) -> Result<Arc<InterpreterRun>, SemanticsError> {
        if self.wf.is_none() {
            self.wf = Some(WfState::evaluate(solver)?);
        }
        Ok(Arc::clone(&self.wf.as_ref().expect("just filled").run))
    }

    /// The memoized `? wf` body, rendering it if the memo has none.
    fn model(&mut self, solver: &Solver) -> Result<Reply, SemanticsError> {
        if let Some(reply) = &self.model {
            return Ok(reply.clone());
        }
        let run = self.run(solver)?;
        let reply = {
            let _span = tiebreak_trace::span("session", "render", &[]);
            reply::render_model(solver.graph.atoms(), &run, solver.reply_cap)
        };
        self.model = Some(reply.clone());
        Ok(reply)
    }

    /// The memoized `? outcomes` body under `key = (pure, max_runs)`,
    /// enumerating and rendering it (and replacing the slot) if the memo
    /// holds another key or none.
    fn outcomes(&mut self, solver: &Solver, key: (bool, usize)) -> Result<Reply, SemanticsError> {
        if let Some((k, reply)) = &self.outcomes {
            if *k == key {
                return Ok(reply.clone());
            }
        }
        let (pure, max_runs) = key;
        // Under a cap, the enumeration stops as soon as the reply must
        // outgrow it.
        let atoms = solver.graph.atoms();
        let mut bound = reply::OutcomeBound::new(atoms, solver.reply_cap);
        let mut too_large = None;
        let set = outcomes::enumerate(solver, pure, max_runs, |set| match bound.check(set) {
            Ok(()) => ControlFlow::Continue(()),
            Err(e) => {
                too_large = Some(e);
                ControlFlow::Break(())
            }
        })?;
        let reply = match too_large {
            Some(e) => Err(e),
            None => {
                let _span = tiebreak_trace::span("session", "render_outcomes", &[]);
                reply::render_outcomes(atoms, &set, solver.reply_cap)
            }
        };
        self.outcomes = Some((key, reply.clone()));
        Ok(reply)
    }
}

fn prepare(
    program: &Program,
    database: &Database,
    config: &EngineConfig,
) -> Result<Prepared, SemanticsError> {
    let _span = tiebreak_trace::span("session", "prepare", &[]);
    let (graph, grounder) = SessionGrounder::build(program, database, &config.ground)?;
    let m0 = PartialModel::initial(program, database, graph.atoms());
    let mut base_model = m0.clone();
    let mut closer = Closer::new(&graph);
    {
        let _close = tiebreak_trace::span("close", "base_close", &[]);
        closer.bootstrap(&base_model);
        closer.run(&mut base_model)?;
    }
    let engine = UnfoundedEngine::build(&closer);
    let residual_atoms = closer.alive_atom_count();
    let base_close = closer.snapshot();
    drop(closer);
    Ok(Prepared {
        graph,
        grounder,
        m0,
        base_model,
        base_close,
        residual_atoms,
        engine,
    })
}

/// A persistent solver session over one program/database instance.
///
/// Construction grounds the instance, runs the first `close(M₀, G)`,
/// snapshots the quiescent deletion state, and condenses the residual
/// graph — **once**. Every evaluation afterwards works against this
/// prepared state: a copy-on-write fork walked once in topological
/// order for a single run, one fork per script for outcome enumeration.
///
/// The database is **mutable in place**: [`Solver::insert_fact`],
/// [`Solver::retract_fact`], and [`Solver::apply`] update the prepared
/// state *incrementally* — delta grounding extends the graph with the
/// newly supportable instances, the `close` state is re-derived only
/// over the mutation's forward cone, the condensation is patched in the
/// cone, and the served well-founded state is advanced over the cone's
/// new components only. The result is provably identical to
/// re-preparing from scratch on the mutated database (the fallback the
/// session takes automatically when a mutation moves the universe of
/// constants, or when the splice fails midway).
/// Each state-changing batch bumps [`Solver::epoch`] and reports a
/// [`PrepareDelta`].
///
/// Reads through [`ReadBatch`], [`Solver::well_founded`] and
/// [`Solver::well_founded_run`] are served from a **read memo** of three
/// values: the state the plain well-founded run ends in (close state,
/// model, per-component round counts), the encoded `? wf` reply body
/// ([`ReadBatch::model`]), and the encoded body of the last
/// `? outcomes N` reply read ([`ReadBatch::outcomes`]), keyed by flavour
/// and run budget. A hit writes bytes: no decode, no formatting, no
/// sort. The first read after preparation runs in full;
/// [`Solver::apply`] then advances the state over each mutation's cone,
/// so a wf read after a write costs a lookup, and drops both bodies. A
/// no-op batch keeps all three. A rebuild or a rolled-back batch drops
/// them, and the next read runs in full again. The memo never holds a
/// body larger than the reply cap ([`Solver::set_reply_cap`]).
///
/// The session grounds relevantly ([`SessionGrounder`]) within the
/// budgets of [`EngineConfig::ground`], and honours
/// `EngineConfig::eval.detailed_stats`. It is the one production
/// evaluator and condensation-driven; the paper-literal `Full` grounding
/// and global loops are test oracles only.
pub struct Solver {
    pub(crate) program: Program,
    pub(crate) database: Database,
    pub(crate) config: EngineConfig,
    pub(crate) graph: GroundGraph,
    grounder: SessionGrounder,
    m0: PartialModel,
    pub(crate) base_model: PartialModel,
    pub(crate) base_close: CloseState,
    /// Atoms `base_close` leaves alive, adjusted over each cone.
    residual_atoms: usize,
    pub(crate) engine: UnfoundedEngine,
    /// The last mutation's forward cone, kept so the next one reuses its
    /// membership bitmaps.
    cone: Cone,
    /// Occurrences of each constant across current database facts (the
    /// universe guard; program constants are permanent).
    const_refs: FxHashMap<ConstSym, usize>,
    program_consts: FxHashSet<ConstSym>,
    epoch: u64,
    /// This state's served wf state and encoded reply bodies, shared by
    /// every read. [`Solver::apply`] advances it over the
    /// cone or, on a rebuild, drops it — every `&mut` path goes through
    /// there — and it is never keyed by epoch: a rolled-back batch
    /// restores the epoch number over a re-prepared, renumbered graph.
    read_memo: Mutex<ReadMemo>,
    /// The largest reply body the read memo renders and keeps.
    reply_cap: Option<usize>,
    last_delta: Option<PrepareDelta>,
}

impl Solver {
    /// Prepares a session with the default (production) config.
    ///
    /// # Errors
    ///
    /// Grounding failures and (theoretical) propagation conflicts.
    pub fn new(program: Program, database: Database) -> Result<Self, SemanticsError> {
        Solver::with_config(program, database, EngineConfig::default())
    }

    /// Prepares a session: ground once, close once, condense once.
    ///
    /// # Errors
    ///
    /// Grounding failures and (theoretical) propagation conflicts.
    pub fn with_config(
        program: Program,
        database: Database,
        config: EngineConfig,
    ) -> Result<Self, SemanticsError> {
        let prepared = prepare(&program, &database, &config)?;
        let mut const_refs: FxHashMap<ConstSym, usize> = FxHashMap::default();
        for (_, args) in database.tuples() {
            for &c in args {
                *const_refs.entry(c).or_insert(0) += 1;
            }
        }
        let program_consts: FxHashSet<ConstSym> = program.constants().into_iter().collect();
        Ok(Solver {
            program,
            database,
            config,
            graph: prepared.graph,
            grounder: prepared.grounder,
            m0: prepared.m0,
            base_model: prepared.base_model,
            base_close: prepared.base_close,
            residual_atoms: prepared.residual_atoms,
            engine: prepared.engine,
            cone: Cone::default(),
            const_refs,
            program_consts,
            epoch: 0,
            read_memo: Mutex::new(ReadMemo::default()),
            reply_cap: None,
            last_delta: None,
        })
    }

    /// Parses sources and prepares a session with the default config.
    ///
    /// # Errors
    ///
    /// [`SolverError`] on parse, grounding, or close failures.
    pub fn from_sources(program_src: &str, database_src: &str) -> Result<Self, SolverError> {
        let program = datalog_ast::parse_program(program_src)?;
        let database = datalog_ast::parse_database(database_src)?;
        Ok(Solver::new(program, database)?)
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The current database (reflects every applied mutation).
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The session config.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The prepared ground graph.
    pub fn graph(&self) -> &GroundGraph {
        &self.graph
    }

    /// The mutation epoch: 0 at preparation, +1 per state-changing
    /// [`Solver::apply`] (or single-fact convenience call).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The [`PrepareDelta`] of the most recent state-changing mutation.
    pub fn last_delta(&self) -> Option<&PrepareDelta> {
        self.last_delta.as_ref()
    }

    /// Caps the reply bodies the read memo renders ([`ReadBatch::model`],
    /// [`ReadBatch::outcomes`]) at `cap` bytes (`None`: no cap). A body
    /// that outgrows it stops rendering at the first line past the cap,
    /// and the memo keeps only the [`ReplyTooLarge`] verdict. Drops the
    /// memoized bodies, which were rendered under the old cap.
    ///
    /// [`ReplyTooLarge`]: crate::ReplyTooLarge
    pub fn set_reply_cap(&mut self, cap: Option<usize>) {
        self.reply_cap = cap;
        let memo = self
            .read_memo
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        memo.model = None;
        memo.outcomes = None;
    }

    /// The reply cap ([`Solver::set_reply_cap`]).
    pub fn reply_cap(&self) -> Option<usize> {
        self.reply_cap
    }

    /// Atoms left alive (undefined) by the shared base `close`: a
    /// counter kept by [`Solver::apply`], O(1).
    pub fn residual_atom_count(&self) -> usize {
        self.residual_atoms
    }

    /// Resident-size accounting of the prepared ground graph (grows under
    /// delta grounding, shrinks on re-prepare) — what a serving tier's
    /// admission control and LRU eviction budget against.
    pub fn footprint(&self) -> datalog_ground::GraphFootprint {
        self.graph.footprint()
    }

    /// Components of the residual condensation.
    pub fn component_count(&self) -> usize {
        self.engine.component_count()
    }

    /// Always 1. Only `perfbench` calls it;
    /// goes with ROADMAP item 1's benchmark cleanup.
    pub fn effective_threads(&self) -> usize {
        1
    }

    /// Always `false`. Only `perfbench` calls it;
    /// goes with ROADMAP item 1's benchmark cleanup.
    pub fn wave_dispatch_eligible(&self) -> bool {
        false
    }

    /// Inserts one fact (see [`Solver::apply`]).
    ///
    /// # Errors
    ///
    /// As for [`Solver::apply`].
    pub fn insert_fact(&mut self, fact: GroundAtom) -> Result<PrepareDelta, SolverError> {
        self.apply(vec![Mutation::Insert(fact)])
    }

    /// Retracts one fact (see [`Solver::apply`]).
    ///
    /// # Errors
    ///
    /// As for [`Solver::apply`].
    pub fn retract_fact(&mut self, fact: GroundAtom) -> Result<PrepareDelta, SolverError> {
        self.apply(vec![Mutation::Retract(fact)])
    }

    /// Applies a batch of mutations to the database and splices the
    /// prepared state incrementally:
    ///
    /// 1. **delta grounding** — newly supportable rule instances (and
    ///    their atoms) are appended to the graph
    ///    ([`datalog_ground::SessionGrounder`]); retractions retire
    ///    nothing — their stale instances die in the re-close;
    /// 2. **cone re-close** — the `close` state is re-derived only over
    ///    the mutation's forward cone
    ///    ([`datalog_ground::Closer::reopen_cone`]), the rest is frozen;
    /// 3. **condensation patch** — components intersecting the cone are
    ///    re-condensed in place
    ///    ([`datalog_ground::UnfoundedEngine::patch_cone`]);
    /// 4. **advance** — when the read memo holds a well-founded state,
    ///    the cone is re-opened and re-closed on it and the patch's new
    ///    components are evaluated; every other component keeps its
    ///    value.
    ///
    /// Mutations that move the universe of constants, and batches whose
    /// splice fails midway, fall back to a full re-prepare; either way
    /// the resulting state is
    /// indistinguishable from a fresh [`Solver`] on the mutated database
    /// (wf models, outcome sets, totality — see the differential
    /// suites). A batch that nets out to no change returns an empty
    /// delta without bumping the epoch and keeps the read memo.
    ///
    /// # Errors
    ///
    /// Arity conflicts with the program or existing relations (nothing
    /// is applied), and grounding-budget overflows (the session
    /// re-prepares on the old database and reports the error).
    pub fn apply(&mut self, mutations: Vec<Mutation>) -> Result<PrepareDelta, SolverError> {
        let _span =
            tiebreak_trace::span("session", "apply", &[("mutations", mutations.len() as u64)]);
        // `&mut self` shuts readers out for the whole batch. The read
        // memo survives a no-op batch, has its wf state advanced (and the
        // rest dropped) by an incremental splice, and is dropped by every
        // rebuild (rollbacks included).
        // Net effect, last mutation per fact wins.
        let mut staged: Vec<(GroundAtom, bool)> = Vec::new();
        let mut staged_index: FxHashMap<GroundAtom, usize> = FxHashMap::default();
        for m in &mutations {
            let present = matches!(m, Mutation::Insert(_));
            match staged_index.get(m.fact()) {
                Some(&i) => staged[i].1 = present,
                None => {
                    staged_index.insert(m.fact().clone(), staged.len());
                    staged.push((m.fact().clone(), present));
                }
            }
        }
        let mut inserts: Vec<GroundAtom> = Vec::new();
        let mut retracts: Vec<GroundAtom> = Vec::new();
        for (fact, present) in staged {
            if self.database.contains(&fact) != present {
                if present {
                    inserts.push(fact);
                } else {
                    retracts.push(fact);
                }
            }
        }
        inserts.sort_unstable();
        retracts.sort_unstable();
        if inserts.is_empty() && retracts.is_empty() {
            return Ok(PrepareDelta {
                epoch: self.epoch,
                residual_atoms: self.residual_atom_count(),
                ..PrepareDelta::default()
            });
        }

        // Validate arities up front so the database mutation cannot fail
        // halfway: against the program signature, existing relations, and
        // within the batch for brand-new predicates.
        let mut batch_arity: FxHashMap<datalog_ast::PredSym, usize> = FxHashMap::default();
        for fact in &inserts {
            let expected = self
                .program
                .arity(fact.pred)
                .or_else(|| {
                    self.database
                        .relation(fact.pred)
                        .map(datalog_ast::Relation::arity)
                })
                .or_else(|| batch_arity.get(&fact.pred).copied());
            if let Some(expected) = expected {
                if expected != fact.args.len() {
                    return Err(SolverError::Semantics(SemanticsError::Ground(
                        datalog_ground::GroundError::Validation(
                            datalog_ast::ValidationError::ArityMismatch {
                                pred: fact.pred,
                                first: expected,
                                second: fact.args.len(),
                            },
                        ),
                    )));
                }
            } else {
                batch_arity.insert(fact.pred, fact.args.len());
            }
        }

        // Commit the database change and the universe refcounts.
        for fact in &inserts {
            self.database
                .insert(fact.clone())
                .expect("arities pre-validated");
            for &c in &fact.args {
                *self.const_refs.entry(c).or_insert(0) += 1;
            }
        }
        for fact in &retracts {
            self.database.remove(fact);
            for &c in &fact.args {
                if let Some(n) = self.const_refs.get_mut(&c) {
                    *n = n.saturating_sub(1);
                }
            }
        }

        self.epoch += 1;
        let mut delta = PrepareDelta {
            epoch: self.epoch,
            inserted: inserts.len(),
            retracted: retracts.len(),
            ..PrepareDelta::default()
        };

        // Incremental preconditions.
        let mut rebuild_reason: Option<String> = None;
        for fact in &inserts {
            if let Some(&c) = fact
                .args
                .iter()
                .find(|&&c| self.graph.atoms().const_index(c).is_none())
            {
                rebuild_reason = Some(format!("constant {c} enters the universe"));
                break;
            }
        }
        if rebuild_reason.is_none() {
            for fact in &retracts {
                if let Some(&c) = fact.args.iter().find(|&&c| {
                    self.const_refs.get(&c).copied().unwrap_or(0) == 0
                        && !self.program_consts.contains(&c)
                }) {
                    rebuild_reason = Some(format!("constant {c} leaves the universe"));
                    break;
                }
            }
        }

        if let Some(reason) = rebuild_reason {
            return match self.rebuild_in_place() {
                Ok(()) => {
                    self.finish_rebuild_delta(&mut delta, reason);
                    self.last_delta = Some(delta.clone());
                    Ok(delta)
                }
                // The fresh prepare fails on the mutated database (the
                // mutation busted a budget): roll everything back. Before
                // this path existed, the database and epoch kept the
                // mutation while the prepared state kept serving the old
                // instance — `? stats` reported a rolled-back epoch over
                // a graph that matched neither database.
                Err(rebuild_err) => Err(self.revert_failed_batch(&inserts, &retracts, rebuild_err)),
            };
        }

        match self.apply_incremental(&inserts, &retracts, &mut delta) {
            Ok(()) => {
                self.last_delta = Some(delta.clone());
                Ok(delta)
            }
            Err(e) => {
                // The incremental splice failed midway (e.g. a budget
                // overflow while extending the graph): recover by
                // re-preparing on the mutated database so the session
                // stays consistent either way.
                match self.rebuild_in_place() {
                    Ok(()) => {
                        self.finish_rebuild_delta(
                            &mut delta,
                            format!("incremental path failed: {e}"),
                        );
                        self.last_delta = Some(delta.clone());
                        Ok(delta)
                    }
                    Err(rebuild_err) => {
                        Err(self.revert_failed_batch(&inserts, &retracts, rebuild_err))
                    }
                }
            }
        }
    }

    /// Rolls a failed batch back: undoes the database change and the
    /// universe refcounts, restores the epoch, and re-prepares on the
    /// restored database so every observable (`epoch`, `last_delta`,
    /// graph, stats, query results) describes the pre-batch state again.
    fn revert_failed_batch(
        &mut self,
        inserts: &[GroundAtom],
        retracts: &[GroundAtom],
        cause: SemanticsError,
    ) -> SolverError {
        for fact in inserts {
            self.database.remove(fact);
            for &c in &fact.args {
                if let Some(n) = self.const_refs.get_mut(&c) {
                    *n = n.saturating_sub(1);
                }
            }
        }
        for fact in retracts {
            self.database
                .insert(fact.clone())
                .expect("fact was present before");
            for &c in &fact.args {
                *self.const_refs.entry(c).or_insert(0) += 1;
            }
        }
        self.epoch -= 1;
        match self.rebuild_in_place() {
            // The restored database prepared before, so it prepares
            // again; the rolled-back session serves exactly as it did
            // before the batch (asserted by the regression suite).
            Ok(()) => SolverError::Semantics(cause),
            // Re-preparing the previously working instance cannot fail
            // deterministically; surface the fresher error if it somehow
            // does.
            Err(e) => SolverError::Semantics(e),
        }
    }

    /// The incremental splice (see [`Solver::apply`]).
    fn apply_incremental(
        &mut self,
        inserts: &[GroundAtom],
        retracts: &[GroundAtom],
        delta: &mut PrepareDelta,
    ) -> Result<(), SemanticsError> {
        // 1. Delta grounding.
        let dg = self.grounder.delta_insert(
            &mut self.graph,
            &self.program,
            &self.config.ground,
            inserts,
        )?;
        delta.new_atoms = dg.new_atoms;
        delta.new_rules = dg.new_rules;
        delta.delta_supportable = dg.delta_supportable;

        let (atom_count, rule_count) = (self.graph.atom_count(), self.graph.rule_count());
        self.m0.grow(atom_count);
        self.base_model.grow(atom_count);
        self.base_close.grow(atom_count, rule_count);

        // 2. M₀ maintenance: fresh values for appended atoms, flips for
        //    the mutated facts.
        for i in dg.first_new_atom..atom_count {
            let id = AtomId(i as u32);
            let ga = self.graph.atoms().decode(id);
            let value = if self.database.contains(&ga) {
                TruthValue::True
            } else if self.program.is_idb(ga.pred) {
                TruthValue::Undefined
            } else {
                TruthValue::False
            };
            self.m0.set(id, value);
        }
        let mut seed_atoms: Vec<AtomId> = Vec::new();
        for fact in inserts {
            // Facts of predicates the program never mentions have no atom
            // (and no semantic effect — the universe guard covered their
            // constants).
            if let Some(id) = self.graph.atoms().id_of(fact) {
                self.m0.set(id, TruthValue::True);
                seed_atoms.push(id);
            }
        }
        for fact in retracts {
            if let Some(id) = self.graph.atoms().id_of(fact) {
                let value = if self.program.is_idb(fact.pred) {
                    TruthValue::Undefined
                } else {
                    TruthValue::False
                };
                self.m0.set(id, value);
                seed_atoms.push(id);
            }
        }

        // 3. The forward cone: flipped atoms plus everything delta
        //    grounding appended.
        let new_atoms = (dg.first_new_atom..atom_count).map(|i| AtomId(i as u32));
        let new_rules = (dg.first_new_rule..rule_count).map(|i| RuleId(i as u32));
        self.graph.forward_cone_into(
            &mut self.cone,
            seed_atoms.into_iter().chain(new_atoms),
            new_rules,
        );
        let cone = &self.cone;
        delta.cone_atoms = cone.atoms.len();
        delta.cone_rules = cone.rules.len();

        // 4. Cone re-close against the frozen remainder. Only cone atoms
        //    change aliveness, so the residual count moves by the cone's
        //    alive atoms before and after (appended atoms were never
        //    counted).
        let mut closer = Closer::resume(&self.graph, std::mem::take(&mut self.base_close));
        let alive_before = cone
            .atoms
            .iter()
            .filter(|a| a.index() < dg.first_new_atom && closer.atom_alive(**a))
            .count();
        closer.reopen_cone(&mut self.base_model, &self.m0, cone);
        closer.run(&mut self.base_model)?;
        let alive_after = cone.atoms.iter().filter(|&&a| closer.atom_alive(a)).count();
        self.residual_atoms = self.residual_atoms + alive_after - alive_before;

        // 5. Condensation patch.
        let patch = self.engine.patch_cone(&closer, cone);
        self.base_close = closer.into_state();
        debug_assert_eq!(self.residual_atoms, self.base_close.alive_atom_count());
        delta.components_removed = patch.retired.len();
        delta.components_added = patch.new_components.len();
        delta.residual_atoms = self.residual_atoms;

        // 6. Advance the served well-founded state over the cone. It is
        //    taken out first: a failed advance leaves it half-advanced,
        //    and the caller's rebuild then runs the next read in full.
        let memo = self
            .read_memo
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        memo.model = None;
        memo.outcomes = None;
        if let Some(mut wf) = memo.wf.take() {
            wf.advance(&self.graph, &mut self.engine, &self.m0, cone, &patch)?;
            memo.wf = Some(wf);
            delta.components_reevaluated = patch.new_components.len();
        }
        Ok(())
    }

    fn clear_read_memo(&mut self) {
        *self
            .read_memo
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = ReadMemo::default();
    }

    fn lock_read_memo(&self) -> MutexGuard<'_, ReadMemo> {
        // The memo is only ever assigned complete values, so a panic
        // mid-evaluation leaves nothing half-written behind the poison.
        self.read_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Re-prepares everything from the current (already mutated)
    /// database.
    /// The read memo is dropped first, whether or not the prepare
    /// succeeds: its state describes a graph this call replaces.
    fn rebuild_in_place(&mut self) -> Result<(), SemanticsError> {
        self.clear_read_memo();
        let prepared = prepare(&self.program, &self.database, &self.config)?;
        self.graph = prepared.graph;
        self.grounder = prepared.grounder;
        self.m0 = prepared.m0;
        self.base_model = prepared.base_model;
        self.base_close = prepared.base_close;
        self.residual_atoms = prepared.residual_atoms;
        self.engine = prepared.engine;
        Ok(())
    }

    fn finish_rebuild_delta(&self, delta: &mut PrepareDelta, reason: String) {
        delta.rebuilt = true;
        delta.rebuild_reason = Some(reason);
        delta.residual_atoms = self.residual_atom_count();
    }

    /// Algorithm Well-Founded against the prepared state: the served
    /// model of the read memo, evaluated in full on the first read after
    /// preparation and advanced over each mutation's
    /// cone since. Under `detailed_stats` every call evaluates afresh,
    /// so the per-event logs describe one whole run. Identical model to
    /// `tiebreak_core`'s interpreters.
    ///
    /// # Errors
    ///
    /// Propagation conflicts (substrate misuse) only.
    pub fn well_founded(&self) -> Result<EvalOutcome, SemanticsError> {
        Ok(self.decode(self.well_founded_run()?))
    }

    /// [`Solver::well_founded`] returning the raw [`InterpreterRun`]
    /// (undecoded model) — for callers that feed the model into analysis
    /// passes such as justification.
    ///
    /// # Errors
    ///
    /// As for [`Solver::well_founded`].
    pub fn well_founded_run(&self) -> Result<InterpreterRun, SemanticsError> {
        if self.config.eval.detailed_stats {
            return eval::evaluate(self, None, true, true).map(|(run, _)| run);
        }
        let run = self.lock_read_memo().run(self)?;
        Ok(InterpreterRun::clone(&run))
    }

    /// Algorithm Well-Founded Tie-Breaking against the prepared state:
    /// one walk in topological order, so `policy` meets the ties in that
    /// order. Identical outcome set to the paper-literal global loop.
    ///
    /// # Errors
    ///
    /// As for [`Solver::well_founded`].
    pub fn well_founded_tie_breaking(
        &self,
        policy: &mut impl TiePolicy,
    ) -> Result<EvalOutcome, SemanticsError> {
        Ok(self.decode(self.well_founded_tie_breaking_run(policy)?))
    }

    /// [`Solver::well_founded_tie_breaking`] returning the raw
    /// [`InterpreterRun`].
    ///
    /// # Errors
    ///
    /// As for [`Solver::well_founded`].
    pub fn well_founded_tie_breaking_run(
        &self,
        policy: &mut impl TiePolicy,
    ) -> Result<InterpreterRun, SemanticsError> {
        self.tie_breaking_run(policy, true)
    }

    /// Algorithm Pure Tie-Breaking against the prepared state: one walk
    /// in topological order with `policy`.
    ///
    /// # Errors
    ///
    /// As for [`Solver::well_founded`].
    pub fn pure_tie_breaking(
        &self,
        policy: &mut impl TiePolicy,
    ) -> Result<EvalOutcome, SemanticsError> {
        Ok(self.decode(self.pure_tie_breaking_run(policy)?))
    }

    /// [`Solver::pure_tie_breaking`] returning the raw [`InterpreterRun`].
    ///
    /// # Errors
    ///
    /// As for [`Solver::well_founded`].
    pub fn pure_tie_breaking_run(
        &self,
        policy: &mut impl TiePolicy,
    ) -> Result<InterpreterRun, SemanticsError> {
        self.tie_breaking_run(policy, false)
    }

    fn tie_breaking_run(
        &self,
        policy: &mut impl TiePolicy,
        use_unfounded: bool,
    ) -> Result<InterpreterRun, SemanticsError> {
        let detailed = self.config.eval.detailed_stats;
        eval::evaluate(
            self,
            Some(policy as &mut dyn TiePolicy),
            use_unfounded,
            detailed,
        )
        .map(|(run, _)| run)
    }

    /// Explores every tie script of the chosen interpreter flavour
    /// (`pure` selects Pure Tie-Breaking; otherwise Well-Founded
    /// Tie-Breaking), forking each script copy-on-write off the shared
    /// post-close snapshot, breadth-first. Identical outcome set to
    /// `tiebreak_core::semantics::outcomes::all_outcomes`, but
    /// O(close + scripts × residual) instead of O(scripts × close).
    ///
    /// At most `max_runs` scripts run, and only those are built: the
    /// pending-script frontier holds at most `max_runs` prefixes, so
    /// memory is O(`max_runs` × choices). Each call enumerates afresh;
    /// [`ReadBatch::outcomes`] serves the rendered reply from the read
    /// memo instead.
    ///
    /// # Errors
    ///
    /// As for [`Solver::well_founded`].
    pub fn all_outcomes(&self, pure: bool, max_runs: usize) -> Result<OutcomeSet, SemanticsError> {
        outcomes::all_outcomes(self, pure, max_runs)
    }

    /// Decodes an interpreter run into text-ordered fact lists
    /// ([`EvalOutcome::decode`]).
    pub(crate) fn decode(&self, run: InterpreterRun) -> EvalOutcome {
        EvalOutcome::decode(self.graph.atoms(), run)
    }
}

/// Counts one read-memo lookup in the live metrics.
fn count_read_memo(hit: bool) {
    let m = tiebreak_trace::metrics();
    if hit {
        m.read_memo_hits.inc();
    } else {
        m.read_memo_misses.inc();
    }
}

/// A view of the solver's read memo that answers read-only queries one
/// at a time. The script interpreter and the serving tier's
/// per-connection fan-out answer every read through one.
///
/// The batch holds no results of its own: [`ReadBatch::run`],
/// [`ReadBatch::model`] and [`ReadBatch::outcomes`] hand out shared
/// handles to the memo's three values — the served run and the encoded
/// bodies of the `? wf` and `? outcomes N` replies — computing them only
/// when the memo is empty: after preparation or a rebuild for the run
/// (writes advance it), after any state change for the bodies (which a
/// read of another outcome key also replaces). Every lookup counts once
/// in the `read_memo_hits` or `read_memo_misses` metric. A batch is
/// pinned to the epoch of its first query: feeding it a solver that has
/// since mutated (or a different solver) is a logic error and panics in
/// debug builds. Create a fresh batch per session-lock acquisition.
#[derive(Debug, Default)]
pub struct ReadBatch {
    epoch: Option<u64>,
}

impl ReadBatch {
    /// An empty batch; the first query reads (or fills) the memo.
    pub fn new() -> Self {
        ReadBatch::default()
    }

    fn pin(&mut self, solver: &Solver) {
        let epoch = *self.epoch.get_or_insert(solver.epoch());
        debug_assert_eq!(epoch, solver.epoch(), "ReadBatch reused across epochs");
    }

    /// The state's shared well-founded run, evaluated in full on the
    /// first read after preparation or a rebuild.
    ///
    /// # Errors
    ///
    /// As for [`Solver::well_founded`].
    pub fn run(&mut self, solver: &Solver) -> Result<Arc<InterpreterRun>, SemanticsError> {
        self.pin(solver);
        let mut memo = solver.lock_read_memo();
        count_read_memo(memo.wf.is_some());
        memo.run(solver)
    }

    /// The state's `? wf` reply body: one `fact.` line per true atom in
    /// text order, then `% partial model: N atoms left undefined` when
    /// the model is partial ([`crate::reply::render_model`]). Rendered
    /// at most once per state; every later read of the state gets the
    /// same `Arc`. `Err(ReplyTooLarge)` inside the `Ok` when the body
    /// outgrows the solver's reply cap.
    ///
    /// # Errors
    ///
    /// As for [`Solver::well_founded`].
    pub fn model(&mut self, solver: &Solver) -> Result<Reply, SemanticsError> {
        self.pin(solver);
        let mut memo = solver.lock_read_memo();
        count_read_memo(memo.model.is_some());
        memo.model(solver)
    }

    /// The state's `? outcomes` reply body for one flavour (`pure`, see
    /// [`Solver::all_outcomes`]) and run budget
    /// ([`crate::reply::render_outcomes`]). The memo holds one body per
    /// state: repeats of one key enumerate and render once per state, and
    /// a read of another key replaces the body. `Err(ReplyTooLarge)`
    /// inside the `Ok` when the body outgrows the solver's reply cap.
    ///
    /// # Errors
    ///
    /// As for [`Solver::well_founded`].
    pub fn outcomes(
        &mut self,
        solver: &Solver,
        pure: bool,
        max_runs: usize,
    ) -> Result<Reply, SemanticsError> {
        self.pin(solver);
        let key = (pure, max_runs);
        let mut memo = solver.lock_read_memo();
        count_read_memo(matches!(&memo.outcomes, Some((k, _)) if *k == key));
        memo.outcomes(solver, key)
    }

    /// One atom's verdict from the shared run (`None`: not in the ground
    /// atom space).
    ///
    /// # Errors
    ///
    /// As for [`Solver::well_founded`].
    pub fn truth(
        &mut self,
        solver: &Solver,
        fact: &GroundAtom,
    ) -> Result<Option<TruthValue>, SemanticsError> {
        let run = self.run(solver)?;
        Ok(solver
            .graph()
            .atoms()
            .id_of(fact)
            .map(|id| run.model.get(id)))
    }
}
