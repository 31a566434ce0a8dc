//! The served well-founded state: where the plain well-founded run ends,
//! kept by the session's read memo and advanced over each mutation's
//! cone instead of re-evaluated.
//!
//! The paper's algorithm settles the residual condensation one component
//! at a time in topological order, and a component's value depends only
//! on the components upstream of it. A mutation's forward cone is closed
//! downstream, so no component outside it changes value, and
//! [`datalog_ground::UnfoundedEngine::patch_cone`] orders the cone's new
//! components after every retained one. Advancing is therefore exact:
//! re-open the cone on the kept close state against the frozen remainder
//! ([`Closer::reopen_cone`]), close, and run the sequential kernel over
//! the new components only.

use std::sync::Arc;

use datalog_ground::{
    CloseState, Closer, Cone, ConePatch, GroundGraph, PartialModel, UnfoundedEngine,
};
use tiebreak_core::semantics::{process_components, ComponentPass, SemanticsError};
use tiebreak_core::{InterpreterRun, RunStats};

use crate::eval;
use crate::session::Solver;

/// The state a plain well-founded run ends in.
pub(crate) struct WfState {
    /// The run readers share: the model and the stats derived from
    /// `rounds`.
    pub(crate) run: Arc<InterpreterRun>,
    /// The close state the run ended in: what the next cone re-opens.
    close: CloseState,
    /// Unfounded rounds of the live components.
    rounds: Rounds,
    /// Undefined atoms of `run.model`: the run is total iff there are
    /// none.
    undefined: usize,
}

impl WfState {
    /// One full walk ([`eval::evaluate`]), keeping the close state it
    /// ends in.
    pub(crate) fn evaluate(solver: &Solver) -> Result<Self, SemanticsError> {
        // Detailed stats carry the per-component rounds, in walk order.
        let (mut run, close) = eval::evaluate(solver, None, true, true)?;
        let engine = &solver.engine;
        let mut rounds = Rounds::default();
        for (&c, &r) in engine.order().iter().zip(&run.stats.component_rounds) {
            rounds.insert(c, r);
        }
        run.stats = rounds.stats(engine.component_count());
        Ok(WfState {
            undefined: run.model.undefined_atoms().count(),
            run: Arc::new(run),
            close,
            rounds,
        })
    }

    /// Advances the state over a mutation's cone, after `engine` was
    /// patched with it (`patch`: its retired ids, and its new components
    /// in topological order), in O(cone): the model's undefined count and
    /// the stats' round sum and maximum are adjusted by what changed, not
    /// rescanned. On error the state is half-advanced and must be
    /// dropped.
    pub(crate) fn advance(
        &mut self,
        graph: &GroundGraph,
        engine: &mut UnfoundedEngine,
        m0: &PartialModel,
        cone: &Cone,
        patch: &ConePatch,
    ) -> Result<(), SemanticsError> {
        let new_components = &patch.new_components;
        let _span = tiebreak_trace::span(
            "session",
            "advance",
            &[("components", new_components.len() as u64)],
        );
        tiebreak_trace::metrics().wf_advances.inc();
        // In place unless a reader still holds the old run.
        let run = Arc::make_mut(&mut self.run);
        // Appended atoms are in the cone and were never counted.
        let known = run.model.len();
        let undefined_in_cone = |model: &PartialModel, known: usize| {
            cone.atoms
                .iter()
                .filter(|a| a.index() < known && !model.get(**a).is_defined())
                .count()
        };
        let before = undefined_in_cone(&run.model, known);
        run.model.grow(graph.atom_count());
        self.close.grow(graph.atom_count(), graph.rule_count());
        let mut closer = Closer::resume(graph, std::mem::take(&mut self.close));
        closer.reopen_cone(&mut run.model, m0, cone);
        closer.run(&mut run.model)?;
        let mut stats = RunStats::default();
        let mut pass = ComponentPass {
            use_unfounded: true,
            detailed: true,
            policy: None,
        };
        process_components(
            &mut closer,
            &mut run.model,
            engine,
            new_components,
            &mut pass,
            &mut stats,
        )?;
        self.close = closer.into_state();
        self.undefined = self.undefined + undefined_in_cone(&run.model, usize::MAX) - before;
        for &c in &patch.retired {
            self.rounds.remove(c);
        }
        for (&c, &r) in new_components.iter().zip(&stats.component_rounds) {
            self.rounds.insert(c, r);
        }
        run.stats = self.rounds.stats(engine.component_count());
        run.total = self.undefined == 0;
        debug_assert_eq!(self.undefined, run.model.undefined_atoms().count());
        debug_assert_eq!(run.stats, self.rounds.scan(engine.order()));
        Ok(())
    }
}

/// The unfounded rounds of each live component, with their running sum
/// and a histogram of round counts, so a patch that retires and adds a
/// few components updates a plain well-founded run's stats in O(cone).
#[derive(Default)]
struct Rounds {
    /// Rounds per component id. An id retired by a patch is removed
    /// before it is recycled.
    by_comp: Vec<usize>,
    /// The sum over live components.
    sum: usize,
    /// `hist[r]`: live components with `r` rounds. Its last entry is
    /// non-zero, so its length is one past the maximum.
    hist: Vec<usize>,
}

impl Rounds {
    fn insert(&mut self, c: u32, r: usize) {
        let c = c as usize;
        if c >= self.by_comp.len() {
            self.by_comp.resize(c + 1, 0);
        }
        self.by_comp[c] = r;
        self.sum += r;
        if r >= self.hist.len() {
            self.hist.resize(r + 1, 0);
        }
        self.hist[r] += 1;
    }

    fn remove(&mut self, c: u32) {
        let r = self.by_comp[c as usize];
        self.sum -= r;
        self.hist[r] -= 1;
        while self.hist.last() == Some(&0) {
            self.hist.pop();
        }
    }

    /// A plain well-founded run's stats over `components` live
    /// components: each unfounded round is one `close` round, plus the
    /// base close.
    fn stats(&self, components: usize) -> RunStats {
        RunStats {
            components_processed: components,
            unfounded_rounds: self.sum,
            max_component_rounds: self.hist.len().saturating_sub(1),
            close_rounds: 1 + self.sum,
            ..RunStats::default()
        }
    }

    /// [`Rounds::stats`] recomputed by a scan of the live components in
    /// `order`: the debug-build check of the running sum and histogram.
    fn scan(&self, order: &[u32]) -> RunStats {
        let rounds = || order.iter().map(|&c| self.by_comp[c as usize]);
        let sum: usize = rounds().sum();
        RunStats {
            components_processed: order.len(),
            unfounded_rounds: sum,
            max_component_rounds: rounds().max().unwrap_or(0),
            close_rounds: 1 + sum,
            ..RunStats::default()
        }
    }
}
