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

use datalog_ground::{CloseState, Closer, Cone, GroundGraph, PartialModel, UnfoundedEngine};
use tiebreak_core::semantics::{process_components, ComponentPass, SemanticsError};
use tiebreak_core::{InterpreterRun, RootTruePolicy, RunStats};

use crate::policy::UniformPolicy;
use crate::scheduler;
use crate::session::Solver;

/// The state a plain well-founded run ends in.
pub(crate) struct WfState {
    /// The run readers share: the model and the stats derived from
    /// `rounds`.
    pub(crate) run: Arc<InterpreterRun>,
    /// The close state the run ended in: what the next cone re-opens.
    close: CloseState,
    /// Unfounded rounds per component id. Only live components are read;
    /// an id retired by a patch is overwritten when it is recycled.
    rounds: Vec<usize>,
}

impl WfState {
    /// One full run on the branch scheduler. At one worker the
    /// worker's close state is kept; at more, it is derived by
    /// [`replay`], O(residual) once per full run.
    pub(crate) fn evaluate(solver: &Solver) -> Result<Self, SemanticsError> {
        // Detailed stats carry the per-component rounds: each branch's
        // components in topological order, branches in id order.
        let (mut run, lone) =
            scheduler::evaluate::<UniformPolicy<RootTruePolicy>>(solver, None, true, true)?;
        let close = match lone {
            Some(close) => close,
            None => replay(solver, &run.model)?,
        };
        let engine = &solver.engine;
        let mut rounds = Vec::new();
        let mut logged = run.stats.component_rounds.iter();
        for g in 0..engine.group_count() as u32 {
            for &c in engine.group_components(g) {
                let r = *logged.next().expect("one round count per component");
                set_rounds(&mut rounds, c, r);
            }
        }
        run.stats = stats_from_rounds(engine.order(), &rounds);
        Ok(WfState {
            run: Arc::new(run),
            close,
            rounds,
        })
    }

    /// Advances the state over a mutation's cone, after `engine` was
    /// patched with it: `new_components` are the patch's components, in
    /// topological order. Sequential at any thread count. On error the
    /// state is half-advanced and must be dropped.
    pub(crate) fn advance(
        &mut self,
        graph: &GroundGraph,
        engine: &mut UnfoundedEngine,
        m0: &PartialModel,
        cone: &Cone,
        new_components: &[u32],
    ) -> Result<(), SemanticsError> {
        let _span = tiebreak_trace::span(
            "session",
            "advance",
            &[("components", new_components.len() as u64)],
        );
        tiebreak_trace::metrics().wf_advances.inc();
        // In place unless a reader still holds the old run.
        let run = Arc::make_mut(&mut self.run);
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
        for (&c, &r) in new_components.iter().zip(&stats.component_rounds) {
            set_rounds(&mut self.rounds, c, r);
        }
        run.stats = stats_from_rounds(engine.order(), &self.rounds);
        run.total = run.model.is_total();
        Ok(())
    }
}

/// The close state of a run that several workers split: every atom the
/// run decided is defined on a fork of the base close, then one `close`
/// run. [`Closer::reopen_cone`] reads only aliveness, support, and
/// whether a dead rule's pending count is 0, and all three depend only
/// on the final model, so the next advance reads this state exactly as
/// it would a lone worker's.
fn replay(solver: &Solver, model: &PartialModel) -> Result<CloseState, SemanticsError> {
    let mut fork = solver.base_model.clone();
    let mut closer = Closer::from_state(&solver.graph, &solver.base_close);
    for (atom, value) in model.defined() {
        // A no-op for the atoms the base close already decided.
        closer.define(&mut fork, atom, value);
    }
    closer.run(&mut fork)?;
    Ok(closer.into_state())
}

fn set_rounds(rounds: &mut Vec<usize>, c: u32, r: usize) {
    let c = c as usize;
    if c >= rounds.len() {
        rounds.resize(c + 1, 0);
    }
    rounds[c] = r;
}

/// A plain well-founded run's stats from its live components' rounds:
/// each unfounded round is one `close` round, plus the base close.
fn stats_from_rounds(order: &[u32], rounds: &[usize]) -> RunStats {
    let mut stats = RunStats {
        components_processed: order.len(),
        ..RunStats::default()
    };
    for &c in order {
        let r = rounds[c as usize];
        stats.unfounded_rounds += r;
        stats.max_component_rounds = stats.max_component_rounds.max(r);
    }
    stats.close_rounds = 1 + stats.unfounded_rounds;
    stats
}
