//! One evaluation: one sequential walk of the residual condensation.
//!
//! The paper's interpreters settle the residual graph one component at a
//! time, sources first. An evaluation forks the session's shared
//! post-close state (model + [`datalog_ground::CloseState`] +
//! condensation scratch) and runs the sequential kernel
//! (`tiebreak_core::semantics::process_components`) over
//! [`UnfoundedEngine::order`](datalog_ground::UnfoundedEngine::order)
//! with at most one tie policy. That policy therefore meets every tie of
//! the run in topological order, exactly as in the one-shot
//! `tiebreak_core::semantics::*_with` interpreters, which walk the same
//! order of the same condensation: a fresh session and those
//! interpreters make the same choices with the same policy (checked by
//! `tests/runtime_parallel.rs`).
//!
//! **Not the write path.** Serving reads ([`crate::ReadBatch`], every
//! `?` query of a session script) and [`Solver::well_founded`] walk the
//! whole order at most once per prepared state: the session's read memo
//! keeps the close state the plain well-founded walk ends in, and
//! [`Solver::apply`] *advances* that state over each mutation's cone
//! (re-close the cone, then run the kernel over the cone's new
//! components only). A full walk happens after preparation, after a
//! rebuild, and under `detailed_stats`.

use datalog_ground::{CloseState, Closer};
use tiebreak_core::semantics::{process_components, ComponentPass, SemanticsError};
use tiebreak_core::{InterpreterRun, RunStats, TiePolicy};

use crate::session::Solver;

/// Walks `solver`'s condensation once from its prepared state, returning
/// the run and the close state it ended in.
///
/// `policy: None` runs plain well-founded evaluation (no tie phase);
/// `use_unfounded` keeps the unfounded-set priority of the well-founded
/// flavours, exactly as in the one-shot interpreters.
pub(crate) fn evaluate(
    solver: &Solver,
    policy: Option<&mut dyn TiePolicy>,
    use_unfounded: bool,
    detailed: bool,
) -> Result<(InterpreterRun, CloseState), SemanticsError> {
    let order = solver.engine.order();
    let _span = tiebreak_trace::span("eval", "evaluate", &[("components", order.len() as u64)]);
    tiebreak_trace::metrics().evaluations.inc();

    // The base close is shared by every evaluation of the session; its
    // one propagation round is part of each run's accounting so session
    // stats remain comparable with the one-shot interpreters.
    let mut stats = RunStats {
        close_rounds: 1,
        ..RunStats::default()
    };
    let mut closer = Closer::from_state(&solver.graph, &solver.base_close);
    let mut model = solver.base_model.clone();
    let mut engine = solver.engine.clone();
    let mut pass = ComponentPass {
        use_unfounded,
        detailed,
        policy,
    };
    process_components(
        &mut closer,
        &mut model,
        &mut engine,
        order,
        &mut pass,
        &mut stats,
    )?;
    let total = model.is_total();
    Ok((
        InterpreterRun {
            model,
            total,
            stats,
        },
        closer.into_state(),
    ))
}
