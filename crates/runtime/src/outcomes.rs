//! Copy-on-write outcome enumeration.
//!
//! `tiebreak_core::semantics::outcomes::all_outcomes` explores the tie
//! choice tree by running a full interpreter per script: every run
//! rebuilds M₀, re-bootstraps, and re-propagates the first `close` —
//! O(scripts × close) even though every script shares the identical
//! post-close prefix. A session already holds that prefix as an immutable
//! snapshot, so here each script **forks** it: rehydrate a private
//! [`Closer`] from the shared [`datalog_ground::CloseState`] (a few
//! `memcpy`s), clone the post-close model, and walk only the residual
//! condensation — O(close + scripts × residual).
//!
//! The choice tree is walked **breadth-first**: a queue of pending
//! script prefixes, each run in turn, its children queued and its model
//! deduplicated in queue order. The traversal (a breadth-first walk of
//! the same choice tree the core enumerator walks depth-first), the
//! dedup sequence, and hence `OutcomeSet::models` order are functions of
//! the prepared state alone. The outcome *set* equals the core
//! enumerator's — both drivers branch identically, flipping every
//! defaulted choice exactly once — which `crates/runtime/tests/solver.rs`
//! and `tests/runtime_parallel.rs` assert.
//!
//! **Only the scripts that run are built.** The run budget admits the
//! first `max_runs` scripts of the breadth-first order, so a child prefix
//! is queued only while the runs already made plus the queue stay under
//! it; any child past that point marks the set truncated instead. The
//! queue thus never holds more than `max_runs` prefixes of at most one
//! bool per choice: O(`max_runs` × choices) memory, where queuing every
//! child would build one prefix per choice per run. `runs`, `truncated`
//! and the model order are those of the uncapped walk
//! (`tests/runtime_parallel.rs` checks every budget up to the full run
//! count).

use std::collections::VecDeque;

use datalog_ground::Closer;
use tiebreak_core::semantics::outcomes::OutcomeSet;
use tiebreak_core::semantics::{process_components, ComponentPass, SemanticsError};
use tiebreak_core::{RunStats, ScriptedPolicy};

use crate::session::Solver;

/// Explores every tie script of one interpreter flavour against the
/// prepared state, stopping after `max_runs` forks.
pub(crate) fn all_outcomes(
    solver: &Solver,
    pure: bool,
    max_runs: usize,
) -> Result<OutcomeSet, SemanticsError> {
    let mut span = tiebreak_trace::span("eval", "outcomes", &[("max_runs", max_runs as u64)]);
    let order = solver.engine.order();
    // One engine clone holds the kernel's scratch for every script.
    let mut engine = solver.engine.clone();
    let mut models = Vec::new();
    let mut frontier: VecDeque<Vec<bool>> = VecDeque::from([Vec::new()]);
    let mut runs = 0usize;
    let mut truncated = false;

    while let Some(prefix) = frontier.pop_front() {
        if runs >= max_runs {
            truncated = true;
            break;
        }
        runs += 1;
        // One copy-on-write fork: state snapshot in, script-delta out.
        let mut closer = Closer::from_state(&solver.graph, &solver.base_close);
        let mut model = solver.base_model.clone();
        let mut policy = ScriptedPolicy::new(prefix.clone(), false);
        let mut pass = ComponentPass {
            use_unfounded: !pure,
            detailed: false,
            policy: Some(&mut policy),
        };
        process_components(
            &mut closer,
            &mut model,
            &mut engine,
            order,
            &mut pass,
            &mut RunStats::default(),
        )?;
        // Children flip every defaulted (false) answer exactly once — the
        // same branching rule as the core driver. A child is queued only
        // if it falls within the run budget: the runs made plus the queue.
        for flip_at in prefix.len()..policy.consumed() {
            if runs + frontier.len() >= max_runs {
                truncated = true;
                break;
            }
            let mut next = prefix.clone();
            next.extend(std::iter::repeat_n(false, flip_at - prefix.len()));
            next.push(true);
            frontier.push_back(next);
        }
        if !models.contains(&model) {
            models.push(model);
        }
    }

    span.arg("runs", runs as u64);
    span.arg("models", models.len() as u64);
    tiebreak_trace::metrics().outcome_scripts.add(runs as u64);
    Ok(OutcomeSet {
        models,
        runs,
        truncated,
    })
}
