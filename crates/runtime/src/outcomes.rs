//! Copy-on-write outcome enumeration, parallel across scripts.
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
//! Forked scripts are mutually independent, so the choice tree is
//! explored in **waves**: the frontier of pending script prefixes is
//! evaluated concurrently on the session's worker pool, then integrated
//! — children queued, models deduplicated — strictly in frontier order.
//! The traversal (a breadth-first walk of the same choice tree the core
//! enumerator walks depth-first), the dedup sequence, and hence
//! `OutcomeSet::models` order are functions of the prepared state alone:
//! **bit-identical across thread counts and schedules**. The outcome
//! *set* equals the core enumerator's — both drivers branch identically,
//! flipping every defaulted choice exactly once — which
//! `crates/runtime/tests/solver.rs` and `tests/runtime_parallel.rs`
//! assert.
//!
//! **Only the scripts that run are built.** The run budget admits the
//! first `max_runs` scripts of the breadth-first order, so a child prefix
//! is queued only while the runs already made plus the queue stay under
//! it; any child past that point marks the set truncated instead. The
//! frontier thus never holds more than `max_runs` prefixes of at most
//! one bool per choice: O(`max_runs` × choices) memory, where queuing
//! every child would build one prefix per choice per run. `runs`,
//! `truncated` and the model order are those of the uncapped walk
//! (`tests/runtime_parallel.rs` checks every budget up to the full run
//! count).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use datalog_ground::{Closer, PartialModel};
use tiebreak_core::semantics::outcomes::OutcomeSet;
use tiebreak_core::semantics::{process_components, ComponentPass, SemanticsError};
use tiebreak_core::{RunStats, ScriptedPolicy};

use crate::session::Solver;

/// One evaluated script: its final model and how many choices it took.
type ScriptResult = Result<(PartialModel, usize), SemanticsError>;

/// Explores every tie script of one interpreter flavour against the
/// prepared state, stopping after `max_runs` forks.
pub(crate) fn all_outcomes(
    solver: &Solver,
    pure: bool,
    max_runs: usize,
) -> Result<OutcomeSet, SemanticsError> {
    let mut span = tiebreak_trace::span("eval", "outcomes", &[("max_runs", max_runs as u64)]);
    let span_id = span.id();
    let order: Vec<u32> = solver.engine.order().to_vec();
    let threads = solver.config.runtime.resolved_threads().max(1);

    // One copy-on-write fork: state snapshot in, script-delta out.
    let run_prefix =
        |prefix: &[bool], engine: &mut datalog_ground::UnfoundedEngine| -> ScriptResult {
            let mut closer = Closer::from_state(&solver.graph, &solver.base_close);
            let mut model = solver.base_model.clone();
            let mut policy = ScriptedPolicy::new(prefix.to_vec(), false);
            let mut stats = RunStats::default();
            let mut pass = ComponentPass {
                use_unfounded: !pure,
                detailed: false,
                policy: Some(&mut policy),
            };
            process_components(
                &mut closer,
                &mut model,
                engine,
                &order,
                &mut pass,
                &mut stats,
            )?;
            Ok((model, policy.consumed()))
        };

    let mut models: Vec<PartialModel> = Vec::new();
    let mut frontier: VecDeque<Vec<bool>> = VecDeque::from([Vec::new()]);
    let mut runs = 0usize;
    let mut truncated = false;
    // One engine clone per worker, reused across scripts and waves, and
    // grown lazily to the widest wave actually seen — a chain-shaped
    // choice tree (every wave a single script) clones exactly once.
    let mut worker_engines: Vec<datalog_ground::UnfoundedEngine> = vec![solver.engine.clone()];

    while !frontier.is_empty() {
        if runs >= max_runs {
            truncated = true;
            break;
        }
        let take = frontier.len().min(max_runs - runs);
        let batch: Vec<Vec<bool>> = frontier.drain(..take).collect();

        // Evaluate the wave — concurrently when it pays — into slots
        // indexed by frontier position.
        let mut results: Vec<Option<ScriptResult>> = (0..batch.len()).map(|_| None).collect();
        if threads <= 1 || batch.len() <= 1 {
            let engine = &mut worker_engines[0];
            for (slot, prefix) in results.iter_mut().zip(&batch) {
                *slot = Some(run_prefix(prefix, engine));
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<ScriptResult>>> =
                (0..batch.len()).map(|_| Mutex::new(None)).collect();
            let workers = threads.min(batch.len());
            while worker_engines.len() < workers {
                worker_engines.push(solver.engine.clone());
            }
            std::thread::scope(|scope| {
                let (cursor, slots, batch, run_prefix) = (&cursor, &slots, &batch, &run_prefix);
                for engine in worker_engines.iter_mut().take(workers) {
                    scope.spawn(move || {
                        let _w = tiebreak_trace::child_span("eval", "outcome_worker", span_id, &[]);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= batch.len() {
                                break;
                            }
                            let r = run_prefix(&batch[i], engine);
                            *slots[i].lock().expect("slot lock") = Some(r);
                        }
                    });
                }
            });
            for (slot, cell) in results.iter_mut().zip(slots) {
                *slot = cell.into_inner().expect("slot lock");
            }
        }

        // Integrate strictly in frontier order: child scripts flip every
        // defaulted (false) answer exactly once — the same branching rule
        // as the core driver — and models dedup in wave order. A child
        // is queued only if it falls within the run budget: the batch's
        // scripts all count, then the frontier runs in order.
        let runs_after_batch = runs + batch.len();
        for (prefix, result) in batch.iter().zip(results) {
            runs += 1;
            let (model, consumed) = result.expect("every slot evaluated")?;
            for flip_at in prefix.len()..consumed {
                if runs_after_batch + frontier.len() >= max_runs {
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
