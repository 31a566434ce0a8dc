//! The parallel branch scheduler.
//!
//! One evaluation = one walk of the residual condensation. The walk
//! splits into *branches* (weakly connected component families,
//! [`UnfoundedEngine::groups`](datalog_ground::UnfoundedEngine::groups)):
//! `close` propagation follows graph edges, so no assignment made inside
//! one branch can ever reach another — branches are causally independent
//! and every dependency a component has lies inside its own branch,
//! upstream in the branch's topological component order.
//!
//! Workers pull branch ids from a shared atomic cursor; each worker forks
//! a private copy of the post-close state (model +
//! [`datalog_ground::CloseState`] + condensation scratch) and runs the
//! sequential kernel (`tiebreak_core::semantics::process_components`)
//! over the branch's components in topological order. Finished branches
//! record their atom assignments and a private [`RunStats`] partial. A
//! plain well-founded run and a tie-breaking run take the same path; the
//! tie-breaking one also hands each branch its own policy instance
//! ([`PolicyFactory`]), which sees the branch's ties in topological
//! order.
//!
//! **Not the write path.** Serving reads ([`crate::ReadBatch`], every
//! `?` query of a session script) and [`Solver::well_founded`] reach
//! this scheduler at most once per prepared state: the session's read
//! memo keeps the state the plain well-founded run ends in, and
//! [`Solver::apply`] *advances* that state over each mutation's cone
//! (re-close the cone, then run the sequential kernel over the cone's
//! new components only) instead of re-evaluating any branch. A full
//! run happens after preparation, after a rebuild, and under
//! `detailed_stats`. At one worker the memo keeps the worker's own
//! close state; at more than one the session derives it from the
//! merged model with one sequential replay. A write does not regroup
//! branches either: the cone patch drops the grouping, and the next
//! full run (or branch count) recomputes it, numbered as a fresh build
//! numbers it, so branch ids, per-branch policies and the merge order
//! below match a fresh session's.
//!
//! Determinism: which worker evaluates a branch, and when, affects
//! nothing — results depend only on the shared prepared state and the
//! branch-keyed policy, and the final join merges in branch-id order.
//! Models, outcome sets, and stats are bit-identical across thread
//! counts and schedules. Workers keep their fork across branches, so
//! memory is O(threads × graph), not O(branches × graph). A worker
//! failure (error or panic) is recorded once; every worker stops
//! claiming branches and the first failure propagates.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use datalog_ground::{AtomId, CloseState, Closer, TruthValue};
use tiebreak_core::semantics::{process_components, ComponentPass, SemanticsError};
use tiebreak_core::{InterpreterRun, RunStats, TiePolicy};

use crate::policy::PolicyFactory;
use crate::session::Solver;

/// What one branch evaluation produced.
struct BranchOutcome {
    branch: u32,
    assignments: Vec<(AtomId, TruthValue)>,
    stats: RunStats,
}

/// What stopped a worker early.
enum WorkerFailure {
    Error(SemanticsError),
    Panic(Box<dyn std::any::Any + Send>),
}

/// The first worker failure of an evaluation. Survives a poisoned lock:
/// the slot is written whole, so a panic elsewhere cannot tear it.
#[derive(Default)]
struct FailureSlot(Mutex<Option<WorkerFailure>>);

impl FailureSlot {
    fn fail(&self, failure: WorkerFailure) {
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(failure);
        }
    }

    fn has_failed(&self) -> bool {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    fn take(self) -> Option<WorkerFailure> {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Runs one full evaluation against `solver`'s prepared state.
///
/// `factory: None` runs plain well-founded evaluation (no tie phase);
/// `use_unfounded` keeps the unfounded-set priority of the well-founded
/// flavours, exactly as in the sequential interpreters.
pub(crate) fn run_session<F: PolicyFactory>(
    solver: &Solver,
    factory: Option<&F>,
    use_unfounded: bool,
) -> Result<InterpreterRun, SemanticsError> {
    let detailed = solver.config.eval.detailed_stats;
    evaluate(solver, factory, use_unfounded, detailed).map(|(run, _)| run)
}

/// [`run_session`] with the stats detail chosen by the caller, also
/// returning the close state the evaluation ended in when one worker
/// did all of it (`None` when several workers split the work: each
/// fork saw only part of it).
pub(crate) fn evaluate<F: PolicyFactory>(
    solver: &Solver,
    factory: Option<&F>,
    use_unfounded: bool,
    detailed: bool,
) -> Result<(InterpreterRun, Option<CloseState>), SemanticsError> {
    let groups = solver.engine.groups(&solver.graph);
    let branches = groups.count();
    let threads = solver.effective_threads();
    let eval_span = tiebreak_trace::span(
        "eval",
        "evaluate",
        &[("branches", branches as u64), ("threads", threads as u64)],
    );
    let eval_id = eval_span.id();
    tiebreak_trace::metrics().evaluations.inc();

    // The base close is shared by every evaluation of the session; its
    // one propagation round is part of each run's accounting so session
    // stats remain comparable with the one-shot interpreters.
    let mut stats = RunStats {
        close_rounds: 1,
        ..RunStats::default()
    };
    let mut model = solver.base_model.clone();
    let mut lone_state = None;

    if branches > 0 {
        let branch_cursor = AtomicUsize::new(0);
        let failure = FailureSlot::default();

        let worker = |worker_id: usize| -> (Vec<BranchOutcome>, Option<CloseState>) {
            // Workers live on scoped threads: parent to the evaluation
            // span by explicit id (the TLS stack is per-thread), and
            // flush at exit so the trace survives the thread.
            let _worker_span = tiebreak_trace::child_span(
                "eval",
                "worker",
                eval_id,
                &[("worker", worker_id as u64)],
            );
            let mut closer = Closer::from_state(&solver.graph, &solver.base_close);
            let mut fork_model = solver.base_model.clone();
            let mut engine = solver.engine.clone();
            let mut done = Vec::new();

            while !failure.has_failed() {
                let b = branch_cursor.fetch_add(1, Ordering::Relaxed);
                if b >= branches {
                    break;
                }
                let branch = b as u32;
                let _branch_span =
                    tiebreak_trace::span("eval", "branch", &[("branch", u64::from(branch))]);
                let outcome = catch_unwind(AssertUnwindSafe(
                    || -> Result<BranchOutcome, SemanticsError> {
                        let comps = groups.components(branch);
                        let mut branch_stats = RunStats::default();
                        let mut policy = factory.map(|f| f.policy_for(branch));
                        let mut pass = ComponentPass {
                            use_unfounded,
                            detailed,
                            policy: policy.as_mut().map(|p| p as &mut dyn TiePolicy),
                        };
                        process_components(
                            &mut closer,
                            &mut fork_model,
                            &mut engine,
                            comps,
                            &mut pass,
                            &mut branch_stats,
                        )?;
                        let mut assignments = Vec::new();
                        for &c in comps {
                            for &a in solver.engine.component_atoms(c) {
                                let v = fork_model.get(a);
                                if v.is_defined() {
                                    assignments.push((a, v));
                                }
                            }
                        }
                        Ok(BranchOutcome {
                            branch,
                            assignments,
                            stats: branch_stats,
                        })
                    },
                ));
                match outcome {
                    Ok(Ok(o)) => done.push(o),
                    Ok(Err(e)) => failure.fail(WorkerFailure::Error(e)),
                    Err(p) => failure.fail(WorkerFailure::Panic(p)),
                }
            }
            // Scoped workers die right after returning, so push their
            // ring buffers to the sink.
            tiebreak_trace::flush();
            // A lone worker's fork has seen every branch: its close
            // state is the run's final one.
            let state = (threads <= 1 && !failure.has_failed()).then(|| closer.into_state());
            (done, state)
        };

        let worker_results: Vec<Vec<BranchOutcome>> = if threads <= 1 {
            let (done, state) = worker(0);
            lone_state = state;
            vec![done]
        } else {
            std::thread::scope(|scope| {
                let worker = &worker;
                let handles: Vec<_> = (0..threads)
                    .map(|i| scope.spawn(move || worker(i)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("runtime worker panicked").0)
                    .collect()
            })
        };
        match failure.take() {
            Some(WorkerFailure::Error(e)) => return Err(e),
            Some(WorkerFailure::Panic(p)) => resume_unwind(p),
            None => {}
        }
        let mut partials: Vec<BranchOutcome> = worker_results.into_iter().flatten().collect();

        // Deterministic join: branch-id order, whatever the schedule was.
        partials.sort_by_key(|p| p.branch);
        for partial in &partials {
            for &(atom, value) in &partial.assignments {
                model.set(atom, value);
            }
            stats.merge(&partial.stats);
        }
        tiebreak_trace::metrics()
            .branches_evaluated
            .add(partials.len() as u64);
    } else {
        lone_state = Some(solver.base_close.clone());
    }

    let total = model.is_total();
    Ok((
        InterpreterRun {
            model,
            total,
            stats,
        },
        lone_state,
    ))
}
