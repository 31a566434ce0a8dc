//! The parallel branch + wave scheduler.
//!
//! One evaluation = one walk of the residual condensation. The walk
//! splits into *branches* (weakly connected component families,
//! [`UnfoundedEngine::group_count`](datalog_ground::UnfoundedEngine::group_count)):
//! `close` propagation follows graph edges, so no assignment made inside
//! one branch can ever reach another — branches are causally independent
//! and every dependency a component has lies inside its own branch,
//! upstream in the branch's topological component order. Scheduling
//! therefore runs in two phases:
//!
//! 1. **Branch phase** — workers pull branch ids from a shared atomic
//!    cursor; each worker forks a private copy of the post-close state
//!    (model + [`datalog_ground::CloseState`] + condensation scratch) and
//!    runs the sequential kernel
//!    (`tiebreak_core::semantics::process_components`) over the branch's
//!    components in topological order. Finished branches record their
//!    atom assignments and a private [`RunStats`] partial.
//! 2. **Wave phase** — branches too wide for one worker (a single giant
//!    weakly-connected residual is the common dense shape) are split
//!    *internally*: components are layered by longest-path depth in the
//!    condensation DAG ([`UnfoundedEngine::component_depth`]). Every
//!    condensation edge strictly increases depth, so the components of
//!    one wave share no path — they are causally independent and can be
//!    evaluated on divergent forks. Workers claim a wave's components
//!    from a cursor, each recording its component's *close-event trail*
//!    ([`Closer::begin_trail`]); the staged results land in the wave's
//!    merge queue, which the coordinator drains **in component order**
//!    (position in the branch's topological component list) into a
//!    shared replay log. Before touching a later wave, every fork
//!    replays the log's new entries — `define` each `(atom, value)`
//!    pair, then one `close` run — which resynchronizes it exactly:
//!    `close` is confluent and `define` is a no-op on an atom already
//!    holding the same value. Joint consequences that only materialize
//!    when two components' cascades combine appear during replay on
//!    every fork identically, so the coordinator's fully-replayed fork
//!    reads off the branch's assignments exactly as the sequential
//!    kernel would, and merging per-component stats partials in
//!    component order reproduces the sequential accumulation bit for
//!    bit.
//!
//! Waves narrower than [`RuntimeConfig::resolved_wave_min_width`]
//! (`tiebreak_core::RuntimeConfig`) short-circuit to the sequential
//! kernel on the coordinator with no barrier traffic, so small sessions
//! and chain-shaped branches pay nothing for the machinery.
//!
//! **Wave dispatch is policy-free.** The [`PolicyFactory`] contract hands
//! one — possibly stateful — policy instance to each branch and promises
//! it the branch's ties in topological order, so tie-breaking runs keep
//! branch-level scheduling; plain well-founded evaluation has no policy
//! and dispatches in waves.
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
//! merged model with one sequential replay.
//!
//! Determinism: which worker evaluates a branch or a wave component, and
//! when, affects nothing — results depend only on the shared prepared
//! state (plus the branch-keyed policy in the branch phase), merge queues
//! drain in component order, and the final join merges in branch-id
//! order. Models, outcome sets, and stats are bit-identical across thread
//! counts and schedules. Workers keep their fork across branches and
//! waves, so memory is O(threads × graph), not O(branches × graph). A
//! worker failure (error or panic) raises a shared flag; every worker
//! still completes the barrier protocol — skipping the work — so the
//! failure propagates instead of deadlocking.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use datalog_ground::{AtomId, CloseState, Closer, PartialModel, TruthValue, UnfoundedEngine};
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

/// One component's recorded close events: every atom its evaluation
/// defined (root falsifications and propagated consequences alike), with
/// the value it ended on.
type TrailEvents = Vec<(AtomId, TruthValue)>;

/// The wave schedule of one wide branch: components bucketed by
/// condensation depth, each wave listing `(position in the branch's
/// topological component order, component)` in position order.
struct WavePlan {
    branch: u32,
    waves: Vec<Vec<(usize, u32)>>,
}

fn wave_plan(engine: &UnfoundedEngine, branch: u32) -> WavePlan {
    let mut buckets: BTreeMap<u32, Vec<(usize, u32)>> = BTreeMap::new();
    for (pos, &c) in engine.group_components(branch).iter().enumerate() {
        buckets
            .entry(engine.component_depth(c))
            .or_default()
            .push((pos, c));
    }
    WavePlan {
        branch,
        waves: buckets.into_values().collect(),
    }
}

/// One component's result, staged in the current wave's merge queue.
struct WaveResult {
    /// Position in the branch's topological component order — the
    /// deterministic merge key.
    pos: usize,
    /// The component id, carried for the merge trace event.
    comp: u32,
    events: TrailEvents,
    stats: RunStats,
}

/// What stopped a worker early.
enum WaveFailure {
    Error(SemanticsError),
    Panic(Box<dyn std::any::Any + Send>),
}

/// Shared coordination state of the wave phase (and the failure channel
/// of both phases).
struct WaveState {
    /// The replay log: merged close events of every processed component,
    /// appended wave by wave in component order. Fork replay cursors
    /// index into it; it only ever grows.
    trail: Mutex<Vec<TrailEvents>>,
    /// The current wave's merge queue.
    staged: Mutex<Vec<WaveResult>>,
    /// Claim cursor into the current wave's component list; reset by the
    /// coordinator between waves, while everyone else sits at the entry
    /// barrier.
    cursor: AtomicUsize,
    /// Wave-boundary synchronization (all workers).
    barrier: Barrier,
    /// First failure wins; the flag makes every worker skip remaining
    /// work while still completing the barrier protocol.
    failure: Mutex<Option<WaveFailure>>,
    failed: AtomicBool,
}

impl WaveState {
    fn fail(&self, failure: WaveFailure) {
        let mut slot = lock(&self.failure);
        if slot.is_none() {
            *slot = Some(failure);
        }
        self.failed.store(true, Ordering::Release);
    }

    fn has_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }
}

/// Mutex access that survives a poisoned lock: the failure protocol
/// already records the panic, and every structure behind these locks
/// stays consistent (appends and takes are whole-value).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Replays every log entry this fork has not seen yet: `define` each
/// recorded `(atom, value)` pair (a no-op for atoms the fork defined
/// itself), then one `close` run to the joint fixpoint.
fn drain_trail(
    wave: &WaveState,
    replayed: &mut usize,
    closer: &mut Closer<'_>,
    model: &mut PartialModel,
) -> Result<(), SemanticsError> {
    let pending: Vec<TrailEvents> = {
        let log = lock(&wave.trail);
        if *replayed >= log.len() {
            return Ok(());
        }
        log[*replayed..].to_vec()
    };
    *replayed += pending.len();
    for events in &pending {
        for &(atom, value) in events {
            closer.define(model, atom, value);
        }
    }
    closer.run(model)?;
    Ok(())
}

/// Runs one wave component on the worker's fork, returning its recorded
/// close events and its private stats partial.
fn run_wave_component(
    closer: &mut Closer<'_>,
    model: &mut PartialModel,
    engine: &mut UnfoundedEngine,
    c: u32,
    use_unfounded: bool,
    detailed: bool,
) -> Result<(TrailEvents, RunStats), SemanticsError> {
    let mut stats = RunStats::default();
    let mut pass = ComponentPass {
        use_unfounded,
        detailed,
        policy: None,
    };
    closer.begin_trail();
    let outcome = process_components(closer, model, engine, &[c], &mut pass, &mut stats);
    let trail = closer.take_trail();
    outcome?;
    let events = trail.into_iter().map(|a| (a, model.get(a))).collect();
    Ok((events, stats))
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
    let branches = solver.engine.group_count();
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
        let min_width = solver.config.runtime.resolved_wave_min_width();
        // Wave-eligible branches: policy-free runs with more than one
        // worker available, skipping branches whose widest wave could
        // not feed a second worker anyway.
        let wave_plans: Vec<WavePlan> = if factory.is_none() && threads > 1 {
            (0..branches as u32)
                .filter(|&b| solver.engine.group_wave_width(b) >= min_width)
                .map(|b| wave_plan(&solver.engine, b))
                .collect()
        } else {
            Vec::new()
        };
        let is_wave: Vec<bool> = {
            let mut v = vec![false; branches];
            for plan in &wave_plans {
                v[plan.branch as usize] = true;
            }
            v
        };

        let branch_cursor = AtomicUsize::new(0);
        let wave = WaveState {
            trail: Mutex::new(Vec::new()),
            staged: Mutex::new(Vec::new()),
            cursor: AtomicUsize::new(0),
            barrier: Barrier::new(threads),
            failure: Mutex::new(None),
            failed: AtomicBool::new(false),
        };
        let wave_ref = &wave;
        let wave_plans_ref = &wave_plans;
        let is_wave_ref = &is_wave;

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
            let mut replayed = 0usize;

            // Phase 1: branch-level parallelism over the simple branches
            // (the whole evaluation when nothing is wave-eligible).
            loop {
                if wave_ref.has_failed() {
                    break;
                }
                let b = branch_cursor.fetch_add(1, Ordering::Relaxed);
                if b >= branches {
                    break;
                }
                if is_wave_ref[b] {
                    continue;
                }
                let branch = b as u32;
                let _branch_span =
                    tiebreak_trace::span("eval", "branch", &[("branch", u64::from(branch))]);
                let outcome = catch_unwind(AssertUnwindSafe(
                    || -> Result<BranchOutcome, SemanticsError> {
                        let comps = solver.engine.group_components(branch);
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
                    Ok(Err(e)) => wave_ref.fail(WaveFailure::Error(e)),
                    Err(p) => wave_ref.fail(WaveFailure::Panic(p)),
                }
            }

            // Phase 2: cooperative wave scheduling of the wide branches,
            // in branch-id order. Every worker walks the identical
            // wave sequence, so barrier arrivals always line up — on
            // failure the work is skipped, never the barriers.
            for plan in wave_plans_ref {
                let mut merged: Vec<(usize, RunStats)> = Vec::new();
                for (wave_idx, wave_comps) in plan.waves.iter().enumerate() {
                    if wave_comps.len() < min_width {
                        // Narrow wave: sequential kernel inline on the
                        // coordinator, no barrier traffic.
                        if worker_id == 0 && !wave_ref.has_failed() {
                            let outcome =
                                catch_unwind(AssertUnwindSafe(|| -> Result<(), SemanticsError> {
                                    drain_trail(
                                        wave_ref,
                                        &mut replayed,
                                        &mut closer,
                                        &mut fork_model,
                                    )?;
                                    for &(pos, c) in wave_comps {
                                        let (events, comp_stats) = run_wave_component(
                                            &mut closer,
                                            &mut fork_model,
                                            &mut engine,
                                            c,
                                            use_unfounded,
                                            detailed,
                                        )?;
                                        merged.push((pos, comp_stats));
                                        lock(&wave_ref.trail).push(events);
                                    }
                                    Ok(())
                                }));
                            match outcome {
                                Ok(Ok(())) => {}
                                Ok(Err(e)) => wave_ref.fail(WaveFailure::Error(e)),
                                Err(p) => wave_ref.fail(WaveFailure::Panic(p)),
                            }
                        }
                        continue;
                    }
                    // Wide wave. Entry barrier: the previous wave's merge
                    // is complete and the claim cursor reset.
                    wave_ref.barrier.wait();
                    if !wave_ref.has_failed() {
                        // One span per wave × worker: how much of the
                        // wave each worker actually claimed.
                        let mut wave_span = tiebreak_trace::span(
                            "eval",
                            "wave",
                            &[
                                ("branch", u64::from(plan.branch)),
                                ("wave", wave_idx as u64),
                                ("width", wave_comps.len() as u64),
                                ("worker", worker_id as u64),
                            ],
                        );
                        let mut claimed: u64 = 0;
                        let outcome =
                            catch_unwind(AssertUnwindSafe(|| -> Result<(), SemanticsError> {
                                drain_trail(wave_ref, &mut replayed, &mut closer, &mut fork_model)?;
                                loop {
                                    let i = wave_ref.cursor.fetch_add(1, Ordering::Relaxed);
                                    if i >= wave_comps.len() || wave_ref.has_failed() {
                                        break;
                                    }
                                    let (pos, c) = wave_comps[i];
                                    claimed += 1;
                                    let (events, comp_stats) = run_wave_component(
                                        &mut closer,
                                        &mut fork_model,
                                        &mut engine,
                                        c,
                                        use_unfounded,
                                        detailed,
                                    )?;
                                    lock(&wave_ref.staged).push(WaveResult {
                                        pos,
                                        comp: c,
                                        events,
                                        stats: comp_stats,
                                    });
                                }
                                Ok(())
                            }));
                        wave_span.arg("claimed", claimed);
                        drop(wave_span);
                        match outcome {
                            Ok(Ok(())) => {}
                            Ok(Err(e)) => wave_ref.fail(WaveFailure::Error(e)),
                            Err(p) => wave_ref.fail(WaveFailure::Panic(p)),
                        }
                    }
                    // Exit barrier: all results staged. The coordinator
                    // drains the merge queue in component order — the
                    // replay log's contents (and with them every replay)
                    // become schedule-independent — and reopens the
                    // cursor for the next wave while everyone else waits
                    // at its entry barrier.
                    wave_ref.barrier.wait();
                    if worker_id == 0 {
                        let mut staged = std::mem::take(&mut *lock(&wave_ref.staged));
                        let m = tiebreak_trace::metrics();
                        m.waves_dispatched.inc();
                        m.wave_width.record(wave_comps.len() as u64);
                        m.merge_queue_depth.record(staged.len() as u64);
                        staged.sort_unstable_by_key(|r| r.pos);
                        {
                            let mut log = lock(&wave_ref.trail);
                            for result in staged {
                                // Merge events fire in component order —
                                // the determinism suite checks the drain
                                // stays topological per wave.
                                tiebreak_trace::instant(
                                    "eval",
                                    "merge",
                                    &[
                                        ("branch", u64::from(plan.branch)),
                                        ("wave", wave_idx as u64),
                                        ("pos", result.pos as u64),
                                        ("component", u64::from(result.comp)),
                                    ],
                                );
                                merged.push((result.pos, result.stats));
                                log.push(result.events);
                            }
                        }
                        wave_ref.cursor.store(0, Ordering::Release);
                    }
                }
                // Branch end: the coordinator resynchronizes fully, reads
                // the branch's assignments off its model (the sequential
                // kernel's extraction order), and folds the stats
                // partials in component order (the sequential kernel's
                // accumulation order).
                if worker_id == 0 && !wave_ref.has_failed() {
                    let outcome = catch_unwind(AssertUnwindSafe(
                        || -> Result<BranchOutcome, SemanticsError> {
                            drain_trail(wave_ref, &mut replayed, &mut closer, &mut fork_model)?;
                            merged.sort_unstable_by_key(|&(pos, _)| pos);
                            let mut branch_stats = RunStats::default();
                            for (_, partial) in &merged {
                                branch_stats.merge(partial);
                            }
                            let comps = solver.engine.group_components(plan.branch);
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
                                branch: plan.branch,
                                assignments,
                                stats: branch_stats,
                            })
                        },
                    ));
                    match outcome {
                        Ok(Ok(o)) => done.push(o),
                        Ok(Err(e)) => wave_ref.fail(WaveFailure::Error(e)),
                        Err(p) => wave_ref.fail(WaveFailure::Panic(p)),
                    }
                }
            }
            // Phase barrier for the recorder: scoped workers die right
            // after returning, so push their ring buffers to the sink.
            tiebreak_trace::flush();
            // A lone worker's fork has seen every branch: its close
            // state is the run's final one.
            let state = (threads <= 1 && !wave_ref.has_failed()).then(|| closer.into_state());
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
        if let Some(failure) = lock(&wave.failure).take() {
            match failure {
                WaveFailure::Error(e) => return Err(e),
                WaveFailure::Panic(p) => resume_unwind(p),
            }
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
