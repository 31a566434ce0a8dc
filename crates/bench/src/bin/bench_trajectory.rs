//! `bench_trajectory` — the CI perf-trajectory harness.
//!
//! Runs the well-founded + grounding + runtime trajectory workloads with
//! wall-clock timing, writes a machine-readable `BENCH_<sha>.json`
//! summary (instance sizes, mode, wall time, close/unfounded/tie round
//! counts), and fails (exit code 1) when a perf gate regresses:
//!
//! * the condensation-driven interpreter (`stratified`) must not be
//!   slower than the paper-literal global loop (`global`) on the
//!   win–move tie chain at n ≥ 1024 (and ≥ 5× faster at n = 4096);
//! * the session runtime's copy-on-write `all_outcomes` must be ≥ 5×
//!   faster than the core per-script re-close enumerator at 64 scripts;
//! * incremental mutation (delta grounding + cone re-close +
//!   condensation patch + advancing the served model) must be ≥ 3×
//!   faster than full re-preparation on the small-cone churn workload
//!   (n = 4096 tie chain, source-pocket edge flapping, a read of
//!   `win(a0)` after every flip);
//! * the serving tier's shared-LRU registry must be ≥ 3× faster than a
//!   per-request full re-prepare over 8 repeated opens of one
//!   program+db key;
//! * the server, with `min(4, cores)` workers, must serve 32 concurrent
//!   connections × 8 point reads of one hot session no slower than it
//!   serves the same 256 frames sent one after another on one
//!   connection, in the median of 11 paired runs;
//! * relevant grounding (`SessionGrounder::build`) of the braided
//!   unfounded chain at 128 pockets may take at most 2.5× its median
//!   time at 64 pockets — linear, not quadratic, in program size;
//! * a session write plus its read-your-write on the braided tie chain
//!   at 1,024 pockets may take at most 1.3× its time at 512 pockets when
//!   the write's cone is the same size at both — writes cost their cone,
//!   not the instance;
//! * with the span recorder **disabled** (the production default)
//!   tracing must cost at most 2% of a braided-chain run: the events one
//!   run records with the recorder on, times the per-call cost of a
//!   disabled span (`trace_disabled_span`), against the disabled run's
//!   wall time. The enabled-recorder cost is recorded but never gated.
//!
//! The detected core count is recorded as `cores_detected`.
//!
//! Gates compare configurations on the same machine in the same process,
//! so they are ratios — robust to runner speed. Usage:
//!
//! ```text
//! bench_trajectory [--out FILE] [--sha SHA] [--baseline BENCH_<sha>.json]
//!                  [--summary FILE]
//! ```
//!
//! `SHA` defaults to `$GITHUB_SHA`, then `local`; `FILE` defaults to
//! `BENCH_<sha>.json`. With `--baseline` the summary of a previous
//! commit is diffed entry by entry: every entry gains
//! `baseline_wall_ms` / `vs_baseline` fields and a `> 1.25×` slowdown
//! prints a `warn:` line (cross-machine noise makes this advisory, not
//! a failure). With `--summary` a one-line-per-gate markdown digest
//! (`name: measured ratio vs required gate`) is written for CI to append
//! to `$GITHUB_STEP_SUMMARY`.

use std::fmt::Write as _;
use std::time::Instant;

use datalog_ast::{Database, Program};
use datalog_ground::{ground, GroundConfig, GroundMode, SessionGrounder};
use paper_constructions::generators;
use tiebreak_core::semantics::outcomes::all_outcomes_with;
use tiebreak_core::semantics::well_founded::{well_founded, well_founded_with};
use tiebreak_core::semantics::{
    well_founded_tie_breaking, well_founded_tie_breaking_with, RootTruePolicy,
};
use tiebreak_core::{EngineConfig, EvalOptions, RunStats};
use tiebreak_runtime::{ReadBatch, Solver};

/// Timed runs per configuration; the minimum is reported.
const RUNS: usize = 3;

/// Tie-chain sizes for the session-churn workload; the churn gate reads
/// its `n` from the maximum, so entries and gate stay coupled.
const CHURN_SIZES: &[usize] = &[1024, 4096];

/// Tie-chain size for the serving-tier LRU workload (and its gate).
const SERVER_LRU_N: usize = 2048;

/// Shape of the concurrent-reads workload: concurrent connections ×
/// read-only scripts per connection, all against one hot
/// `SERVER_LRU_N` session.
const READ_CONNS: usize = 32;
const READ_REPEATS: usize = 8;
/// Paired (concurrent, single) runs of the concurrent-reads workload;
/// the gate reads the median pair.
const READ_PAIRS: usize = 11;

/// Braided unfounded chain shape for the `braided_chain` and
/// trace-overhead entries: `BRAID_CHAINS` is the entry key `n`.
const BRAID_CHAINS: usize = 8;
const BRAID_POCKETS: usize = 4;
const BRAID_LOOP: usize = 128;

/// Disabled-span calls the `trace_disabled_span` entry times.
const DISABLED_SPAN_CALLS: usize = 1_000_000;

/// Braided unfounded chain shape for the grounding scaling gate: the
/// entries ground `GROUND_SCALING_POCKETS` and twice as many pockets
/// (n = pockets), in `GROUND_SCALING_PAIRS` back-to-back (n, 2n) pairs
/// after one untimed warm-up each.
const GROUND_SCALING_CHAINS: usize = 8;
const GROUND_SCALING_POCKETS: usize = 64;
const GROUND_SCALING_LOOP: usize = 16;
const GROUND_SCALING_PAIRS: usize = 15;

/// The largest allowed time(2n) / time(n) for relevant grounding: a
/// linear grounder doubles, a quadratic one quadruples.
const GROUND_SCALING_MAX_RATIO: f64 = 2.5;

/// Pockets per chain (n) of the first-order grounding scaling gate:
/// win–move over `braided_tie_chain_db(GROUND_SCALING_CHAINS, n)` and
/// twice as many, under the same pairing and bound as the braid gate.
/// The Theorem 4 circuit family would re-test the propositional case:
/// `Circuit::to_program` emits only nullary gate predicates.
const FIRST_ORDER_SCALING_POCKETS: usize = 256;

/// Braided tie chain shape for the write scaling gate: win–move over
/// `WRITE_SCALING_CHAINS` chains of `WRITE_SCALING_POCKETS` and twice as
/// many pockets (n = pockets). One timed sample is
/// `WRITE_SCALING_WRITES` toggles of one pocket edge, each followed by
/// a read of the toggled position; samples run in
/// `WRITE_SCALING_PAIRS` back-to-back (n, 2n) pairs.
const WRITE_SCALING_CHAINS: usize = 8;
const WRITE_SCALING_POCKETS: usize = 512;
const WRITE_SCALING_WRITES: usize = 256;
const WRITE_SCALING_PAIRS: usize = 15;

/// The largest allowed time(2n) / time(n) for a write whose cone does
/// not grow with n: a cone-sized write stays near 1, a write that pays
/// for the instance doubles.
const WRITE_SCALING_MAX_RATIO: f64 = 1.3;

fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

struct Entry {
    bench: &'static str,
    n: usize,
    mode: String,
    wall_ms: f64,
    atoms: usize,
    rules: usize,
    stats: RunStats,
}

fn best_of<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..RUNS {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (best, last.expect("RUNS > 0"))
}

/// The win–move chain of draw pockets, evaluated with WF tie-breaking in
/// both modes (relevant grounding keeps the graph linear in n).
fn tie_chain_entries(entries: &mut Vec<Entry>, sizes: &[usize]) {
    let program = generators::win_move_program();
    for &n in sizes {
        let db = generators::tie_chain_move_db(n);
        let graph = ground(
            &program,
            &db,
            &GroundConfig {
                mode: GroundMode::Relevant,
                ..GroundConfig::default()
            },
        )
        .expect("grounds");
        // `global` is the paper-literal loop, `stratified` the
        // condensation-driven interpreter.
        for mode in ["global", "stratified"] {
            let (wall_ms, stats) = best_of(|| {
                let mut policy = RootTruePolicy;
                let run = if mode == "global" {
                    well_founded_tie_breaking(&graph, &program, &db, &mut policy)
                } else {
                    well_founded_tie_breaking_with(
                        &graph,
                        &program,
                        &db,
                        &mut policy,
                        &EvalOptions::default(),
                    )
                }
                .expect("runs");
                assert!(run.total, "every pocket is decided");
                run.stats
            });
            entries.push(Entry {
                bench: "win_move_tie_chain",
                n,
                mode: mode.to_owned(),
                wall_ms,
                atoms: graph.atom_count(),
                rules: graph.rule_count(),
                stats,
            });
        }
    }
}

/// The unfounded chain, evaluated with plain well-founded in both modes.
fn unfounded_chain_entries(entries: &mut Vec<Entry>, sizes: &[usize]) {
    for &n in sizes {
        let program = generators::unfounded_chain_program(n);
        let db = Database::new();
        let graph = ground(&program, &db, &GroundConfig::default()).expect("grounds");
        for mode in ["global", "stratified"] {
            let (wall_ms, stats) = best_of(|| {
                let run = if mode == "global" {
                    well_founded(&graph, &program, &db)
                } else {
                    well_founded_with(&graph, &program, &db, &EvalOptions::default())
                }
                .expect("runs");
                assert!(run.total);
                run.stats
            });
            entries.push(Entry {
                bench: "unfounded_chain",
                n,
                mode: mode.to_owned(),
                wall_ms,
                atoms: graph.atom_count(),
                rules: graph.rule_count(),
                stats,
            });
        }
    }
}

/// Grounding trajectory: paper-literal full instantiation vs. the
/// join-based relevant grounder on the win–move chain.
fn grounding_entries(entries: &mut Vec<Entry>, n: usize) {
    let program = generators::win_move_program();
    // A move-chain of n edges over n + 1 constants: full grounding is
    // Θ(|U|²), relevant is Θ(n) with the same post-close residual.
    let mut db = Database::new();
    for i in 0..n {
        db.insert(datalog_ast::GroundAtom::from_texts(
            "move",
            &[&format!("c{i}"), &format!("c{}", i + 1)],
        ))
        .expect("binary facts");
    }
    for (mode, name) in [
        (GroundMode::Full, "full"),
        (GroundMode::Relevant, "relevant"),
    ] {
        let config = GroundConfig {
            mode,
            ..GroundConfig::default()
        };
        let (wall_ms, (atoms, rules)) = best_of(|| {
            let g = ground(&program, &db, &config).expect("grounds");
            (g.atom_count(), g.rule_count())
        });
        entries.push(Entry {
            bench: "grounding_win_move_chain",
            n,
            mode: name.to_owned(),
            wall_ms,
            atoms,
            rules,
            stats: RunStats::default(),
        });
    }
}

/// Relevant grounding of the braided unfounded chain (one predicate per
/// atom, every atom on a positive loop) at n and 2n pockets: the
/// session grounder's build. Returns the median pair ratio (see
/// [`paired_scaling`]).
fn ground_scaling_entries(entries: &mut Vec<Entry>) -> f64 {
    let config = GroundConfig {
        mode: GroundMode::Relevant,
        ..GroundConfig::default()
    };
    let database = Database::new();
    let programs: Vec<Program> = [GROUND_SCALING_POCKETS, 2 * GROUND_SCALING_POCKETS]
        .into_iter()
        .map(|pockets| {
            generators::braided_unfounded_chain_program(
                GROUND_SCALING_CHAINS,
                pockets,
                GROUND_SCALING_LOOP,
            )
        })
        .collect();
    paired_scaling(
        entries,
        "ground_braid_scaling",
        GROUND_SCALING_POCKETS,
        |size| {
            let t = Instant::now();
            let (graph, _) =
                SessionGrounder::build(&programs[size], &database, &config).expect("grounds");
            (
                t.elapsed().as_secs_f64() * 1e3,
                graph.atom_count(),
                graph.rule_count(),
            )
        },
    )
}

/// First-order relevant grounding: win–move over
/// `braided_tie_chain_db(GROUND_SCALING_CHAINS, n)` at n and 2n
/// pockets, each sample parsing the fact text and building the session
/// grounder, so per-fact and per-instance costs both show. Returns the
/// median pair ratio (see [`paired_scaling`]).
fn first_order_scaling_entries(entries: &mut Vec<Entry>) -> f64 {
    let config = GroundConfig {
        mode: GroundMode::Relevant,
        ..GroundConfig::default()
    };
    let program = generators::win_move_program();
    let texts: Vec<String> = [FIRST_ORDER_SCALING_POCKETS, 2 * FIRST_ORDER_SCALING_POCKETS]
        .into_iter()
        .map(|pockets| generators::braided_tie_chain_db(GROUND_SCALING_CHAINS, pockets).to_string())
        .collect();
    paired_scaling(
        entries,
        "ground_first_order_scaling",
        FIRST_ORDER_SCALING_POCKETS,
        |size| {
            let t = Instant::now();
            let database = datalog_ast::parse_database(&texts[size]).expect("parses");
            let (graph, _) = SessionGrounder::build(&program, &database, &config).expect("grounds");
            (
                t.elapsed().as_secs_f64() * 1e3,
                graph.atom_count(),
                graph.rule_count(),
            )
        },
    )
}

/// Times `sample(0)` (size `n`) and `sample(1)` (size 2n) after one
/// untimed warm-up each, in `GROUND_SCALING_PAIRS` back-to-back pairs;
/// a sample returns its wall time in ms and the graph's atom and rule
/// counts. Records each size's median under `bench` and returns the
/// median of the per-pair ratios time(2n)/time(n) for a scaling gate:
/// both halves of a pair see the same host speed, which on a shared
/// machine drifts over seconds, and the median discards pairs a noise
/// burst split.
fn paired_scaling(
    entries: &mut Vec<Entry>,
    bench: &'static str,
    n: usize,
    sample: impl Fn(usize) -> (f64, usize, usize),
) -> f64 {
    let shapes: Vec<(usize, usize)> = (0..2)
        .map(|size| {
            let (_, atoms, rules) = sample(size);
            (atoms, rules)
        })
        .collect();
    let mut times = [Vec::new(), Vec::new()];
    let mut ratios = Vec::new();
    for _ in 0..GROUND_SCALING_PAIRS {
        let pair = [sample(0).0, sample(1).0];
        ratios.push(pair[1] / pair[0].max(f64::MIN_POSITIVE));
        times[0].push(pair[0]);
        times[1].push(pair[1]);
    }
    for ((size, (atoms, rules)), mut t) in [n, 2 * n].into_iter().zip(shapes).zip(times) {
        entries.push(Entry {
            bench,
            n: size,
            mode: "median".to_owned(),
            wall_ms: median(&mut t),
            atoms,
            rules,
            stats: RunStats::default(),
        });
    }
    median(&mut ratios)
}

/// The write scaling workload: on win–move over the braided tie chain
/// at n and 2n pockets, toggle `move(t0b2, t0a2)` and read `win(t0a2)`,
/// `WRITE_SCALING_WRITES` times per sample, in back-to-back (n, 2n)
/// pairs as [`ground_scaling_entries`] times grounding. The toggled
/// pocket sits near its chain's head, so the cone (pockets 0–2 of chain
/// 0 and the hub) is the same at both sizes, which is asserted. Records
/// each size's median sample and returns the median per-pair ratio.
fn write_scaling_entries(entries: &mut Vec<Entry>) -> f64 {
    let program = generators::win_move_program();
    let fact = datalog_ast::GroundAtom::from_texts("move", &["t0b2", "t0a2"]);
    let probe = datalog_ast::GroundAtom::from_texts("win", &["t0a2"]);
    let mut solvers: Vec<(usize, Solver)> = [WRITE_SCALING_POCKETS, 2 * WRITE_SCALING_POCKETS]
        .into_iter()
        .map(|pockets| {
            let db = generators::braided_tie_chain_db(WRITE_SCALING_CHAINS, pockets);
            let solver = Solver::with_config(program.clone(), db, EngineConfig::default())
                .expect("prepares");
            (pockets, solver)
        })
        .collect();
    // One write and the read that sees it; returns the write's cone.
    let write = |solver: &mut Solver| -> usize {
        let delta = if solver.database().contains(&fact) {
            solver.retract_fact(fact.clone())
        } else {
            solver.insert_fact(fact.clone())
        }
        .expect("writes");
        assert!(!delta.rebuilt, "the toggle stays incremental");
        ReadBatch::new().truth(solver, &probe).expect("reads");
        delta.cone_atoms
    };
    // Untimed warm-up: the first read evaluates in full, and two
    // toggles put each solver's cone components at the end of its
    // order, where every later toggle finds them.
    let cones: Vec<usize> = solvers
        .iter_mut()
        .map(|(_, solver)| {
            ReadBatch::new().truth(solver, &probe).expect("reads");
            write(solver);
            write(solver)
        })
        .collect();
    assert_eq!(
        cones[0], cones[1],
        "the cone does not grow with the instance"
    );
    let sample = |solver: &mut Solver| {
        let t = Instant::now();
        for _ in 0..WRITE_SCALING_WRITES {
            write(solver);
        }
        t.elapsed().as_secs_f64() * 1e3
    };
    let mut times = [Vec::new(), Vec::new()];
    let mut ratios = Vec::new();
    for _ in 0..WRITE_SCALING_PAIRS {
        let small = sample(&mut solvers[0].1);
        let large = sample(&mut solvers[1].1);
        ratios.push(large / small.max(f64::MIN_POSITIVE));
        times[0].push(small);
        times[1].push(large);
    }
    for ((pockets, solver), mut t) in solvers.iter().zip(times) {
        entries.push(Entry {
            bench: "session_write_scaling",
            n: *pockets,
            mode: "median".to_owned(),
            wall_ms: median(&mut t),
            atoms: solver.graph().atom_count(),
            rules: solver.graph().rule_count(),
            stats: RunStats::default(),
        });
    }
    median(&mut ratios)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The braided unfounded chain's well-founded walk, keyed
/// `braided_chain wf`. Unlike the other entries this cannot reuse
/// `best_of` over a shared solver: the session memoizes the policy-free
/// run, so a second `well_founded` on the same solver would time the
/// memo rather than the kernel. A fresh solver is prepared outside the
/// timer for every run instead.
fn braided_chain_entries(
    entries: &mut Vec<Entry>,
    chains: usize,
    pockets: usize,
    loop_size: usize,
) {
    let program = generators::braided_unfounded_chain_program(chains, pockets, loop_size);
    let db = Database::new();
    let mut best = f64::INFINITY;
    let mut shape = (0usize, 0usize);
    let mut stats = RunStats::default();
    for _ in 0..RUNS {
        let solver = Solver::new(program.clone(), db.clone()).expect("prepares");
        let t = Instant::now();
        let out = solver.well_founded().expect("runs");
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        assert!(out.total, "the braid is decided (everything unfounded)");
        shape = (solver.graph().atom_count(), solver.graph().rule_count());
        stats = out.stats;
    }
    entries.push(Entry {
        bench: "braided_chain",
        n: chains,
        mode: "wf".to_owned(),
        wall_ms: best,
        atoms: shape.0,
        rules: shape.1,
        stats,
    });
}

/// Tracing overhead on the braided chain. `disabled` is the production
/// configuration — recorder off, every instrumentation point one relaxed
/// atomic load and a branch. `enabled` times the full recorder (ring
/// pushes, barrier flushes) for the record; it is never gated. The
/// `drain()` between runs keeps the global sink from growing across
/// iterations and counts the events one enabled run records, which this
/// returns: the ≤ 2% gate multiplies it by the per-call disabled cost
/// (`trace_disabled_span`).
fn trace_overhead_entries(
    entries: &mut Vec<Entry>,
    chains: usize,
    pockets: usize,
    loop_size: usize,
) -> usize {
    let program = generators::braided_unfounded_chain_program(chains, pockets, loop_size);
    let db = Database::new();
    let mut events = 0;
    for (enabled, name) in [(false, "disabled"), (true, "enabled")] {
        tiebreak_trace::set_enabled(enabled);
        let mut best = f64::INFINITY;
        let mut shape = (0usize, 0usize);
        let mut stats = RunStats::default();
        for _ in 0..RUNS {
            // Fresh solver per run for the same reason as
            // `braided_chain_entries`: the session memoizes the
            // policy-free run, so reuse would time the memo.
            let solver = Solver::new(program.clone(), db.clone()).expect("prepares");
            // Preparation records spans too: only the run's count.
            drop(tiebreak_trace::drain());
            let dropped = tiebreak_trace::metrics().trace_events_dropped.get();
            let t = Instant::now();
            let out = solver.well_founded().expect("runs");
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
            assert!(out.total);
            shape = (solver.graph().atom_count(), solver.graph().rule_count());
            stats = out.stats;
            let recorded = tiebreak_trace::drain().len();
            if enabled {
                let lost = tiebreak_trace::metrics().trace_events_dropped.get() - dropped;
                events = recorded + usize::try_from(lost).expect("fits");
            }
        }
        tiebreak_trace::set_enabled(false);
        entries.push(Entry {
            bench: "trace_overhead",
            n: chains,
            mode: name.to_owned(),
            wall_ms: best,
            atoms: shape.0,
            rules: shape.1,
            stats,
        });
    }

    // The per-call disabled cost in isolation: one span open + drop per
    // iteration with the recorder off.
    let (wall_ms, ()) = best_of(|| {
        for _ in 0..DISABLED_SPAN_CALLS {
            let span = tiebreak_trace::span("bench", "noop", &[]);
            std::hint::black_box(&span);
        }
    });
    entries.push(Entry {
        bench: "trace_disabled_span",
        n: DISABLED_SPAN_CALLS,
        mode: "calls".to_owned(),
        wall_ms,
        atoms: 0,
        rules: 0,
        stats: RunStats::default(),
    });
    events
}

/// Outcome enumeration over 2^pockets scripts: the core per-script
/// re-close enumerator vs. the session's copy-on-write forks, both over
/// the identical relevant-mode ground graph and stratified kernel.
fn outcomes_cow_entries(entries: &mut Vec<Entry>, decided: usize, pockets: usize) {
    let program = generators::win_move_program();
    let db = generators::outcome_pocket_db(decided, pockets);
    let scripts = 1usize << pockets;
    let config = GroundConfig {
        mode: GroundMode::Relevant,
        ..GroundConfig::default()
    };
    let graph = ground(&program, &db, &config).expect("grounds");

    let (wall_ms, runs) = best_of(|| {
        let set = all_outcomes_with(
            &graph,
            &program,
            &db,
            false,
            scripts * 4,
            &EvalOptions::default(),
        )
        .expect("enumerates");
        set.runs
    });
    assert_eq!(runs, scripts);
    entries.push(Entry {
        bench: "outcomes_enumeration",
        n: scripts,
        mode: "reclose".to_owned(),
        wall_ms,
        atoms: graph.atom_count(),
        rules: graph.rule_count(),
        stats: RunStats::default(),
    });

    let solver = Solver::new(program.clone(), db.clone()).expect("prepares");
    let (wall_ms, runs) = best_of(|| {
        let set = solver.all_outcomes(false, scripts * 4).expect("enumerates");
        set.runs
    });
    assert_eq!(runs, scripts);
    entries.push(Entry {
        bench: "outcomes_enumeration",
        n: scripts,
        mode: "cow".to_owned(),
        wall_ms,
        atoms: solver.graph().atom_count(),
        rules: solver.graph().rule_count(),
        stats: RunStats::default(),
    });
}

/// The OLTP-style churn workload: a prepared session absorbs a
/// retract/insert flap of the *source* pocket's back-edge — a mutation
/// whose forward cone is a handful of nodes out of a Θ(n) residual —
/// through the incremental path (delta grounding + cone re-close +
/// condensation patch + advancing the served model) and, for the
/// baseline, through forced full re-preparation
/// (`with_incremental(false)`), reading `win(a0)` after every flip.
/// Both paths are exact (asserted here against a fresh solver), so the
/// entries time a write plus the read that sees it, which is what the
/// ≥ 3× gate bites on.
fn session_churn_entries(entries: &mut Vec<Entry>, sizes: &[usize], churn: usize) {
    let program = generators::win_move_program();
    let fact = datalog_ast::GroundAtom::from_texts("move", &["b0", "a0"]);
    let probe = datalog_ast::GroundAtom::from_texts("win", &["a0"]);
    for &n in sizes {
        let db = generators::tie_chain_move_db(n);
        for (incremental, name) in [(true, "incremental"), (false, "reprepare")] {
            let mut solver = Solver::with_config(
                program.clone(),
                db.clone(),
                EngineConfig::default().with_incremental(incremental),
            )
            .expect("prepares");
            let (wall_ms, ()) = best_of(|| {
                for _ in 0..churn {
                    let d = solver.retract_fact(fact.clone()).expect("retracts");
                    assert_eq!(d.rebuilt, !incremental, "path taken as configured");
                    if incremental {
                        // The whole point of the workload: the cone is a
                        // sliver of the residual graph.
                        assert!(
                            d.cone_atoms * 10 <= d.residual_atoms.max(1),
                            "cone {} vs residual {}",
                            d.cone_atoms,
                            d.residual_atoms
                        );
                    }
                    // Read your write, as a serving client would.
                    ReadBatch::new().truth(&solver, &probe).expect("reads");
                    solver.insert_fact(fact.clone()).expect("inserts");
                    ReadBatch::new().truth(&solver, &probe).expect("reads");
                }
            });
            // Exactness spot-check: the churned session answers like a
            // fresh solver on the (unchanged net) database.
            let out = solver.well_founded().expect("wf runs");
            let fresh = Solver::with_config(program.clone(), db.clone(), *solver.config())
                .expect("fresh prepares")
                .well_founded()
                .expect("wf runs");
            assert_eq!(out.true_facts, fresh.true_facts);
            assert_eq!(out.undefined, fresh.undefined);
            entries.push(Entry {
                bench: "session_churn",
                n,
                mode: name.to_owned(),
                wall_ms,
                atoms: solver.graph().atom_count(),
                rules: solver.graph().rule_count(),
                stats: RunStats::default(),
            });
        }
    }
}

/// The serving-tier workload: `OPENS_PER_KEY` requests for the *same*
/// program + database key, served (a) from the shared LRU registry —
/// one prepare, then registry hits — and (b) by re-preparing a fresh
/// solver per request, which is what every request costs without the
/// serving tier. Each open also answers one query so the entries time
/// serving, not just registry bookkeeping. The registry is rebuilt
/// inside the timed closure, so the LRU side honestly pays its one
/// cold-start miss.
fn server_lru_entries(entries: &mut Vec<Entry>, n: usize, opens: usize) {
    use tiebreak_server::{RegistryConfig, SessionRegistry};

    let program_src = "win(X) :- move(X, Y), not win(Y).";
    let db_src = {
        let db = generators::tie_chain_move_db(n);
        let mut src = String::new();
        for fact in db.facts() {
            let _ = writeln!(src, "{fact}.");
        }
        src
    };
    let query = "? win(a0)\n";
    let run_script = |session: &mut tiebreak_server::ScriptSession| {
        let mut out = Vec::new();
        session
            .process_line(1, query, &mut out)
            .expect("query runs");
        assert!(!out.is_empty(), "query answered");
    };

    let (wall_ms, (atoms, rules)) = best_of(|| {
        let registry = SessionRegistry::new(RegistryConfig::default());
        let mut shape = (0, 0);
        for _ in 0..opens {
            let opened = registry.open(program_src, &db_src).expect("opens");
            let mut session = opened.entry.lock();
            run_script(&mut session);
            let fp = session.solver().footprint();
            shape = (fp.atoms, fp.rules);
        }
        shape
    });
    entries.push(Entry {
        bench: "server_lru",
        n,
        mode: "lru".to_owned(),
        wall_ms,
        atoms,
        rules,
        stats: RunStats::default(),
    });

    let (wall_ms, (atoms, rules)) = best_of(|| {
        let mut shape = (0, 0);
        for _ in 0..opens {
            let solver = Solver::from_sources(program_src, &db_src).expect("prepares");
            let mut session = tiebreak_server::ScriptSession::new(solver, false);
            run_script(&mut session);
            let fp = session.solver().footprint();
            shape = (fp.atoms, fp.rules);
        }
        shape
    });
    entries.push(Entry {
        bench: "server_lru",
        n,
        mode: "reprepare".to_owned(),
        wall_ms,
        atoms,
        rules,
        stats: RunStats::default(),
    });
}

/// The concurrent-reads workload: `conns` clients each stream
/// `repeats` copies of one point query at **one** hot session over real
/// loopback TCP (`concurrent`), against the same `conns × repeats`
/// frames sent one after another on one connection (`single`). Both
/// run on each of [`READ_PAIRS`] servers, with `min(4, cores)` workers,
/// so a server pairs them; connections are established and the session
/// is prepared (one open per client, registry hits after the first)
/// outside the timer. Entries record the median wall times; returns the
/// median pair's single / concurrent ratio.
fn server_concurrent_reads_entries(
    entries: &mut Vec<Entry>,
    n: usize,
    conns: usize,
    repeats: usize,
) -> f64 {
    use tiebreak_server::{Client, Server, ServerConfig};

    let program_src = "win(X) :- move(X, Y), not win(Y).";
    let db_src = {
        let db = generators::tie_chain_move_db(n);
        let mut src = String::new();
        for fact in db.facts() {
            let _ = writeln!(src, "{fact}.");
        }
        src
    };
    let read = |client: &mut Client| {
        let response = client.script("? win(a0)\n").expect("script");
        assert_eq!(response.status, "errors=0");
        // The chain's source pocket is a draw: the point is a
        // deterministic answer, not its value.
        assert!(
            response.body.contains("win(a0): undefined"),
            "{}",
            response.body
        );
    };

    let (mut concurrent, mut single, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..READ_PAIRS {
        let config = ServerConfig {
            workers: detected_cores().min(4),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run());
        let mut clients: Vec<Client> = (0..conns)
            .map(|_| {
                let mut c = Client::connect(addr).expect("connect");
                c.open(program_src, &db_src).expect("open");
                c
            })
            .collect();

        let t = Instant::now();
        std::thread::scope(|scope| {
            for client in &mut clients {
                scope.spawn(move || (0..repeats).for_each(|_| read(client)));
            }
        });
        let concurrent_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        (0..conns * repeats).for_each(|_| read(&mut clients[0]));
        let single_ms = t.elapsed().as_secs_f64() * 1e3;
        concurrent.push(concurrent_ms);
        single.push(single_ms);
        ratios.push(single_ms / concurrent_ms.max(f64::MIN_POSITIVE));

        for mut client in clients {
            let _ = client.bye();
        }
        let mut stopper = Client::connect(addr).expect("connect");
        stopper.shutdown().expect("shutdown");
        handle.join().expect("join").expect("clean exit");
    }
    for (mode, mut walls) in [("concurrent", concurrent), ("single", single)] {
        entries.push(Entry {
            bench: "server_concurrent_reads",
            n,
            mode: mode.to_owned(),
            wall_ms: median(&mut walls),
            atoms: 0,
            rules: 0,
            stats: RunStats::default(),
        });
    }
    median(&mut ratios)
}

struct Gate {
    name: String,
    pass: bool,
    detail: String,
}

fn wall_of(entries: &[Entry], bench: &str, n: usize, mode: &str) -> f64 {
    entries
        .iter()
        .find(|e| e.bench == bench && e.n == n && e.mode == mode)
        .map(|e| e.wall_ms)
        .expect("entry recorded")
}

/// What some gates read besides the entries' wall times: the median
/// pair ratios of the paired workloads, and the events one traced braid
/// run records.
#[derive(Clone, Copy)]
struct GateInputs {
    ground_scaling: [f64; 2],
    write_scaling: f64,
    concurrent_reads: f64,
    trace_events: usize,
}

fn gates(entries: &[Entry], sizes: &[usize], scripts: usize, inputs: GateInputs) -> Vec<Gate> {
    let GateInputs {
        ground_scaling: ground_scaling_ratios,
        write_scaling: write_scaling_ratio,
        concurrent_reads: concurrent_reads_ratio,
        trace_events,
    } = inputs;
    let mut gates = Vec::new();
    for &n in sizes.iter().filter(|&&n| n >= 1024) {
        let global = wall_of(entries, "win_move_tie_chain", n, "global");
        let strat = wall_of(entries, "win_move_tie_chain", n, "stratified");
        gates.push(Gate {
            name: format!("tie_chain_stratified_not_slower_n{n}"),
            pass: strat <= global,
            detail: format!("stratified {strat:.3}ms vs global {global:.3}ms"),
        });
        if n == 4096 {
            gates.push(Gate {
                name: "tie_chain_stratified_5x_n4096".to_owned(),
                pass: strat * 5.0 <= global,
                detail: format!(
                    "speedup {:.1}x (stratified {strat:.3}ms, global {global:.3}ms)",
                    global / strat.max(f64::MIN_POSITIVE)
                ),
            });
        }
    }

    let cores = detected_cores();

    // Copy-on-write enumeration: single-threaded, machine-independent.
    let reclose = wall_of(entries, "outcomes_enumeration", scripts, "reclose");
    let cow = wall_of(entries, "outcomes_enumeration", scripts, "cow");
    gates.push(Gate {
        name: format!("outcomes_cow_5x_s{scripts}"),
        pass: cow * 5.0 <= reclose,
        detail: format!(
            "speedup {:.1}x (cow {cow:.3}ms, reclose {reclose:.3}ms)",
            reclose / cow.max(f64::MIN_POSITIVE)
        ),
    });

    // Incremental mutation vs full re-preparation on the small-cone
    // churn workload: single-threaded, same-process ratio.
    let churn_n = *CHURN_SIZES.iter().max().expect("sizes nonempty");
    let reprepare = wall_of(entries, "session_churn", churn_n, "reprepare");
    let incremental = wall_of(entries, "session_churn", churn_n, "incremental");
    gates.push(Gate {
        name: format!("session_churn_incremental_3x_n{churn_n}"),
        pass: incremental * 3.0 <= reprepare,
        detail: format!(
            "speedup {:.1}x (incremental {incremental:.3}ms, reprepare {reprepare:.3}ms)",
            reprepare / incremental.max(f64::MIN_POSITIVE)
        ),
    });

    // Serving tier: repeated opens of one program+db key through the
    // shared LRU (one prepare + hits) vs a fresh prepare per request.
    // Single-threaded, same-process ratio.
    let reprepare = wall_of(entries, "server_lru", SERVER_LRU_N, "reprepare");
    let lru = wall_of(entries, "server_lru", SERVER_LRU_N, "lru");
    gates.push(Gate {
        name: format!("server_lru_3x_n{SERVER_LRU_N}"),
        pass: lru * 3.0 <= reprepare,
        detail: format!(
            "speedup {:.1}x (lru {lru:.3}ms, reprepare {reprepare:.3}ms)",
            reprepare / lru.max(f64::MIN_POSITIVE)
        ),
    });

    // Concurrent reads of one hot session: 32 connections in flight
    // at once must finish no later than the same frames sent one after
    // another on one connection. Workers are `min(4, cores)`, so the
    // gate asks a question every host can answer; the median of paired
    // runs, because single runs of a few milliseconds scatter on both
    // sides of 1.0.
    let concurrent = wall_of(
        entries,
        "server_concurrent_reads",
        SERVER_LRU_N,
        "concurrent",
    );
    let single = wall_of(entries, "server_concurrent_reads", SERVER_LRU_N, "single");
    gates.push(Gate {
        name: format!("server_concurrent_reads_n{SERVER_LRU_N}"),
        pass: concurrent_reads_ratio >= 1.0,
        detail: format!(
            "single / concurrent = {concurrent_reads_ratio:.2} (median of {READ_PAIRS} pairs; \
             medians concurrent {concurrent:.3}ms, single {single:.3}ms) over {READ_CONNS} \
             connections x {READ_REPEATS} queries vs 1 connection x {}, workers {}, {cores} \
             core(s), required >= 1.0",
            READ_CONNS * READ_REPEATS,
            cores.min(4)
        ),
    });

    // Tracing must be free when it is off: every instrumentation point
    // one braid run passes, at the measured per-call cost of a disabled
    // span, may add at most 2% to the disabled run. Both factors are
    // measured in this process, so the gate needs no baseline and fails
    // whenever the disabled path or the span count grows.
    let disabled = wall_of(entries, "trace_overhead", BRAID_CHAINS, "disabled");
    let enabled = wall_of(entries, "trace_overhead", BRAID_CHAINS, "enabled");
    let per_call_ms = wall_of(entries, "trace_disabled_span", DISABLED_SPAN_CALLS, "calls")
        / DISABLED_SPAN_CALLS as f64;
    let overhead = trace_events as f64 * per_call_ms;
    gates.push(Gate {
        name: "trace_overhead_disabled_2pct".to_owned(),
        pass: overhead <= disabled * 0.02,
        detail: format!(
            "{trace_events} events x {:.2}ns = {:.4}ms = {:.4}% of the disabled run \
             {disabled:.3}ms, required <= 2%; enabled {enabled:.3}ms recorded, not gated",
            per_call_ms * 1e6,
            overhead,
            100.0 * overhead / disabled.max(f64::MIN_POSITIVE)
        ),
    });

    // Relevant grounding must scale linearly: doubling the instance may
    // at most multiply the build time by 2.5, propositional (the braid)
    // and first-order (win–move, parsing included) alike.
    // Single-threaded.
    let scaling = [
        ("ground_braid_scaling", GROUND_SCALING_POCKETS),
        ("ground_first_order_scaling", FIRST_ORDER_SCALING_POCKETS),
    ];
    for ((bench, n), ratio) in scaling.into_iter().zip(ground_scaling_ratios) {
        let small = wall_of(entries, bench, n, "median");
        let large = wall_of(entries, bench, 2 * n, "median");
        gates.push(Gate {
            name: format!("{bench}_p{n}"),
            pass: ratio <= GROUND_SCALING_MAX_RATIO,
            detail: format!(
                "time(2n)/time(n) = {ratio:.2} (median of {GROUND_SCALING_PAIRS} back-to-back \
                 pairs; medians p{} {large:.3}ms, p{n} {small:.3}ms), required <= \
                 {GROUND_SCALING_MAX_RATIO}",
                2 * n
            ),
        });
    }

    // A write whose cone is fixed must cost the same however large the
    // instance: doubling the braid may multiply a write plus its read
    // by at most 1.3. Single-threaded.
    let n = WRITE_SCALING_POCKETS;
    let small = wall_of(entries, "session_write_scaling", n, "median");
    let large = wall_of(entries, "session_write_scaling", 2 * n, "median");
    gates.push(Gate {
        name: format!("session_write_scaling_p{n}"),
        pass: write_scaling_ratio <= WRITE_SCALING_MAX_RATIO,
        detail: format!(
            "time(2n)/time(n) = {write_scaling_ratio:.2} (median of {WRITE_SCALING_PAIRS} \
             back-to-back pairs of {WRITE_SCALING_WRITES} writes; medians p{} {large:.3}ms, \
             p{n} {small:.3}ms), required <= {WRITE_SCALING_MAX_RATIO}",
            2 * n
        ),
    });
    gates
}

/// One `(bench, n, mode) → wall_ms` record recovered from a previous
/// summary file.
struct BaselineEntry {
    bench: String,
    n: usize,
    mode: String,
    wall_ms: f64,
}

/// Extracts the string value of `"key": "..."` from a JSON entry line.
fn field_str(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_owned())
}

/// Extracts the numeric value of `"key": ...` from a JSON entry line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the `entries` of a previous `BENCH_<sha>.json`. The format is
/// our own (one entry object per line), so a line scanner is enough — no
/// JSON dependency in the image.
fn parse_baseline(text: &str) -> Vec<BaselineEntry> {
    text.lines()
        .filter_map(|line| {
            Some(BaselineEntry {
                bench: field_str(line, "bench")?,
                n: field_num(line, "n")? as usize,
                mode: field_str(line, "mode")?,
                wall_ms: field_num(line, "wall_ms")?,
            })
        })
        .collect()
}

/// The cross-commit comparison: `entry → (baseline wall, ratio)`.
fn baseline_delta(baseline: &[BaselineEntry], e: &Entry) -> Option<(f64, f64)> {
    let b = baseline
        .iter()
        .find(|b| b.bench == e.bench && b.n == e.n && b.mode == e.mode)?;
    Some((b.wall_ms, e.wall_ms / b.wall_ms.max(f64::MIN_POSITIVE)))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn to_json(sha: &str, entries: &[Entry], gates: &[Gate], baseline: &[BaselineEntry]) -> String {
    let cores = detected_cores();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": 3,");
    let _ = writeln!(out, "  \"sha\": \"{}\",", json_escape(sha));
    let _ = writeln!(out, "  \"cores_detected\": {cores},");
    let _ = writeln!(out, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"bench\": \"{}\", \"n\": {}, \"mode\": \"{}\", \"wall_ms\": {:.3}, \
             \"atoms\": {}, \"rules\": {}, \"close_rounds\": {}, \"unfounded_rounds\": {}, \
             \"ties_broken\": {}, \"components_processed\": {}, \"max_component_rounds\": {}",
            e.bench,
            e.n,
            e.mode,
            e.wall_ms,
            e.atoms,
            e.rules,
            e.stats.close_rounds,
            e.stats.unfounded_rounds,
            e.stats.ties_broken,
            e.stats.components_processed,
            e.stats.max_component_rounds,
        );
        if let Some((base_ms, ratio)) = baseline_delta(baseline, e) {
            let _ = write!(
                out,
                ", \"baseline_wall_ms\": {base_ms:.3}, \"vs_baseline\": {ratio:.3}"
            );
        }
        let _ = write!(out, "}}");
        let _ = writeln!(out, "{}", if i + 1 < entries.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"gates\": [");
    for (i, g) in gates.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"pass\": {}, \"detail\": \"{}\"}}",
            json_escape(&g.name),
            g.pass,
            json_escape(&g.detail)
        );
        let _ = writeln!(out, "{}", if i + 1 < gates.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// The markdown digest CI appends to `$GITHUB_STEP_SUMMARY`: one line per
/// gate (measured ratio vs required gate, with its verdict), then — when
/// a baseline was supplied — one line per entry that has a
/// cross-commit delta.
fn summary_markdown(gates: &[Gate], entries: &[Entry], baseline: &[BaselineEntry]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### Perf-trajectory gates ({} core(s) detected)",
        detected_cores()
    );
    let _ = writeln!(out);
    for g in gates {
        let verdict = if g.pass { "PASS" } else { "FAIL" };
        let _ = writeln!(out, "- **{}**: {} ({verdict})", g.name, g.detail);
    }
    let deltas: Vec<(&Entry, f64, f64)> = entries
        .iter()
        .filter_map(|e| baseline_delta(baseline, e).map(|(base_ms, ratio)| (e, base_ms, ratio)))
        .collect();
    if !deltas.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "### vs baseline");
        let _ = writeln!(out);
        for (e, base_ms, ratio) in deltas {
            let _ = writeln!(
                out,
                "- `{} n={} {}`: {:.3} ms vs {base_ms:.3} ms ({ratio:.2}x)",
                e.bench, e.n, e.mode, e.wall_ms
            );
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut sha: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut summary_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().cloned(),
            "--sha" => sha = it.next().cloned(),
            "--baseline" => baseline_path = it.next().cloned(),
            "--summary" => summary_path = it.next().cloned(),
            other => {
                eprintln!(
                    "unknown argument {other} (usage: bench_trajectory [--out FILE] [--sha SHA] \
                     [--baseline FILE] [--summary FILE])"
                );
                std::process::exit(2);
            }
        }
    }
    let sha = sha
        .or_else(|| std::env::var("GITHUB_SHA").ok())
        .unwrap_or_else(|| "local".to_owned());
    let out_path = out_path.unwrap_or_else(|| format!("BENCH_{sha}.json"));
    let baseline: Vec<BaselineEntry> = match &baseline_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => parse_baseline(&text),
            Err(e) => {
                // A missing baseline (first run, expired artifact) is not
                // an error — the comparison is simply skipped.
                eprintln!("warn: cannot read baseline {path}: {e}; skipping comparison");
                Vec::new()
            }
        },
        None => Vec::new(),
    };

    let tie_sizes = [256usize, 1024, 4096];
    let cow_scripts = 64;
    let mut entries = Vec::new();
    tie_chain_entries(&mut entries, &tie_sizes);
    unfounded_chain_entries(&mut entries, &tie_sizes);
    grounding_entries(&mut entries, 256);
    let ground_scaling_ratios = [
        ground_scaling_entries(&mut entries),
        first_order_scaling_entries(&mut entries),
    ];
    braided_chain_entries(&mut entries, BRAID_CHAINS, BRAID_POCKETS, BRAID_LOOP);
    let trace_events =
        trace_overhead_entries(&mut entries, BRAID_CHAINS, BRAID_POCKETS, BRAID_LOOP);
    outcomes_cow_entries(&mut entries, 4096, 6); // 2^6 = 64 scripts
    session_churn_entries(&mut entries, CHURN_SIZES, 8);
    let write_scaling_ratio = write_scaling_entries(&mut entries);
    server_lru_entries(&mut entries, SERVER_LRU_N, 8);
    let concurrent_reads_ratio =
        server_concurrent_reads_entries(&mut entries, SERVER_LRU_N, READ_CONNS, READ_REPEATS);

    let gates = gates(
        &entries,
        &tie_sizes,
        cow_scripts,
        GateInputs {
            ground_scaling: ground_scaling_ratios,
            write_scaling: write_scaling_ratio,
            concurrent_reads: concurrent_reads_ratio,
            trace_events,
        },
    );
    let json = to_json(&sha, &entries, &gates, &baseline);
    std::fs::write(&out_path, &json).expect("write summary");
    if let Some(path) = &summary_path {
        std::fs::write(path, summary_markdown(&gates, &entries, &baseline))
            .expect("write markdown summary");
    }

    for e in &entries {
        let delta = match baseline_delta(&baseline, e) {
            Some((_, ratio)) => format!("  [{ratio:.2}x vs baseline]"),
            None => String::new(),
        };
        println!(
            "{:<26} n={:<5} {:<10} {:>10.3} ms  (atoms {}, rules {}, ties {}, unfounded {}){}",
            e.bench,
            e.n,
            e.mode,
            e.wall_ms,
            e.atoms,
            e.rules,
            e.stats.ties_broken,
            e.stats.unfounded_rounds,
            delta
        );
    }
    // Cross-commit regressions warn (runner-to-runner noise is real);
    // the same-process ratio gates below are what fail the build.
    for e in &entries {
        if let Some((base_ms, ratio)) = baseline_delta(&baseline, e) {
            if ratio > 1.25 {
                println!(
                    "warn: {} n={} {} regressed {ratio:.2}x vs baseline ({:.3} ms -> {:.3} ms)",
                    e.bench, e.n, e.mode, base_ms, e.wall_ms
                );
            }
        }
    }
    let mut failed = false;
    for g in &gates {
        println!(
            "gate {:<40} {}  ({})",
            g.name,
            if g.pass { "PASS" } else { "FAIL" },
            g.detail
        );
        failed |= !g.pass;
    }
    println!("wrote {out_path}");
    if failed {
        eprintln!("perf trajectory gate failed");
        std::process::exit(1);
    }
}
