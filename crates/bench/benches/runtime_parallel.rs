//! E-RUNTIME — the parallel session runtime vs. the one-shot pipeline.
//!
//! Three claims of the `tiebreak-runtime` subsystem, measured:
//!
//! * **Session amortization** — a prepared [`Solver`] serves an
//!   evaluation without re-grounding/re-closing, vs. the `Engine` facade
//!   rebuilding the pipeline per query;
//! * **Parallel branch scheduling** — on a wide condensation (a forest
//!   of independent win–move tie chains,
//!   [`generators::wide_tie_forest_db`]) evaluation wall time scales
//!   with `RuntimeConfig::threads` (bounded by the machine's cores — on
//!   a single-core host the thread counts coincide);
//! * **Copy-on-write outcome enumeration** — `Solver::all_outcomes`
//!   forks each tie script off the shared post-close snapshot, vs. the
//!   core enumerator re-running `close` per script
//!   ([`generators::outcome_pocket_db`], 64 scripts over a long decided
//!   chain).
//!
//! The CI `bench-trajectory` job runs the same instances through
//! `bench_trajectory` with hard gates (≥2× at 4 threads on ≥4 cores,
//! ≥5× CoW at 64 scripts).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datalog_ground::GroundMode;
use paper_constructions::generators;
use tiebreak_core::semantics::outcomes::all_outcomes_with;
use tiebreak_core::{Engine, EngineConfig, EvalOptions, RootTruePolicy, RuntimeConfig};
use tiebreak_runtime::{uniform, Solver};

fn solver(program: &str, db: datalog_ast::Database, threads: usize) -> Solver {
    Solver::with_config(
        datalog_ast::parse_program(program).expect("parses"),
        db,
        EngineConfig::default().with_runtime(RuntimeConfig::with_threads(threads)),
    )
    .expect("prepares")
}

const WIN_MOVE: &str = "win(X) :- move(X, Y), not win(Y).";

fn bench_wide_forest_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_wide_forest");
    group.sample_size(10);
    let chains = 64usize;
    let pockets = 8usize;
    group.throughput(Throughput::Elements((chains * pockets) as u64));
    for &threads in &[1usize, 2, 4] {
        let s = solver(
            WIN_MOVE,
            generators::wide_tie_forest_db(chains, pockets),
            threads,
        );
        assert_eq!(s.branch_count(), chains);
        let id = BenchmarkId::new("threads", threads);
        group.bench_with_input(id, &threads, |b, _| {
            b.iter(|| {
                let out = s
                    .well_founded_tie_breaking(&uniform(RootTruePolicy))
                    .expect("runs");
                assert!(out.total);
                std::hint::black_box(out.stats.ties_broken)
            });
        });
    }
    group.finish();
}

fn bench_session_amortization(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_session_amortization");
    group.sample_size(10);
    let db_src = generators::wide_tie_forest_db(16, 8);
    let program = generators::win_move_program();

    // Per-query pipeline: ground + close + condense + evaluate.
    group.bench_function("engine_per_query", |b| {
        b.iter(|| {
            let engine = Engine::new(program.clone(), db_src.clone());
            let mut policy = RootTruePolicy;
            let out = engine.well_founded_tie_breaking(&mut policy).expect("runs");
            assert!(out.total);
            std::hint::black_box(out.stats.ties_broken)
        });
    });

    // Session: prepared once outside the timer, evaluate per query.
    let s = solver(WIN_MOVE, db_src.clone(), 1);
    group.bench_function("solver_per_query", |b| {
        b.iter(|| {
            let out = s
                .well_founded_tie_breaking(&uniform(RootTruePolicy))
                .expect("runs");
            assert!(out.total);
            std::hint::black_box(out.stats.ties_broken)
        });
    });
    group.finish();
}

fn bench_outcomes_cow(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_outcomes_cow");
    group.sample_size(10);
    let program = generators::win_move_program();
    let db = generators::outcome_pocket_db(2048, 6); // 2^6 = 64 scripts
    let ground_config = datalog_ground::GroundConfig {
        mode: GroundMode::Relevant,
        ..datalog_ground::GroundConfig::default()
    };
    let graph = datalog_ground::ground(&program, &db, &ground_config).expect("grounds");
    group.throughput(Throughput::Elements(64));

    group.bench_function("reclose_per_script", |b| {
        b.iter(|| {
            let set = all_outcomes_with(&graph, &program, &db, false, 256, &EvalOptions::default())
                .expect("enumerates");
            assert_eq!(set.runs, 64);
            std::hint::black_box(set.models.len())
        });
    });

    let s = solver(WIN_MOVE, db.clone(), 1);
    group.bench_function("cow_fork_per_script", |b| {
        b.iter(|| {
            let set = s.all_outcomes(false, 256).expect("enumerates");
            assert_eq!(set.runs, 64);
            std::hint::black_box(set.models.len())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_wide_forest_scaling,
    bench_session_amortization,
    bench_outcomes_cow
);
criterion_main!(benches);
