//! E-WF-SCC — SCC-stratified vs. global evaluation.
//!
//! Two alternation-heavy workloads where the global interpreters pay
//! Θ(n²) (every tie break / unfounded round re-scans or re-clones the
//! whole remaining graph) while the session `Solver` walks the
//! condensation once. The `global` side times the paper-literal loop on a
//! graph grounded outside the timer; the `stratified` side times the
//! `Solver` end to end — ground, close, condense, walk:
//!
//! * the **win–move tie chain** — `n` draw pockets `a_i ↔ b_i` linked by
//!   `a_i → a_{i+1}`: one tie component per pocket, resolvable only
//!   source-first (grounded in `Relevant` mode so grounding cost does not
//!   mask evaluation cost);
//! * the **unfounded chain** — guard loops `a_i ← a_i` whose support
//!   alternates with closure, forcing Θ(n) unfounded rounds (the global
//!   side grounds `Full`; the chain is propositional, so the `Solver`'s
//!   relevant grounding is the same graph).
//!
//! The CI `bench-trajectory` job runs the same instances through
//! `bench_trajectory` and gates on Stratified ≥ Global at n ≥ 1024 (and
//! ≥ 5× at n = 4096).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datalog_ast::Database;
use datalog_ground::{ground, GroundMode};
use paper_constructions::generators;
use tiebreak_core::semantics::well_founded::well_founded;
use tiebreak_core::semantics::{well_founded_tie_breaking, RootTruePolicy};
use tiebreak_core::EngineConfig;
use tiebreak_runtime::Solver;

/// The two evaluators compared: the paper-literal global loop and the
/// condensation-driven `Solver`.
const MODES: [&str; 2] = ["global", "stratified"];

fn bench_tie_chain(c: &mut Criterion) {
    let program = generators::win_move_program();
    let mut group = c.benchmark_group("wf_tb_eval_mode_tie_chain");
    group.sample_size(10);
    for &n in &[256usize, 1024, 4096] {
        let db = generators::tie_chain_move_db(n);
        let config = EngineConfig::default();
        let graph = ground(&program, &db, GroundMode::Relevant, &config.ground).expect("grounds");
        group.throughput(Throughput::Elements(n as u64));
        for mode in MODES {
            let id = BenchmarkId::new(mode, n);
            group.bench_with_input(id, &n, |b, _| {
                b.iter(|| {
                    let mut policy = RootTruePolicy;
                    let run = if mode == "global" {
                        well_founded_tie_breaking(&graph, &program, &db, &mut policy)
                    } else {
                        Solver::with_config(program.clone(), db.clone(), config)
                            .and_then(|solver| solver.well_founded_tie_breaking_run(&mut policy))
                    }
                    .expect("runs");
                    assert!(run.total, "every pocket is decided");
                    std::hint::black_box(run.stats.ties_broken)
                });
            });
        }
    }
    group.finish();
}

fn bench_unfounded_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("wf_eval_mode_unfounded_chain");
    group.sample_size(10);
    for &n in &[256usize, 1024, 4096] {
        let program = generators::unfounded_chain_program(n);
        let db = Database::new();
        let config = EngineConfig::default();
        let graph = ground(&program, &db, GroundMode::Full, &config.ground).expect("grounds");
        group.throughput(Throughput::Elements(n as u64));
        for mode in MODES {
            let id = BenchmarkId::new(mode, n);
            group.bench_with_input(id, &n, |b, _| {
                b.iter(|| {
                    let run = if mode == "global" {
                        well_founded(&graph, &program, &db)
                    } else {
                        Solver::with_config(program.clone(), db.clone(), config)
                            .and_then(|solver| solver.well_founded_run())
                    }
                    .expect("runs");
                    assert!(run.total);
                    std::hint::black_box(run.stats.unfounded_rounds)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_tie_chain, bench_unfounded_chain);
criterion_main!(benches);
