//! E-PERF — grounding cost: |U|^k instantiation per rule with k
//! variables, exactly as the paper's ground-graph definition demands,
//! against the join-based relevant grounder (`GroundMode::Relevant`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datalog_bench::tc_program;
use datalog_ground::{ground, GroundConfig, GroundMode};
use paper_constructions::generators;

fn bench_ground_win_move(c: &mut Criterion) {
    let program = generators::win_move_program();
    let mut group = c.benchmark_group("grounding_win_move");
    group.sample_size(20);
    for &n in &[8usize, 16, 32, 64] {
        let db = generators::chain_db(n); // constants c0..cn
        group.throughput(Throughput::Elements(((n + 1) * (n + 1)) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let g = ground(&program, &db, GroundMode::Full, &GroundConfig::default())
                    .expect("grounds");
                std::hint::black_box(g.rule_count())
            });
        });
    }
    group.finish();
}

fn bench_ground_three_vars(c: &mut Criterion) {
    // t(X, Z) :- t(X, Y), e(Y, Z): 3 variables ⇒ |U|³ instances.
    let program = tc_program();
    let mut group = c.benchmark_group("grounding_three_vars");
    group.sample_size(10);
    for &n in &[8usize, 16, 24] {
        let db = generators::chain_db(n);
        group.throughput(Throughput::Elements(((n + 1) as u64).pow(3)));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let g = ground(&program, &db, GroundMode::Full, &GroundConfig::default())
                    .expect("grounds");
                std::hint::black_box(g.rule_count())
            });
        });
    }
    group.finish();
}

/// Ablation: paper-literal full instantiation vs. the relevant grounder.
/// Full is Θ(|U|²) on win–move regardless of the database; Relevant is
/// Θ(|move|) — one instance per edge — with an identical post-`close`
/// residual graph (see the differential property suites).
fn bench_ablation_ground_mode(c: &mut Criterion) {
    let program = generators::win_move_program();
    let mut group = c.benchmark_group("grounding_ablation_mode");
    group.sample_size(20);
    for &n in &[16usize, 64, 256] {
        // A move-chain of n edges over n + 1 constants.
        let mut db = datalog_ast::Database::new();
        for i in 0..n {
            db.insert(datalog_ast::GroundAtom::from_texts(
                "move",
                &[&format!("c{i}"), &format!("c{}", i + 1)],
            ))
            .expect("binary facts");
        }
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("full", n), &n, |b, _| {
            b.iter(|| {
                let g = ground(&program, &db, GroundMode::Full, &GroundConfig::default())
                    .expect("grounds");
                assert_eq!(g.rule_count(), (n + 1) * (n + 1));
                std::hint::black_box(g.rule_count())
            });
        });
        group.bench_with_input(BenchmarkId::new("relevant", n), &n, |b, _| {
            b.iter(|| {
                let g = ground(
                    &program,
                    &db,
                    GroundMode::Relevant,
                    &GroundConfig::default(),
                )
                .expect("grounds");
                // One supportable instance per chain edge.
                assert_eq!(g.rule_count(), n);
                std::hint::black_box(g.rule_count())
            });
        });
    }
    group.finish();
}

/// The Theorem 6 reduction at a size the full enumerator cannot touch:
/// the size-2 pump-and-drain machine needs ~9·10⁸ full instances (over
/// every budget), while the relevant grounder emits a few dozen nodes.
fn bench_ground_counter_machine_relevant(c: &mut Criterion) {
    use paper_constructions::counter_machine::CounterMachine;
    use paper_constructions::undecidability::{machine_to_program, natural_database};
    use paper_constructions::MachineOutcome;

    let machine = CounterMachine::pump_and_drain(2);
    let MachineOutcome::Halted(steps) = machine.simulate(1000) else {
        panic!("halts");
    };
    let program = machine_to_program(&machine);
    let db = natural_database(steps);
    let mut group = c.benchmark_group("grounding_counter_machine");
    group.sample_size(10);
    group.bench_function("relevant_pump2", |b| {
        b.iter(|| {
            let g = ground(
                &program,
                &db,
                GroundMode::Relevant,
                &GroundConfig::default(),
            )
            .expect("grounds");
            std::hint::black_box(g.rule_count())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ground_win_move,
    bench_ground_three_vars,
    bench_ablation_ground_mode,
    bench_ground_counter_machine_relevant
);
criterion_main!(benches);
