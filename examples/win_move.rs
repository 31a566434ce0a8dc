//! Solving the win–move game: the canonical Datalog¬ workload.
//!
//! `win(X) ← move(X, Y), ¬win(Y)` — a position wins iff it has a move to
//! a losing position. On graphs with cycles the well-founded semantics
//! leaves *drawn* positions undefined; the tie-breaking interpreter
//! commits each drawn cluster to one of its two consistent orientations.
//!
//! ```sh
//! cargo run --example win_move
//! ```

use tie_breaking_datalog::constructions::generators;
use tie_breaking_datalog::core::semantics::enumerate::{
    enumerate_fixpoints, enumerate_stable, EnumerateConfig,
};
use tie_breaking_datalog::prelude::*;

fn main() {
    let program = generators::win_move_program();

    // A board with a decided region (a chain) and a drawn region (a
    // 2-cycle plus a tail).
    let database = parse_database(
        "move(a, b). move(b, c).            % chain: c loses, b wins, a loses
         move(p, q). move(q, p).            % 2-cycle: drawn
         move(t, p).                        % tail into the cycle",
    )
    .expect("parses");

    let solver = Solver::new(program, database).expect("prepares");

    let wf = solver.well_founded().expect("runs");
    println!("well-founded model (total = {}):", wf.total);
    for fact in &wf.true_facts {
        println!("  {fact}");
    }
    println!(
        "  undefined: {:?}",
        wf.undefined
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
    );

    // Tie-breaking decides the drawn cluster; both orientations are
    // legitimate fixpoints.
    for seed in [1u64, 2, 3] {
        let mut policy = RandomPolicy::seeded(seed);
        let out = solver.well_founded_tie_breaking(&mut policy).expect("runs");
        let wins: Vec<String> = out
            .true_facts
            .iter()
            .filter(|f| f.pred.as_str() == "win")
            .map(std::string::ToString::to_string)
            .collect();
        println!(
            "tie-breaking (seed {seed}): total = {}, wins = {{{}}}",
            out.total,
            wins.join(", ")
        );
    }

    // Fixpoint census of the drawn cluster, over the solver's ground
    // graph.
    let (graph, program, database) = (solver.graph(), solver.program(), solver.database());
    let config = EnumerateConfig::default();
    let fixpoints = enumerate_fixpoints(graph, program, database, &config).expect("enumerates");
    println!("fixpoints: {}", fixpoints.len());
    let stable = enumerate_stable(graph, program, database, &config).expect("enumerates");
    println!("stable models: {}", stable.len());

    // Two interpreters: a chain of 64 draw pockets is quadratic for the
    // paper-literal global loop (each tie break re-scans the whole
    // remaining graph) and linear for the solver's one walk of the
    // condensation — same answers either way.
    let program = generators::win_move_program();
    let chain = generators::tie_chain_move_db(64);
    let solver = Solver::new(program.clone(), chain.clone()).expect("prepares");
    let graph = solver.graph();
    let runs = [
        (
            "global",
            well_founded_tie_breaking(graph, &program, &chain, &mut RootTruePolicy),
        ),
        (
            "stratified",
            solver.well_founded_tie_breaking_run(&mut RootTruePolicy),
        ),
    ];
    for (mode, run) in runs {
        let run = run.expect("runs");
        println!(
            "tie chain (n = 64, {mode}): total = {}, wins = {}, ties broken = {}, \
             components = {}",
            run.total,
            run.model
                .true_atoms(graph.atoms())
                .iter()
                .filter(|f| f.pred.as_str() == "win")
                .count(),
            run.stats.ties_broken,
            run.stats.components_processed,
        );
    }
}
