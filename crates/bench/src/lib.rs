//! Shared helpers for the benchmark suite and the `paper-experiments`
//! harness.

use datalog_ast::{Database, Program};
use datalog_ground::{ground, GroundConfig, GroundGraph, GroundMode};

/// Grounds with default budgets, panicking on failure (bench inputs are
/// sized in advance).
pub fn ground_or_die(program: &Program, database: &Database) -> GroundGraph {
    ground(
        program,
        database,
        GroundMode::Full,
        &GroundConfig::default(),
    )
    .expect("bench instance grounds")
}

/// A `move` relation forming one directed ring of `n` nodes — the ground
/// graph of win–move over it is a single even cycle (a tie), the
/// canonical tie-breaking workload.
pub fn ring_move_db(n: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.insert(datalog_ast::GroundAtom::from_texts(
            "move",
            &[&format!("n{i}"), &format!("n{}", (i + 1) % n)],
        ))
        .expect("binary facts");
    }
    db
}

/// The transitive-closure program used by grounding/close/seminaive
/// benches.
pub fn tc_program() -> Program {
    datalog_ast::parse_program("t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).").expect("parses")
}
