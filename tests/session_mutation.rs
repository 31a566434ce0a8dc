//! Mutation exactness: random churn against the incremental session.
//!
//! For random programs and random sequences of fact insertions and
//! retractions, a [`Solver`] mutated **in place** (delta grounding +
//! cone re-close + condensation patch, falling back to re-prepare on
//! universe changes) must be observationally identical, **after every
//! single step**, to a fresh [`Solver`] prepared from scratch on the
//! mutated database:
//!
//! * bit-identical decoded well-founded models (true and undefined fact
//!   lists) and totality;
//! * identical well-founded [`RunStats`] (`close_rounds`,
//!   `unfounded_rounds`, `components_processed`,
//!   `max_component_rounds`) — the patched condensation has the same
//!   components, so the work accounting of the state advanced over each
//!   cone matches a fresh full run exactly;
//! * identical tie-breaking outcome *sets* for both interpreter
//!   flavours (individual runs may break isomorphic ties in different
//!   component orders — the sets are the semantic object, exactly as in
//!   the global-vs-stratified differential suite);
//! * across **both ground modes**.
//!
//! The sweep deliberately includes mutations that add or retire
//! constants (exercising the re-prepare fallback), programs with
//! positive dependency cycles (exercising the scoped gfp refresh), and
//! insert/retract/re-insert flapping (exercising stale-instance reuse).

use std::collections::BTreeSet;

use proptest::prelude::*;
use tie_breaking_datalog::ast::{Atom, Literal, Rule, Sign, Term};
use tie_breaking_datalog::core::engine::EvalOutcome;
use tie_breaking_datalog::prelude::*;
use tie_breaking_datalog::runtime::SolverError;

/// A random propositional program over `preds` proposition names (the
/// `tests/eval_modes.rs` generator).
fn arb_program(preds: usize, max_rules: usize) -> impl Strategy<Value = Program> {
    proptest::collection::vec(
        (
            0..preds,
            proptest::collection::vec((0..preds, prop::bool::ANY), 0..3),
        ),
        1..=max_rules,
    )
    .prop_map(move |rules| {
        let name = |i: usize| format!("p{i}");
        let rules: Vec<Rule> = rules
            .into_iter()
            .map(|(head, body)| {
                Rule::new(
                    Atom::new(name(head).as_str(), std::iter::empty::<Term>()),
                    body.into_iter().map(|(p, neg)| Literal {
                        sign: if neg { Sign::Neg } else { Sign::Pos },
                        atom: Atom::new(name(p).as_str(), std::iter::empty::<Term>()),
                    }),
                )
            })
            .collect();
        Program::new(rules).expect("propositional programs are arity-consistent")
    })
}

fn solver_for(program: &Program, db: &Database, mode: GroundMode) -> Solver {
    Solver::with_config(
        program.clone(),
        db.clone(),
        EngineConfig::default().with_ground_mode(mode),
    )
    .expect("session prepares")
}

fn decoded(outcome: &EvalOutcome) -> (Vec<String>, Vec<String>) {
    let mut t: Vec<String> = outcome
        .true_facts
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let mut u: Vec<String> = outcome
        .undefined
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    t.sort();
    u.sort();
    (t, u)
}

type Outcome = (Vec<String>, Vec<String>);

fn outcome_set(solver: &Solver, pure: bool) -> BTreeSet<Outcome> {
    let set = solver.all_outcomes(pure, 4096).expect("enumerates");
    assert!(!set.truncated, "sweep instances are small");
    let atoms = solver.graph().atoms();
    set.models
        .iter()
        .map(|m| {
            let mut t: Vec<String> = m
                .true_atoms(atoms)
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            t.sort();
            let mut u: Vec<String> = m
                .undefined_atoms()
                .map(|id| atoms.decode(id).to_string())
                .collect();
            u.sort();
            (t, u)
        })
        .collect()
}

/// The full mutated-vs-fresh comparison for one state.
fn assert_state_matches_fresh(mutated: &Solver, step: usize) {
    let fresh = Solver::with_config(
        mutated.program().clone(),
        mutated.database().clone(),
        *mutated.config(),
    )
    .expect("fresh solver prepares on the mutated database");

    let a = mutated.well_founded().expect("mutated wf runs");
    let b = fresh.well_founded().expect("fresh wf runs");
    assert_eq!(decoded(&a), decoded(&b), "wf model diverges at step {step}");
    assert_eq!(a.total, b.total, "totality diverges at step {step}");
    // Same components ⇒ same work accounting, whether the state was
    // advanced over the cone or evaluated in full.
    assert_eq!(a.stats, b.stats, "wf stats diverge at step {step}");

    for pure in [false, true] {
        assert_eq!(
            outcome_set(mutated, pure),
            outcome_set(&fresh, pure),
            "outcome set (pure = {pure}) diverges at step {step}"
        );
    }
}

/// Runs one churn sequence, asserting exactness after every step.
fn churn<F: Fn(u32) -> GroundAtom>(
    program: &Program,
    db0: &Database,
    fact_of: F,
    toggles: &[u32],
    mode: GroundMode,
) {
    let mut solver = solver_for(program, db0, mode);
    for (step, &t) in toggles.iter().enumerate() {
        let fact = fact_of(t);
        let delta = if solver.database().contains(&fact) {
            solver.retract_fact(fact)
        } else {
            solver.insert_fact(fact)
        };
        match delta {
            Ok(_) => {}
            Err(SolverError::Semantics(e)) => panic!("mutation failed at step {step}: {e}"),
            Err(SolverError::Ast(e)) => panic!("mutation failed at step {step}: {e}"),
        }
        assert_state_matches_fresh(&solver, step);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Propositional churn: arbitrary rule mixtures (positive loops,
    /// negation cycles, stuck odd components — including programs where
    /// the scoped gfp refresh must resurrect guarded positive cycles)
    /// under random fact toggles.
    #[test]
    fn propositional_churn_is_exact(
        program in arb_program(5, 8),
        seed_mask in any::<u32>(),
        toggles in proptest::collection::vec(0u32..5, 1..5),
    ) {
        let preds: Vec<_> = program.predicates().to_vec();
        let mut db = Database::new();
        for (i, &pred) in preds.iter().enumerate() {
            if seed_mask & (1 << (i % 32)) != 0 {
                db.insert(GroundAtom::new(pred, std::iter::empty())).expect("facts");
            }
        }
        let fact_of = |t: u32| {
            let pred = preds[(t as usize) % preds.len()];
            GroundAtom::new(pred, std::iter::empty())
        };
        for mode in [GroundMode::Full, GroundMode::Relevant] {
            churn(&program, &db, fact_of, &toggles, mode);
        }
    }

    /// First-order churn on the win–move game over a small constant
    /// pool: toggling edges moves constants in and out of the universe
    /// (re-prepare fallback) and flips draw pockets (tie machinery).
    #[test]
    fn win_move_churn_is_exact(
        seed_edges in proptest::collection::vec((0u32..4, 0u32..4), 1..5),
        toggles in proptest::collection::vec(0u32..16, 1..4),
    ) {
        let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let edge = |x: u32, y: u32| {
            GroundAtom::from_texts("move", &[&format!("c{x}"), &format!("c{y}")])
        };
        let mut db = Database::new();
        for &(x, y) in &seed_edges {
            db.insert(edge(x, y)).expect("facts");
        }
        let fact_of = |t: u32| edge(t / 4, t % 4);
        for mode in [GroundMode::Full, GroundMode::Relevant] {
            churn(&program, &db, fact_of, &toggles, mode);
        }
    }

    /// Positive recursion (transitive closure feeding a negation): every
    /// insert takes the scoped gfp path in Relevant mode, and wf models
    /// must track the closure exactly.
    #[test]
    fn transitive_closure_churn_is_exact(
        toggles in proptest::collection::vec(0u32..9, 1..4),
    ) {
        let program = parse_program(
            "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).\ns(X) :- e(X, X).\nw(X) :- n(X), not t(X, X).",
        )
        .unwrap();
        let edge = |x: u32, y: u32| {
            GroundAtom::from_texts("e", &[&format!("c{x}"), &format!("c{y}")])
        };
        let db = parse_database("e(c0, c1).\nn(c0).\nn(c1).\nn(c2).").unwrap();
        let fact_of = |t: u32| edge(t / 3, t % 3);
        for mode in [GroundMode::Full, GroundMode::Relevant] {
            churn(&program, &db, fact_of, &toggles, mode);
        }
    }
}

/// Batched mutations (one `apply`, several facts) behave like their
/// net effect, including insert/retract cancellation inside the batch.
#[test]
fn batched_mutations_match_net_effect() {
    let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
    let db = parse_database("move(a, b).\nmove(b, a).\nmove(c, d).").unwrap();
    for mode in [GroundMode::Full, GroundMode::Relevant] {
        let mut solver = solver_for(&program, &db, mode);
        solver
            .apply(vec![
                Mutation::Retract(GroundAtom::from_texts("move", &["b", "a"])),
                Mutation::Insert(GroundAtom::from_texts("move", &["d", "c"])),
                Mutation::Insert(GroundAtom::from_texts("move", &["b", "a"])),
                Mutation::Retract(GroundAtom::from_texts("move", &["b", "a"])),
            ])
            .expect("batch applies");
        assert_state_matches_fresh(&solver, 0);
        assert_eq!(solver.epoch(), 1, "one batch, one epoch");
    }
}

/// A long alternating flap on one fact keeps the session exact while
/// the graph accumulates (and re-uses) the stale instance.
#[test]
fn flapping_fact_reuses_stale_instances() {
    let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
    let db = parse_database("move(a, b).\nmove(b, a).\nmove(b, c).").unwrap();
    let fact = GroundAtom::from_texts("move", &["b", "c"]);
    let mut solver = solver_for(&program, &db, GroundMode::Relevant);
    let rules_after_first_cycle = {
        solver.retract_fact(fact.clone()).unwrap();
        solver.insert_fact(fact.clone()).unwrap();
        solver.graph().rule_count()
    };
    for step in 0..6 {
        solver.retract_fact(fact.clone()).unwrap();
        assert_state_matches_fresh(&solver, step);
        let delta = solver.insert_fact(fact.clone()).unwrap();
        assert_eq!(delta.new_rules, 0, "stale instance reused");
        assert_state_matches_fresh(&solver, step);
    }
    assert_eq!(
        solver.graph().rule_count(),
        rules_after_first_cycle,
        "no growth under flapping"
    );
}
