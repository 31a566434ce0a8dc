//! Differential suite: the paper-literal global loops ≡ the session
//! [`Solver`].
//!
//! The `Solver`, which walks the condensation once per evaluation and
//! forks its outcome scripts copy-on-write, must be observationally
//! identical to the paper-literal global loops and the core enumerator
//! over them (`well_founded`, `all_outcomes`, …), run on the
//! paper-literal `Full` grounding while the `Solver` grounds relevantly,
//! and compared as decoded text:
//!
//! * the **well-founded model** is the same partial model (it is unique,
//!   so the runs must agree atom by atom);
//! * the **sets of tie-breaking outcomes** reachable over all
//!   [`ScriptedPolicy`] scripts coincide for both the pure and
//!   well-founded flavours (individual runs may break isomorphic ties in
//!   a different order, so run-by-run models are *not* compared);
//! * **totality verdicts** agree across modes for every outcome.
//!
//! Random propositional programs exercise arbitrary loop/negation mixes
//! (including non-call-consistent ones with stuck odd components);
//! random first-order programs exercise grounding interplay.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tie_breaking_datalog::ast::{Atom, Literal, Rule, Sign, Term};
use tie_breaking_datalog::constructions::generators;
use tie_breaking_datalog::core::semantics::outcomes::{all_outcomes, OutcomeSet};
use tie_breaking_datalog::core::semantics::well_founded::well_founded;
use tie_breaking_datalog::ground::AtomTable;
use tie_breaking_datalog::prelude::*;

/// A random propositional program over `preds` proposition names.
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

fn db_from_mask(program: &Program, mask: u32) -> Database {
    let mut db = Database::new();
    for (i, &pred) in program.predicates().iter().enumerate() {
        if mask & (1 << (i % 32)) != 0 {
            db.insert(GroundAtom::new(pred, std::iter::empty()))
                .expect("facts");
        }
    }
    db
}

/// One decoded outcome: sorted true facts and sorted undefined facts.
type Outcome = (Vec<String>, Vec<String>);

fn decode(model: &PartialModel, atoms: &AtomTable) -> Outcome {
    let mut t: Vec<String> = model
        .true_atoms(atoms)
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    t.sort();
    let mut u: Vec<String> = model
        .undefined_atoms()
        .map(|id| atoms.decode(id).to_string())
        .collect();
    u.sort();
    (t, u)
}

/// An outcome set as decoded text, or `None` when exploration hit the
/// run budget (skip the comparison then — a truncated set depends on
/// exploration order).
fn decoded_set(set: &OutcomeSet, atoms: &AtomTable) -> Option<BTreeSet<Outcome>> {
    (!set.truncated).then(|| set.models.iter().map(|m| decode(m, atoms)).collect())
}

/// The full cross-check for one instance: the global loops on the
/// `Full` graph against the `Solver`.
fn assert_modes_agree(program: &Program, database: &Database) {
    let graph = ground(
        program,
        database,
        GroundMode::Full,
        &GroundConfig::default(),
    )
    .expect("grounds");
    let solver = Solver::new(program.clone(), database.clone()).expect("session prepares");

    // Well-founded model: unique, so the decoded models must agree
    // exactly, and with them the totality verdicts.
    let global = well_founded(&graph, program, database).expect("global wf runs");
    let session = solver.well_founded_run().expect("session wf runs");
    assert_eq!(
        decode(&session.model, solver.graph().atoms()),
        decode(&global.model, graph.atoms()),
        "well-founded models differ"
    );
    assert_eq!(session.total, global.total, "totality verdicts differ");

    // Outcome sets: identical for both tie-breaking flavours, and every
    // shared outcome carries the same totality verdict (encoded by its
    // undefined-fact list).
    for pure in [false, true] {
        let a = all_outcomes(&graph, program, database, pure, 512).expect("outcomes enumerate");
        let b = solver.all_outcomes(pure, 512).expect("outcomes enumerate");
        if let (Some(a), Some(b)) = (
            decoded_set(&a, graph.atoms()),
            decoded_set(&b, solver.graph().atoms()),
        ) {
            assert_eq!(
                a, b,
                "outcome sets differ (pure = {pure}) for program:\n{program}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random propositional programs — arbitrary mixtures of positive
    /// loops, negation cycles, and stuck odd components — over random
    /// fact masks.
    #[test]
    fn propositional_modes_agree(
        program in arb_program(5, 8),
        mask in any::<u32>(),
    ) {
        let db = db_from_mask(&program, mask);
        assert_modes_agree(&program, &db);
    }

    /// Random first-order call-consistent programs over random databases
    /// (every residual component is a tie: the tie-heavy regime).
    #[test]
    fn first_order_call_consistent_modes_agree(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = generators::random_call_consistent(&mut rng, 4, 6, 2);
        let db = generators::random_database(&mut rng, &program, 2, 0.35, true);
        assert_modes_agree(&program, &db);
    }

    /// Random variants of the win–move skeleton — not necessarily
    /// call-consistent, so odd ground cycles and partial models appear.
    #[test]
    fn first_order_win_move_variants_modes_agree(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let skeleton = generators::win_move_program().skeleton();
        let program = generators::random_variant(&mut rng, &skeleton, 2);
        let db = generators::random_database(&mut rng, &program, 2, 0.4, false);
        assert_modes_agree(&program, &db);
    }
}

/// Deterministic alternation-heavy instances: the `Solver`'s relevant
/// grounding against the global loops' `Full` grounding.
#[test]
fn chained_instances_agree_in_both_ground_modes() {
    let tie_chain_db: String = {
        let mut s = String::new();
        for i in 0..10 {
            s.push_str(&format!("move(a{i}, b{i}).\nmove(b{i}, a{i}).\n"));
        }
        for i in 0..9 {
            s.push_str(&format!("move(a{i}, a{}).\n", i + 1));
        }
        s
    };
    let unfounded_chain = {
        let mut s = String::from("a0 :- a0.\nb0 :- not a0.\n");
        for i in 1..10 {
            s.push_str(&format!(
                "a{i} :- a{i}.\na{i} :- b{}.\nb{i} :- not a{i}.\n",
                i - 1
            ));
        }
        s
    };
    for (src, db_src) in [
        ("win(X) :- move(X, Y), not win(Y).", tie_chain_db.as_str()),
        (unfounded_chain.as_str(), ""),
    ] {
        let program = parse_program(src).unwrap();
        let db = parse_database(db_src).unwrap();
        assert_modes_agree(&program, &db);
    }
}

/// Stuck odd components veto downstream ties identically in both
/// evaluators.
#[test]
fn stuck_upstream_residues_agree() {
    for src in [
        // The {p, q} tie is fed by the stuck odd loop: never broken.
        "p :- not q.\nq :- not p.\np :- x.\nx :- not x.",
        // Odd three-cycle upstream of a tie.
        "x :- not y.\ny :- not z.\nz :- not x.\np :- not q, not x.\nq :- not p.",
        // A resolved guard instead unlocks everything through close.
        "p :- not q.\nq :- not p.\np :- not y.\ny :- y.",
    ] {
        let program = parse_program(src).unwrap();
        assert_modes_agree(&program, &Database::new());
    }
}
