//! Parallel determinism suite: the session runtime across thread counts.
//!
//! For every instance of the random program sweep (the same generators
//! as `tests/eval_modes.rs`) and for **both ground modes**, the runtime
//! [`Solver`] must produce, across `threads ∈ {1, 2, 8}`:
//!
//! * **identical well-founded models** — bit-identical decoded fact
//!   lists, which must also equal the one-shot `tiebreak-core`
//!   interpreter's model on the same ground graph;
//! * **identical tie-breaking outcome *sets*** — the session's
//!   copy-on-write enumeration agrees with the core enumerator, for both
//!   the pure and well-founded flavours;
//! * **identical [`RunStats`] counters** — `components_processed`,
//!   `max_component_rounds`, `ties_broken`, `unfounded_rounds`,
//!   `close_rounds` merge deterministically from per-branch partials at
//!   join (the concurrency aggregation bugfix), so the whole struct is
//!   compared with `==`.
//!
//! Thread count 8 exceeds this machine's branch counts and (possibly)
//! its core count on purpose: oversubscription must change nothing.
//!
//! The braided generators force the whole residual into **one**
//! weakly-connected branch, which runs on a single worker at any thread
//! count; their churn suite re-checks the cross-thread invariants after
//! every incremental mutation (`patch_cone` splices split and re-merge
//! the branch), with the wf model also checked against a from-scratch
//! solver on the mutated database.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tie_breaking_datalog::ast::{Atom, Literal, Rule, Sign, Term};
use tie_breaking_datalog::constructions::generators;
use tie_breaking_datalog::core::engine::EvalOutcome;
use tie_breaking_datalog::core::semantics::outcomes::all_outcomes_with;
use tie_breaking_datalog::core::semantics::well_founded::well_founded;
use tie_breaking_datalog::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

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

fn solver_for(program: &Program, db: &Database, mode: GroundMode, threads: usize) -> Solver {
    Solver::with_config(
        program.clone(),
        db.clone(),
        EngineConfig::default()
            .with_ground_mode(mode)
            .with_runtime(RuntimeConfig::with_threads(threads)),
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

/// One decoded outcome: sorted true facts and sorted undefined facts.
type Outcome = (Vec<String>, Vec<String>);

fn outcome_set_of_models(
    models: &[PartialModel],
    atoms: &tie_breaking_datalog::ground::AtomTable,
) -> BTreeSet<Outcome> {
    models
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

/// The full cross-thread check for one instance in one ground mode.
fn assert_threads_agree(program: &Program, db: &Database, mode: GroundMode) {
    // The one-shot reference interpreter on an independently grounded
    // graph (paper-literal Full mode so the reference is mode-agnostic).
    let ref_graph = ground(program, db, &GroundConfig::default()).expect("reference grounds");
    let reference = well_founded(&ref_graph, program, db).expect("reference runs");
    let mut ref_true: Vec<String> = reference
        .model
        .true_atoms(ref_graph.atoms())
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    ref_true.sort();

    let mut wf_runs: Vec<(EvalOutcome, BTreeSet<Outcome>, BTreeSet<Outcome>)> = Vec::new();
    for threads in THREADS {
        let solver = solver_for(program, db, mode, threads);
        let wf = solver.well_founded().expect("wf runs");
        let sets: Vec<BTreeSet<Outcome>> = [false, true]
            .iter()
            .map(|&pure| {
                let set = solver.all_outcomes(pure, 4096).expect("enumerates");
                assert!(!set.truncated, "sweep instances are small");
                outcome_set_of_models(&set.models, solver.graph().atoms())
            })
            .collect();
        wf_runs.push((wf, sets[0].clone(), sets[1].clone()));
    }

    // Identical wf models across thread counts, and vs the reference.
    let (first_wf, first_tb_set, first_pure_set) = &wf_runs[0];
    let first_decoded = decoded(first_wf);
    assert_eq!(first_decoded.0, ref_true, "session wf ≠ reference wf");
    assert_eq!(first_wf.total, reference.total);
    for (wf, tb_set, pure_set) in &wf_runs[1..] {
        assert_eq!(decoded(wf), first_decoded, "wf model differs by threads");
        assert_eq!(wf.total, first_wf.total);
        assert_eq!(wf.stats, first_wf.stats, "wf stats differ by threads");
        assert_eq!(tb_set, first_tb_set, "tb outcome set differs by threads");
        assert_eq!(pure_set, first_pure_set, "pure outcome set differs");
    }

    // Outcome sets also agree with the core enumerator over the same
    // prepared graph (the solver's own graph, so atom spaces coincide).
    let solver = solver_for(program, db, mode, 2);
    for (pure, session_set) in [(false, first_tb_set), (true, first_pure_set)] {
        let core = all_outcomes_with(
            solver.graph(),
            program,
            db,
            pure,
            4096,
            &EvalOptions::default(),
        )
        .expect("core enumerates");
        assert!(!core.truncated);
        let core_set = outcome_set_of_models(&core.models, solver.graph().atoms());
        assert_eq!(&core_set, session_set, "session ≠ core outcome set");
    }

    // Tie-breaking single runs: stats identical across thread counts.
    let tb_runs: Vec<EvalOutcome> = THREADS
        .iter()
        .map(|&t| {
            solver_for(program, db, mode, t)
                .well_founded_tie_breaking(&uniform(RootTruePolicy))
                .expect("tb runs")
        })
        .collect();
    for tb in &tb_runs[1..] {
        assert_eq!(decoded(tb), decoded(&tb_runs[0]));
        assert_eq!(tb.stats, tb_runs[0].stats, "tb stats differ by threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random propositional programs — arbitrary mixtures of positive
    /// loops, negation cycles, and stuck odd components — over random
    /// fact masks, both ground modes.
    #[test]
    fn propositional_threads_agree(
        program in arb_program(5, 8),
        mask in any::<u32>(),
    ) {
        let db = db_from_mask(&program, mask);
        for mode in [GroundMode::Full, GroundMode::Relevant] {
            assert_threads_agree(&program, &db, mode);
        }
    }

    /// Random first-order call-consistent programs over random databases
    /// (every residual component is a tie: the branch-heavy regime).
    #[test]
    fn first_order_call_consistent_threads_agree(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = generators::random_call_consistent(&mut rng, 4, 6, 2);
        let db = generators::random_database(&mut rng, &program, 2, 0.35, true);
        for mode in [GroundMode::Full, GroundMode::Relevant] {
            assert_threads_agree(&program, &db, mode);
        }
    }
}

/// The deterministic wide-forest instance: many independent branches,
/// thread counts both below and above the branch count.
#[test]
fn wide_forest_is_schedule_invariant() {
    let program = generators::win_move_program();
    let db = generators::wide_tie_forest_db(12, 4);
    for mode in [GroundMode::Full, GroundMode::Relevant] {
        let runs: Vec<EvalOutcome> = [1usize, 2, 8, 32]
            .iter()
            .map(|&t| {
                solver_for(&program, &db, mode, t)
                    .well_founded_tie_breaking(&uniform(RootTruePolicy))
                    .expect("runs")
            })
            .collect();
        for r in &runs {
            assert!(r.total);
            // At least the source pocket of every chain needs an actual
            // tie break (downstream pockets may resolve by propagation).
            assert!(r.stats.ties_broken >= 12);
        }
        for r in &runs[1..] {
            assert_eq!(decoded(r), decoded(&runs[0]));
            assert_eq!(r.stats, runs[0].stats);
        }
    }
}

/// Alternation-heavy chains (ties + unfounded rounds) stay exact through
/// the session path in both ground modes.
#[test]
fn chained_instances_agree_with_reference() {
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
    let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
    let db = parse_database(&tie_chain_db).unwrap();
    for mode in [GroundMode::Full, GroundMode::Relevant] {
        assert_threads_agree(&program, &db, mode);
    }
}

/// The braid is one weakly-connected branch, and a branch never spans
/// workers: at `threads = 8` the evaluation still runs on one.
#[test]
fn braided_tie_chain_is_one_wide_branch() {
    let program = generators::win_move_program();
    let db = generators::braided_tie_chain_db(4, 3);
    for mode in [GroundMode::Full, GroundMode::Relevant] {
        let solver = solver_for(&program, &db, mode, 8);
        assert_eq!(solver.branch_count(), 1, "hub must weakly connect all");
        assert_eq!(solver.effective_threads(), 1);
        assert_threads_agree(&program, &db, mode);
    }
}

/// The policy-free hot path over real per-component work: every pocket
/// runs an unfounded cascade, and the wf model is total (all false).
#[test]
fn braided_unfounded_chain_is_schedule_invariant() {
    let program = generators::braided_unfounded_chain_program(3, 2, 4);
    let db = Database::new();
    for mode in [GroundMode::Full, GroundMode::Relevant] {
        let solver = solver_for(&program, &db, mode, 1);
        assert_eq!(solver.branch_count(), 1, "hub must weakly connect all");
        let wf = solver.well_founded().expect("wf runs");
        assert!(wf.total, "braided unfounded chain is decided");
        assert!(wf.true_facts.is_empty(), "everything is unfounded");
        assert_threads_agree(&program, &db, mode);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random braid shapes, fresh solvers: the full cross-thread check.
    #[test]
    fn random_braids_agree(chains in 1usize..4, pockets in 1usize..3) {
        let program = generators::win_move_program();
        let db = generators::braided_tie_chain_db(chains, pockets);
        for mode in [GroundMode::Full, GroundMode::Relevant] {
            assert_threads_agree(&program, &db, mode);
        }
    }

    /// Incremental churn: flip advance and hub edges of a braid through
    /// `patch_cone` splices (branch splits and re-merges) and re-check
    /// the cross-thread invariants after every mutation, plus the wf
    /// model against a from-scratch solver.
    #[test]
    fn churned_braids_agree(
        flips in proptest::collection::vec((0usize..3, 0usize..3, prop::bool::ANY), 1..5),
    ) {
        let program = generators::win_move_program();
        let chains = 3;
        let pockets = 3;
        let db = generators::braided_tie_chain_db(chains, pockets);
        for mode in [GroundMode::Full, GroundMode::Relevant] {
            let mut solvers: Vec<Solver> = THREADS
                .iter()
                .map(|&t| solver_for(&program, &db, mode, t))
                .collect();
            let mut current = db.clone();
            for &(c, i, hub_edge) in &flips {
                // Hub edges reconnect whole chains; advance edges split a
                // chain's tail off the branch. Both constants already
                // exist, so the mutation stays on the incremental path.
                let fact = if hub_edge {
                    GroundAtom::from_texts("move", &["h", &format!("t{c}a0")])
                } else {
                    GroundAtom::from_texts("move", &[&format!("t{c}a{i}"), &format!("t{c}a{}", i + 1)])
                };
                let mutation = if current.remove(&fact) {
                    Mutation::Retract(fact)
                } else {
                    current.insert(fact.clone()).expect("binary fact");
                    Mutation::Insert(fact)
                };
                let mut wf_runs: Vec<EvalOutcome> = Vec::new();
                for solver in &mut solvers {
                    solver.apply(vec![mutation.clone()]).expect("mutation applies");
                    wf_runs.push(solver.well_founded().expect("wf runs"));
                }
                for wf in &wf_runs[1..] {
                    prop_assert_eq!(decoded(wf), decoded(&wf_runs[0]));
                    prop_assert_eq!(&wf.stats, &wf_runs[0].stats);
                }
                // Outcome sets across threads after the splice.
                let sets: Vec<BTreeSet<Outcome>> = solvers
                    .iter()
                    .map(|s| {
                        let set = s.all_outcomes(false, 4096).expect("enumerates");
                        outcome_set_of_models(&set.models, s.graph().atoms())
                    })
                    .collect();
                for set in &sets[1..] {
                    prop_assert_eq!(set, &sets[0]);
                }
                // Ground truth: a from-scratch solver on the mutated db.
                let fresh = solver_for(&program, &current, mode, 1)
                    .well_founded()
                    .expect("fresh wf runs");
                prop_assert_eq!(decoded(&wf_runs[0]), decoded(&fresh));
            }
        }
    }
}

/// The run budget cuts the breadth-first walk and nothing else: for
/// every budget `n` up to one past the full walk, `n` scripts run (or
/// all of them), the set is truncated exactly when scripts were left,
/// and its models are the full walk's first ones, in order.
fn assert_truncation_is_a_prefix(program: &Program, db: &Database) {
    for threads in [1, 2] {
        let solver = solver_for(program, db, GroundMode::Relevant, threads);
        for pure in [false, true] {
            let full = solver.all_outcomes(pure, 4096).expect("enumerates");
            assert!(!full.truncated, "instances are small");
            for n in 0..=full.runs + 1 {
                let set = solver.all_outcomes(pure, n).expect("enumerates");
                assert_eq!(set.runs, n.min(full.runs), "runs at n={n}");
                assert_eq!(set.truncated, n < full.runs, "truncated at n={n}");
                assert!(
                    full.models.starts_with(&set.models),
                    "models at n={n} are not a prefix of the full walk's"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn propositional_truncation_is_a_prefix(
        program in arb_program(5, 8),
        mask in any::<u32>(),
    ) {
        assert_truncation_is_a_prefix(&program, &db_from_mask(&program, mask));
    }

    #[test]
    fn first_order_truncation_is_a_prefix(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = generators::random_call_consistent(&mut rng, 4, 6, 2);
        let db = generators::random_database(&mut rng, &program, 2, 0.35, true);
        assert_truncation_is_a_prefix(&program, &db);
    }

    #[test]
    fn braid_truncation_is_a_prefix(chains in 1usize..4, pockets in 1usize..3) {
        let db = generators::braided_tie_chain_db(chains, pockets);
        assert_truncation_is_a_prefix(&generators::win_move_program(), &db);
    }
}
