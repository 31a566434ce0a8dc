//! Session mutation semantics: epochs, [`PrepareDelta`] bookkeeping,
//! rebuild fallbacks, and cone-sized re-evaluation.
//!
//! The *exactness* sweeps (mutated solver ≡ fresh solver after random
//! churn) live in the root suite (`tests/session_mutation.rs`); here the
//! API contract is pinned on hand-picked instances, each state also
//! checked against the paper-literal global loop on the `Full`
//! grounding of its database.

use datalog_ast::{parse_database, parse_program, GroundAtom};
use datalog_ground::{ground, GroundConfig, GroundMode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tiebreak_core::engine::EvalOutcome;
use tiebreak_core::semantics::outcomes::all_outcomes;
use tiebreak_core::semantics::well_founded::well_founded;
use tiebreak_core::{EngineConfig, Mutation, RootTruePolicy};
use tiebreak_runtime::Solver;

fn solver(program: &str, db: &str) -> Solver {
    Solver::new(parse_program(program).unwrap(), parse_database(db).unwrap()).unwrap()
}

/// The `Full` grounding of `solver`'s current program and database.
fn full_graph(solver: &Solver) -> datalog_ground::GroundGraph {
    let config = GroundConfig::default();
    ground(
        solver.program(),
        solver.database(),
        GroundMode::Full,
        &config,
    )
    .unwrap()
}

fn fresh_like(solver: &Solver) -> Solver {
    Solver::with_config(
        solver.program().clone(),
        solver.database().clone(),
        *solver.config(),
    )
    .unwrap()
}

fn assert_matches_fresh(mutated: &Solver) {
    let fresh = fresh_like(mutated);
    let a = mutated.well_founded().unwrap();
    let b = fresh.well_founded().unwrap();
    assert_eq!(a.true_facts, b.true_facts, "wf true facts diverge");
    assert_eq!(a.undefined, b.undefined, "wf undefined facts diverge");
    assert_eq!(a.total, b.total, "totality diverges");

    // The paper-literal global loop on the `Full` grounding, decoded.
    let graph = full_graph(mutated);
    let run = well_founded(&graph, mutated.program(), mutated.database()).unwrap();
    let global = EvalOutcome::decode(graph.atoms(), run);
    assert_eq!(
        a.true_facts, global.true_facts,
        "wf true facts diverge from Full"
    );
    assert_eq!(
        a.undefined, global.undefined,
        "wf undefined facts diverge from Full"
    );
}

const WIN: &str = "win(X) :- move(X, Y), not win(Y).";

#[test]
fn epochs_and_deltas_track_mutations() {
    let mut s = solver(WIN, "move(a, b). move(b, a). move(c, d). move(d, c).");
    assert_eq!(s.epoch(), 0);
    assert!(s.last_delta().is_none());

    // Retract one pocket's back-edge: that pocket resolves, the other
    // survives untouched.
    let delta = s
        .retract_fact(GroundAtom::from_texts("move", &["b", "a"]))
        .unwrap();
    assert_eq!(s.epoch(), 1);
    assert_eq!((delta.inserted, delta.retracted), (0, 1));
    assert!(!delta.rebuilt, "in-universe retraction stays incremental");
    assert!(delta.cone_atoms > 0 && delta.cone_rules > 0);
    assert_eq!(s.last_delta(), Some(&delta));
    assert_matches_fresh(&s);

    // Re-insert: the graph already holds the instance, so delta
    // grounding appends nothing — pure model surgery.
    let delta = s
        .insert_fact(GroundAtom::from_texts("move", &["b", "a"]))
        .unwrap();
    assert_eq!(s.epoch(), 2);
    assert!(!delta.rebuilt);
    assert_eq!(delta.new_rules, 0, "stale instance reused");
    assert_matches_fresh(&s);
}

#[test]
fn noop_batches_do_not_bump_the_epoch() {
    let mut s = solver(WIN, "move(a, b).");
    // Already present / already absent.
    let d1 = s
        .insert_fact(GroundAtom::from_texts("move", &["a", "b"]))
        .unwrap();
    let d2 = s
        .retract_fact(GroundAtom::from_texts("move", &["x", "y"]))
        .unwrap();
    // Insert+retract of the same fact cancels.
    let d3 = s
        .apply(vec![
            Mutation::Insert(GroundAtom::from_texts("move", &["b", "a"])),
            Mutation::Retract(GroundAtom::from_texts("move", &["b", "a"])),
        ])
        .unwrap();
    assert_eq!(s.epoch(), 0);
    for d in [d1, d2, d3] {
        assert_eq!((d.inserted, d.retracted), (0, 0));
        assert!(!d.rebuilt);
    }
}

#[test]
fn new_constants_force_a_rebuild() {
    let mut s = solver(WIN, "move(a, b).");
    let delta = s
        .insert_fact(GroundAtom::from_texts("move", &["b", "zz"]))
        .unwrap();
    assert!(delta.rebuilt, "constant zz is outside the universe");
    assert!(delta
        .rebuild_reason
        .as_deref()
        .unwrap()
        .contains("enters the universe"));
    assert_matches_fresh(&s);

    // Once rebuilt, zz is in the universe: further zz churn is
    // incremental again.
    let delta = s
        .insert_fact(GroundAtom::from_texts("move", &["zz", "a"]))
        .unwrap();
    assert!(!delta.rebuilt);
    assert_matches_fresh(&s);

    // Retracting the last zz fact drops it from the universe.
    let delta = s
        .apply(vec![
            Mutation::Retract(GroundAtom::from_texts("move", &["b", "zz"])),
            Mutation::Retract(GroundAtom::from_texts("move", &["zz", "a"])),
        ])
        .unwrap();
    assert!(delta.rebuilt);
    assert!(delta
        .rebuild_reason
        .as_deref()
        .unwrap()
        .contains("leaves the universe"));
    assert_matches_fresh(&s);
}

#[test]
fn program_constants_never_leave_the_universe() {
    // `a` also occurs in the program, so retracting its last fact keeps
    // the universe intact — no rebuild.
    let mut s = solver("p(a) :- e(a).\nq(X) :- e(X).", "e(a).");
    let delta = s.retract_fact(GroundAtom::from_texts("e", &["a"])).unwrap();
    assert!(!delta.rebuilt);
    assert_matches_fresh(&s);
}

#[test]
fn arity_conflicts_reject_the_whole_batch() {
    let mut s = solver(WIN, "move(a, b).");
    let err = s.apply(vec![
        Mutation::Insert(GroundAtom::from_texts("move", &["a", "b", "c"])),
        Mutation::Insert(GroundAtom::from_texts("move", &["b", "a"])),
    ]);
    assert!(err.is_err(), "arity mismatch with the program signature");
    assert_eq!(s.epoch(), 0, "nothing applied");
    assert!(!s
        .database()
        .contains(&GroundAtom::from_texts("move", &["b", "a"])));
}

#[test]
fn budget_failure_on_rebuild_reverts_epoch_and_database() {
    // A universe-moving insert forces the full re-prepare path; a rule
    // budget sized to the current instance makes that re-prepare fail.
    // Regression: this used to leave the mutated database and bumped
    // epoch behind while the prepared state still described the old
    // instance — `? stats` reported the rolled-back epoch.
    let db = "move(a, b). move(b, a). move(c, d). move(d, c).";
    let mut config = EngineConfig::default();
    let probe = Solver::with_config(
        parse_program(WIN).unwrap(),
        parse_database(db).unwrap(),
        config,
    )
    .unwrap();
    // Tight but sufficient for the seed instance: the universe grows on
    // the bad insert and the fresh grounding overflows.
    config.ground.max_rule_instances = probe.graph().rule_count() as u64;
    let mut s = Solver::with_config(
        parse_program(WIN).unwrap(),
        parse_database(db).unwrap(),
        config,
    )
    .unwrap();
    let before_wf = s.well_founded().unwrap();
    let before_rules = s.graph().rule_count();

    let bad = GroundAtom::from_texts("move", &["zz", "a"]);
    let err = s.insert_fact(bad.clone());
    assert!(err.is_err(), "the grown universe busts the rule budget");

    // Everything observable rolled back.
    assert_eq!(s.epoch(), 0, "epoch restored");
    assert!(s.last_delta().is_none(), "no delta for a failed batch");
    assert!(!s.database().contains(&bad), "database restored");
    assert_eq!(s.graph().rule_count(), before_rules, "graph restored");
    let after_wf = s.well_founded().unwrap();
    assert_eq!(after_wf.true_facts, before_wf.true_facts);
    assert_eq!(after_wf.undefined, before_wf.undefined);
    assert_matches_fresh(&s);

    // The rolled-back session still serves further (in-budget) batches.
    let delta = s
        .retract_fact(GroundAtom::from_texts("move", &["b", "a"]))
        .unwrap();
    assert_eq!(delta.epoch, 1);
    assert_eq!(s.epoch(), 1);
    assert_matches_fresh(&s);
}

#[test]
fn budget_failure_after_successful_epochs_keeps_delta_consistent() {
    // Same revert, but with history: the failed batch must not disturb
    // the last successful epoch's PrepareDelta report.
    let db = "move(a, b). move(b, a).";
    let mut config = EngineConfig::default();
    let probe = Solver::with_config(
        parse_program(WIN).unwrap(),
        parse_database(db).unwrap(),
        config,
    )
    .unwrap();
    config.ground.max_rule_instances = probe.graph().rule_count() as u64 + 1;
    let mut s = Solver::with_config(
        parse_program(WIN).unwrap(),
        parse_database(db).unwrap(),
        config,
    )
    .unwrap();

    // One successful in-universe epoch first.
    let good = s
        .insert_fact(GroundAtom::from_texts("move", &["a", "a"]))
        .unwrap();
    assert_eq!(good.epoch, 1);

    let err = s.insert_fact(GroundAtom::from_texts("move", &["qq", "qq"]));
    assert!(err.is_err(), "universe growth over the tightened budget");
    assert_eq!(s.epoch(), 1, "epoch restored to the last success");
    assert_eq!(
        s.last_delta().map(|d| d.epoch),
        Some(1),
        "last_delta still reports the last successful epoch"
    );
    assert_matches_fresh(&s);
}

#[test]
fn delta_grounding_appends_supportable_instances() {
    let mut s = solver(WIN, "move(a, b). move(b, c). move(c, a).");
    let rules0 = s.graph().rule_count();
    let delta = s
        .insert_fact(GroundAtom::from_texts("move", &["c", "b"]))
        .unwrap();
    assert!(!delta.rebuilt);
    assert_eq!(delta.new_rules, 1, "one newly supportable instance");
    assert!(delta.delta_supportable >= 1);
    assert_eq!(s.graph().rule_count(), rules0 + 1);
    assert_matches_fresh(&s);
}

#[test]
fn guarded_positive_cycles_resurrect_exactly() {
    // The p/q cycle turns supportable only when e arrives (the scoped
    // gfp refresh), and pure tie-breaking can then break it — a fresh
    // solver and the mutated one must agree on the whole outcome set.
    let mut s = solver("p :- q, e.\nq :- p.", "");
    s.insert_fact(GroundAtom::from_texts("e", &[])).unwrap();
    assert_matches_fresh(&s);
    let fresh = fresh_like(&s);
    let graph = full_graph(&s);
    for pure in [false, true] {
        let a = s.all_outcomes(pure, 256).unwrap();
        let b = fresh.all_outcomes(pure, 256).unwrap();
        assert_eq!(a.models.len(), b.models.len(), "pure={pure}");
        let global = all_outcomes(&graph, s.program(), s.database(), pure, 256).unwrap();
        assert_eq!(a.models.len(), global.models.len(), "Full, pure={pure}");
    }
}

#[test]
fn a_write_reevaluates_only_the_cone() {
    let mut s = solver(
        WIN,
        "move(a, b). move(b, a). move(c, d). move(d, c). move(e, f). move(f, e).",
    );
    let cold = s
        .retract_fact(GroundAtom::from_texts("move", &["f", "e"]))
        .unwrap();
    assert_eq!(cold.components_reevaluated, 0, "no state held yet");
    let components = s.well_founded().unwrap().stats.components_processed;

    // Mutating one pocket re-evaluates the cone's components only.
    let delta = s
        .retract_fact(GroundAtom::from_texts("move", &["d", "c"]))
        .unwrap();
    assert!(!delta.rebuilt);
    assert_eq!(delta.components_reevaluated, delta.components_added);
    assert!(
        delta.components_reevaluated < components,
        "{} of {components} components re-evaluated",
        delta.components_reevaluated
    );
    assert_matches_fresh(&s);
    let fresh = fresh_like(&s);
    assert_eq!(
        s.well_founded().unwrap().stats,
        fresh.well_founded().unwrap().stats
    );
}

#[test]
fn advances_read_upstream_decisions_of_the_full_run() {
    // `q` is decided by the well-founded run, not by the base close (`p`
    // is an unfounded positive loop), so `r :- q` fires during the run.
    // Retracting `e` re-opens `r` but not that rule: the advance must
    // read it as fired and keep `r` true.
    let mut s = solver(
        "p :- p.\nq :- not p.\nr :- q.\nr :- e.\nx :- not y.\ny :- not x.",
        "e.",
    );
    s.well_founded().unwrap();
    let delta = s.retract_fact(GroundAtom::from_texts("e", &[])).unwrap();
    assert!(delta.components_reevaluated > 0, "the state advanced");
    assert_matches_fresh(&s);
    let wf = s.well_founded().unwrap();
    assert!(
        wf.true_facts.iter().any(|f| f.to_string() == "r"),
        "r lost its fired upstream rule"
    );
}

#[test]
fn killed_delta_rules_never_replay_as_fired() {
    // Regression: a rule instance appended by delta grounding in epoch 1
    // (h(c) :- e(c), not b(c)) is killed during the cone re-close —
    // b(c) is true on the frozen boundary. Its grown placeholder
    // pending count was 0; if the kill leaves it there, epoch 2 (whose
    // cone contains h(c) but not that dead rule) misreads it as *fired*
    // and forces h(c) true. A fresh solver on the final database says
    // false.
    let mut s = solver(
        "h(X) :- e(X), not b(X).\nh(X) :- f(X), not g(X).",
        "b(c). g(c).",
    );
    s.insert_fact(GroundAtom::from_texts("e", &["c"])).unwrap();
    assert_matches_fresh(&s);
    s.insert_fact(GroundAtom::from_texts("f", &["c"])).unwrap();
    assert_matches_fresh(&s);
    let wf = s.well_founded().unwrap();
    assert!(
        !wf.true_facts.iter().any(|f| f.to_string() == "h(c)"),
        "killed rule replayed as fired"
    );
}

#[test]
fn mutation_sequences_stay_exact() {
    let script = [
        Mutation::Retract(GroundAtom::from_texts("move", &["b", "a"])),
        Mutation::Insert(GroundAtom::from_texts("move", &["c", "c"])),
        Mutation::Insert(GroundAtom::from_texts("move", &["b", "a"])),
        Mutation::Retract(GroundAtom::from_texts("move", &["a", "b"])),
        Mutation::Insert(GroundAtom::from_texts("move", &["d", "a"])),
    ];
    let mut s = solver(WIN, "move(a, b). move(b, a). move(c, d). move(d, c).");
    for m in &script {
        s.apply(vec![m.clone()]).unwrap();
        assert_matches_fresh(&s);
        let fresh = fresh_like(&s);
        let a = s.well_founded_tie_breaking(&mut RootTruePolicy).unwrap();
        let b = fresh
            .well_founded_tie_breaking(&mut RootTruePolicy)
            .unwrap();
        assert_eq!(a.true_facts, b.true_facts, "{m:?}");
    }
}

/// Applies four seeded sequences of 60 random toggles from `toggles` to
/// a solver over `(program, db)` whose memo holds a served state, and
/// after every write compares the maintained counters with a fresh
/// solver's.
fn assert_counters_track_fresh(program: &str, db: &str, toggles: &[GroundAtom]) {
    for seed in 1..=4u64 {
        let mut rng = SmallRng::seed_from_u64(0x5eed + seed);
        let mut s = solver(program, db);
        s.well_founded_run().unwrap(); // the memo holds a state to advance
        for step in 0..60 {
            let fact = toggles[rng.gen_range(0..toggles.len())].clone();
            let delta = if s.database().contains(&fact) {
                s.retract_fact(fact)
            } else {
                s.insert_fact(fact)
            }
            .unwrap();
            assert!(!delta.rebuilt, "seed {seed} step {step}");
            let fresh = fresh_like(&s);
            assert_eq!(
                s.residual_atom_count(),
                fresh.residual_atom_count(),
                "seed {seed} step {step}: residual atoms"
            );
            assert_eq!(delta.residual_atoms, fresh.residual_atom_count());
            let served = s.well_founded_run().unwrap();
            let reference = fresh.well_founded_run().unwrap();
            assert_eq!(
                served.total, reference.total,
                "seed {seed} step {step}: totality"
            );
            assert_eq!(
                served.stats, reference.stats,
                "seed {seed} step {step}: run stats"
            );
            assert_matches_fresh(&s);
        }
    }
}

#[test]
fn maintained_counters_match_a_fresh_solver_after_every_write() {
    // `residual_atom_count` and the served run's `total` and stats are
    // adjusted over each cone, never rescanned. Pockets chained and fed
    // from a hub give cones that resolve, merge and re-form components;
    // self-moves make odd loops.
    let mut db = String::new();
    let mut toggles: Vec<GroundAtom> = Vec::new();
    for i in 0..6 {
        let (a, b) = (format!("a{i}"), format!("b{i}"));
        db.push_str(&format!("move({a}, {b}). move({b}, {a}). "));
        toggles.push(GroundAtom::from_texts("move", &[&b, &a]));
        toggles.push(GroundAtom::from_texts("move", &[&a, &a]));
        if i + 1 < 6 {
            db.push_str(&format!("move({a}, a{}). ", i + 1));
            toggles.push(GroundAtom::from_texts(
                "move",
                &[&a, &format!("a{}", i + 1)],
            ));
        }
    }
    db.push_str("move(h, a0). move(h, a3).");
    toggles.push(GroundAtom::from_texts("move", &["h", "a3"]));
    assert_counters_track_fresh(WIN, &db, &toggles);

    // A total model most of the time: the `s` facts support a chain of
    // positive loops, so components take unfounded rounds, and each `r`
    // fact appends an undefined odd-loop atom `q(x)` under relevant
    // grounding.
    let program = "t(X) :- p(X).\nq(X) :- r(X), not q(X).\n\
                   a0 :- a0.\na0 :- s0.\nb0 :- not a0.\n\
                   a1 :- a1.\na1 :- b0.\na1 :- s1.\nb1 :- not a1.\n\
                   a2 :- a2.\na2 :- b1.\na2 :- s2.\nb2 :- not a2.";
    let toggles: Vec<GroundAtom> = ["c", "d"]
        .iter()
        .map(|x| GroundAtom::from_texts("r", &[x]))
        .chain((0..3).map(|i| GroundAtom::from_texts(&format!("s{i}"), &[])))
        .collect();
    assert_counters_track_fresh(program, "p(c). p(d). s1.", &toggles);
}
