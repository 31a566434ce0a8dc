//! Every worked example in the paper, validated end to end.

use tie_breaking_datalog::core::semantics::enumerate::{
    enumerate_fixpoints, enumerate_stable, EnumerateConfig,
};
use tie_breaking_datalog::core::semantics::fixpoint::is_fixpoint;
use tie_breaking_datalog::core::semantics::stable::is_stable;
use tie_breaking_datalog::core::semantics::tie_breaking::{
    pure_tie_breaking, well_founded_tie_breaking,
};
use tie_breaking_datalog::core::semantics::well_founded::well_founded;
use tie_breaking_datalog::prelude::*;

fn cfg() -> EnumerateConfig {
    EnumerateConfig {
        limit: 0,
        max_branch_atoms: 30,
    }
}

/// Paper §1, program (1): `P(a) ← ¬P(x), E(b)` — total (the well-founded
/// semantics finds a fixpoint here) but, per §4, not structurally total.
#[test]
fn program_1_behaviour() {
    let program = parse_program("p(a) :- not p(X), e(b).").unwrap();
    let db = parse_database("e(b).").unwrap();
    let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();

    let run = well_founded(&graph, &program, &db).unwrap();
    assert!(run.total);
    assert!(is_fixpoint(&graph, &db, &run.model));

    assert!(!structural_totality(&program).total);
}

/// Paper §1, program (2): the alphabetic variant `P(x, y) ← ¬P(y, y),
/// E(x)` has no fixpoint whenever E is nonempty.
#[test]
fn program_2_is_not_total() {
    let p1 = parse_program("p(a) :- not p(X), e(b).").unwrap();
    let p2 = parse_program("p(X, Y) :- not p(Y, Y), e(X).").unwrap();
    assert!(p1.is_alphabetic_variant_of(&p2));

    for db_src in ["e(a).", "e(a). e(b).", "e(c)."] {
        let db = parse_database(db_src).unwrap();
        let graph = ground(&p2, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
        let fixpoints = enumerate_fixpoints(&graph, &p2, &db, &cfg()).unwrap();
        assert!(fixpoints.is_empty(), "E = {{{db_src}}}");
    }

    // With E empty, the single rule is vacuous and a fixpoint exists.
    let db = Database::new();
    let graph = ground(&p2, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
    let fixpoints = enumerate_fixpoints(&graph, &p2, &db, &cfg()).unwrap();
    assert!(!fixpoints.is_empty());
}

/// Paper §3: `p ← p, ¬q ; q ← q, ¬p`. The ground graph is a tie with p on
/// one side and q on the other; the pure algorithm sets one true, one
/// false — but {p, q} is unfounded, so the well-founded flavour (and the
/// well-founded semantics) sets both false.
#[test]
fn guarded_pq_example() {
    let program = parse_program("p :- p, not q.\nq :- q, not p.").unwrap();
    let db = Database::new();
    let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();

    let mut policy = RootTruePolicy;
    let pure = pure_tie_breaking(&graph, &program, &db, &mut policy).unwrap();
    assert!(pure.total);
    assert_eq!(pure.model.true_count(), 1);
    assert!(is_fixpoint(&graph, &db, &pure.model));
    assert!(
        !is_stable(&graph, &program, &db, &pure.model),
        "the paper: this fixpoint is not a stable model"
    );

    let mut policy = RootTruePolicy;
    let wf_tb = well_founded_tie_breaking(&graph, &program, &db, &mut policy).unwrap();
    assert!(wf_tb.total);
    assert_eq!(wf_tb.model.true_count(), 0);
    assert!(is_stable(&graph, &program, &db, &wf_tb.model));

    // "The only stable model has both propositions false."
    let stables = enumerate_stable(&graph, &program, &db, &cfg()).unwrap();
    assert_eq!(stables.len(), 1);
    assert_eq!(stables[0].true_count(), 0);
}

/// Paper §3: the r1/r2/r3 example — one SCC, not a tie (three negative
/// arcs), G⁺ has no nonempty unfounded set, so WF-TB assigns nothing; yet
/// three stable models exist, each with exactly one true proposition.
#[test]
fn three_rules_example() {
    let program = parse_program(
        "p1 :- not p2, not p3.\n\
         p2 :- not p1, not p3.\n\
         p3 :- not p1, not p2.",
    )
    .unwrap();
    let db = Database::new();
    let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();

    let mut policy = RootTruePolicy;
    let run = well_founded_tie_breaking(&graph, &program, &db, &mut policy).unwrap();
    assert!(!run.total);
    assert_eq!(run.model.defined_count(), 0);

    let stables = enumerate_stable(&graph, &program, &db, &cfg()).unwrap();
    assert_eq!(stables.len(), 3);
    for m in &stables {
        assert_eq!(m.true_count(), 1);
    }
}

/// Paper §6: the archetypal structurally total unstratifiable program
/// `P(x) ← ¬Q(x); Q(x) ← ¬P(x)` — two fixpoints per element; the
/// interpreter's choices select among them.
#[test]
fn archetypal_program() {
    let program = parse_program("p(X) :- not q(X).\nq(X) :- not p(X).").unwrap();
    assert!(structural_totality(&program).total);
    assert!(!stratify(&program).stratified);

    let db = parse_database("e(a). e(b).").unwrap();
    let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();

    // Per universe element one tie ⇒ 2^2 fixpoints, all stable.
    let fixpoints = enumerate_fixpoints(&graph, &program, &db, &cfg()).unwrap();
    assert_eq!(fixpoints.len(), 4);
    let stables = enumerate_stable(&graph, &program, &db, &cfg()).unwrap();
    assert_eq!(stables.len(), 4);

    // Every scripted run lands on one of them.
    for bits in 0u8..4 {
        let script: Vec<bool> = (0..2).map(|i| bits & (1 << i) != 0).collect();
        let mut policy = ScriptedPolicy::new(script, false);
        let run = well_founded_tie_breaking(&graph, &program, &db, &mut policy).unwrap();
        assert!(run.total);
        assert!(is_stable(&graph, &program, &db, &run.model));
    }
}

/// Paper §2: the NP-hardness source [KP] manifests as multiple fixpoints
/// and an exponential search space; sanity-check the census machinery on
/// the standard win–move drawn cycle.
#[test]
fn win_move_drawn_cycle_census() {
    let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
    let db = parse_database("move(a, b). move(b, a).").unwrap();
    let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();

    // WF leaves both undefined.
    let wf = well_founded(&graph, &program, &db).unwrap();
    assert!(!wf.total);

    // Exactly two fixpoints (win(a) xor win(b)); both stable.
    let fixpoints = enumerate_fixpoints(&graph, &program, &db, &cfg()).unwrap();
    assert_eq!(fixpoints.len(), 2);
    let stables = enumerate_stable(&graph, &program, &db, &cfg()).unwrap();
    assert_eq!(stables.len(), 2);

    // Tie-breaking reaches each one depending on the policy.
    let mut outcomes = std::collections::HashSet::new();
    for root_true in [false, true] {
        let mut policy = ScriptedPolicy::new(vec![root_true], false);
        let run = well_founded_tie_breaking(&graph, &program, &db, &mut policy).unwrap();
        assert!(run.total);
        outcomes.insert(run.model.true_atoms(graph.atoms()).len());
        assert!(is_stable(&graph, &program, &db, &run.model));
    }
}
