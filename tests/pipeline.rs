//! Cross-crate pipeline tests: parse → analyze → ground → evaluate →
//! check, with the independent implementations validating one another.

use tie_breaking_datalog::constructions::generators;
use tie_breaking_datalog::core::semantics::enumerate::{
    enumerate_fixpoints, enumerate_stable, EnumerateConfig,
};
use tie_breaking_datalog::core::semantics::fixpoint::is_fixpoint;
use tie_breaking_datalog::core::semantics::stable::is_stable;
use tie_breaking_datalog::core::semantics::stratified::stratified;
use tie_breaking_datalog::core::semantics::tie_breaking::well_founded_tie_breaking;
use tie_breaking_datalog::core::semantics::well_founded::well_founded;
use tie_breaking_datalog::prelude::*;

fn cfg() -> EnumerateConfig {
    EnumerateConfig {
        limit: 0,
        max_branch_atoms: 30,
    }
}

/// Stratified evaluation and the well-founded interpreter agree on
/// stratified programs (two entirely different engines: semi-naive joins
/// vs. ground-graph closure).
#[test]
fn stratified_vs_well_founded_cross_validation() {
    let program = parse_program(
        "reach(X) :- start(X).\n\
         reach(Y) :- reach(X), edge(X, Y).\n\
         blocked(X) :- node(X), not reach(X).\n\
         safe(X) :- node(X), not blocked(X).",
    )
    .unwrap();
    let db = parse_database(
        "start(a). edge(a, b). edge(b, c). edge(d, d).\n\
         node(a). node(b). node(c). node(d).",
    )
    .unwrap();

    let strat = stratified(&program, &db).unwrap();
    let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
    let wf = well_founded(&graph, &program, &db).unwrap();
    assert!(wf.total);

    let mut wf_true = wf.model.true_atoms(graph.atoms());
    wf_true.sort();
    let mut strat_true: Vec<GroundAtom> = strat.facts.facts().collect();
    strat_true.sort();
    assert_eq!(wf_true, strat_true);
}

/// The well-founded model is extended by every stable model (VRS), and
/// the enumeration agrees with the checkers.
#[test]
fn stable_models_extend_the_well_founded_model() {
    let program =
        parse_program("a :- not b.\nb :- not a.\nc :- a.\nd :- not c, not b.\ne(k) :- not a.")
            .unwrap();
    let db = Database::new();
    let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
    let wf = well_founded(&graph, &program, &db).unwrap();

    let stables = enumerate_stable(&graph, &program, &db, &cfg()).unwrap();
    assert!(!stables.is_empty());
    for m in &stables {
        assert!(m.extends(&wf.model), "stable must extend the WF model");
        assert!(is_fixpoint(&graph, &db, m));
        assert!(is_stable(&graph, &program, &db, m));
    }
    // And fixpoints ⊇ stable models.
    let fixpoints = enumerate_fixpoints(&graph, &program, &db, &cfg()).unwrap();
    assert!(fixpoints.len() >= stables.len());
}

/// The facade's session solver agrees with the low-level APIs.
#[test]
fn facade_matches_low_level() {
    let src = "win(X) :- move(X, Y), not win(Y).";
    let db_src = "move(a, b). move(b, c). move(c, a)."; // odd ring: 3-cycle
    let solver = Solver::from_sources(src, db_src).unwrap();

    let program = parse_program(src).unwrap();
    let db = parse_database(db_src).unwrap();
    let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
    let low = well_founded(&graph, &program, &db).unwrap();
    let high = solver.well_founded().unwrap();
    assert_eq!(low.total, high.total);
    assert_eq!(low.model.true_count(), high.true_facts.len());
}

/// An odd ground ring (win–move on a 3-ring) defeats even tie-breaking;
/// the enumeration confirms there is no fixpoint at all.
#[test]
fn odd_ground_ring_has_no_fixpoint() {
    let program = generators::win_move_program();
    let db = parse_database("move(a, b). move(b, c). move(c, a).").unwrap();
    let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();

    let mut policy = RootTruePolicy;
    let tb = well_founded_tie_breaking(&graph, &program, &db, &mut policy).unwrap();
    assert!(!tb.total, "odd ring: no ties to break");

    let fixpoints = enumerate_fixpoints(&graph, &program, &db, &cfg()).unwrap();
    assert!(fixpoints.is_empty());
}

/// Even ground rings are decided by tie-breaking into one of exactly two
/// alternating fixpoints.
#[test]
fn even_ground_ring_two_fixpoints() {
    let program = generators::win_move_program();
    let db = parse_database("move(a, b). move(b, c). move(c, d). move(d, a).").unwrap();
    let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();

    let fixpoints = enumerate_fixpoints(&graph, &program, &db, &cfg()).unwrap();
    assert_eq!(fixpoints.len(), 2);

    let mut policy = RootTruePolicy;
    let tb = well_founded_tie_breaking(&graph, &program, &db, &mut policy).unwrap();
    assert!(tb.total);
    assert!(fixpoints.contains(&tb.model));
    // Alternating: exactly 2 of the 4 positions win.
    assert_eq!(
        tb.model
            .true_atoms(graph.atoms())
            .iter()
            .filter(|a| a.pred.as_str() == "win")
            .count(),
        2
    );
}

/// Budget errors surface as typed errors, not panics.
#[test]
fn budget_failures_are_typed() {
    let program = parse_program("t(U, V, W, X, Y, Z) :- e(U, V), e(W, X), e(Y, Z).").unwrap();
    let mut db = Database::new();
    for i in 0..24 {
        db.insert(GroundAtom::from_texts(
            "e",
            &[&format!("c{i}"), &format!("c{}", i + 1)],
        ))
        .unwrap();
    }
    // 6 variables over 25 constants = 244 million instances: over budget.
    let err = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("budget"), "{msg}");
}

/// The full analysis report on a corpus of programs: spot-check all the
/// flags against the theory.
#[test]
fn analysis_corpus() {
    let cases: Vec<(&str, bool, bool, bool)> = vec![
        // (source, stratified, structurally total, nonuniform total)
        ("t(X, Y) :- e(X, Y).", true, true, true),
        ("b(X) :- n(X), not r(X).", true, true, true),
        ("p :- not q.\nq :- not p.", false, true, true),
        ("p :- not p.", false, false, false),
        ("p :- not p, g.\ng :- g.", false, false, true),
        ("p :- not p, g.\ng :- e.", false, false, false),
        ("win(X) :- move(X, Y), not win(Y).", false, false, false),
    ];
    for (src, strat, total, nonuniform) in cases {
        let program = parse_program(src).unwrap();
        let report = datalog_analyze::analyze(&program, None, &AnalyzeConfig::default());
        assert_eq!(report.stratified, strat, "{src}");
        assert_eq!(report.certificate.is_some(), total, "{src}");
        assert_eq!(report.nonuniformly_total, nonuniform, "{src}");
    }
}
