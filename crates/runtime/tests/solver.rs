//! Session-level behaviour of the runtime [`Solver`].
//!
//! The differential sweeps live in the root suite
//! (`tests/eval_modes.rs`, `tests/runtime_parallel.rs`); here: session
//! reuse, the one policy of a run, the paper's small examples against the
//! paper-literal global loops, and CoW enumeration equivalence on
//! hand-picked instances.

use std::collections::BTreeSet;

use datalog_ast::{parse_database, parse_program, GroundAtom};
use datalog_ground::{
    ground, AtomTable, GroundConfig, GroundGraph, GroundMode, PartialModel, TruthValue,
};
use tiebreak_core::semantics::enumerate::{enumerate_fixpoints, enumerate_stable, EnumerateConfig};
use tiebreak_core::semantics::outcomes::all_outcomes;
use tiebreak_core::semantics::well_founded::well_founded;
use tiebreak_core::semantics::{pure_tie_breaking, well_founded_tie_breaking};
use tiebreak_core::{
    EngineConfig, InterpreterRun, RootFalsePolicy, RootTruePolicy, ScriptedPolicy, TiePolicy,
    TieView,
};
use tiebreak_runtime::Solver;

fn solver(program: &str, database: &str) -> Solver {
    Solver::from_sources(program, database).unwrap()
}

/// The paper-literal `Full` grounding of the solver's program and
/// database: the graph the global loops run on.
fn full_graph(solver: &Solver) -> GroundGraph {
    let config = GroundConfig::default();
    ground(
        solver.program(),
        solver.database(),
        GroundMode::Full,
        &config,
    )
    .unwrap()
}

/// `model` as decoded text: its true atoms and its undefined atoms, each
/// sorted. Models over different groundings compare this way.
fn text(model: &PartialModel, atoms: &AtomTable) -> (Vec<String>, Vec<String>) {
    let mut t: Vec<String> = model
        .true_atoms(atoms)
        .iter()
        .map(ToString::to_string)
        .collect();
    let mut u: Vec<String> = model
        .undefined_atoms()
        .map(|id| atoms.decode(id).to_string())
        .collect();
    t.sort();
    u.sort();
    (t, u)
}

fn val(solver: &Solver, run: &InterpreterRun, pred: &str, args: &[&str]) -> TruthValue {
    let atoms = solver.graph().atoms();
    run.model
        .get(atoms.id_of(&GroundAtom::from_texts(pred, args)).unwrap())
}

/// Two independent draw pockets + a decided chain.
const POCKETS: &str = "win(X) :- move(X, Y), not win(Y).";
const POCKET_DB: &str = "move(a, b). move(b, a). move(c, d). move(d, c). move(e, f). move(f, g).";

#[test]
fn session_prepares_once_and_serves_many() {
    let solver = solver(POCKETS, POCKET_DB);
    assert!(solver.residual_atom_count() >= 4);

    // Several evaluations against the same prepared state.
    let wf = solver.well_founded().unwrap();
    assert!(!wf.total, "the pockets are draws under wf");
    let tb1 = solver
        .well_founded_tie_breaking(&mut RootTruePolicy)
        .unwrap();
    let tb2 = solver
        .well_founded_tie_breaking(&mut RootTruePolicy)
        .unwrap();
    assert!(tb1.total && tb2.total);
    assert_eq!(tb1.true_facts, tb2.true_facts, "evaluations are repeatable");
    assert_eq!(tb1.stats.ties_broken, 2);
}

#[test]
fn matches_the_one_shot_interpreters() {
    let program = parse_program(POCKETS).unwrap();
    let database = parse_database(POCKET_DB).unwrap();
    let graph = ground(
        &program,
        &database,
        GroundMode::Full,
        &GroundConfig::default(),
    )
    .unwrap();
    let reference = well_founded(&graph, &program, &database).unwrap();

    // The solver grounds relevantly; compare decoded
    // fact lists, which are atom-table independent.
    let solver = solver(POCKETS, POCKET_DB);
    let wf = solver.well_founded().unwrap();
    let mut expected: Vec<String> = reference
        .model
        .true_atoms(graph.atoms())
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    expected.sort();
    let got: Vec<String> = wf
        .true_facts
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    assert_eq!(got, expected);
    assert_eq!(wf.total, reference.total);
}

/// A policy recording the tie indices it was shown.
#[derive(Default)]
struct IndexProbe(Vec<usize>);

impl TiePolicy for IndexProbe {
    fn choose_root_side_true(&mut self, view: &TieView<'_>) -> bool {
        self.0.push(view.index);
        view.index.is_multiple_of(2)
    }
}

#[test]
fn one_policy_meets_every_tie_of_the_run_in_order() {
    // The two pockets are independent, yet one policy sees both ties,
    // numbered across the whole run, and its choices differ per tie.
    let solver = solver(POCKETS, POCKET_DB);
    let mut probe = IndexProbe::default();
    let out = solver.well_founded_tie_breaking(&mut probe).unwrap();
    assert!(out.total);
    assert_eq!(out.stats.ties_broken, 2);
    assert_eq!(probe.0, [0, 1]);
    let root_true = solver
        .well_founded_tie_breaking(&mut RootTruePolicy)
        .unwrap();
    assert_ne!(out.true_facts, root_true.true_facts);
}

#[test]
fn pure_flavour_breaks_guarded_cycles() {
    // Pure TB breaks the {p, q} tie; WF-TB falsifies it as unfounded
    // instead: unfounded sets take priority, as in the global loops.
    let src = "p :- p, not q.\nq :- q, not p.";
    let solver = solver(src, "");
    let (full, p, d) = (full_graph(&solver), solver.program(), solver.database());
    let atoms = solver.graph().atoms();
    let pure = solver.pure_tie_breaking_run(&mut RootTruePolicy).unwrap();
    let global = pure_tie_breaking(&full, p, d, &mut RootTruePolicy).unwrap();
    assert_eq!(text(&pure.model, atoms), text(&global.model, full.atoms()));
    assert!(pure.total);
    assert_eq!(pure.stats.ties_broken, 1);
    assert_ne!(val(&solver, &pure, "p", &[]), val(&solver, &pure, "q", &[]));
    let wf = solver
        .well_founded_tie_breaking_run(&mut RootTruePolicy)
        .unwrap();
    let global = well_founded_tie_breaking(&full, p, d, &mut RootTruePolicy).unwrap();
    assert_eq!(text(&wf.model, atoms), text(&global.model, full.atoms()));
    assert!(wf.total);
    assert_eq!(wf.stats.ties_broken, 0);
    assert_eq!(wf.stats.unfounded_rounds, 1);
    assert_eq!(val(&solver, &wf, "p", &[]), TruthValue::False);
    assert_eq!(val(&solver, &wf, "q", &[]), TruthValue::False);
}

#[test]
fn stuck_residues_stay_partial_and_veto_downstream() {
    // The odd loop `x` feeds `p` through an alive rule, so the {p, q}
    // tie never becomes a bottom component: the global loop leaves it
    // unbroken and so does the solver.
    let src = "p :- not q.\nq :- not p.\np :- x.\nx :- not x.";
    let out = solver(src, "")
        .well_founded_tie_breaking(&mut RootTruePolicy)
        .unwrap();
    assert!(!out.total);
    assert_eq!(out.stats.ties_broken, 0);
    assert_eq!(out.undefined.len(), 3);
    let solver = solver(src, "");
    let (full, p, d) = (full_graph(&solver), solver.program(), solver.database());
    let run = solver
        .well_founded_tie_breaking_run(&mut RootTruePolicy)
        .unwrap();
    let global = well_founded_tie_breaking(&full, p, d, &mut RootTruePolicy).unwrap();
    let atoms = solver.graph().atoms();
    assert_eq!(text(&run.model, atoms), text(&global.model, full.atoms()));
    assert_eq!(run.model.defined_count(), 0);
}

#[test]
fn resolved_upstream_unlocks_downstream_ties() {
    // Here the guard loop is unfounded: y := false resolves upstream,
    // which *closes* p to true — no tie remains anywhere.
    let solver = solver("p :- not q.\nq :- not p.\np :- not y.\ny :- y.", "");
    let (full, p, d) = (full_graph(&solver), solver.program(), solver.database());
    let run = solver
        .well_founded_tie_breaking_run(&mut RootTruePolicy)
        .unwrap();
    let global = well_founded_tie_breaking(&full, p, d, &mut RootTruePolicy).unwrap();
    let atoms = solver.graph().atoms();
    assert_eq!(text(&run.model, atoms), text(&global.model, full.atoms()));
    assert!(run.total);
    assert_eq!(val(&solver, &run, "p", &[]), TruthValue::True);
    assert_eq!(run.stats.ties_broken, 0);
}

#[test]
fn wf_agrees_with_global_on_paper_examples() {
    for (src, db) in [
        ("p :- p, not q.\nq :- q, not p.", ""),
        ("p :- not q.\nq :- not p.", ""),
        ("p :- not q.\nq :- not r.\nr :- not p.", ""),
        ("p(a) :- not p(X), e(b).", "e(b)."),
        (POCKETS, "move(a, b).\nmove(b, a).\nmove(c, a)."),
        (POCKETS, "move(a, b).\nmove(b, c)."),
    ] {
        let solver = solver(src, db);
        let full = full_graph(&solver);
        let global = well_founded(&full, solver.program(), solver.database()).unwrap();
        let run = solver.well_founded_run().unwrap();
        assert_eq!(
            text(&run.model, solver.graph().atoms()),
            text(&global.model, full.atoms()),
            "program: {src}"
        );
        assert_eq!(run.total, global.total, "program: {src}");
    }
    // The decided chain: b moves to the dead end c.
    let wf = solver(POCKETS, "move(a, b).\nmove(b, c).")
        .well_founded()
        .unwrap();
    assert!(wf.total);
    assert!(wf.true_facts.iter().any(|f| f.to_string() == "win(b)"));
}

#[test]
fn unfounded_chain_takes_one_round_per_component() {
    // The global algorithm needs Θ(n) unfounded rounds on this chain; the
    // solver's walk needs one per affected component, and its stats say so.
    let mut src = String::from("a0 :- a0.\nb0 :- not a0.\n");
    for i in 1..8 {
        src.push_str(&format!(
            "a{i} :- a{i}.\na{i} :- b{}.\nb{i} :- not a{i}.\n",
            i - 1
        ));
    }
    let solver = solver(&src, "");
    let full = full_graph(&solver);
    let global = well_founded(&full, solver.program(), solver.database()).unwrap();
    let run = solver.well_founded_run().unwrap();
    let atoms = solver.graph().atoms();
    assert_eq!(text(&run.model, atoms), text(&global.model, full.atoms()));
    assert!(run.total);
    assert_eq!(global.stats.unfounded_rounds, 4, "global alternates");
    assert_eq!(run.stats.unfounded_rounds, 4);
    assert_eq!(run.stats.max_component_rounds, 1, "one round per component");
    assert!(run.stats.components_processed > 0);
}

#[test]
fn scripted_policies_reach_both_orientations() {
    let solver = solver("p :- not q.\nq :- not p.", "");
    let (full, p, d) = (full_graph(&solver), solver.program(), solver.database());
    let atoms = solver.graph().atoms();
    let mut seen = BTreeSet::new();
    for choice in [false, true] {
        let mut policy = ScriptedPolicy::new(vec![choice], false);
        let run = solver.well_founded_tie_breaking_run(&mut policy).unwrap();
        assert!(run.total);
        assert_eq!(run.stats.ties_broken, 1);
        assert_eq!(run.model.true_count(), 1);
        assert_eq!(policy.consumed(), 1);
        // One tie: the same answer orients the global loop's tie alike.
        let mut policy = ScriptedPolicy::new(vec![choice], false);
        let global = well_founded_tie_breaking(&full, p, d, &mut policy).unwrap();
        assert_eq!(
            text(&run.model, atoms),
            text(&global.model, full.atoms()),
            "choice {choice}"
        );
        seen.insert(format!("{:?}", val(&solver, &run, "p", &[])));
    }
    assert_eq!(seen.len(), 2);
}

#[test]
fn solver_runs_agree_with_the_global_loops() {
    let (src, db) = (
        POCKETS,
        "move(a, b).\nmove(b, a).\nmove(c, a).\nmove(d, e).\nmove(e, d).",
    );
    let solver = solver(src, db);
    let (g, p, d) = (full_graph(&solver), solver.program(), solver.database());
    let wf = solver.well_founded_run().unwrap();
    let global = well_founded(&g, p, d).unwrap();
    let atoms = solver.graph().atoms();
    assert_eq!(text(&wf.model, atoms), text(&global.model, g.atoms()));
    assert_eq!(wf.total, global.total);

    // The d ↔ e pocket is a tie both evaluators can break.
    let tb = solver
        .well_founded_tie_breaking_run(&mut RootTruePolicy)
        .unwrap();
    let global = well_founded_tie_breaking(&g, p, d, &mut RootTruePolicy).unwrap();
    assert_eq!(tb.total, global.total);
    assert_eq!(tb.stats.ties_broken, global.stats.ties_broken);
    // Detailed stats stay off by default: the counters stay, the logs
    // stay empty.
    assert!(tb.stats.tie_log.is_empty());
    assert!(tb.stats.component_rounds.is_empty());
    let detailed = Solver::with_config(
        parse_program(src).unwrap(),
        parse_database(db).unwrap(),
        EngineConfig::default().with_detailed_stats(true),
    )
    .unwrap()
    .well_founded_tie_breaking_run(&mut RootTruePolicy)
    .unwrap();
    assert_eq!(detailed.stats.tie_log.len(), detailed.stats.ties_broken);
    assert_eq!(
        detailed.stats.component_rounds.len(),
        detailed.stats.components_processed
    );
}

#[test]
fn relevant_mode_agrees_with_full() {
    let (src, db) = (POCKETS, "move(a, b).\nmove(b, c).\nmove(d, d).");
    let relevant = solver(src, db);
    let full = full_graph(&relevant);
    let global = well_founded(&full, relevant.program(), relevant.database()).unwrap();
    let run = relevant.well_founded_run().unwrap();
    assert_eq!(
        text(&run.model, relevant.graph().atoms()),
        text(&global.model, full.atoms())
    );
    assert_eq!(run.total, global.total);
    // The relevant graph is strictly smaller pre-close.
    assert!(relevant.graph().rule_count() < full.rule_count());
}

#[test]
fn fixpoints_and_stable_models_enumerate_on_the_solver_graph() {
    // What `datalog models` runs: the enumerators over the solver's graph.
    let solver = solver("p :- not q.\nq :- not p.", "");
    let (g, p, d) = (solver.graph(), solver.program(), solver.database());
    let config = EnumerateConfig::default();
    assert_eq!(enumerate_fixpoints(g, p, d, &config).unwrap().len(), 2);
    assert_eq!(enumerate_stable(g, p, d, &config).unwrap().len(), 2);
}

fn outcome_keys(
    models: &[PartialModel],
    decode: impl Fn(&PartialModel) -> Vec<String>,
) -> BTreeSet<Vec<String>> {
    models.iter().map(&decode).collect()
}

#[test]
fn cow_enumeration_matches_core_outcomes() {
    // 3 pockets ⇒ 8 scripts; enumerate via the paper-literal per-script
    // loops and via the session's CoW forks, over the solver's graph.
    let program = parse_program(POCKETS).unwrap();
    let db_src = "move(a, b). move(b, a). move(c, d). move(d, c). move(p, q). move(q, p).";
    let database = parse_database(db_src).unwrap();

    let solver = Solver::new(program.clone(), database.clone()).unwrap();
    let graph = solver.graph();

    for pure in [false, true] {
        let core_set = all_outcomes(graph, &program, &database, pure, 1_000).unwrap();
        let cow_set = solver.all_outcomes(pure, 1_000).unwrap();
        assert!(!core_set.truncated && !cow_set.truncated);
        assert_eq!(cow_set.runs, core_set.runs, "same exploration tree");

        let core_keys = outcome_keys(&core_set.models, |m| {
            let mut v: Vec<String> = m
                .true_atoms(graph.atoms())
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            v.sort();
            v
        });
        let cow_keys = outcome_keys(&cow_set.models, |m| {
            let mut v: Vec<String> = m
                .true_atoms(solver.graph().atoms())
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            v.sort();
            v
        });
        assert_eq!(cow_keys, core_keys, "pure = {pure}");
    }
}

#[test]
fn enumeration_respects_the_run_budget() {
    let mut src = String::new();
    for i in 0..6 {
        src.push_str(&format!("a{i} :- not b{i}.\nb{i} :- not a{i}.\n"));
    }
    let solver = solver(&src, "");
    let set = solver.all_outcomes(false, 10).unwrap();
    assert!(set.truncated);
    assert_eq!(set.runs, 10);
    let full = solver.all_outcomes(false, 1_000).unwrap();
    assert!(!full.truncated);
    assert_eq!(full.models.len(), 64);
}

#[test]
fn opposite_uniform_policies_reach_opposite_orientations() {
    let solver = solver("p :- not q.\nq :- not p.", "");
    let t = solver
        .well_founded_tie_breaking(&mut RootTruePolicy)
        .unwrap();
    let f = solver
        .well_founded_tie_breaking(&mut RootFalsePolicy)
        .unwrap();
    assert!(t.total && f.total);
    assert_ne!(t.true_facts, f.true_facts);
}
