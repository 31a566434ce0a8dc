//! Session-level behaviour of the runtime [`Solver`].
//!
//! The cross-mode differential sweeps live in the root suite
//! (`tests/runtime_parallel.rs`); here: session reuse, the one policy of
//! a run, CoW enumeration equivalence on hand-picked instances.

use std::collections::BTreeSet;

use datalog_ast::{parse_database, parse_program};
use datalog_ground::{ground, GroundConfig, PartialModel};
use tiebreak_core::semantics::outcomes::all_outcomes_with;
use tiebreak_core::semantics::well_founded::well_founded;
use tiebreak_core::{EvalOptions, RootFalsePolicy, RootTruePolicy, TiePolicy, TieView};
use tiebreak_runtime::Solver;

fn solver(program: &str, database: &str) -> Solver {
    Solver::from_sources(program, database).unwrap()
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
    let graph = ground(&program, &database, &GroundConfig::default()).unwrap();
    let reference = well_founded(&graph, &program, &database).unwrap();

    // The solver grounds in Relevant mode by default; compare decoded
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
    // Pure TB breaks the {p, q} tie; WF-TB falsifies it as unfounded.
    let solver = solver("p :- p, not q.\nq :- q, not p.", "");
    let pure = solver.pure_tie_breaking(&mut RootTruePolicy).unwrap();
    assert!(pure.total);
    assert_eq!(pure.stats.ties_broken, 1);
    assert_eq!(pure.true_facts.len(), 1);
    let wf = solver
        .well_founded_tie_breaking(&mut RootTruePolicy)
        .unwrap();
    assert!(wf.total);
    assert_eq!(wf.stats.ties_broken, 0);
    assert_eq!(wf.stats.unfounded_rounds, 1);
    assert!(wf.true_facts.is_empty());
}

#[test]
fn stuck_residues_stay_partial_and_veto_downstream() {
    let solver = solver("p :- not q.\nq :- not p.\np :- x.\nx :- not x.", "");
    let out = solver
        .well_founded_tie_breaking(&mut RootTruePolicy)
        .unwrap();
    assert!(!out.total);
    assert_eq!(out.stats.ties_broken, 0);
    assert_eq!(out.undefined.len(), 3);
}

fn outcome_keys(
    models: &[PartialModel],
    decode: impl Fn(&PartialModel) -> Vec<String>,
) -> BTreeSet<Vec<String>> {
    models.iter().map(&decode).collect()
}

#[test]
fn cow_enumeration_matches_core_outcomes() {
    // 3 pockets ⇒ 8 scripts; enumerate via the core per-script re-close
    // path and via the session's CoW forks, over the same ground graph.
    let program = parse_program(POCKETS).unwrap();
    let db_src = "move(a, b). move(b, a). move(c, d). move(d, c). move(p, q). move(q, p).";
    let database = parse_database(db_src).unwrap();

    let solver = Solver::new(program.clone(), database.clone()).unwrap();
    let graph = ground(&program, &database, &solver.config().ground).unwrap();

    for pure in [false, true] {
        let core_set = all_outcomes_with(
            &graph,
            &program,
            &database,
            pure,
            1_000,
            &EvalOptions::default(),
        )
        .unwrap();
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
