//! Differential suite: `GroundMode::Full` ≡ `GroundMode::Relevant` on the
//! paper's own constructions.
//!
//! For each instance the suite checks, across both grounding modes:
//!
//! * identical post-`close(M₀, G)` residual graphs (alive atoms by name,
//!   alive rule instances by source rule + substitution);
//! * identical well-founded models (true facts, undefined facts,
//!   totality);
//! * identical *sets* of tie-breaking outcomes (pure and well-founded
//!   variants) — individual runs may break isomorphic ties in a
//!   different order, but the reachable outcomes are graph-determined.

use std::collections::BTreeSet;

use tie_breaking_datalog::constructions::counter_machine::CounterMachine;
use tie_breaking_datalog::constructions::default_logic::{Default as DefaultRule, DefaultTheory};
use tie_breaking_datalog::constructions::undecidability::{machine_to_program, natural_database};
use tie_breaking_datalog::constructions::MachineOutcome;
use tie_breaking_datalog::core::semantics::outcomes::all_outcomes;
use tie_breaking_datalog::core::semantics::well_founded::well_founded;
use tie_breaking_datalog::ground::{Closer, GroundGraph, GroundMode, PartialModel, RuleId};
use tie_breaking_datalog::prelude::*;

/// Sorted, decoded view of one mode's post-close state.
#[derive(Debug, PartialEq, Eq)]
struct Residual {
    alive_atoms: Vec<String>,
    alive_rules: Vec<(u32, Vec<String>)>,
    true_atoms: Vec<String>,
}

fn residual(graph: &GroundGraph, program: &Program, database: &Database) -> Residual {
    let mut model = PartialModel::initial(program, database, graph.atoms());
    let mut closer = Closer::new(graph);
    closer.bootstrap(&model);
    closer
        .run(&mut model)
        .expect("close from M0 cannot conflict");
    let mut alive_atoms: Vec<String> = closer
        .alive_atoms()
        .map(|id| graph.atoms().decode(id).to_string())
        .collect();
    alive_atoms.sort();
    let mut alive_rules: Vec<(u32, Vec<String>)> = (0..graph.rule_count())
        .map(|r| RuleId(r as u32))
        .filter(|&r| closer.rule_alive(r))
        .map(|r| {
            let rule = graph.rule(r);
            (
                rule.rule_index,
                rule.subst.iter().map(|c| c.as_str().to_owned()).collect(),
            )
        })
        .collect();
    alive_rules.sort();
    let mut true_atoms: Vec<String> = model
        .true_atoms(graph.atoms())
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    true_atoms.sort();
    Residual {
        alive_atoms,
        alive_rules,
        true_atoms,
    }
}

/// One tie-breaking outcome, decoded: (true facts, undefined facts).
type Outcome = (Vec<String>, Vec<String>);

fn outcome_set(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
    pure: bool,
) -> BTreeSet<Outcome> {
    let set = all_outcomes(graph, program, database, pure, 256).expect("outcomes enumerate");
    assert!(!set.truncated, "outcome exploration must be exhaustive");
    set.models
        .iter()
        .map(|m| {
            let mut t: Vec<String> = m
                .true_atoms(graph.atoms())
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            t.sort();
            let mut u: Vec<String> = m
                .undefined_atoms()
                .map(|id| graph.atoms().decode(id).to_string())
                .collect();
            u.sort();
            (t, u)
        })
        .collect()
}

/// The workhorse: checks residual-graph, well-founded, and outcome-set
/// equivalence for one instance.
fn assert_equivalent(program: &Program, database: &Database) {
    let config = GroundConfig::default();
    let full = ground(program, database, GroundMode::Full, &config).expect("full grounding fits");
    let relevant =
        ground(program, database, GroundMode::Relevant, &config).expect("relevant grounding fits");
    assert!(relevant.atom_count() <= full.atom_count());
    assert!(relevant.rule_count() <= full.rule_count());

    // Post-close residual graphs are identical.
    assert_eq!(
        residual(&full, program, database),
        residual(&relevant, program, database),
        "residual disagreement on\n{program}"
    );

    // Well-founded outcomes are identical.
    let wf_full = well_founded(&full, program, database).expect("wf runs");
    let wf_rel = well_founded(&relevant, program, database).expect("wf runs");
    assert_eq!(wf_full.total, wf_rel.total);
    let decode_true = |g: &GroundGraph, m: &PartialModel| -> Vec<String> {
        let mut v: Vec<String> = m
            .true_atoms(g.atoms())
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        decode_true(&full, &wf_full.model),
        decode_true(&relevant, &wf_rel.model),
        "well-founded disagreement on\n{program}"
    );

    // Tie-breaking outcome sets are identical (pure and well-founded).
    for pure in [true, false] {
        assert_eq!(
            outcome_set(&full, program, database, pure),
            outcome_set(&relevant, program, database, pure),
            "tie-breaking (pure={pure}) outcome-set disagreement on\n{program}"
        );
    }
}

#[test]
fn win_move_instances_agree() {
    let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
    for db_src in [
        "move(a, b).\nmove(b, c).",              // chain: total WF model
        "move(a, b).\nmove(b, a).",              // even cycle: the draw (a tie)
        "move(a, a).",                           // odd self-loop
        "move(a, b).\nmove(b, a).\nmove(c, a).", // cycle + tail
        "",                                      // empty database
    ] {
        let database = parse_database(db_src).unwrap();
        assert_equivalent(&program, &database);
    }
}

#[test]
fn paper_propositional_examples_agree() {
    for src in [
        "p :- not q.\nq :- not p.",
        "p :- p, not q.\nq :- q, not p.",
        "p1 :- not p2, not p3.\np2 :- not p1, not p3.\np3 :- not p1, not p2.",
        "p(a) :- not p(X), e(b).",
    ] {
        let program = parse_program(src).unwrap();
        assert_equivalent(&program, &parse_database("e(b).").unwrap());
        assert_equivalent(&program, &Database::new());
    }
}

#[test]
fn two_counter_fragment_agrees() {
    // The Theorem 6 reduction for the size-1 pump-and-drain machine — the
    // largest machine the Full enumerator can still ground on default
    // budgets (PR 1 had to shrink the example to exactly this size).
    let machine = CounterMachine::pump_and_drain(1);
    let MachineOutcome::Halted(steps) = machine.simulate(100) else {
        panic!("halts");
    };
    let program = machine_to_program(&machine);
    let database = natural_database(steps);
    assert_equivalent(&program, &database);
}

#[test]
fn default_logic_theory_agrees() {
    // The classic Nixon diamond: quaker ⇒ pacifist unless ¬pacifist is
    // inconsistent, republican ⇒ hawk unless ¬hawk; hawk and pacifist
    // block each other.
    let theory = DefaultTheory::default()
        .fact("quaker")
        .fact("republican")
        .default_rule(DefaultRule::new(&["quaker"], &["hawk"], "pacifist"))
        .default_rule(DefaultRule::new(&["republican"], &["pacifist"], "hawk"));
    let (program, database) = theory.to_program();
    assert_equivalent(&program, &database);
}

#[test]
fn relevant_mode_handles_what_full_mode_rejects() {
    // The size-2 machine: ~9·10⁸ full instances vs the default 4M budget.
    let machine = CounterMachine::pump_and_drain(2);
    let MachineOutcome::Halted(steps) = machine.simulate(1000) else {
        panic!("halts");
    };
    let program = machine_to_program(&machine);
    let database = natural_database(steps);
    let config = GroundConfig::default();

    let err = ground(&program, &database, GroundMode::Full, &config).unwrap_err();
    let tie_breaking_datalog::ground::GroundError::TooManyRuleInstances { required, budget } = err
    else {
        panic!("expected a rule-instance overflow, got {err}");
    };
    assert!(required > budget);

    let graph = ground(&program, &database, GroundMode::Relevant, &config)
        .expect("relevant grounding fits");
    assert!(graph.rule_count() < 1000, "relevant graph stays small");

    // Theorem 6 on the restored size: the halting run kills every
    // fixpoint, which the well-founded model shows as partiality at `p`.
    let run = well_founded(&graph, &program, &database).expect("wf runs");
    assert!(!run.total);
    let p = graph
        .atoms()
        .id_of(&GroundAtom::from_texts("p", &[]))
        .expect("p interned");
    assert_eq!(
        run.model.get(p),
        tie_breaking_datalog::ground::TruthValue::Undefined
    );
}

#[test]
fn deep_unsupported_chain_retires_whole_and_loops_survive() {
    // a_0 ← a_1 ← … ← a_256 with no base: retiring the chain takes one
    // downward round per link, but support counting retires it in one
    // worklist cascade. The positive loop p ← p, ¬q beside it is never
    // retired (S is a greatest fixpoint); close later falsifies it as
    // unfounded, exactly as in Full mode.
    const LEN: usize = 256;
    let mut src = String::from("p :- p, not q.\n");
    for i in 0..LEN {
        src.push_str(&format!("a{i} :- a{}.\n", i + 1));
    }
    let program = parse_program(&src).unwrap();
    let database = Database::new();
    let relevant = ground(
        &program,
        &database,
        GroundMode::Relevant,
        &GroundConfig::default(),
    )
    .expect("relevant grounding fits");
    for i in 0..=LEN {
        let a = GroundAtom::from_texts(&format!("a{i}"), &[]);
        assert!(relevant.atoms().id_of(&a).is_none(), "a{i} must retire");
    }
    assert_eq!(relevant.rule_count(), 1, "only the loop's instance remains");
    assert!(relevant
        .atoms()
        .id_of(&GroundAtom::from_texts("p", &[]))
        .is_some());
    // Identical post-close residual, models and outcomes to Full mode.
    assert_equivalent(&program, &database);
}
