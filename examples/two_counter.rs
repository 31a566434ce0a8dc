//! Theorem 6 live: a 2-counter machine simulated by Datalog¬ rules, and
//! halting surfacing as the *absence of fixpoints*.
//!
//! This example also shows why the relevant grounder exists: the paper's
//! literal |U|^k instantiation of the size-2 pump-and-drain machine needs
//! hundreds of millions of rule instances — far past the default 4M
//! budget — while `GroundMode::Relevant` grounds the same instance in a
//! few thousand nodes with an identical post-`close` residual graph.
//!
//! ```sh
//! cargo run --example two_counter
//! ```

use tie_breaking_datalog::constructions::counter_machine::CounterMachine;
use tie_breaking_datalog::constructions::undecidability::{machine_to_program, natural_database};
use tie_breaking_datalog::constructions::MachineOutcome;
use tie_breaking_datalog::core::semantics::enumerate::{enumerate_fixpoints, EnumerateConfig};
use tie_breaking_datalog::core::semantics::well_founded;
use tie_breaking_datalog::ground::{GroundError, GroundMode};
use tie_breaking_datalog::prelude::*;

fn main() {
    // A machine that pumps counter 1 to 2, drains it into counter 2, then
    // halts. PR 1 had to shrink this to pump_and_drain(1): the full
    // |U|^k grounding of the size-2 machine blows the default budget.
    let machine = CounterMachine::pump_and_drain(2);
    println!("{machine}");

    let MachineOutcome::Halted(steps) = machine.simulate(1000) else {
        panic!("this machine halts");
    };
    println!("machine halts after {steps} steps; trace:");
    for (t, cfg) in machine.trace(steps).iter().enumerate() {
        println!("  t={t}: state={} c1={} c2={}", cfg.state, cfg.c1, cfg.c2);
    }

    // The reduction: program + the natural database for the halting run.
    let program = machine_to_program(&machine);
    let database = natural_database(steps);
    println!(
        "\nreduction: {} rules, database of {} facts",
        program.len(),
        database.len()
    );

    // The paper-literal grounder rejects this instance on budget…
    let full_err = ground(
        &program,
        &database,
        GroundMode::Full,
        &GroundConfig::default(),
    )
    .expect_err("the full |U|^k instantiation must blow the default budget");
    let GroundError::TooManyRuleInstances { required, budget } = full_err else {
        panic!("expected a rule-instance overflow, got {full_err}");
    };
    println!("full grounding rejected: needs {required} rule instances (budget {budget})");

    // …while the relevant grounder handles it comfortably.
    let config = GroundConfig::default();
    let graph = ground(&program, &database, GroundMode::Relevant, &config)
        .expect("relevant grounding fits");
    println!(
        "relevant grounding: {} atoms, {} rule nodes",
        graph.atom_count(),
        graph.rule_count()
    );

    // The well-founded model reproduces the machine's run...
    let run = well_founded::well_founded(&graph, &program, &database).expect("runs");
    println!("\nwell-founded model reproduces the trace:");
    for (t, cfg) in machine.trace(steps).iter().enumerate() {
        let atom = GroundAtom::from_texts("state", &[&t.to_string(), &cfg.state.to_string()]);
        let id = graph
            .atoms()
            .id_of(&atom)
            .expect("atom in the relevant table");
        assert_eq!(run.model.get(id), TruthValue::True, "missing {atom}");
        println!("  {atom} = {}", run.model.get(id));
    }

    // ... but the halt makes the troublesome rule collapse to p ← ¬p: no
    // fixpoint exists at all.
    let fixpoints = enumerate_fixpoints(
        &graph,
        &program,
        &database,
        &EnumerateConfig {
            limit: 1,
            max_branch_atoms: 25,
        },
    )
    .expect("search runs");
    println!(
        "\nfixpoints of the reduction on the halting run's database: {}",
        fixpoints.len()
    );
    assert!(fixpoints.is_empty(), "halting ⇒ no fixpoint (Theorem 6)");

    // A non-halting machine, by contrast, admits a fixpoint on every such
    // database — in either grounding mode.
    let forever = CounterMachine::run_forever();
    let program2 = machine_to_program(&forever);
    let database2 = natural_database(3);
    let graph2 = ground(&program2, &database2, GroundMode::Relevant, &config).expect("grounds");
    let run2 = well_founded::well_founded(&graph2, &program2, &database2).expect("runs");
    println!(
        "non-halting machine: well-founded total = {} (a fixpoint exists)",
        run2.total
    );
}
