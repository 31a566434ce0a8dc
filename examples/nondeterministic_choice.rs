//! The nondeterminism of the tie-breaking semantics, explored
//! exhaustively: every script of tie choices, compared against the
//! fixpoint and stable-model censuses.
//!
//! ```sh
//! cargo run --example nondeterministic_choice
//! ```

use std::collections::BTreeSet;

use tie_breaking_datalog::core::semantics::enumerate::{
    enumerate_fixpoints, enumerate_stable, EnumerateConfig,
};
use tie_breaking_datalog::prelude::*;

/// `solver`'s stable models (fixpoints when `stable` is false), over its
/// ground graph.
fn census(solver: &Solver, stable: bool) -> Vec<PartialModel> {
    let (graph, program, database) = (solver.graph(), solver.program(), solver.database());
    let config = EnumerateConfig::default();
    if stable {
        enumerate_stable(graph, program, database, &config)
    } else {
        enumerate_fixpoints(graph, program, database, &config)
    }
    .expect("enumerates")
}

fn main() {
    // Three independent p/q ties: 8 orientations, all stable.
    let mut src = String::new();
    for i in 0..3 {
        src.push_str(&format!("a{i} :- not b{i}.\nb{i} :- not a{i}.\n"));
    }
    let solver = Solver::from_sources(&src, "").expect("parses");

    println!("program:\n{}", solver.program());

    // Drive the interpreter through all 2^3 scripts.
    let mut outcomes: BTreeSet<String> = BTreeSet::new();
    for script_bits in 0u8..8 {
        let script: Vec<bool> = (0..3).map(|i| script_bits & (1 << i) != 0).collect();
        let mut policy = ScriptedPolicy::new(script.clone(), false);
        let out = solver.well_founded_tie_breaking(&mut policy).expect("runs");
        assert!(out.total, "structurally total: every script totals");
        let model: Vec<String> = out
            .true_facts
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        println!("script {script:?} -> {{{}}}", model.join(", "));
        outcomes.insert(model.join(","));
    }
    println!("distinct tie-breaking outcomes: {}", outcomes.len());

    // Census: the tie-breaking outcomes are exactly the stable models.
    let stable = census(&solver, true);
    let stable_set: BTreeSet<String> = stable
        .iter()
        .map(|m| {
            let mut facts = m.true_atoms(solver.graph().atoms());
            facts.sort_by(GroundAtom::text_cmp);
            facts
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    println!("stable models: {}", stable.len());
    assert_eq!(outcomes, stable_set, "WF-TB outcomes = stable models here");

    // Contrast with the paper's guarded cycle, where pure tie-breaking
    // can reach a fixpoint that is NOT stable.
    let guarded = Solver::from_sources("p :- p, not q.\nq :- q, not p.", "").expect("parses");
    let mut policy = RootTruePolicy;
    let pure = guarded.pure_tie_breaking(&mut policy).expect("runs");
    let wf_tb = guarded
        .well_founded_tie_breaking(&mut RootTruePolicy)
        .expect("runs");
    println!(
        "\nguarded cycle: pure TB sets {} atom(s) true (a non-stable fixpoint);",
        pure.true_facts.len()
    );
    println!(
        "well-founded TB sets {} atom(s) true (the unique stable model).",
        wf_tb.true_facts.len()
    );
    println!(
        "fixpoints: {}, stable models: {}",
        census(&guarded, false).len(),
        census(&guarded, true).len()
    );
}
