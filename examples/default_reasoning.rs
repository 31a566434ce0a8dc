//! Default logic via tie-breaking — the [PS] connection, live.
//!
//! The paper notes the tie-breaking semantics originated as an
//! extension-finding mechanism for default logic. This example builds an
//! atomic default theory, lists its Reiter extensions, and shows the
//! well-founded tie-breaking interpreter finding one.
//!
//! ```sh
//! cargo run --example default_reasoning
//! ```

use std::collections::BTreeSet;

use tie_breaking_datalog::constructions::default_logic::{Default, DefaultTheory};
use tie_breaking_datalog::prelude::*;

fn main() {
    // A tiny knowledge base with two genuinely competing defaults:
    //   fact: bird
    //   (bird : ¬grounded / flies)    — assume it flies unless grounded
    //   (bird : ¬flies / grounded)    — assume it is grounded unless it flies
    // Each default blocks the other: two Reiter extensions, and the
    // program-side dependency cycle is even — a tie.
    let theory = DefaultTheory::default()
        .fact("bird")
        .default_rule(Default::new(&["bird"], &["grounded"], "flies"))
        .default_rule(Default::new(&["bird"], &["flies"], "grounded"));

    let (program, database) = theory.to_program();
    println!("corresponding program:\n{program}");
    println!("Δ = W = {{ {database} }}\n");

    // Reiter extensions by brute force.
    let extensions = theory.extensions();
    println!("Reiter extensions ({}):", extensions.len());
    for e in &extensions {
        let names: Vec<&str> = e.iter().map(|p| p.as_str()).collect();
        println!("  {{{}}}", names.join(", "));
    }

    // The [PS] mechanism: the tie-breaking interpreter finds an extension.
    let graph = ground(
        &program,
        &database,
        GroundMode::Full,
        &GroundConfig::default(),
    )
    .expect("grounds");
    for seed in [0u64, 1, 2] {
        let mut policy = RandomPolicy::seeded(seed);
        let run = tie_breaking_datalog::core::semantics::well_founded_tie_breaking(
            &graph,
            &program,
            &database,
            &mut policy,
        )
        .expect("runs");
        let found: BTreeSet<_> = graph
            .atoms()
            .ids()
            .filter(|&id| run.model.get(id) == TruthValue::True)
            .map(|id| graph.atoms().pred_of(id))
            .collect();
        let names: Vec<&str> = found.iter().map(|p| p.as_str()).collect();
        println!(
            "tie-breaking (seed {seed}) total={} -> {{{}}} (extension: {})",
            run.total,
            names.join(", "),
            theory.is_extension(&found)
        );
        assert!(theory.is_extension(&found));
    }
}
