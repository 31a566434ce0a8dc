//! Quickstart: parse a program, analyze its structure, and run the
//! paper's interpreters.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use tie_breaking_datalog::core::semantics::enumerate::{enumerate_stable, EnumerateConfig};
use tie_breaking_datalog::prelude::*;

fn main() {
    // The paper's archetypal program (Section 6): structurally total —
    // every alphabetic variant has a fixpoint for every database — yet
    // unstratifiable. The well-founded semantics leaves it undefined; the
    // tie-breaking interpreter decides it.
    let program_src = "
        p(X) :- not q(X).
        q(X) :- not p(X).
    ";
    let database_src = "e(a). e(b).";

    // The session solver grounds, closes and condenses once; every
    // evaluation below walks that prepared state.
    let solver = Solver::from_sources(program_src, database_src).expect("parses");

    println!("== program ==\n{}", solver.program());
    // The static analyzer behind `datalog check`, against the solver's
    // relevant grounding and budgets.
    let report = analyze(
        solver.program(),
        Some(solver.database()),
        &AnalyzeConfig::for_ground(GroundMode::Relevant, solver.config().ground),
    );
    println!("== analysis ==\n{report}");

    // The well-founded interpreter gets stuck: no unfounded sets, only a
    // tie.
    let wf = solver.well_founded().expect("runs");
    println!(
        "well-founded: total = {}, undefined atoms = {}",
        wf.total,
        wf.undefined.len()
    );

    // The well-founded tie-breaking interpreter breaks the p/q tie; the
    // policy chooses the orientation.
    for (name, root_true) in [("root-true", true), ("root-false", false)] {
        let mut policy = ScriptedPolicy::new(vec![root_true, root_true], root_true);
        let out = solver.well_founded_tie_breaking(&mut policy).expect("runs");
        let facts: Vec<String> = out
            .true_facts
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        println!(
            "tie-breaking [{name}]: total = {}, ties broken = {}, true = {{{}}}",
            out.total,
            out.stats.ties_broken,
            facts.join(", ")
        );
    }

    // Both orientations are fixpoints — and both are stable models.
    // The enumerators run over the solver's ground graph.
    let graph = solver.graph();
    let stable = enumerate_stable(
        graph,
        solver.program(),
        solver.database(),
        &EnumerateConfig::default(),
    )
    .expect("enumerates");
    println!("stable models: {}", stable.len());
    for (i, model) in stable.iter().enumerate() {
        let mut facts = model.true_atoms(graph.atoms());
        facts.sort_by(GroundAtom::text_cmp);
        let facts: Vec<String> = facts.iter().map(std::string::ToString::to_string).collect();
        println!("  #{}: {{{}}}", i + 1, facts.join(", "));
    }
}
