//! Quickstart: parse a program, analyze its structure, and run the
//! paper's interpreters.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

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

    let engine = Engine::from_sources(program_src, database_src).expect("parses");

    println!("== program ==\n{}", engine.program());
    // The static analyzer behind `datalog check`, against the engine's
    // (relevant-mode) grounding budgets.
    let report = analyze(
        engine.program(),
        Some(engine.database()),
        &AnalyzeConfig::for_ground(EngineConfig::default().ground),
    );
    println!("== analysis ==\n{report}");

    // The well-founded interpreter gets stuck: no unfounded sets, only a
    // tie.
    let wf = engine.well_founded().expect("runs");
    println!(
        "well-founded: total = {}, undefined atoms = {}",
        wf.total,
        wf.undefined.len()
    );

    // The well-founded tie-breaking interpreter breaks the p/q tie; the
    // policy chooses the orientation.
    for (name, root_true) in [("root-true", true), ("root-false", false)] {
        let mut policy = ScriptedPolicy::new(vec![root_true, root_true], root_true);
        let out = engine.well_founded_tie_breaking(&mut policy).expect("runs");
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
    let stable = engine.stable_models().expect("enumerates");
    println!("stable models: {}", stable.len());
    for (i, model) in stable.iter().enumerate() {
        let facts: Vec<String> = model.iter().map(std::string::ToString::to_string).collect();
        println!("  #{}: {{{}}}", i + 1, facts.join(", "));
    }
}
