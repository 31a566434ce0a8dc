//! Soundness of the static analyzer's totality certificates.
//!
//! The analyzer promises, from the predicate dependency graph alone:
//!
//! * **call-consistent grade** — every well-founded tie-breaking run
//!   terminates with a *total* model, for every database and every tie
//!   script — on the session `Solver` and on the paper-literal global
//!   loops over the `Full` grounding;
//! * **stratified grade** — additionally the outcome set is a
//!   singleton: no tie ever fires, so every script and policy lands on
//!   the same model.
//!
//! This suite runs those promises differentially over random
//! call-consistent programs (which by construction have no odd negative
//! cycle, so a certificate is always issued) and random databases.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tie_breaking_datalog::constructions::generators;
use tie_breaking_datalog::core::semantics::outcomes::all_outcomes;
use tie_breaking_datalog::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Certificate ⇒ total runs; stratified grade ⇒ singleton outcome
    /// set.
    #[test]
    fn certificates_keep_their_promises(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = generators::random_call_consistent(&mut rng, 4, 8, 2);
        let db = generators::random_database(&mut rng, &program, 2, 0.35, true);

        let report = analyze(&program, Some(&db), &AnalyzeConfig::default());
        // The generator never creates an odd negative cycle, so a
        // certificate of some grade must always be issued.
        let cert = report.certificate.expect("call-consistent by construction");
        prop_assert!(report.odd_cycle.is_none());
        // G(Π′) is a subgraph of G(Π): Theorem 2 implies Theorem 3.
        prop_assert!(report.nonuniformly_total);
        let stratified = cert.grade == CertificateGrade::Stratified;
        prop_assert_eq!(stratified, report.stratified);

        // The session `Solver` and the global loops on the `Full`
        // grounding, each held to the certificate.
        let solver = Solver::new(program.clone(), db.clone()).expect("prepares");
        let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default())
            .expect("grounds");
        let mut reference_facts: Option<Vec<String>> = None;
        for policy_seed in [seed, seed ^ 0xdead_beef] {
            let session = solver
                .well_founded_tie_breaking_run(&mut RandomPolicy::seeded(policy_seed))
                .expect("runs");
            let global = well_founded_tie_breaking(
                &graph,
                &program,
                &db,
                &mut RandomPolicy::seeded(policy_seed),
            )
            .expect("runs");
            for (run, atoms) in [(session, solver.graph().atoms()), (global, graph.atoms())] {
                // Call-consistent grade: every tie script totals.
                prop_assert!(run.total, "certified program left a partial model");
                if stratified {
                    // No tie can fire, so every script, policy and
                    // evaluator must land on the same (unique) model.
                    let mut facts: Vec<String> =
                        run.model.true_atoms(atoms).iter().map(ToString::to_string).collect();
                    facts.sort();
                    match &reference_facts {
                        Some(r) => prop_assert_eq!(r, &facts),
                        None => reference_facts = Some(facts),
                    }
                    prop_assert_eq!(run.stats.ties_broken, 0);
                }
            }
        }

        if stratified {
            // Singleton outcome set, on both evaluators.
            for set in [
                solver.all_outcomes(false, 64).expect("enumerates"),
                all_outcomes(&graph, &program, &db, false, 64).expect("enumerates"),
            ] {
                prop_assert_eq!(set.models.len(), 1);
                prop_assert!(!set.truncated);
            }
        }
    }

    /// The analyzer's strict gate never rejects a program the engine
    /// could have run: random call-consistent programs carry no
    /// error-severity lints under the default (relevant) budgets.
    #[test]
    fn analysis_never_rejects_runnable_programs(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = generators::random_call_consistent(&mut rng, 4, 8, 2);
        let db = generators::random_database(&mut rng, &program, 2, 0.35, true);
        let report = analyze(&program, Some(&db), &AnalyzeConfig::default());
        prop_assert!(!report.has_errors(), "{:?}", report.lints);
        prop_assert!(Solver::new(program, db).is_ok());
    }
}
