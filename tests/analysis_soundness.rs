//! Soundness of the static analyzer's totality certificates.
//!
//! The analyzer promises, from the predicate dependency graph alone:
//!
//! * **call-consistent grade** — every well-founded tie-breaking run
//!   terminates with a *total* model, for every database, every tie
//!   script, and both ground modes;
//! * **stratified grade** — additionally the outcome set is a
//!   singleton (no tie ever fires) and the `certified_total` fast path
//!   (plain well-founded evaluation, no tie machinery) is bit-identical
//!   to the tie-breaking path.
//!
//! This suite runs those promises differentially over random
//! call-consistent programs (which by construction have no odd negative
//! cycle, so a certificate is always issued) and random databases.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tie_breaking_datalog::constructions::generators;
use tie_breaking_datalog::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Certificate ⇒ total runs; stratified grade ⇒ singleton outcome
    /// set and a bit-identical fast path.
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
        let stratified = cert.grade == CertificateGrade::Stratified;
        prop_assert_eq!(stratified, cert.arms_fast_path());

        let mut reference_facts: Option<Vec<GroundAtom>> = None;
        for mode in [GroundMode::Full, GroundMode::Relevant] {
            let config = EngineConfig::default().with_ground_mode(mode);
            let solver = Solver::with_config(program.clone(), db.clone(), config)
                .expect("prepares");

            // Call-consistent grade: every tie script totals.
            for policy_seed in [seed, seed ^ 0xdead_beef] {
                let out = solver
                    .well_founded_tie_breaking(&mut RandomPolicy::seeded(policy_seed))
                    .expect("runs");
                prop_assert!(out.total, "certified program left a partial model");
                if stratified {
                    // No tie can fire, so every script and policy
                    // must land on the same (unique) model.
                    match &reference_facts {
                        Some(r) => prop_assert_eq!(r, &out.true_facts),
                        None => reference_facts = Some(out.true_facts.clone()),
                    }
                    prop_assert_eq!(out.stats.ties_broken, 0);
                }
            }

            if stratified {
                // Singleton outcome set, in both flavours' budgets.
                let set = solver.all_outcomes(false, 64).expect("enumerates");
                prop_assert_eq!(set.models.len(), 1);
                prop_assert!(!set.truncated);

                // The analysis-armed fast path (plain well-founded
                // evaluation) is bit-identical to the tie path.
                let fast = Solver::with_config(
                    program.clone(),
                    db.clone(),
                    EngineConfig::default()
                        .with_ground_mode(mode)
                        .with_analysis(true),
                )
                .expect("prepares");
                prop_assert!(fast.config().eval.certified_total);
                let quick = fast
                    .well_founded_tie_breaking(&mut RootTruePolicy)
                    .expect("runs");
                prop_assert!(quick.total);
                prop_assert_eq!(
                    reference_facts.as_ref().expect("set above"),
                    &quick.true_facts
                );
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
        let solver = Solver::with_config(
            program,
            db,
            EngineConfig::default().with_analysis(true),
        );
        prop_assert!(solver.is_ok());
    }
}
