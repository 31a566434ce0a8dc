//! Property-based tests over the whole stack.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tie_breaking_datalog::constructions::generators;
use tie_breaking_datalog::core::semantics::alternating::alternating_well_founded;
use tie_breaking_datalog::core::semantics::enumerate::{enumerate_fixpoints, EnumerateConfig};
use tie_breaking_datalog::core::semantics::fixpoint::{is_consistent, is_fixpoint};
use tie_breaking_datalog::core::semantics::stable::is_stable;
use tie_breaking_datalog::core::semantics::tie_breaking::{
    pure_tie_breaking, well_founded_tie_breaking,
};
use tie_breaking_datalog::core::semantics::well_founded::well_founded;
use tie_breaking_datalog::prelude::*;

fn cfg() -> EnumerateConfig {
    EnumerateConfig {
        limit: 0,
        max_branch_atoms: 24,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1 as a property: random call-consistent programs, random
    /// databases, random tie policies — both interpreters always reach a
    /// fixpoint, and the well-founded flavour a stable model.
    #[test]
    fn call_consistent_programs_always_total(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = generators::random_call_consistent(&mut rng, 4, 8, 2);
        let db = generators::random_database(&mut rng, &program, 2, 0.35, true);
        let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();

        let mut policy = RandomPolicy::seeded(seed);
        let pure = pure_tie_breaking(&graph, &program, &db, &mut policy).unwrap();
        prop_assert!(pure.total);
        prop_assert!(is_fixpoint(&graph, &db, &pure.model));

        let mut policy = RandomPolicy::seeded(seed ^ 0xdead_beef);
        let wf_tb = well_founded_tie_breaking(&graph, &program, &db, &mut policy).unwrap();
        prop_assert!(wf_tb.total);
        prop_assert!(is_stable(&graph, &program, &db, &wf_tb.model));

        // Corollary 1: the WF-TB fixpoint extends the WF partial model.
        let wf = well_founded(&graph, &program, &db).unwrap();
        prop_assert!(wf_tb.model.extends(&wf.model));
    }

    /// Structural totality is a property of the skeleton: every random
    /// alphabetic variant of a call-consistent program is call-consistent
    /// and totals under tie-breaking.
    #[test]
    fn structural_totality_is_skeleton_invariant(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = generators::random_call_consistent(&mut rng, 4, 6, 2);
        let skeleton = base.skeleton();
        let variant = generators::random_variant(&mut rng, &skeleton, 2);
        prop_assert!(variant.is_alphabetic_variant_of(&base));
        prop_assert!(structural_totality(&variant).total);

        let db = generators::random_database(&mut rng, &variant, 2, 0.3, false);
        if let Ok(graph) = ground(&variant, &db, GroundMode::Full, &GroundConfig::default()) {
            let mut policy = RandomPolicy::seeded(seed);
            let run = well_founded_tie_breaking(&graph, &variant, &db, &mut policy).unwrap();
            prop_assert!(run.total);
            prop_assert!(is_fixpoint(&graph, &db, &run.model));
        }
    }

    /// The well-founded model is consistent, and when total it is a
    /// stable model — on arbitrary (not necessarily call-consistent)
    /// random variants of the win–move skeleton. The alternating-fixpoint
    /// implementation (Γ² iteration over GL reducts) must compute exactly
    /// the same three-valued model as the worklist interpreter.
    #[test]
    fn well_founded_model_is_consistent(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let skeleton = generators::win_move_program().skeleton();
        let program = generators::random_variant(&mut rng, &skeleton, 2);
        let db = generators::random_database(&mut rng, &program, 2, 0.4, false);
        let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
        let run = well_founded(&graph, &program, &db).unwrap();
        prop_assert!(is_consistent(&graph, &program, &db, &run.model));
        if run.total {
            prop_assert!(is_stable(&graph, &program, &db, &run.model));
        }
        let alt = alternating_well_founded(&graph, &program, &db);
        prop_assert_eq!(&alt.model, &run.model);
    }

    /// Enumerated fixpoints all pass the checker; stable ⊆ fixpoints; and
    /// every stable model extends the well-founded model.
    #[test]
    fn enumeration_agrees_with_checkers(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = generators::random_call_consistent(&mut rng, 3, 6, 2);
        let db = generators::random_database(&mut rng, &program, 2, 0.3, false);
        let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
        let Ok(fixpoints) = enumerate_fixpoints(&graph, &program, &db, &cfg()) else {
            return Ok(()); // over branch budget: skip this case
        };
        prop_assert!(!fixpoints.is_empty(), "Theorem 1 guarantees one");
        let wf = well_founded(&graph, &program, &db).unwrap();
        for m in &fixpoints {
            prop_assert!(is_fixpoint(&graph, &db, m));
            if is_stable(&graph, &program, &db, m) {
                prop_assert!(m.extends(&wf.model));
            }
        }
    }

    /// Parser round-trip: pretty-printing a generated program re-parses
    /// to the same program.
    #[test]
    fn parser_round_trip(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = generators::random_call_consistent(&mut rng, 4, 10, 3);
        let printed = program.to_string();
        let reparsed = parse_program(&printed).unwrap();
        prop_assert_eq!(program, reparsed);
    }

    /// Negation-cycle parity: C(n, k) is structurally total iff k is
    /// even, and when even, tie-breaking totals on the empty database.
    #[test]
    fn negation_cycle_parity(n in 1usize..7, k in 0usize..7) {
        let k = k.min(n);
        let program = generators::negation_cycle(n, k);
        let st = structural_totality(&program);
        prop_assert_eq!(st.total, k % 2 == 0);
        if k % 2 == 0 {
            let db = Database::new();
            let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
            let mut policy = RootTruePolicy;
            let run = well_founded_tie_breaking(&graph, &program, &db, &mut policy).unwrap();
            prop_assert!(run.total);
            prop_assert!(is_fixpoint(&graph, &db, &run.model));
        }
    }
}
