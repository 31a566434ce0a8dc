//! Stable (default) models \[BF1, GL\] (paper, Section 2).
//!
//! M is **stable** iff it is a total model extending M₀(Δ) and
//! `close(M₋, G)` reconstructs M, where M₋ undefines every true IDB atom
//! not in Δ. Every stable model is a fixpoint; the converse fails (the
//! paper's guarded p/q cycle has the fixpoint {p} which is not stable).

use datalog_ast::{Database, Program};
use datalog_ground::{Closer, GroundGraph, PartialModel};

/// `true` iff `model` is a stable model of the grounded instance.
pub fn is_stable(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
    model: &PartialModel,
) -> bool {
    if !model.is_total() {
        return false;
    }
    let m0 = PartialModel::initial(program, database, graph.atoms());
    if !model.extends(&m0) {
        return false;
    }

    let mut m = model.minus(program, database, graph.atoms());
    let mut closer = Closer::new(graph);
    closer.bootstrap(&m);
    if closer.run(&mut m).is_err() {
        return false;
    }
    m == *model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::fixpoint::is_fixpoint;
    use datalog_ast::{parse_database, parse_program, GroundAtom};
    use datalog_ground::{ground, GroundConfig, GroundMode, TruthValue};

    fn instance(src: &str, db: &str) -> (GroundGraph, Program, Database, PartialModel) {
        let p = parse_program(src).unwrap();
        let d = parse_database(db).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let m = PartialModel::initial(&p, &d, g.atoms());
        (g, p, d, m)
    }

    fn set(g: &GroundGraph, m: &mut PartialModel, pred: &str, v: bool) {
        m.set(
            g.atoms().id_of(&GroundAtom::from_texts(pred, &[])).unwrap(),
            TruthValue::from_bool(v),
        );
    }

    #[test]
    fn pq_cycle_both_orientations_stable() {
        let (g, p, d, m0) = instance("p :- not q.\nq :- not p.", "");
        for (pv, qv, expect) in [
            (true, false, true),
            (false, true, true),
            (false, false, false), // not even a fixpoint
            (true, true, false),
        ] {
            let mut m = m0.clone();
            set(&g, &mut m, "p", pv);
            set(&g, &mut m, "q", qv);
            assert_eq!(is_stable(&g, &p, &d, &m), expect, "p={pv} q={qv}");
        }
    }

    #[test]
    fn guarded_pq_fixpoint_that_is_not_stable() {
        // Paper §3: p ← p, ¬q ; q ← q, ¬p. {p=T, q=F} is a fixpoint but
        // not stable; the unique stable model is all-false.
        let (g, p, d, m0) = instance("p :- p, not q.\nq :- q, not p.", "");
        let mut m = m0.clone();
        set(&g, &mut m, "p", true);
        set(&g, &mut m, "q", false);
        assert!(super::super::fixpoint::is_fixpoint(&g, &d, &m));
        assert!(!is_stable(&g, &p, &d, &m));

        let mut m = m0;
        set(&g, &mut m, "p", false);
        set(&g, &mut m, "q", false);
        assert!(is_stable(&g, &p, &d, &m));
    }

    #[test]
    fn three_rules_example_has_three_stable_models() {
        // Paper §3: p1 ← ¬p2, ¬p3 ; p2 ← ¬p1, ¬p3 ; p3 ← ¬p1, ¬p2.
        let (g, p, d, m0) = instance(
            "p1 :- not p2, not p3.\np2 :- not p1, not p3.\np3 :- not p1, not p2.",
            "",
        );
        let mut stable_count = 0;
        for bits in 0u8..8 {
            let mut m = m0.clone();
            set(&g, &mut m, "p1", bits & 1 != 0);
            set(&g, &mut m, "p2", bits & 2 != 0);
            set(&g, &mut m, "p3", bits & 4 != 0);
            if is_stable(&g, &p, &d, &m) {
                stable_count += 1;
                // Each stable model has exactly one true proposition.
                assert_eq!(m.true_count(), 1);
            }
        }
        assert_eq!(stable_count, 3);
    }

    #[test]
    fn delta_idb_facts_need_no_rule_support() {
        // win(b) ∈ Δ: stable models keep it by Δ-membership.
        let (g, p, d, m0) = instance("p(X) :- e(X), not q(X).", "e(a).\nq(a).");
        // Unique stable model: q(a)=T (Δ), p(a)=F.
        let mut m = m0;
        let pa = g
            .atoms()
            .id_of(&GroundAtom::from_texts("p", &["a"]))
            .unwrap();
        m.set(pa, TruthValue::False);
        assert!(m.is_total());
        assert!(is_stable(&g, &p, &d, &m));
    }

    #[test]
    fn partial_model_is_not_stable() {
        let (g, p, d, m0) = instance("p :- not q.\nq :- not p.", "");
        assert!(!is_stable(&g, &p, &d, &m0));
    }

    #[test]
    fn stable_models_are_fixpoints_exhaustively() {
        let (g, p, d, m0) = instance("a :- not b.\nb :- not a.\nc :- a, not d.\nd :- not c.", "");
        let names = ["a", "b", "c", "d"];
        for bits in 0u8..16 {
            let mut m = m0.clone();
            for (i, n) in names.iter().enumerate() {
                set(&g, &mut m, n, bits & (1 << i) != 0);
            }
            // The paper's containment: stable ⊆ fixpoint.
            assert!(
                !is_stable(&g, &p, &d, &m) || is_fixpoint(&g, &d, &m),
                "bits={bits:04b}"
            );
        }
    }
}
