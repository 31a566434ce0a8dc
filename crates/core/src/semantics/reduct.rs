//! Stable models via the Gelfond–Lifschitz reduct \[GL\].
//!
//! The paper (§2) defines stable models operationally through
//! `close(M₋, G)`; the original definition is via the **reduct**: given a
//! candidate total model M, delete every ground rule with a negative body
//! literal false under M, strip the negative literals from the survivors,
//! and compute the least model of the resulting positive program (seeded
//! with Δ). M is stable iff it equals that least model (on top of the EDB
//! valuation).
//!
//! This module implements the reduct route independently of the `close`
//! machinery; the two characterizations are equivalent, which the
//! property tests exercise — each implementation guards the other.

use datalog_ast::{Database, Program, Sign};
use datalog_ground::{AtomId, GroundGraph, PartialModel, TruthValue};

/// Computes the least model of the GL reduct of the grounded instance
/// with respect to `candidate`, returned as a total model (every atom
/// true or false).
pub fn reduct_least_model(
    graph: &GroundGraph,
    database: &Database,
    candidate: &PartialModel,
) -> PartialModel {
    // Which rules survive the reduct: every negative literal true under
    // the candidate (i.e. its atom false).
    let mut pending: Vec<u32> = Vec::with_capacity(graph.rule_count());
    let mut alive: Vec<bool> = Vec::with_capacity(graph.rule_count());
    for rule in graph.rules() {
        let survives = rule
            .body
            .iter()
            .filter(|(_, s)| *s == Sign::Neg)
            .all(|&(a, _)| candidate.get(a) == TruthValue::False);
        alive.push(survives);
        // Count the positive literals still to satisfy.
        pending.push(rule.body.iter().filter(|(_, s)| *s == Sign::Pos).count() as u32);
    }

    // Least model: seed with Δ, fire surviving rules to a fixpoint.
    let mut truth: Vec<bool> = vec![false; graph.atom_count()];
    let mut queue: Vec<AtomId> = Vec::new();
    for fact in database.facts() {
        if let Some(id) = graph.atoms().id_of(&fact) {
            if !truth[id.index()] {
                truth[id.index()] = true;
                queue.push(id);
            }
        }
    }
    for (i, rule) in graph.rules().enumerate() {
        if alive[i] && pending[i] == 0 && !truth[rule.head.index()] {
            truth[rule.head.index()] = true;
            queue.push(rule.head);
        }
    }
    while let Some(atom) = queue.pop() {
        for &(rule, sign) in graph.uses_of(atom) {
            if sign == Sign::Pos && alive[rule.index()] {
                let p = &mut pending[rule.index()];
                *p -= 1;
                if *p == 0 {
                    let head = graph.rule(rule).head;
                    if !truth[head.index()] {
                        truth[head.index()] = true;
                        queue.push(head);
                    }
                }
            }
        }
    }

    let mut model = PartialModel::undefined(graph.atom_count());
    for (i, &t) in truth.iter().enumerate() {
        model.set(AtomId(i as u32), TruthValue::from_bool(t));
    }
    model
}

/// `true` iff `candidate` is a stable model per the GL-reduct definition.
pub fn is_stable_via_reduct(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
    candidate: &PartialModel,
) -> bool {
    if !candidate.is_total() {
        return false;
    }
    let m0 = PartialModel::initial(program, database, graph.atoms());
    if !candidate.extends(&m0) {
        return false;
    }
    reduct_least_model(graph, database, candidate) == *candidate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::stable::is_stable;
    use datalog_ast::{parse_database, parse_program, GroundAtom};
    use datalog_ground::{ground, GroundConfig, GroundMode};

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
    fn reduct_agrees_with_close_on_pq() {
        let (g, p, d, m0) = instance("p :- not q.\nq :- not p.", "");
        for (pv, qv) in [(true, false), (false, true), (true, true), (false, false)] {
            let mut m = m0.clone();
            set(&g, &mut m, "p", pv);
            set(&g, &mut m, "q", qv);
            assert_eq!(
                is_stable_via_reduct(&g, &p, &d, &m),
                is_stable(&g, &p, &d, &m),
                "p={pv} q={qv}"
            );
        }
    }

    #[test]
    fn reduct_rejects_the_unstable_fixpoint() {
        // Paper §3 example: {p} is a fixpoint but not stable.
        let (g, p, d, m0) = instance("p :- p, not q.\nq :- q, not p.", "");
        let mut m = m0.clone();
        set(&g, &mut m, "p", true);
        set(&g, &mut m, "q", false);
        assert!(!is_stable_via_reduct(&g, &p, &d, &m));
        // Reduct wrt {p}: q's rule is deleted (¬p false); p's rule becomes
        // p ← p, whose least model is ∅ — not {p}.
        let least = reduct_least_model(&g, &d, &m);
        assert_eq!(least.true_count(), 0);
    }

    #[test]
    fn reduct_least_model_seeds_from_delta() {
        let (g, p, d, m0) = instance("p(X) :- e(X), not q(X).", "e(a).\nq(a).");
        let mut m = m0;
        let pa = g
            .atoms()
            .id_of(&GroundAtom::from_texts("p", &["a"]))
            .unwrap();
        m.set(pa, TruthValue::False);
        assert!(m.is_total());
        assert!(is_stable_via_reduct(&g, &p, &d, &m));
        assert!(is_stable(&g, &p, &d, &m));
    }

    #[test]
    fn three_rules_reduct_census() {
        let (g, p, d, m0) = instance(
            "p1 :- not p2, not p3.\np2 :- not p1, not p3.\np3 :- not p1, not p2.",
            "",
        );
        let mut both_agree_count = 0;
        for bits in 0u8..8 {
            let mut m = m0.clone();
            set(&g, &mut m, "p1", bits & 1 != 0);
            set(&g, &mut m, "p2", bits & 2 != 0);
            set(&g, &mut m, "p3", bits & 4 != 0);
            let a = is_stable_via_reduct(&g, &p, &d, &m);
            let b = is_stable(&g, &p, &d, &m);
            assert_eq!(a, b, "bits={bits:03b}");
            if a {
                both_agree_count += 1;
            }
        }
        assert_eq!(both_agree_count, 3);
    }
}
