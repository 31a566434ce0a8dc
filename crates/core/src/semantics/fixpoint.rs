//! Fixpoints (supported models) and consistency (paper, Section 2).
//!
//! A **fixpoint** of Π for Δ is a total model M in which an atom is true
//! iff it belongs to Δ or it is the head of an instantiated rule whose
//! body is true under M. (Some authors say *supported model*.) A partial
//! model is **consistent** if it extends M₀(Δ) and every instantiated
//! rule with an all-true body has a true head.

use datalog_ast::{Database, Program};
use datalog_ground::{AtomId, GroundGraph, PartialModel, RuleId, TruthValue};

/// One way a purported fixpoint fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FixpointViolation {
    /// The model leaves this atom undefined (fixpoints are total).
    Undefined(AtomId),
    /// True atom with no support: not in Δ and no rule with true body.
    Unsupported(AtomId),
    /// False atom that is in Δ or derived by a rule with true body.
    FalseButDerived(AtomId, Option<RuleId>),
}

/// Checks whether `model` is a fixpoint of the grounded instance,
/// returning all violations (empty ⇔ fixpoint).
pub fn fixpoint_violations(
    graph: &GroundGraph,
    database: &Database,
    model: &PartialModel,
) -> Vec<FixpointViolation> {
    let mut violations = Vec::new();

    // Which atoms are derived by a rule with an all-true body?
    let mut derived: Vec<Option<RuleId>> = vec![None; graph.atom_count()];
    for (i, rule) in graph.rules().enumerate() {
        let body_true = rule
            .body
            .iter()
            .all(|&(a, s)| model.literal_truth(a, s) == Some(true));
        if body_true && derived[rule.head.index()].is_none() {
            derived[rule.head.index()] = Some(RuleId(i as u32));
        }
    }

    // Which atoms are in Δ?
    let mut in_delta = vec![false; graph.atom_count()];
    for fact in database.facts() {
        if let Some(id) = graph.atoms().id_of(&fact) {
            in_delta[id.index()] = true;
        }
    }

    for id in graph.atoms().ids() {
        let expected = in_delta[id.index()] || derived[id.index()].is_some();
        match model.get(id) {
            TruthValue::Undefined => violations.push(FixpointViolation::Undefined(id)),
            TruthValue::True if !expected => {
                violations.push(FixpointViolation::Unsupported(id));
            }
            TruthValue::False if expected => {
                violations.push(FixpointViolation::FalseButDerived(id, derived[id.index()]));
            }
            _ => {}
        }
    }
    violations
}

/// `true` iff `model` is a fixpoint of the grounded instance.
pub fn is_fixpoint(graph: &GroundGraph, database: &Database, model: &PartialModel) -> bool {
    fixpoint_violations(graph, database, model).is_empty()
}

/// `true` iff the (possibly partial) `model` is **consistent**: it extends
/// M₀(Δ) and every rule node with an all-true body has a true head.
pub fn is_consistent(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
    model: &PartialModel,
) -> bool {
    let m0 = PartialModel::initial(program, database, graph.atoms());
    if !model.extends(&m0) {
        return false;
    }
    graph.rules().all(|rule| {
        let body_true = rule
            .body
            .iter()
            .all(|&(a, s)| model.literal_truth(a, s) == Some(true));
        !body_true || model.get(rule.head) == TruthValue::True
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program, GroundAtom};
    use datalog_ground::{ground, GroundConfig, GroundMode};

    fn instance(src: &str, db: &str) -> (GroundGraph, Program, Database, PartialModel) {
        let p = parse_program(src).unwrap();
        let d = parse_database(db).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let m = PartialModel::initial(&p, &d, g.atoms());
        (g, p, d, m)
    }

    fn set(g: &GroundGraph, m: &mut PartialModel, pred: &str, args: &[&str], v: TruthValue) {
        m.set(
            g.atoms()
                .id_of(&GroundAtom::from_texts(pred, args))
                .unwrap(),
            v,
        );
    }

    #[test]
    fn pq_cycle_has_two_fixpoints() {
        let (g, _, d, m0) = instance("p :- not q.\nq :- not p.", "");
        // p=T, q=F is a fixpoint.
        let mut m = m0.clone();
        set(&g, &mut m, "p", &[], TruthValue::True);
        set(&g, &mut m, "q", &[], TruthValue::False);
        assert!(is_fixpoint(&g, &d, &m));
        // p=T, q=T is NOT (both unsupported: each rule body is false).
        let mut m = m0.clone();
        set(&g, &mut m, "p", &[], TruthValue::True);
        set(&g, &mut m, "q", &[], TruthValue::True);
        let v = fixpoint_violations(&g, &d, &m);
        assert_eq!(v.len(), 2);
        assert!(matches!(v[0], FixpointViolation::Unsupported(_)));
        // p=F, q=F is NOT (both derived: each rule body is true).
        let mut m = m0;
        set(&g, &mut m, "p", &[], TruthValue::False);
        set(&g, &mut m, "q", &[], TruthValue::False);
        let v = fixpoint_violations(&g, &d, &m);
        assert_eq!(v.len(), 2);
        assert!(matches!(
            v[0],
            FixpointViolation::FalseButDerived(_, Some(_))
        ));
    }

    #[test]
    fn guarded_pq_cycle_fixpoints() {
        // p ← p, ¬q ; q ← q, ¬p: {p=T,q=F}, {p=F,q=T}, {p=F,q=F} are all
        // fixpoints (supported models); {p=T,q=T} is not.
        let (g, _, d, m0) = instance("p :- p, not q.\nq :- q, not p.", "");
        let mk = |pv: bool, qv: bool| {
            let mut m = m0.clone();
            set(&g, &mut m, "p", &[], TruthValue::from_bool(pv));
            set(&g, &mut m, "q", &[], TruthValue::from_bool(qv));
            m
        };
        assert!(is_fixpoint(&g, &d, &mk(true, false)));
        assert!(is_fixpoint(&g, &d, &mk(false, true)));
        assert!(is_fixpoint(&g, &d, &mk(false, false)));
        assert!(!is_fixpoint(&g, &d, &mk(true, true)));
    }

    #[test]
    fn delta_atoms_must_be_true() {
        let (g, _, d, m0) = instance("p(X) :- e(X).", "e(a).");
        // M0 has e(a)=T; setting p(a)=F violates (derived), p(a)=T is the
        // unique fixpoint.
        let mut m = m0.clone();
        set(&g, &mut m, "p", &["a"], TruthValue::False);
        assert!(!is_fixpoint(&g, &d, &m));
        let mut m = m0;
        set(&g, &mut m, "p", &["a"], TruthValue::True);
        assert!(is_fixpoint(&g, &d, &m));
    }

    #[test]
    fn partial_models_are_never_fixpoints() {
        let (g, _, d, m0) = instance("p :- not q.\nq :- not p.", "");
        let v = fixpoint_violations(&g, &d, &m0);
        assert!(v
            .iter()
            .all(|x| matches!(x, FixpointViolation::Undefined(_))));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn consistency_of_partial_models() {
        let (g, p, d, m0) = instance("p :- not q.\nq :- not p.", "");
        // M0 itself is consistent (no rule body fully true yet).
        assert!(is_consistent(&g, &p, &d, &m0));
        // q=F forces p's body true; without p=T it is inconsistent.
        let mut m = m0.clone();
        set(&g, &mut m, "q", &[], TruthValue::False);
        assert!(!is_consistent(&g, &p, &d, &m));
        set(&g, &mut m, "p", &[], TruthValue::True);
        assert!(is_consistent(&g, &p, &d, &m));
        // A model that contradicts M0 is inconsistent.
        let (g2, p2, d2, _) = instance("p(X) :- e(X).", "e(a).");
        let mut bad = PartialModel::initial(&p2, &d2, g2.atoms());
        set(&g2, &mut bad, "e", &["a"], TruthValue::False);
        assert!(!is_consistent(&g2, &p2, &d2, &bad));
    }
}
