//! Naive reference implementations — executable specifications.
//!
//! The worklist [`Closer`](crate::Closer) is the production engine; this
//! module re-implements `close(M, G)` and the largest unfounded set
//! *literally from the paper's prose*, scanning the whole graph on every
//! round. They are quadratic and exist to cross-validate the incremental
//! engine (see the property tests), not to be fast.

// The reference scans by index on purpose — it mirrors the paper's "for
// each node" prose and keeps the borrow structure trivial.
#![allow(clippy::needless_range_loop)]

use datalog_ast::Sign;

use crate::atoms::AtomId;
use crate::close::CloseConflict;
use crate::graph::{GroundGraph, RuleId};
use crate::model::{PartialModel, TruthValue};

/// The residual graph left by [`naive_close`]: which nodes are still in G.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResidualGraph {
    /// `atom_in[a]` — the atom node is still in the graph.
    pub atom_in: Vec<bool>,
    /// `rule_in[r]` — the rule node is still in the graph.
    pub rule_in: Vec<bool>,
}

/// Literal implementation of the paper's `close(M, G)`: apply the four
/// operations until none is applicable, scanning everything each round.
///
/// # Errors
///
/// [`CloseConflict`] if a rule with no incoming edges fires onto an atom
/// already false (possible only when the caller pre-assigned values that
/// `close` contradicts).
pub fn naive_close(
    graph: &GroundGraph,
    model: &mut PartialModel,
) -> Result<ResidualGraph, CloseConflict> {
    let mut atom_in = vec![true; graph.atom_count()];
    let mut rule_in = vec![true; graph.rule_count()];

    loop {
        let mut changed = false;

        // Ops 1 and 2: a defined atom is deleted from G, along with every
        // rule node whose corresponding body literal it falsifies.
        for i in 0..graph.atom_count() {
            let id = AtomId(i as u32);
            if !atom_in[i] || !model.get(id).is_defined() {
                continue;
            }
            atom_in[i] = false;
            changed = true;
            for &(rule, sign) in graph.uses_of(id) {
                if !rule_in[rule.index()] {
                    continue;
                }
                let literal_false = matches!(
                    (model.get(id), sign),
                    (TruthValue::True, Sign::Neg) | (TruthValue::False, Sign::Pos)
                );
                if literal_false {
                    rule_in[rule.index()] = false;
                }
            }
        }

        // Op 3: a rule node with no incoming edges fires.
        for r in 0..graph.rule_count() {
            if !rule_in[r] {
                continue;
            }
            let rule = graph.rule(RuleId(r as u32));
            let no_incoming = rule.body.iter().all(|&(a, _)| !atom_in[a.index()]);
            if no_incoming {
                rule_in[r] = false;
                changed = true;
                match model.get(rule.head) {
                    TruthValue::False => return Err(CloseConflict { atom: rule.head }),
                    TruthValue::True => {}
                    TruthValue::Undefined => model.set(rule.head, TruthValue::True),
                }
            }
        }

        // Op 4: an atom with no incoming edges becomes false.
        for i in 0..graph.atom_count() {
            let id = AtomId(i as u32);
            if !atom_in[i] || model.get(id).is_defined() {
                continue;
            }
            let no_incoming = graph.heads_of(id).iter().all(|r| !rule_in[r.index()]);
            if no_incoming {
                model.set(id, TruthValue::False);
                changed = true;
                // Deletion happens on the next round via op 1/2.
            }
        }

        if !changed {
            return Ok(ResidualGraph { atom_in, rule_in });
        }
    }
}

/// Literal implementation of the largest unfounded set: the maximal set D
/// of residual atoms such that the subgraph of G⁺ induced by D and the
/// rule nodes preceding them has no source. Computed as a greatest
/// fixpoint: repeatedly remove atoms with a source among their rules.
pub fn naive_largest_unfounded(graph: &GroundGraph, residual: &ResidualGraph) -> Vec<AtomId> {
    let mut in_d: Vec<bool> = residual.atom_in.clone();

    loop {
        let mut changed = false;
        for i in 0..graph.atom_count() {
            if !in_d[i] {
                continue;
            }
            let id = AtomId(i as u32);
            // An atom stays in D only if it is not a source itself (some
            // residual rule heads it) and none of those rules is a source
            // (every heading rule positively depends on some atom of D).
            let mut has_rule = false;
            let mut externally_supported = false;
            for &r in graph.heads_of(id) {
                if !residual.rule_in[r.index()] {
                    continue;
                }
                has_rule = true;
                let rule = graph.rule(r);
                let depends_on_d = rule
                    .body
                    .iter()
                    .any(|&(b, s)| s.is_pos() && in_d[b.index()]);
                if !depends_on_d {
                    externally_supported = true;
                    break;
                }
            }
            if !has_rule || externally_supported {
                in_d[i] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    in_d.iter()
        .enumerate()
        .filter(|&(_, &b)| b)
        .map(|(i, _)| AtomId(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close::Closer;
    use crate::grounder::{ground, GroundConfig, GroundMode};
    use datalog_ast::{parse_database, parse_program};

    fn cross_check(src: &str, db_src: &str) {
        let p = parse_program(src).unwrap();
        let d = parse_database(db_src).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();

        // Production engine.
        let mut fast_model = PartialModel::initial(&p, &d, g.atoms());
        let mut closer = Closer::new(&g);
        closer.bootstrap(&fast_model);
        closer.run(&mut fast_model).expect("no conflict");
        let fast_unfounded = {
            let mut u = closer.largest_unfounded_set();
            u.sort();
            u
        };

        // Reference.
        let mut naive_model = PartialModel::initial(&p, &d, g.atoms());
        let residual = naive_close(&g, &mut naive_model).expect("no conflict");
        let mut naive_unfounded = naive_largest_unfounded(&g, &residual);
        naive_unfounded.sort();

        assert_eq!(fast_model, naive_model, "close disagreement on {src}");
        assert_eq!(
            fast_unfounded, naive_unfounded,
            "unfounded-set disagreement on {src}"
        );
        // Residual atoms are exactly the undefined ones.
        for i in 0..g.atom_count() {
            assert_eq!(
                residual.atom_in[i],
                !naive_model.get(AtomId(i as u32)).is_defined()
            );
        }
    }

    #[test]
    fn agrees_on_the_paper_examples() {
        cross_check("p :- not q.\nq :- not p.", "");
        cross_check("p :- p, not q.\nq :- q, not p.", "");
        cross_check(
            "p1 :- not p2, not p3.\np2 :- not p1, not p3.\np3 :- not p1, not p2.",
            "",
        );
        cross_check("p(a) :- not p(X), e(b).", "e(b).");
    }

    #[test]
    fn agrees_on_positive_and_stratified_programs() {
        cross_check(
            "t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).",
            "e(a, b).\ne(b, c).",
        );
        cross_check(
            "win(X) :- move(X, Y), not win(Y).",
            "move(a, b).\nmove(b, a).\nmove(c, a).",
        );
    }

    #[test]
    fn naive_conflict_detection() {
        let p = parse_program("p :- e.").unwrap();
        let d = parse_database("e.").unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let mut m = PartialModel::initial(&p, &d, g.atoms());
        let pa = g.atoms().atom_id("p".into(), &[]).unwrap();
        m.set(pa, TruthValue::False);
        assert!(naive_close(&g, &mut m).is_err());
    }
}
