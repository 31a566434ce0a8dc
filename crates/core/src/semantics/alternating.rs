//! The alternating-fixpoint characterization of the well-founded model
//! \[VRS\].
//!
//! A third, independent implementation of the well-founded semantics
//! (besides the paper's `close`/unfounded-set interpreter and the
//! stratified evaluator): Van Gelder's alternating fixpoint. With Γ(S)
//! the least model of the GL reduct relative to "exactly S is true":
//!
//! * Γ is antimonotone, so Γ∘Γ is monotone;
//! * iterating from below, `I₀ = ∅, I_{k+1} = Γ(Γ(I_k))` climbs to the
//!   set of **well-founded true** atoms;
//! * the interleaved overestimates `J_k = Γ(I_k)` descend to the set of
//!   *possibly true* atoms — their complement is the well-founded
//!   **false** set; the gap is the undefined residue.
//!
//! The property and corpus tests pin this implementation against the
//! worklist interpreter on random programs: two very different algorithms
//! must produce identical three-valued models.

use datalog_ast::{Database, Program};
use datalog_ground::{GroundGraph, PartialModel, TruthValue};

use super::reduct::reduct_least_model;
use super::{InterpreterRun, RunStats};

/// Γ(S): the least model of the reduct where exactly the atoms true in
/// `snapshot` count as true (everything else false).
fn gamma(graph: &GroundGraph, database: &Database, snapshot: &PartialModel) -> PartialModel {
    reduct_least_model(graph, database, snapshot)
}

/// Computes the well-founded model by the alternating fixpoint.
///
/// Returns the same three-valued model as
/// [`super::well_founded::well_founded`] (property-tested), with
/// `stats.close_rounds` counting Γ applications.
pub fn alternating_well_founded(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
) -> InterpreterRun {
    let n = graph.atom_count();
    let mut stats = RunStats::default();

    // Underestimate I: nothing true (beyond what Γ derives from Δ).
    // Overestimate J: everything possibly true.
    let mut under = PartialModel::undefined(n);
    for id in graph.atoms().ids() {
        under.set(id, TruthValue::False);
    }
    let mut over = PartialModel::undefined(n);
    for id in graph.atoms().ids() {
        over.set(id, TruthValue::True);
    }

    loop {
        // J := Γ(I) — what might still be true given the certain truths.
        let next_over = gamma(graph, database, &under);
        // I := Γ(J) — what is certainly true given the optimistic bound.
        let next_under = gamma(graph, database, &next_over);
        stats.close_rounds += 2;
        let stable = next_under == under && next_over == over;
        under = next_under;
        over = next_over;
        if stable {
            break;
        }
    }

    // Assemble the three-valued model: true = I, false = complement of J,
    // undefined = the gap.
    let mut model = PartialModel::undefined(n);
    for id in graph.atoms().ids() {
        match (under.get(id), over.get(id)) {
            (TruthValue::True, _) => model.set(id, TruthValue::True),
            (_, TruthValue::False) => model.set(id, TruthValue::False),
            _ => {}
        }
    }
    // EDB atoms and Δ facts: fix them from M₀ (Γ never derives EDB atoms
    // outside Δ, and Δ atoms are always in I, so this only reasserts the
    // initial valuation).
    let m0 = PartialModel::initial(program, database, graph.atoms());
    for (id, v) in m0.defined() {
        model.set(id, v);
    }

    let total = model.is_total();
    InterpreterRun {
        model,
        total,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::well_founded::well_founded;
    use datalog_ast::{parse_database, parse_program};
    use datalog_ground::{ground, GroundConfig, GroundMode};

    fn agree(src: &str, db_src: &str) {
        let p = parse_program(src).unwrap();
        let d = parse_database(db_src).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let worklist = well_founded(&g, &p, &d).unwrap();
        let alternating = alternating_well_founded(&g, &p, &d);
        assert_eq!(
            worklist.model, alternating.model,
            "programs:\n{src}\nΔ: {db_src}"
        );
    }

    #[test]
    fn agrees_on_the_paper_examples() {
        agree("p :- not q.\nq :- not p.", "");
        agree("p :- p, not q.\nq :- q, not p.", "");
        agree(
            "p1 :- not p2, not p3.\np2 :- not p1, not p3.\np3 :- not p1, not p2.",
            "",
        );
        agree("p(a) :- not p(X), e(b).", "e(b).");
        agree("p :- not p.", "");
    }

    #[test]
    fn agrees_on_win_move_boards() {
        agree(
            "win(X) :- move(X, Y), not win(Y).",
            "move(a, b).\nmove(b, a).\nmove(c, a).",
        );
        agree(
            "win(X) :- move(X, Y), not win(Y).",
            "move(a, b).\nmove(b, c).",
        );
    }

    #[test]
    fn agrees_on_stratified_programs() {
        agree(
            "reach(X) :- start(X).\nreach(Y) :- reach(X), edge(X, Y).\n\
             blocked(X) :- node(X), not reach(X).",
            "start(a).\nedge(a, b).\nnode(a).\nnode(b).\nnode(c).",
        );
    }

    #[test]
    fn gamma_round_count_is_reported() {
        let p = parse_program("p :- not q.\nq :- not p.").unwrap();
        let d = parse_database("").unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let run = alternating_well_founded(&g, &p, &d);
        assert!(!run.total);
        assert!(run.stats.close_rounds >= 2);
    }
}
