//! Algorithm Well-Founded (paper, Section 2).
//!
//! ```text
//! M := M0(Δ); G := G(Π, Δ); (M, G) := close(M, G);
//! while C = Atoms[close(M, G+)] is nonempty do:
//!     for each atom a in C define M(a) := false;
//!     (M, G) := close(M, G)
//! ```
//!
//! The result is the well-founded (possibly partial) model of \[VRS\]. When
//! it is total, it is a fixpoint and the unique stable model.

use datalog_ast::{Database, Program};
use datalog_ground::{Closer, GroundGraph, PartialModel, TruthValue};

use super::{InterpreterRun, RunStats, SemanticsError};

/// Runs the paper-literal well-founded loop over a pre-built ground graph
/// (every unfounded-set query scans the whole remaining graph): the
/// reference that the condensation-driven kernel
/// ([`super::process_components`], walked by `tiebreak_runtime::Solver`)
/// is checked against.
///
/// # Errors
///
/// Only [`SemanticsError::Conflict`], which cannot occur for models
/// produced by this algorithm itself (it would indicate substrate
/// corruption); surfaced rather than panicked for uniformity.
pub fn well_founded(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
) -> Result<InterpreterRun, SemanticsError> {
    let mut model = PartialModel::initial(program, database, graph.atoms());
    let mut closer = Closer::new(graph);
    let mut stats = RunStats::default();

    closer.bootstrap(&model);
    closer.run(&mut model)?;
    stats.close_rounds += 1;

    loop {
        let unfounded = closer.largest_unfounded_set();
        if unfounded.is_empty() {
            break;
        }
        stats.unfounded_rounds += 1;
        for atom in unfounded {
            closer.define(&mut model, atom, TruthValue::False);
        }
        closer.run(&mut model)?;
        stats.close_rounds += 1;
    }

    let total = model.is_total();
    Ok(InterpreterRun {
        model,
        total,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program, GroundAtom};
    use datalog_ground::{ground, GroundConfig, GroundMode};

    fn run(src: &str, db: &str) -> (GroundGraph, Program, Database, InterpreterRun) {
        let p = parse_program(src).unwrap();
        let d = parse_database(db).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let r = well_founded(&g, &p, &d).unwrap();
        (g, p, d, r)
    }

    fn val(g: &GroundGraph, r: &InterpreterRun, pred: &str, args: &[&str]) -> TruthValue {
        r.model.get(
            g.atoms()
                .id_of(&GroundAtom::from_texts(pred, args))
                .unwrap(),
        )
    }

    #[test]
    fn stratified_program_is_total() {
        // reach(X) :- start(X). reach(Y) :- reach(X), edge(X, Y).
        // blocked(X) :- node(X), not reach(X).
        let (g, _, _, r) = run(
            "reach(X) :- start(X).\n\
             reach(Y) :- reach(X), edge(X, Y).\n\
             blocked(X) :- node(X), not reach(X).",
            "start(a).\nedge(a, b).\nedge(c, d).\nnode(a).\nnode(b).\nnode(c).\nnode(d).",
        );
        assert!(r.total);
        assert_eq!(val(&g, &r, "reach", &["b"]), TruthValue::True);
        assert_eq!(val(&g, &r, "reach", &["c"]), TruthValue::False);
        assert_eq!(val(&g, &r, "blocked", &["c"]), TruthValue::True);
        assert_eq!(val(&g, &r, "blocked", &["b"]), TruthValue::False);
    }

    #[test]
    fn win_move_game_partial_on_cycle() {
        // Draw position: a ↔ b cycle with a tail c → a.
        // win(c) depends on win(a), which is drawn ⇒ all three undefined?
        // Classic: nodes in a 2-cycle are drawn (undefined); a position
        // moving only to drawn positions is undefined too.
        let (g, _, _, r) = run(
            "win(X) :- move(X, Y), not win(Y).",
            "move(a, b).\nmove(b, a).\nmove(c, a).",
        );
        assert!(!r.total);
        assert_eq!(val(&g, &r, "win", &["a"]), TruthValue::Undefined);
        assert_eq!(val(&g, &r, "win", &["b"]), TruthValue::Undefined);
        assert_eq!(val(&g, &r, "win", &["c"]), TruthValue::Undefined);
    }

    #[test]
    fn win_move_game_decided_on_dag() {
        // b → c (c terminal): win(b); a → b: a loses? a moves to b which
        // wins ⇒ win(a) false... wait: win(X) iff ∃ move to a non-winning
        // position. c has no moves: win(c) false. b moves to c: win(b)
        // true. a moves only to b: win(a) false.
        let (g, _, _, r) = run(
            "win(X) :- move(X, Y), not win(Y).",
            "move(a, b).\nmove(b, c).",
        );
        assert!(r.total);
        assert_eq!(val(&g, &r, "win", &["c"]), TruthValue::False);
        assert_eq!(val(&g, &r, "win", &["b"]), TruthValue::True);
        assert_eq!(val(&g, &r, "win", &["a"]), TruthValue::False);
    }

    #[test]
    fn paper_program_1_is_total_for_this_db() {
        // P(a) ← ¬P(x), E(b): with E = {b}: ground rules P(a) ← ¬P(c), E(b)
        // for c ∈ {a, b}. Well-founded: P(b) unsupported ⇒ false; then rule
        // P(a) ← ¬P(b), E(b) has body true ⇒ P(a) true. Total!
        let (g, _, _, r) = run("p(a) :- not p(X), e(b).", "e(b).");
        assert!(r.total);
        assert_eq!(val(&g, &r, "p", &["a"]), TruthValue::True);
        assert_eq!(val(&g, &r, "p", &["b"]), TruthValue::False);
    }

    #[test]
    fn paper_variant_2_has_no_total_wf_model() {
        // P(x, y) ← ¬P(y, y), E(x) — program (2); not total when E ≠ ∅:
        // the atom P(a, a) with rule P(a, a) ← ¬P(a, a), E(a) is a direct
        // odd loop.
        let (_, _, _, r) = run("p(X, Y) :- not p(Y, Y), e(X).", "e(a).");
        assert!(!r.total);
    }

    #[test]
    fn pq_paper_example_both_false() {
        // p ← p, ¬q ; q ← q, ¬p: {p, q} is unfounded ⇒ both false.
        let (g, _, _, r) = run("p :- p, not q.\nq :- q, not p.", "");
        assert!(r.total);
        assert_eq!(val(&g, &r, "p", &[]), TruthValue::False);
        assert_eq!(val(&g, &r, "q", &[]), TruthValue::False);
        assert_eq!(r.stats.unfounded_rounds, 1);
    }

    #[test]
    fn negation_cycle_stays_partial() {
        let (_, _, _, r) = run("p :- not q.\nq :- not p.", "");
        assert!(!r.total);
        assert_eq!(r.model.defined_count(), 0);
        assert_eq!(r.residue().len(), 2);
    }

    #[test]
    fn three_negation_cycle_stays_partial() {
        // Odd cycle: no unfounded sets, WF assigns nothing.
        let (_, _, _, r) = run("p :- not q.\nq :- not r.\nr :- not p.", "");
        assert!(!r.total);
        assert_eq!(r.model.defined_count(), 0);
    }

    #[test]
    fn idb_facts_in_delta_respected() {
        let (g, _, _, r) = run("p(X) :- e(X), not q(X).", "e(a).\nq(a).");
        assert!(r.total);
        // q(a) ∈ Δ is true ⇒ p(a) false.
        assert_eq!(val(&g, &r, "q", &["a"]), TruthValue::True);
        assert_eq!(val(&g, &r, "p", &["a"]), TruthValue::False);
    }
}
