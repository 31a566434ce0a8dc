//! Local stratification \[Pr\] (paper, Section 3).
//!
//! A program (with a database) is **locally stratified** iff no strongly
//! connected component of its ground graph contains a negative edge. A
//! strongly connected component with no negative edges is trivially a tie
//! (one side empty), so the tie-breaking interpreters compute a fixpoint
//! on every locally stratified instance — in fact the perfect model.

use datalog_ground::{Closer, GroundGraph};
use signed_graph::{Condensation, Sccs};

/// The verdict of the local stratification check for one (Π, Δ).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalStratification {
    /// `true` iff no ground SCC contains a negative edge.
    pub locally_stratified: bool,
    /// Number of strongly connected components of the ground graph.
    pub scc_count: usize,
}

/// Checks local stratification of a ground graph (before any deletion).
///
/// Note the strictness of the definition: it quantifies over *all*
/// instantiations. `even(Y) ← succ(X, Y), ¬even(X)` over universe
/// {0, 1} is **not** locally stratified even when `succ` is acyclic,
/// because the junk instantiation `even(0) ← succ(1, 0), ¬even(1)` closes
/// a negative cycle regardless of `succ`'s actual tuples. For the
/// database-aware refinement see [`locally_stratified_after_close`].
pub fn locally_stratified(graph: &GroundGraph) -> LocalStratification {
    // A fresh Closer exposes the full ground graph as a signed digraph.
    let closer = Closer::new(graph);
    verdict(&closer)
}

/// A pragmatic refinement: checks the *remaining* ground graph after
/// M₀(Δ) and `close` have deleted everything the database already
/// decides. Rule nodes with false EDB literals are gone, so acyclic-data
/// programs such as even/succ pass. (This is the instance the well-founded
/// and tie-breaking interpreters actually iterate on.)
pub fn locally_stratified_after_close(
    graph: &GroundGraph,
    program: &datalog_ast::Program,
    database: &datalog_ast::Database,
) -> LocalStratification {
    let mut model = datalog_ground::PartialModel::initial(program, database, graph.atoms());
    let mut closer = Closer::new(graph);
    closer.bootstrap(&model);
    closer
        .run(&mut model)
        .expect("close from M0 cannot conflict");
    verdict(&closer)
}

fn verdict(closer: &Closer<'_>) -> LocalStratification {
    let rem = closer.remaining_digraph();
    let sccs = Sccs::compute(&rem.digraph);
    LocalStratification {
        locally_stratified: !Condensation::has_negative_cycle_edge(&rem.digraph, &sccs),
        scc_count: sccs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program};
    use datalog_ground::{ground, GroundConfig, GroundMode};

    fn check(src: &str, db: &str) -> LocalStratification {
        let p = parse_program(src).unwrap();
        let d = parse_database(db).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        locally_stratified(&g)
    }

    #[test]
    fn stratified_implies_locally_stratified() {
        let r = check(
            "reach(Y) :- reach(X), edge(X, Y).\nreach(X) :- start(X).",
            "start(a).\nedge(a, b).",
        );
        assert!(r.locally_stratified);
    }

    #[test]
    fn win_move_on_a_dag_is_locally_stratified() {
        // win(X) ← move(X,Y), ¬win(Y): unstratifiable at predicate level,
        // but on an acyclic move relation the ground graph is acyclic on
        // the win atoms with negation pointing "down" the DAG only when
        // the ground rule's move atom is among the cycle... The full
        // ground graph instantiates move over *all* pairs, but rule nodes
        // with false move literals still carry edges — the SCCs are over
        // the full graph. win(a) ← move(a,a), ¬win(a) puts a negative
        // self-cycle through every win atom: NOT locally stratified.
        let r = check("win(X) :- move(X, Y), not win(Y).", "move(a, b).");
        assert!(!r.locally_stratified);
    }

    #[test]
    fn paper_program_1_not_locally_stratified() {
        // p(a) ← ¬p(a'), e(b) instantiated at x=a gives a negative loop
        // through p(a).
        let r = check("p(a) :- not p(X), e(b).", "e(b).");
        assert!(!r.locally_stratified);
    }

    #[test]
    fn even_odd_strict_vs_after_close() {
        // Strict definition: junk instantiations (succ pairs that are not
        // facts) close negative cycles ⇒ not locally stratified.
        let src = "even(X) :- zero(X).\neven(Y) :- succ(X, Y), not even(X).";
        let db = "zero(0).\nsucc(0, 1).\nsucc(1, 2).";
        let r = check(src, db);
        assert!(!r.locally_stratified);

        // After close, only the real succ chain remains: negation points
        // strictly down the chain ⇒ locally stratified (in fact, close
        // resolves everything and the remaining graph is empty).
        let p = parse_program(src).unwrap();
        let d = parse_database(db).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let r2 = locally_stratified_after_close(&g, &p, &d);
        assert!(r2.locally_stratified);
    }

    #[test]
    fn negation_two_cycle_is_not_locally_stratified() {
        let r = check("p :- not q.\nq :- not p.", "");
        assert!(!r.locally_stratified);
    }
}
