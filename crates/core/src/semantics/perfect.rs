//! The perfect model of locally stratified programs \[Pr\] (paper, §3).
//!
//! Przymusinski: every locally stratified Π with database Δ has a
//! distinguished fixpoint, the **perfect model**, minimizing positive
//! literals at lower levels. The paper observes that a strongly connected
//! component without negative edges is trivially a tie (one side empty),
//! so the tie-breaking interpreters always terminate on locally stratified
//! instances and in fact compute the perfect model: every tie broken has
//! an empty side, so no arbitrary choice is ever exercised — the whole run
//! is deterministic and coincides with iterated minimal-model steps, i.e.
//! with the well-founded computation.
//!
//! We implement the perfect model through exactly that route (well-founded
//! iteration after a local-stratification check) and assert totality.

use datalog_ast::{Database, Program};
use datalog_ground::GroundGraph;

use super::well_founded::well_founded;
use super::{InterpreterRun, SemanticsError};
use crate::analysis::local_strat::locally_stratified;

/// Computes the perfect model of a locally stratified instance.
///
/// # Errors
///
/// [`SemanticsError::NotApplicable`] if the instance is not locally
/// stratified (checked on the full ground graph, as the paper defines).
pub fn perfect(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
) -> Result<InterpreterRun, SemanticsError> {
    let check = locally_stratified(graph);
    if !check.locally_stratified {
        return Err(SemanticsError::NotApplicable(
            "instance is not locally stratified (a ground SCC contains a negative edge)".to_owned(),
        ));
    }
    let run = well_founded(graph, program, database)?;
    debug_assert!(
        run.total,
        "locally stratified instances have a total well-founded model"
    );
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program, GroundAtom};
    use datalog_ground::{ground, GroundConfig, GroundMode, TruthValue};

    #[test]
    fn perfect_model_of_stratified_instance() {
        let p = parse_program("reach(X) :- start(X).\nreach(Y) :- reach(X), edge(X, Y).").unwrap();
        let d = parse_database("start(a).\nedge(a, b).").unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let run = perfect(&g, &p, &d).unwrap();
        assert!(run.total);
        let rb = g
            .atoms()
            .id_of(&GroundAtom::from_texts("reach", &["b"]))
            .unwrap();
        assert_eq!(run.model.get(rb), TruthValue::True);
    }

    #[test]
    fn rejects_non_locally_stratified() {
        let p = parse_program("p :- not q.\nq :- not p.").unwrap();
        let d = parse_database("").unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        assert!(matches!(
            perfect(&g, &p, &d),
            Err(SemanticsError::NotApplicable(_))
        ));
    }

    #[test]
    fn perfect_equals_tie_breaking_on_locally_stratified() {
        // Purely positive with a recursive loop: locally stratified
        // (no negative edges at all); perfect model = minimal model.
        let p = parse_program("p(X) :- e(X).\nq(X) :- q(X).").unwrap();
        let d = parse_database("e(a).").unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let run = perfect(&g, &p, &d).unwrap();
        assert!(run.total);
        // q(a) is in a positive loop with no base: false in the perfect
        // model (minimality).
        let qa = g
            .atoms()
            .id_of(&GroundAtom::from_texts("q", &["a"]))
            .unwrap();
        assert_eq!(run.model.get(qa), TruthValue::False);

        let mut policy = super::super::tie_breaking::RootTruePolicy;
        let tb =
            super::super::tie_breaking::well_founded_tie_breaking(&g, &p, &d, &mut policy).unwrap();
        assert!(tb.total);
        assert_eq!(tb.model, run.model);
    }
}
