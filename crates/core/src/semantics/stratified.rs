//! Stratified evaluation \[CH, ABW\] (paper, Section 1).
//!
//! IDB relations are partitioned into levels; each level depends
//! positively on its own or lower levels and negatively only on lower
//! levels, so least fixpoints can be computed level by level. Defined
//! exactly on stratified programs; for those it agrees with the
//! well-founded model (which Theorem 5 shows is the structural boundary of
//! well-founded totality).

use datalog_ast::{Database, GroundAtom, Program};

use super::seminaive::evaluate_stratum;
use super::SemanticsError;
use crate::analysis::stratification::stratify;

/// The outcome of stratified evaluation.
#[derive(Clone, Debug)]
pub struct StratifiedRun {
    /// All true ground atoms: Δ plus everything derived.
    pub facts: Database,
    /// Facts derived per stratum (diagnostics).
    pub derived_per_stratum: Vec<usize>,
}

impl StratifiedRun {
    /// The true atoms as a sorted list.
    pub fn true_atoms(&self) -> Vec<GroundAtom> {
        let mut v: Vec<GroundAtom> = self.facts.facts().collect();
        v.sort_by(|a, b| (a.pred.as_str(), &a.args).cmp(&(b.pred.as_str(), &b.args)));
        v
    }
}

/// Evaluates a stratified program bottom-up.
///
/// # Errors
///
/// [`SemanticsError::NotApplicable`] if the program is not stratified.
pub fn stratified(program: &Program, database: &Database) -> Result<StratifiedRun, SemanticsError> {
    let strat = stratify(program);
    if !strat.stratified {
        let why = strat.witness.map_or_else(
            || "program is not stratified".to_owned(),
            |w| format!("cycle through negation: {w}"),
        );
        return Err(SemanticsError::NotApplicable(why));
    }

    let universe = Database::universe(program, database);
    let mut total = database.clone();
    let mut derived_per_stratum = Vec::with_capacity(strat.stratum_count as usize);

    for level in 0..strat.stratum_count {
        let preds = strat.stratum_preds(program, level);
        let rule_indices: Vec<usize> = program
            .rules()
            .iter()
            .enumerate()
            .filter(|(_, r)| strat.strata.get(&r.head.pred) == Some(&level))
            .map(|(i, _)| i)
            .collect();
        let derived = evaluate_stratum(program, &rule_indices, &preds, &mut total, &universe);
        derived_per_stratum.push(derived);
    }

    Ok(StratifiedRun {
        facts: total,
        derived_per_stratum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program};

    #[test]
    fn two_strata_reachability() {
        let p = parse_program(
            "reach(X) :- start(X).\n\
             reach(Y) :- reach(X), edge(X, Y).\n\
             blocked(X) :- node(X), not reach(X).",
        )
        .unwrap();
        let d = parse_database(
            "start(a).\nedge(a, b).\nedge(b, c).\nedge(x, y).\n\
             node(a).\nnode(b).\nnode(c).\nnode(x).\nnode(y).",
        )
        .unwrap();
        let run = stratified(&p, &d).unwrap();
        assert!(run.facts.contains(&GroundAtom::from_texts("reach", &["c"])));
        assert!(run
            .facts
            .contains(&GroundAtom::from_texts("blocked", &["x"])));
        assert!(!run
            .facts
            .contains(&GroundAtom::from_texts("blocked", &["b"])));
        assert_eq!(run.derived_per_stratum.len(), 2);
    }

    #[test]
    fn rejects_unstratified_programs() {
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let d = parse_database("move(a, b).").unwrap();
        let err = stratified(&p, &d).unwrap_err();
        assert!(matches!(err, SemanticsError::NotApplicable(_)));
        assert!(err.to_string().contains("win"));
    }

    #[test]
    fn agrees_with_well_founded_on_stratified_programs() {
        use datalog_ground::{ground, GroundConfig, GroundMode};
        let p = parse_program(
            "reach(X) :- start(X).\n\
             reach(Y) :- reach(X), edge(X, Y).\n\
             blocked(X) :- node(X), not reach(X).\n\
             ok(X) :- node(X), not blocked(X).",
        )
        .unwrap();
        let d = parse_database("start(a).\nedge(a, b).\nnode(a).\nnode(b).\nnode(c).").unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let wf = super::super::well_founded::well_founded(&g, &p, &d).unwrap();
        assert!(wf.total);
        let strat = stratified(&p, &d).unwrap();

        let mut wf_true = wf.model.true_atoms(g.atoms());
        wf_true.sort();
        let mut strat_true: Vec<GroundAtom> = strat.facts.facts().collect();
        strat_true.sort();
        assert_eq!(wf_true, strat_true);
    }

    #[test]
    fn transitive_closure_over_a_path() {
        let p = parse_program("t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let d = parse_database("e(a, b).\ne(b, c).").unwrap();
        let run = stratified(&p, &d).unwrap();
        assert_eq!(run.facts.relation("t".into()).unwrap().len(), 3);
    }

    #[test]
    fn idb_seed_facts_participate() {
        // Δ contains an IDB fact: it seeds the fixpoint (uniform setting).
        let p = parse_program("t(X, Z) :- t(X, Y), t(Y, Z).").unwrap();
        let d = parse_database("t(a, b).\nt(b, c).").unwrap();
        let run = stratified(&p, &d).unwrap();
        assert!(run
            .facts
            .contains(&GroundAtom::from_texts("t", &["a", "c"])));
    }

    #[test]
    fn empty_program_empty_result() {
        let run = stratified(&Program::empty(), &Database::new()).unwrap();
        assert!(run.facts.is_empty());
        assert!(run.derived_per_stratum.is_empty());
    }
}
