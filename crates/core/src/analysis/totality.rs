//! Brute-force totality oracles (paper, Section 5).
//!
//! A program is **total** (uniform sense) if it has at least one fixpoint
//! for every initial database; **nonuniformly total** if it does for every
//! database with empty IDB relations. Deciding totality is Π₂ᵖ-complete
//! propositionally and undecidable in general (Theorems in Section 5) —
//! so these oracles are *bounded*: they exhaustively sweep the databases
//! over a given constant pool and answer exactly for that instance space.
//! The propositional sweep (empty pool) is exact for propositional
//! programs.

use datalog_ast::{ConstSym, Database, GroundAtom, Program};
use datalog_ground::{ground, GroundConfig, GroundMode};

use crate::semantics::enumerate::{enumerate_fixpoints, EnumerateConfig};
use crate::semantics::SemanticsError;

/// Budgets for the totality sweep.
#[derive(Clone, Copy, Debug)]
pub struct TotalityConfig {
    /// Maximum number of databases to try (the sweep is 2^|atom pool|).
    pub max_databases: u64,
    /// Passed through to the fixpoint enumeration.
    pub max_branch_atoms: usize,
    /// Grounding budgets per database.
    pub ground: GroundConfig,
}

impl Default for TotalityConfig {
    fn default() -> Self {
        TotalityConfig {
            max_databases: 1 << 16,
            max_branch_atoms: 30,
            ground: GroundConfig::default(),
        }
    }
}

/// The oracle's verdict.
#[derive(Clone, Debug)]
pub struct TotalityReport {
    /// `true` iff every database in the swept space admitted a fixpoint.
    pub total: bool,
    /// A database with no fixpoint, when found.
    pub counterexample: Option<Database>,
    /// Number of databases actually checked.
    pub databases_checked: u64,
}

/// Sweeps all databases whose facts use constants from `pool`
/// (for predicates of the program: all predicates in the uniform case,
/// EDB only when `nonuniform`), checking fixpoint existence for each.
///
/// # Errors
///
/// [`SemanticsError::NotApplicable`] if the sweep space exceeds
/// `config.max_databases`, or a per-database enumeration exceeds its
/// budget; [`SemanticsError::Ground`] if grounding a candidate fails.
pub fn bounded_totality(
    program: &Program,
    pool: &[ConstSym],
    nonuniform: bool,
    config: &TotalityConfig,
) -> Result<TotalityReport, SemanticsError> {
    let enum_config = EnumerateConfig {
        limit: 1,
        max_branch_atoms: config.max_branch_atoms,
    };
    sweep(program, pool, nonuniform, config, |graph, program, db| {
        Ok(!enumerate_fixpoints(graph, program, db, &enum_config)?.is_empty())
    })
}

/// Exact totality for propositional programs (all predicates nullary):
/// the database space is exactly the subsets of the propositions.
///
/// # Errors
///
/// [`SemanticsError::NotApplicable`] if the program is not propositional
/// or over budget.
pub fn propositional_totality(
    program: &Program,
    nonuniform: bool,
    config: &TotalityConfig,
) -> Result<TotalityReport, SemanticsError> {
    if program
        .predicates()
        .iter()
        .any(|&p| program.arity(p) != Some(0))
    {
        return Err(SemanticsError::NotApplicable(
            "propositional totality requires all predicates nullary".to_owned(),
        ));
    }
    bounded_totality(program, &[], nonuniform, config)
}

/// Bounded **well-founded totality**: does the well-founded semantics
/// produce a *total* model for every database over `pool`? (Paper §5,
/// closing remark: this variant of totality is coNP-complete
/// propositionally; Theorem 5 characterizes its structural closure as
/// stratification.)
///
/// # Errors
///
/// As for [`bounded_totality`].
pub fn bounded_well_founded_totality(
    program: &Program,
    pool: &[ConstSym],
    nonuniform: bool,
    config: &TotalityConfig,
) -> Result<TotalityReport, SemanticsError> {
    sweep(program, pool, nonuniform, config, |graph, program, db| {
        Ok(crate::semantics::well_founded::well_founded(graph, program, db)?.total)
    })
}

/// Shared sweep over all databases whose facts use constants from `pool`;
/// `accept` decides per database whether the property holds.
fn sweep(
    program: &Program,
    pool: &[ConstSym],
    nonuniform: bool,
    config: &TotalityConfig,
    accept: impl Fn(&datalog_ground::GroundGraph, &Program, &Database) -> Result<bool, SemanticsError>,
) -> Result<TotalityReport, SemanticsError> {
    let candidates = candidate_facts(program, pool, nonuniform);
    let n = candidates.len();
    if n >= 63 || (1u64 << n) > config.max_databases {
        return Err(SemanticsError::NotApplicable(format!(
            "totality sweep over {n} candidate facts (2^{n} databases) exceeds the budget"
        )));
    }
    let space = 1u64 << n;
    for mask in 0..space {
        let mut db = Database::new();
        for (i, fact) in candidates.iter().enumerate() {
            if mask & (1 << i) != 0 {
                db.insert(fact.clone()).expect("consistent arities");
            }
        }
        let graph = ground(program, &db, GroundMode::Full, &config.ground)?;
        if !accept(&graph, program, &db)? {
            return Ok(TotalityReport {
                total: false,
                counterexample: Some(db),
                databases_checked: mask + 1,
            });
        }
    }
    Ok(TotalityReport {
        total: true,
        counterexample: None,
        databases_checked: space,
    })
}

/// All candidate facts over `pool` for the eligible predicates.
fn candidate_facts(program: &Program, pool: &[ConstSym], nonuniform: bool) -> Vec<GroundAtom> {
    let mut candidates: Vec<GroundAtom> = Vec::new();
    for &pred in program.predicates() {
        if nonuniform && program.is_idb(pred) {
            continue;
        }
        let arity = program.arity(pred).expect("known predicate");
        if arity == 0 {
            candidates.push(GroundAtom {
                pred,
                args: Box::new([]),
            });
            continue;
        }
        if pool.is_empty() {
            continue;
        }
        let mut counter = vec![0usize; arity];
        loop {
            candidates.push(GroundAtom {
                pred,
                args: counter.iter().map(|&i| pool[i]).collect(),
            });
            let mut i = 0;
            loop {
                if i == arity {
                    counter.clear();
                    break;
                }
                counter[i] += 1;
                if counter[i] < pool.len() {
                    break;
                }
                counter[i] = 0;
                i += 1;
            }
            if counter.is_empty() {
                break;
            }
        }
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::parse_program;

    fn check(src: &str, nonuniform: bool) -> TotalityReport {
        let p = parse_program(src).unwrap();
        propositional_totality(&p, nonuniform, &TotalityConfig::default()).unwrap()
    }

    #[test]
    fn pq_cycle_is_total() {
        let r = check("p :- not q.\nq :- not p.", false);
        assert!(r.total);
        assert_eq!(r.databases_checked, 4);
    }

    #[test]
    fn odd_loop_is_not_total_and_counterexample_is_empty_db() {
        let r = check("p :- not p.", false);
        assert!(!r.total);
        // Even the empty database kills it.
        assert_eq!(r.counterexample.unwrap().len(), 0);
    }

    #[test]
    fn guarded_odd_loop_uniform_vs_nonuniform() {
        // p ← ¬p, g ; g ← g. Nonuniform: g stays empty (useless) ⇒ total.
        // Uniform: Δ = {g} forces p ← ¬p ⇒ no fixpoint.
        let src = "p :- not p, g.\ng :- g.";
        let uni = check(src, false);
        assert!(!uni.total);
        let cex = uni.counterexample.unwrap();
        assert!(cex.contains(&GroundAtom::from_texts("g", &[])));
        let non = check(src, true);
        assert!(non.total);
    }

    #[test]
    fn edb_guarded_odd_loop_not_total_either_way() {
        // p ← ¬p, e with e an EDB: Δ = {e} is a nonuniform database.
        let src = "p :- not p, e.";
        assert!(!check(src, false).total);
        let non = check(src, true);
        assert!(!non.total);
        assert!(non
            .counterexample
            .unwrap()
            .contains(&GroundAtom::from_texts("e", &[])));
    }

    #[test]
    fn bounded_predicate_sweep() {
        // Program (2) of the paper: not total once E is nonempty.
        let p = parse_program("p(X, Y) :- not p(Y, Y), e(X).").unwrap();
        let pool = [ConstSym::new("a")];
        let r = bounded_totality(&p, &pool, true, &TotalityConfig::default()).unwrap();
        assert!(!r.total);
        let cex = r.counterexample.unwrap();
        assert!(cex.contains(&GroundAtom::from_texts("e", &["a"])));
    }

    #[test]
    fn well_founded_totality_is_strictly_stronger() {
        // p ← ¬q ; q ← ¬p: total (fixpoints exist for every Δ) but NOT
        // well-founded total — the WF model is partial on the empty Δ.
        let p = parse_program("p :- not q.\nq :- not p.").unwrap();
        let fix = propositional_totality(&p, false, &TotalityConfig::default()).unwrap();
        assert!(fix.total);
        let wf = bounded_well_founded_totality(&p, &[], false, &TotalityConfig::default()).unwrap();
        assert!(!wf.total);
        assert_eq!(wf.counterexample.unwrap().len(), 0); // empty Δ already
    }

    #[test]
    fn stratified_programs_are_well_founded_total() {
        // Theorem 5's "if" direction on the bounded sweep.
        let p = parse_program("b :- e, not a.\na :- e.").unwrap();
        let wf = bounded_well_founded_totality(&p, &[], false, &TotalityConfig::default()).unwrap();
        assert!(wf.total);
        assert_eq!(wf.databases_checked, 8);
    }

    #[test]
    fn space_budget_enforced() {
        let p = parse_program("p(X, Y) :- not p(Y, X).").unwrap();
        let pool: Vec<ConstSym> = (0..6).map(|i| ConstSym::new(&format!("c{i}"))).collect();
        // p/2 over 6 constants = 36 candidate facts ⇒ 2^36 databases.
        let err = bounded_totality(&p, &pool, false, &TotalityConfig::default()).unwrap_err();
        assert!(matches!(err, SemanticsError::NotApplicable(_)));
    }
}
