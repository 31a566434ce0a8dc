//! Exhaustive enumeration of tie-breaking outcomes.
//!
//! The tie-breaking interpreters are nondeterministic: each tie with two
//! nonempty sides is a binary choice. This module explores the complete
//! choice tree (deduplicating final models), which makes the paper's
//! meta-claims checkable:
//!
//! * Lemma 2 — every outcome (pure or well-founded) that is total is a
//!   fixpoint;
//! * Lemma 3 — every total outcome of the well-founded flavour is a
//!   **stable** model;
//! * the converse fails: the §3 three-rule example has stable models but
//!   the interpreter reaches none of them.

use datalog_ast::{Database, Program};
use datalog_ground::{GroundGraph, PartialModel};

use super::tie_breaking::{pure_tie_breaking, well_founded_tie_breaking, ScriptedPolicy};
use super::SemanticsError;

/// The set of distinct outcomes of one interpreter over all choice
/// scripts.
#[derive(Clone, Debug)]
pub struct OutcomeSet {
    /// Distinct final models (total or partial), in discovery order.
    pub models: Vec<PartialModel>,
    /// Number of interpreter runs performed.
    pub runs: usize,
    /// `true` if the exploration stopped at the run budget.
    pub truncated: bool,
}

/// Explores every script of tie choices for the chosen interpreter
/// flavour with the paper-literal loops, stopping after `max_runs` runs:
/// the core enumerator the differential suites check the session
/// runtime's copy-on-write enumeration against.
///
/// # Errors
///
/// Propagates interpreter errors ([`SemanticsError::Conflict`] cannot
/// occur for the paper's algorithms).
pub fn all_outcomes(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
    pure: bool,
    max_runs: usize,
) -> Result<OutcomeSet, SemanticsError> {
    explore_scripts(max_runs, |prefix| {
        let mut policy = ScriptedPolicy::new(prefix.to_vec(), false);
        let run = if pure {
            pure_tie_breaking(graph, program, database, &mut policy)?
        } else {
            well_founded_tie_breaking(graph, program, database, &mut policy)?
        };
        Ok((run.model, policy.consumed()))
    })
}

/// The tie-script choice-tree driver: depth-first over scripts, flipping
/// every default (`false`) answer exactly once, deduplicating final
/// models, stopping after `max_runs` runs.
///
/// `run_script` evaluates one script prefix and returns the final model
/// plus the number of choices the run consumed.
///
/// The session runtime's enumerator
/// (`tiebreak_runtime::Solver::all_outcomes`) walks the **same choice
/// tree with the same branching rule** (every defaulted answer flipped
/// exactly once) but breadth-first. An exhaustive (untruncated)
/// exploration therefore visits the identical script set and run count
/// and yields the identical outcome *set*; model *discovery order*
/// differs between the two drivers (DFS pops the deepest flip first,
/// the breadth-first walk the shallowest), and under a `max_runs` cut
/// the explored subsets can differ too. Both drivers are deterministic
/// by construction.
///
/// # Errors
///
/// Whatever `run_script` returns.
pub fn explore_scripts<F>(max_runs: usize, mut run_script: F) -> Result<OutcomeSet, SemanticsError>
where
    F: FnMut(&[bool]) -> Result<(PartialModel, usize), SemanticsError>,
{
    let mut models: Vec<PartialModel> = Vec::new();
    let mut stack: Vec<Vec<bool>> = vec![Vec::new()];
    let mut runs = 0;
    let mut truncated = false;

    while let Some(prefix) = stack.pop() {
        if runs >= max_runs {
            truncated = true;
            break;
        }
        runs += 1;
        let (model, consumed) = run_script(&prefix)?;

        // Branch: for every choice position answered by the default
        // (false), queue the script that flips it to true.
        for flip_at in prefix.len()..consumed {
            let mut next = prefix.clone();
            next.extend(std::iter::repeat_n(false, flip_at - prefix.len()));
            next.push(true);
            stack.push(next);
        }

        if !models.contains(&model) {
            models.push(model);
        }
    }

    Ok(OutcomeSet {
        models,
        runs,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::fixpoint::is_fixpoint;
    use crate::semantics::stable::is_stable;
    use datalog_ast::{parse_database, parse_program};
    use datalog_ground::{ground, GroundConfig, GroundMode};

    fn outcomes(
        src: &str,
        db_src: &str,
        pure: bool,
    ) -> (GroundGraph, Program, Database, OutcomeSet) {
        let p = parse_program(src).unwrap();
        let d = parse_database(db_src).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let o = all_outcomes(&g, &p, &d, pure, 1_000).unwrap();
        (g, p, d, o)
    }

    #[test]
    fn pq_cycle_has_two_outcomes_both_stable() {
        let (g, p, d, o) = outcomes("p :- not q.\nq :- not p.", "", false);
        assert!(!o.truncated);
        assert_eq!(o.models.len(), 2);
        for m in &o.models {
            assert!(m.is_total());
            assert!(is_stable(&g, &p, &d, m));
        }
    }

    #[test]
    fn independent_ties_reach_all_orientations() {
        let (g, p, d, o) = outcomes(
            "a0 :- not b0.\nb0 :- not a0.\na1 :- not b1.\nb1 :- not a1.",
            "",
            false,
        );
        assert_eq!(o.models.len(), 4);
        assert!(o.models.iter().all(datalog_ground::PartialModel::is_total));
        for m in &o.models {
            assert!(is_stable(&g, &p, &d, m));
        }
    }

    #[test]
    fn pure_outcomes_are_fixpoints_not_necessarily_stable() {
        // Paper §3: pure TB on the guarded cycle reaches {p} and {q} —
        // fixpoints that are not stable.
        let (g, _p, d, o) = outcomes("p :- p, not q.\nq :- q, not p.", "", true);
        assert_eq!(o.models.len(), 2);
        for m in &o.models {
            assert!(m.is_total());
            assert!(is_fixpoint(&g, &d, m));
            assert_eq!(m.true_count(), 1);
        }
    }

    #[test]
    fn wf_flavour_on_guarded_cycle_has_single_stable_outcome() {
        let (g, p, d, o) = outcomes("p :- p, not q.\nq :- q, not p.", "", false);
        assert_eq!(o.models.len(), 1);
        assert!(is_stable(&g, &p, &d, &o.models[0]));
        assert_eq!(o.models[0].true_count(), 0);
    }

    #[test]
    fn converse_of_lemma_3_fails_on_three_rules() {
        // Stable models exist (three of them), but the interpreter makes
        // no choices at all and stops partial: zero total outcomes.
        let (_g, _p, _d, o) = outcomes(
            "p1 :- not p2, not p3.\np2 :- not p1, not p3.\np3 :- not p1, not p2.",
            "",
            false,
        );
        assert_eq!(o.models.len(), 1);
        assert!(!o.models[0].is_total());
        assert!(!o.models.iter().any(PartialModel::is_total));
    }

    #[test]
    fn truncation_reports() {
        // 8 ties ⇒ 256 scripts; cap at 10 runs.
        let mut src = String::new();
        for i in 0..8 {
            src.push_str(&format!("a{i} :- not b{i}.\nb{i} :- not a{i}.\n"));
        }
        let p = parse_program(&src).unwrap();
        let d = Database::new();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let o = all_outcomes(&g, &p, &d, false, 10).unwrap();
        assert!(o.truncated);
        assert_eq!(o.runs, 10);
    }
}
