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

use datalog_ast::{Database, GroundAtom, Program};
use datalog_ground::{AtomTable, GroundGraph, PartialModel, TruthValue};

use super::tie_breaking::{
    pure_tie_breaking, pure_tie_breaking_with, well_founded_tie_breaking,
    well_founded_tie_breaking_with, ScriptedPolicy,
};
use super::{EvalOptions, SemanticsError};

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

impl OutcomeSet {
    /// The outcomes that are total models.
    pub fn total_models(&self) -> impl Iterator<Item = &PartialModel> {
        self.models.iter().filter(|m| m.is_total())
    }

    /// Decodes the set against its atom table: every atom true in some
    /// model is decoded once, and the union is sorted by text
    /// ([`GroundAtom::text_cmp`]), so the printed order does not depend
    /// on the process's interning history. Each model then lists indices
    /// into that union, ascending — hence also in text order.
    pub fn decode(&self, atoms: &AtomTable) -> DecodedOutcomes {
        // Per atom id: its index in `facts` once sorted, `u32::MAX` while
        // false or undefined in every model.
        let width = self.models.iter().map(PartialModel::len).max().unwrap_or(0);
        let mut index = vec![u32::MAX; width];
        let mut ids = Vec::new();
        for model in &self.models {
            for (id, value) in model.defined() {
                if value == TruthValue::True && index[id.index()] == u32::MAX {
                    index[id.index()] = 0;
                    ids.push(id);
                }
            }
        }
        let mut decoded: Vec<_> = ids.into_iter().map(|id| (atoms.decode(id), id)).collect();
        decoded.sort_unstable_by(|(a, _), (b, _)| a.text_cmp(b));
        for (i, (_, id)) in decoded.iter().enumerate() {
            index[id.index()] = u32::try_from(i).expect("fewer facts than atom ids");
        }
        let models = self
            .models
            .iter()
            .map(|model| {
                let mut facts: Vec<u32> = model
                    .defined()
                    .filter(|&(_, value)| value == TruthValue::True)
                    .map(|(id, _)| index[id.index()])
                    .collect();
                facts.sort_unstable();
                DecodedModel {
                    total: model.is_total(),
                    facts,
                }
            })
            .collect();
        DecodedOutcomes {
            facts: decoded.into_iter().map(|(fact, _)| fact).collect(),
            models,
            runs: self.runs,
            truncated: self.truncated,
        }
    }
}

/// An [`OutcomeSet`] decoded for printing ([`OutcomeSet::decode`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedOutcomes {
    /// Every atom true in some model, each once, sorted by text.
    pub facts: Vec<GroundAtom>,
    /// The models, in the set's order.
    pub models: Vec<DecodedModel>,
    /// Number of interpreter runs performed.
    pub runs: usize,
    /// `true` if the exploration stopped at the run budget.
    pub truncated: bool,
}

/// One model of a [`DecodedOutcomes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedModel {
    /// Whether the model is total.
    pub total: bool,
    /// Its true atoms: ascending indices into [`DecodedOutcomes::facts`].
    pub facts: Vec<u32>,
}

/// Explores every script of tie choices for the chosen interpreter
/// flavour with the paper-literal loops, stopping after `max_runs` runs:
/// the core enumerator the differential suites check
/// [`all_outcomes_with`] and the session runtime against.
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

/// [`all_outcomes`] over the condensation-driven interpreters, with
/// explicit [`EvalOptions`]: the same script tree and outcome set, each
/// script re-closed from scratch.
///
/// # Errors
///
/// As for [`all_outcomes`].
pub fn all_outcomes_with(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
    pure: bool,
    max_runs: usize,
    options: &EvalOptions,
) -> Result<OutcomeSet, SemanticsError> {
    explore_scripts(max_runs, |prefix| {
        let mut policy = ScriptedPolicy::new(prefix.to_vec(), false);
        let run = if pure {
            pure_tie_breaking_with(graph, program, database, &mut policy, options)?
        } else {
            well_founded_tie_breaking_with(graph, program, database, &mut policy, options)?
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
    use datalog_ground::{ground, GroundConfig};

    fn outcomes(
        src: &str,
        db_src: &str,
        pure: bool,
    ) -> (GroundGraph, Program, Database, OutcomeSet) {
        let p = parse_program(src).unwrap();
        let d = parse_database(db_src).unwrap();
        let g = ground(&p, &d, &GroundConfig::default()).unwrap();
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
        assert_eq!(o.total_models().count(), 0);
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
        let g = ground(&p, &d, &GroundConfig::default()).unwrap();
        let o = all_outcomes(&g, &p, &d, false, 10).unwrap();
        assert!(o.truncated);
        assert_eq!(o.runs, 10);
    }
}
