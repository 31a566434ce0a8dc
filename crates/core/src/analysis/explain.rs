//! Post-hoc justification of model values ("why is this atom true?").
//!
//! For a total model, every true atom is justified by Δ-membership or by
//! a rule node whose body is true; every false atom is justified by the
//! failure of each of its rule nodes. This is the paper's supportedness
//! condition (§2) turned into a diagnostic: the CLI's `explain` command
//! and several tests use it.

use datalog_ast::{Database, Program};
use datalog_ground::{AtomId, GroundGraph, PartialModel, RuleId, TruthValue};

/// Why an atom has its value in a model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Justification {
    /// The atom is a fact of the initial database Δ.
    InDatabase,
    /// A rule node derives it: all body literals are true.
    Derived {
        /// The witnessing rule node.
        rule: RuleId,
    },
    /// The atom is false: every rule node for it fails; for each, the
    /// first body literal that is false (by position).
    AllRulesFail {
        /// Per heading rule node: `(rule, failing literal index)`.
        failures: Vec<(RuleId, usize)>,
    },
    /// The atom is false and no rule node can ever derive it (an EDB atom
    /// outside Δ, or an IDB predicate with no rules).
    NoRules,
    /// The atom is undefined in the model.
    Undefined,
    /// The value is *not* justified — the model is not a fixpoint at this
    /// atom (true without support, or false despite a firing rule).
    Unsupported,
}

/// Justifies `atom`'s value in `model`.
pub fn justify(
    graph: &GroundGraph,
    database: &Database,
    model: &PartialModel,
    atom: AtomId,
) -> Justification {
    match model.get(atom) {
        TruthValue::Undefined => Justification::Undefined,
        TruthValue::True => {
            if database.contains(&graph.atoms().decode(atom)) {
                return Justification::InDatabase;
            }
            for &rule in graph.heads_of(atom) {
                let body_true = graph
                    .rule(rule)
                    .body
                    .iter()
                    .all(|&(a, s)| model.literal_truth(a, s) == Some(true));
                if body_true {
                    return Justification::Derived { rule };
                }
            }
            Justification::Unsupported
        }
        TruthValue::False => {
            if graph.heads_of(atom).is_empty() {
                return Justification::NoRules;
            }
            let mut failures = Vec::new();
            for &rule in graph.heads_of(atom) {
                let failing = graph
                    .rule(rule)
                    .body
                    .iter()
                    .position(|&(a, s)| model.literal_truth(a, s) != Some(true));
                match failing {
                    Some(idx) => failures.push((rule, idx)),
                    None => return Justification::Unsupported, // a rule fires!
                }
            }
            Justification::AllRulesFail { failures }
        }
    }
}

/// Renders a justification as human-readable text.
pub fn render(
    graph: &GroundGraph,
    program: &Program,
    model: &PartialModel,
    atom: AtomId,
    justification: &Justification,
) -> String {
    let name = graph.atoms().decode(atom);
    match justification {
        Justification::InDatabase => format!("{name} is true: it is a fact of the database"),
        Justification::Derived { rule } => format!(
            "{name} is true: derived by {}",
            graph.describe_rule(program, *rule)
        ),
        Justification::AllRulesFail { failures } => {
            let mut out = format!("{name} is false: every rule for it fails:");
            for (rule, idx) in failures {
                let gr = graph.rule(*rule);
                let (lit_atom, sign) = gr.body[*idx];
                let lit = format!(
                    "{}{}",
                    if sign.is_neg() { "not " } else { "" },
                    graph.atoms().decode(lit_atom)
                );
                out.push_str(&format!(
                    "\n  {} — literal `{lit}` is {}",
                    graph.describe_rule(program, *rule),
                    match model.literal_truth(lit_atom, sign) {
                        Some(false) => "false",
                        None => "undefined",
                        Some(true) => "true (?)",
                    }
                ));
            }
            out
        }
        Justification::NoRules => {
            format!("{name} is false: no rule can derive it and it is not in the database")
        }
        Justification::Undefined => format!("{name} is undefined in this (partial) model"),
        Justification::Unsupported => {
            format!("{name}: value is NOT supported — the model is not a fixpoint here")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::well_founded::well_founded;
    use datalog_ast::{parse_database, parse_program, GroundAtom};
    use datalog_ground::{ground, GroundConfig, GroundMode};

    fn setup(src: &str, db_src: &str) -> (GroundGraph, Program, Database, PartialModel) {
        let p = parse_program(src).unwrap();
        let d = parse_database(db_src).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let run = well_founded(&g, &p, &d).unwrap();
        (g, p, d, run.model)
    }

    fn id(g: &GroundGraph, pred: &str, args: &[&str]) -> AtomId {
        g.atoms()
            .id_of(&GroundAtom::from_texts(pred, args))
            .unwrap()
    }

    #[test]
    fn database_facts_justified_by_delta() {
        let (g, _, d, m) = setup("p(X) :- e(X).", "e(a).");
        let j = justify(&g, &d, &m, id(&g, "e", &["a"]));
        assert_eq!(j, Justification::InDatabase);
    }

    #[test]
    fn derived_atoms_name_their_rule() {
        let (g, p, d, m) = setup("p(X) :- e(X).", "e(a).");
        let j = justify(&g, &d, &m, id(&g, "p", &["a"]));
        let Justification::Derived { rule } = j else {
            panic!("expected Derived, got {j:?}")
        };
        let text = render(
            &g,
            &p,
            &m,
            id(&g, "p", &["a"]),
            &Justification::Derived { rule },
        );
        assert!(text.contains("derived by r0[X=a]"), "{text}");
    }

    #[test]
    fn false_atoms_list_failures() {
        let (g, p, d, m) = setup("win(X) :- move(X, Y), not win(Y).", "move(a, b).");
        // win(b) is false: b has no moves, so every rule for win(b) fails
        // on its move(b, Y) literal. (win(a) is then derived.)
        let j = justify(&g, &d, &m, id(&g, "win", &["b"]));
        let Justification::AllRulesFail { failures } = &j else {
            panic!("expected AllRulesFail, got {j:?}")
        };
        assert!(!failures.is_empty());
        let text = render(&g, &p, &m, id(&g, "win", &["b"]), &j);
        assert!(text.contains("every rule for it fails"), "{text}");
        assert!(text.contains("move(b"), "{text}");
    }

    #[test]
    fn edb_atoms_outside_delta_have_no_rules() {
        let (g, _, d, m) = setup("p(X) :- e(X).", "e(a).\nf(b).");
        // e(b) exists in V_P (b is in the universe) and is false.
        let j = justify(&g, &d, &m, id(&g, "e", &["b"]));
        assert_eq!(j, Justification::NoRules);
    }

    #[test]
    fn undefined_atoms_reported() {
        let (g, _, d, m) = setup("p :- not q.\nq :- not p.", "");
        let j = justify(&g, &d, &m, id(&g, "p", &[]));
        assert_eq!(j, Justification::Undefined);
    }

    #[test]
    fn unsupported_values_detected() {
        let (g, _, d, _) = setup("p :- e.", "");
        // Force a bogus model: p true with no support.
        let p = parse_program("p :- e.").unwrap();
        let mut m = PartialModel::initial(&p, &d, g.atoms());
        m.set(id(&g, "p", &[]), TruthValue::True);
        m.set(id(&g, "e", &[]), TruthValue::False);
        let j = justify(&g, &d, &m, id(&g, "p", &[]));
        assert_eq!(j, Justification::Unsupported);
    }
}
