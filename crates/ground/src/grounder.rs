//! Rule instantiation: building *G(Π, Δ)*, literally or relevantly.
//!
//! The paper's construction instantiates **every** rule with **every**
//! k-tuple of universe constants (Section 2); the semantics of `close`,
//! unfounded sets, and ties quantify over all instantiations. This module
//! offers two ways to realize that object:
//!
//! * [`GroundMode::Full`] — the paper-literal enumerator: a dense
//!   [`AtomTable`] of |U|^arity atoms per predicate and |U|^k rule
//!   instances per rule with k variables. This is the executable
//!   specification; everything else is measured against it.
//! * [`GroundMode::Relevant`] — the join-based relevant grounder
//!   (see [`crate::relevant`]): only rule instances whose positive body
//!   is *supportable* are emitted, into a sparse interned atom table.
//!
//! **Why Relevant does not change the object under study.** `close(M₀, G)`
//! deletes every rule instance with a positive body atom that the
//! EDB-false/unsupported cascade falsifies (operations 2 and 4), and
//! assigns **false** to every atom that cascade removes. The relevant
//! grounder computes exactly the atoms that *survive* that cascade — the
//! greatest set S with S = Δ ∪ {heads of instances whose positive body
//! lies in S} — and emits exactly the instances whose positive body lies
//! in S. Everything it omits is therefore deleted by the very first
//! `close(M₀, G)` round, with the omitted atoms decided false; since
//! `close` is confluent, the **post-close residual graph is identical in
//! both modes**, the models agree on every shared atom, and every dropped
//! atom is false. All downstream semantics (well-founded, pure and WF
//! tie-breaking, fixpoint/stable enumeration) operate on the post-close
//! residual, so their outcomes coincide — the workspace differential
//! property suites check this on the paper programs and on random
//! instances. The one observable difference is the *pre-close* graph
//! (e.g. the strict local-stratification check sees the restricted
//! graph), which is also why `Full` remains the default.
//!
//! Budgets: [`GroundConfig`] bounds the atom space and the rule-instance
//! space so runaway cases become typed errors instead of OOM. Atom ids
//! are `u32`, so `max_atoms` is clamped to `u32::MAX`
//! ([`crate::atoms::MAX_ATOM_SPACE`]) rather than letting ids silently
//! alias. With `prune_decided` (or in `Relevant` mode) the instance
//! budget is checked against the instances actually emitted — not the
//! unpruned |U|^k bound — and overflow aborts at the first instance past
//! the budget, reporting the count reached.

use std::fmt;

use datalog_ast::{ConstSym, Database, Program, Sign, Term, ValidationError};

use crate::atoms::{AtomId, AtomTable};
use crate::graph::{GroundGraph, GroundRule};

/// How `ground` realizes *G(Π, Δ)*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GroundMode {
    /// The paper-literal enumerator: dense atom table, |U|^k instances
    /// per rule. The reference mode (default).
    #[default]
    Full,
    /// The join-based relevant grounder: sparse interned atom table, only
    /// supportable instances. Identical post-`close` residual graph and
    /// semantics (see the module docs); the pre-close graph is smaller.
    Relevant,
}

impl fmt::Display for GroundMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GroundMode::Full => "full",
            GroundMode::Relevant => "relevant",
        })
    }
}

/// Budgets and mode for grounding.
#[derive(Clone, Copy, Debug)]
pub struct GroundConfig {
    /// Maximum number of ground atoms (|V_P|). Clamped to
    /// [`crate::atoms::MAX_ATOM_SPACE`] (atom ids are `u32`).
    pub max_atoms: u64,
    /// Maximum number of rule nodes (|V_R|).
    pub max_rule_instances: u64,
    /// Skip rule instances containing a body literal that M₀(Δ) already
    /// decides **false** (an EDB literal violated by Δ, or a negative
    /// literal on an IDB fact of Δ).
    ///
    /// Sound for every interpreter and checker in this workspace: such
    /// rule nodes are deleted by the very first `close(M₀, G)` round
    /// before anything inspects the graph, so the post-close residual
    /// graph — the object all semantics operate on — is identical.
    /// Off by default because the *pre-close* graph is then no longer the
    /// paper's literal G(Π, Δ) (e.g. the strict local-stratification
    /// check would see the pruned graph). See the grounding ablation
    /// bench.
    ///
    /// With pruning on, the instance budget applies to the instances that
    /// *survive* pruning (counted by streaming the enumeration), so a
    /// program whose pruned graph fits is accepted even when the unpruned
    /// |U|^k bound does not. A successful pruned grounding still walks
    /// the full |U|^k space; an over-budget one aborts at the first
    /// surviving instance past the budget.
    pub prune_decided: bool,
    /// Full (paper-literal) or relevant (join-based) grounding.
    pub mode: GroundMode,
}

impl Default for GroundConfig {
    fn default() -> Self {
        GroundConfig {
            max_atoms: 4_000_000,
            max_rule_instances: 4_000_000,
            prune_decided: false,
            mode: GroundMode::Full,
        }
    }
}

/// Errors raised while grounding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroundError {
    /// The atom space |V_P| exceeds the configured budget.
    TooManyAtoms {
        /// How many ground atoms the instance needs. Exact in `Full`
        /// mode; in `Relevant` mode a lower bound (the count reached when
        /// grounding aborted).
        required: u64,
        /// The configured cap.
        budget: u64,
    },
    /// The rule-instance space |V_R| exceeds the configured budget.
    TooManyRuleInstances {
        /// How many instances the program needs. Exact when the overflow
        /// is detected arithmetically (`Full` mode without pruning);
        /// when instances are counted by streaming (`prune_decided`, or
        /// `Relevant` mode) the count reached when grounding aborted — a
        /// lower bound on the true requirement.
        required: u64,
        /// The configured cap.
        budget: u64,
    },
    /// `Relevant` mode's support-counting pass would have to hold more
    /// candidate rule instances than its cap, `max_rule_instances +
    /// max_atoms` (at most `u32::MAX`). Candidates that later turn out
    /// unsupported count too, so this can fire where the emitted
    /// instances alone would fit `max_rule_instances`.
    TooManyCandidateInstances {
        /// The count reached when grounding aborted.
        required: u64,
        /// The cap applied.
        budget: u64,
    },
    /// The database conflicts with the program signature.
    Validation(ValidationError),
}

impl fmt::Display for GroundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundError::TooManyAtoms { required, budget } => write!(
                f,
                "grounding needs {required} ground atoms, over budget {budget}"
            ),
            GroundError::TooManyRuleInstances { required, budget } => write!(
                f,
                "grounding needs {required} rule instances, over budget {budget}"
            ),
            GroundError::TooManyCandidateInstances { required, budget } => write!(
                f,
                "relevant grounding needs {required} candidate rule instances, over budget \
                 {budget}"
            ),
            GroundError::Validation(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for GroundError {}

impl From<ValidationError> for GroundError {
    fn from(e: ValidationError) -> Self {
        GroundError::Validation(e)
    }
}

/// A compiled atom template: resolves to an [`AtomId`] once a substitution
/// is fixed. `slots[i]` is either a constant's universe index or a
/// variable's position in the rule's variable list.
enum Slot {
    Const(u32),
    Var(usize),
}

struct AtomTemplate {
    /// Block offset of the predicate.
    offset: u32,
    slots: Vec<Slot>,
}

impl AtomTemplate {
    fn resolve(&self, u: u64, assignment: &[u32]) -> AtomId {
        let mut code: u64 = 0;
        for slot in &self.slots {
            let idx = match slot {
                Slot::Const(i) => *i,
                Slot::Var(p) => assignment[*p],
            };
            // code < |U|^arity ≤ u32::MAX (the table was built within a
            // u32 budget), so this cannot overflow u64.
            code = code * u + u64::from(idx);
        }
        let id = u64::from(self.offset) + code;
        AtomId(u32::try_from(id).expect("atom id fits u32: table built within a u32 budget"))
    }
}

/// Grounds `program` against `database` in the configured
/// [`GroundMode`].
///
/// # Errors
///
/// * [`GroundError::Validation`] if the database uses a program predicate
///   at the wrong arity;
/// * [`GroundError::TooManyAtoms`] / [`GroundError::TooManyRuleInstances`]
///   when the configured budgets are exceeded, and (`Relevant` mode)
///   [`GroundError::TooManyCandidateInstances`] when the supportable-set
///   computation would exceed their sum.
pub fn ground(
    program: &Program,
    database: &Database,
    config: &GroundConfig,
) -> Result<GroundGraph, GroundError> {
    let mut span = tiebreak_trace::span("ground", "ground", &[]);
    database.validate_against(program)?;
    let graph = match config.mode {
        GroundMode::Full => ground_full(program, database, config),
        GroundMode::Relevant => crate::relevant::ground_relevant(program, database, config),
    }?;
    span.arg("atoms", graph.atom_count() as u64);
    span.arg("instances", graph.rule_count() as u64);
    let m = tiebreak_trace::metrics();
    m.ground_runs.inc();
    m.ground_atoms.add(graph.atom_count() as u64);
    m.ground_instances.add(graph.rule_count() as u64);
    Ok(graph)
}

fn ground_full(
    program: &Program,
    database: &Database,
    config: &GroundConfig,
) -> Result<GroundGraph, GroundError> {
    let atoms = AtomTable::build(program, database, config.max_atoms).map_err(|overflow| {
        GroundError::TooManyAtoms {
            required: overflow.required,
            budget: config.max_atoms,
        }
    })?;
    let u = atoms.universe().len() as u64;

    // The unpruned instance count, exact via u128 so even extreme
    // variable counts report a real number instead of a sentinel.
    let mut unpruned: u128 = 0;
    for rule in program.rules() {
        let k = rule.variables().len() as u32;
        let instances = if k == 0 {
            1
        } else {
            u128::from(u).checked_pow(k).unwrap_or(u128::MAX)
        };
        unpruned = unpruned.saturating_add(instances);
    }
    let unpruned_u64 = u64::try_from(unpruned).unwrap_or(u64::MAX);
    let budget = config.max_rule_instances;
    if unpruned_u64 > budget {
        // Without pruning the unpruned count is the real count: reject
        // before allocating anything. With pruning we stream the
        // enumeration and count survivors instead — but only when the
        // unpruned space is walkable at all.
        if !config.prune_decided || unpruned > u128::from(u64::MAX) {
            return Err(GroundError::TooManyRuleInstances {
                required: unpruned_u64,
                budget,
            });
        }
    }

    // For `prune_decided`: the atoms M₀(Δ) decides. `decided_true` marks
    // Δ facts (EDB or IDB); `edb_mask` marks EDB atoms.
    let (decided_true, edb_mask) = if config.prune_decided {
        let mut in_delta = vec![false; atoms.len()];
        for fact in database.facts() {
            if let Some(id) = atoms.id_of(&fact) {
                in_delta[id.index()] = true;
            }
        }
        let mut edb = vec![false; atoms.len()];
        for &pred in program.predicates() {
            if !program.is_idb(pred) {
                for id in atoms.ids_of_pred(pred) {
                    edb[id.index()] = true;
                }
            }
        }
        (in_delta, edb)
    } else {
        (Vec::new(), Vec::new())
    };
    // A literal is decided false by M₀ iff:
    //   positive on an EDB atom outside Δ, or
    //   negative on any atom in Δ (EDB or IDB).
    let literal_false_in_m0 = |atom: AtomId, sign: Sign| -> bool {
        match sign {
            Sign::Pos => edb_mask[atom.index()] && !decided_true[atom.index()],
            Sign::Neg => decided_true[atom.index()],
        }
    };

    let mut rules: Vec<GroundRule> = if unpruned_u64 <= budget {
        Vec::with_capacity(unpruned_u64 as usize)
    } else {
        Vec::new() // pruned streaming: grow as survivors appear
    };
    // Instances that survive pruning (equals the unpruned count when
    // pruning is off).
    let mut emitted: u64 = 0;

    for (rule_index, rule) in program.rules().iter().enumerate() {
        let vars = rule.variables();
        let k = vars.len();

        // A rule with variables but an empty universe has no instances.
        if k > 0 && u == 0 {
            continue;
        }

        // Compile templates. Constants are guaranteed to be in the
        // universe (it includes all program constants).
        let var_pos = |v| vars.iter().position(|&w| w == v).expect("var in list");
        let compile = |atom: &datalog_ast::Atom| -> AtomTemplate {
            let offset = atoms.ids_of_pred(atom.pred).next().map_or(0, |id| id.0); // first id of block
                                                                                   // NOTE: offset computed via first id; for empty blocks (u == 0
                                                                                   // with positive arity) the rule is skipped above.
            let slots = atom
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Slot::Const(
                        atoms
                            .const_index(*c)
                            .expect("program constant must be in the universe"),
                    ),
                    Term::Var(v) => Slot::Var(var_pos(*v)),
                })
                .collect();
            AtomTemplate { offset, slots }
        };

        let head_t = compile(&rule.head);
        let body_t: Vec<(AtomTemplate, Sign)> = rule
            .body
            .iter()
            .map(|lit| (compile(&lit.atom), lit.sign))
            .collect();

        // Enumerate all k-tuples (mixed-radix counter over |U|).
        let mut assignment: Vec<u32> = vec![0; k];
        loop {
            let head = head_t.resolve(u, &assignment);
            let body: Box<[(AtomId, Sign)]> = body_t
                .iter()
                .map(|(t, s)| (t.resolve(u, &assignment), *s))
                .collect();
            let pruned =
                config.prune_decided && body.iter().any(|&(a, s)| literal_false_in_m0(a, s));
            if !pruned {
                emitted += 1;
                if emitted > budget {
                    // Abort rather than walking the rest of the |U|^k
                    // space; the error reports the pruned count reached
                    // (a lower bound on the true requirement).
                    return Err(GroundError::TooManyRuleInstances {
                        required: emitted,
                        budget,
                    });
                }
                let subst: Box<[ConstSym]> = assignment
                    .iter()
                    .map(|&i| atoms.universe()[i as usize])
                    .collect();
                rules.push(GroundRule {
                    head,
                    body,
                    rule_index: rule_index as u32,
                    subst,
                });
            }

            // Advance the counter; stop after wrapping.
            let mut pos = k;
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                assignment[pos] += 1;
                if u64::from(assignment[pos]) < u {
                    break;
                }
                assignment[pos] = 0;
                if pos == 0 {
                    pos = usize::MAX; // signal wrap
                    break;
                }
            }
            if k == 0 || pos == usize::MAX {
                break;
            }
        }
    }

    Ok(GroundGraph::from_parts(atoms, rules))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program, GroundAtom};

    fn win_move() -> (Program, Database) {
        (
            parse_program("win(X) :- move(X, Y), not win(Y).").unwrap(),
            parse_database("move(a, b).\nmove(b, c).").unwrap(),
        )
    }

    #[test]
    fn instance_counts() {
        let (p, d) = win_move();
        let g = ground(&p, &d, &GroundConfig::default()).unwrap();
        // |U| = 3, rule has 2 variables ⇒ 9 rule nodes; 12 atoms.
        assert_eq!(g.rule_count(), 9);
        assert_eq!(g.atom_count(), 12);
        // Edges: 9 head edges + 9 × 2 body edges.
        assert_eq!(g.edge_count(), 27);
    }

    #[test]
    fn instantiation_is_correct() {
        let (p, d) = win_move();
        let g = ground(&p, &d, &GroundConfig::default()).unwrap();
        let atoms = g.atoms();
        // Find the instance X=a, Y=b.
        let head = atoms.id_of(&GroundAtom::from_texts("win", &["a"])).unwrap();
        let found = g.rules().iter().any(|r| {
            r.head == head
                && r.subst.len() == 2
                && r.subst[0].as_str() == "a"
                && r.subst[1].as_str() == "b"
                && r.body.len() == 2
                && r.body[0]
                    == (
                        atoms
                            .id_of(&GroundAtom::from_texts("move", &["a", "b"]))
                            .unwrap(),
                        Sign::Pos,
                    )
                && r.body[1]
                    == (
                        atoms.id_of(&GroundAtom::from_texts("win", &["b"])).unwrap(),
                        Sign::Neg,
                    )
        });
        assert!(found, "expected instance win(a) :- move(a,b), not win(b)");
    }

    #[test]
    fn propositional_rules_have_one_instance() {
        let p = parse_program("p :- p, not q.\nq :- q, not p.").unwrap();
        let g = ground(&p, &Database::new(), &GroundConfig::default()).unwrap();
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.atom_count(), 2);
        assert!(g.rules().iter().all(|r| r.subst.is_empty()));
    }

    #[test]
    fn empty_universe_with_variables_grounds_to_nothing() {
        let p = parse_program("p(X) :- not q(X).").unwrap();
        let g = ground(&p, &Database::new(), &GroundConfig::default()).unwrap();
        assert_eq!(g.rule_count(), 0);
        assert_eq!(g.atom_count(), 0);
    }

    #[test]
    fn budget_errors() {
        let (p, d) = win_move();
        let err = ground(
            &p,
            &d,
            &GroundConfig {
                max_atoms: 4,
                ..GroundConfig::default()
            },
        )
        .unwrap_err();
        // 3 win + 9 move atoms needed; the error says so.
        assert!(
            matches!(
                err,
                GroundError::TooManyAtoms {
                    required: 12,
                    budget: 4
                }
            ),
            "{err:?}"
        );

        let err = ground(
            &p,
            &d,
            &GroundConfig {
                max_atoms: 1000,
                max_rule_instances: 4,
                ..GroundConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            GroundError::TooManyRuleInstances { required: 9, .. }
        ));
    }

    #[test]
    fn pruned_budget_counts_surviving_instances() {
        // Unpruned: 9 instances (over a budget of 4); pruned: 2 — the
        // pruned graph must be accepted.
        let (p, d) = win_move();
        let g = ground(
            &p,
            &d,
            &GroundConfig {
                max_rule_instances: 4,
                prune_decided: true,
                ..GroundConfig::default()
            },
        )
        .unwrap();
        assert_eq!(g.rule_count(), 2);

        // And when even the pruned count overflows, the error reports
        // the pruned count reached, not the |U|^k bound.
        let err = ground(
            &p,
            &d,
            &GroundConfig {
                max_rule_instances: 1,
                prune_decided: true,
                ..GroundConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                GroundError::TooManyRuleInstances {
                    required: 2,
                    budget: 1
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn database_arity_conflict_rejected() {
        let p = parse_program("p(X) :- e(X).").unwrap();
        let d = parse_database("e(a, b).").unwrap();
        assert!(matches!(
            ground(&p, &d, &GroundConfig::default()),
            Err(GroundError::Validation(_))
        ));
    }

    #[test]
    fn describe_rule_mentions_substitution() {
        let (p, d) = win_move();
        let g = ground(&p, &d, &GroundConfig::default()).unwrap();
        let desc = g.describe_rule(&p, crate::graph::RuleId(0));
        assert!(desc.starts_with("r0["), "{desc}");
        assert!(desc.contains(":-"), "{desc}");
    }

    #[test]
    fn prune_decided_drops_only_m0_dead_instances() {
        let (p, d) = win_move();
        let full = ground(&p, &d, &GroundConfig::default()).unwrap();
        let pruned = ground(
            &p,
            &d,
            &GroundConfig {
                prune_decided: true,
                ..GroundConfig::default()
            },
        )
        .unwrap();
        // |U| = 3, 2 move facts: only 2 of the 9 instances have a true
        // move literal.
        assert_eq!(full.rule_count(), 9);
        assert_eq!(pruned.rule_count(), 2);
        // Atom space unchanged.
        assert_eq!(full.atom_count(), pruned.atom_count());
        // Every surviving instance is M0-alive: its move literal is a
        // fact of Δ.
        for rule in pruned.rules() {
            let (move_atom, _) = rule.body[0];
            let ga = pruned.atoms().decode(move_atom);
            assert!(d.contains(&ga), "pruned graph kept a dead instance");
        }
    }

    #[test]
    fn prune_decided_handles_negative_idb_delta_facts() {
        // q(a) ∈ Δ decides ¬q(a) false: that instance is pruned.
        let p = parse_program("p(X) :- e(X), not q(X).\nq(X) :- f(X).").unwrap();
        let d = parse_database("e(a).\ne(b).\nq(a).").unwrap();
        let full = ground(&p, &d, &GroundConfig::default()).unwrap();
        let pruned = ground(
            &p,
            &d,
            &GroundConfig {
                prune_decided: true,
                ..GroundConfig::default()
            },
        )
        .unwrap();
        assert!(pruned.rule_count() < full.rule_count());
        // The p(a) instance (¬q(a) false) must be gone...
        let pa = pruned
            .atoms()
            .id_of(&GroundAtom::from_texts("p", &["a"]))
            .unwrap();
        assert!(pruned.heads_of(pa).is_empty());
        // ...while the p(b) instance survives (q(b) is IDB-undecided).
        let pb = pruned
            .atoms()
            .id_of(&GroundAtom::from_texts("p", &["b"]))
            .unwrap();
        assert_eq!(pruned.heads_of(pb).len(), 1);
    }
}
