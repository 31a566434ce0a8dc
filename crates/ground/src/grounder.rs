//! Rule instantiation: building *G(Π, Δ)*, literally or relevantly.
//!
//! The paper's construction instantiates **every** rule with **every**
//! k-tuple of universe constants (Section 2); the semantics of `close`,
//! unfounded sets, and ties quantify over all instantiations. [`ground`]
//! realizes that object in either [`GroundMode`]:
//!
//! * [`GroundMode::Full`] — the paper-literal enumerator: |U|^arity atoms
//!   per predicate and |U|^k rule instances per rule with k variables.
//!   This is the executable specification the test oracles run on;
//!   everything else is measured against it.
//! * [`GroundMode::Relevant`] — the join-based relevant grounder
//!   (see [`crate::relevant`]): only rule instances whose positive body
//!   is *supportable* are emitted. It is the only grounding the session
//!   ([`crate::SessionGrounder`]) builds.
//!
//! Both modes build the same interned atom table ([`AtomTable`]). `Full`
//! interns every atom up front, predicate by predicate in
//! [`Program::predicates`] order and each predicate's tuples in
//! mixed-radix order over the text-sorted universe, so atom
//! `offset(pred) + code(args)` has a closed-form id and rule instances
//! resolve their atoms by arithmetic.
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
//! graph), which is why the paper-literal oracles ground `Full`.
//!
//! Budgets: [`GroundConfig`] bounds the atom space and the rule-instance
//! space so runaway cases become typed errors instead of OOM. Atom ids
//! are `u32`, so `max_atoms` is clamped to `u32::MAX`
//! ([`crate::atoms::MAX_ATOM_SPACE`]) rather than letting ids silently
//! alias. `Full` checks both budgets against its exact |U|^arity and
//! |U|^k counts before building anything; `Relevant` checks the
//! instances actually emitted and aborts at the first instance past the
//! budget, reporting the count reached.

use std::fmt;

use datalog_ast::{ConstSym, Database, FxHashMap, PredSym, Program, Sign, Term, ValidationError};

use crate::atoms::{AtomId, AtomInterner, AtomTable, MAX_ATOM_SPACE};
use crate::graph::{GroundGraph, RuleSlab};

/// How [`ground`] realizes *G(Π, Δ)*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GroundMode {
    /// The paper-literal enumerator: every atom over U, |U|^k instances
    /// per rule. The reference mode the test oracles ground in
    /// (default).
    #[default]
    Full,
    /// The join-based relevant grounder: only supportable instances.
    /// Identical post-`close` residual graph and semantics (see the
    /// module docs); the pre-close graph is smaller.
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

/// Budgets for grounding.
#[derive(Clone, Copy, Debug)]
pub struct GroundConfig {
    /// Maximum number of ground atoms (|V_P|). Clamped to
    /// [`crate::atoms::MAX_ATOM_SPACE`] (atom ids are `u32`).
    pub max_atoms: u64,
    /// Maximum number of rule nodes (|V_R|).
    pub max_rule_instances: u64,
}

impl Default for GroundConfig {
    fn default() -> Self {
        GroundConfig {
            max_atoms: 4_000_000,
            max_rule_instances: 4_000_000,
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
        /// How many instances the program needs. Exact in `Full` mode;
        /// in `Relevant` mode, where instances are counted as they are
        /// emitted, the count reached when grounding aborted — a lower
        /// bound on the true requirement.
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
    /// First id of the predicate's atoms.
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

/// Grounds `program` against `database` in `mode`.
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
    mode: GroundMode,
    config: &GroundConfig,
) -> Result<GroundGraph, GroundError> {
    let mut span = tiebreak_trace::span("ground", "ground", &[]);
    database.validate_against(program)?;
    let graph = match mode {
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

/// `|U|^k` in `u128`, saturating: even absurd arities report a real
/// count instead of wrapping.
fn tuple_count(u: usize, k: usize) -> u128 {
    u32::try_from(k)
        .ok()
        .and_then(|k| (u as u128).checked_pow(k))
        .unwrap_or(u128::MAX)
}

/// Interns every atom over the universe: each program predicate's
/// |U|^arity tuples in mixed-radix order (the most significant argument
/// first), predicate after predicate in [`Program::predicates`] order.
/// Returns the table and each predicate's first id. The caller has
/// checked the exact count against `max_atoms`.
fn intern_full_atoms(
    program: &Program,
    universe: Vec<ConstSym>,
    max_atoms: u64,
) -> (AtomTable, FxHashMap<PredSym, u32>) {
    let u = universe.len();
    let mut interner = AtomInterner::new(universe.clone(), max_atoms);
    let mut offsets = FxHashMap::default();
    let mut args: Vec<ConstSym> = Vec::new();
    let mut digits: Vec<usize> = Vec::new();
    for &pred in program.predicates() {
        let offset = interner.len() as u32;
        offsets.insert(pred, offset);
        let k = program
            .arity(pred)
            .expect("program predicates have an arity");
        if k > 0 && u == 0 {
            continue;
        }
        digits.clear();
        digits.resize(k, 0);
        loop {
            args.clear();
            args.extend(digits.iter().map(|&d| universe[d]));
            let id = interner
                .intern_tuple(pred, &args)
                .expect("within the checked atom budget");
            debug_assert_eq!(
                u64::from(id.0 - offset),
                digits.iter().fold(0, |code, &d| code * u as u64 + d as u64),
                "{pred}: id is offset + mixed-radix code"
            );
            // Advance the mixed-radix counter; stop after wrapping.
            let Some(pos) = digits.iter().rposition(|&d| d + 1 < u) else {
                break;
            };
            digits[pos] += 1;
            digits[pos + 1..].fill(0);
        }
    }
    (interner.finish(), offsets)
}

fn ground_full(
    program: &Program,
    database: &Database,
    config: &GroundConfig,
) -> Result<GroundGraph, GroundError> {
    let universe = Database::universe(program, database);
    let u = universe.len() as u64;

    // The exact atom and instance counts, in u128 so even extreme
    // arities and variable counts report a real number instead of a
    // sentinel; both budgets are checked before anything is built.
    let max_atoms = config.max_atoms.min(MAX_ATOM_SPACE);
    let atom_count = program.predicates().iter().fold(0u128, |sum, &pred| {
        let arity = program
            .arity(pred)
            .expect("program predicates have an arity");
        sum.saturating_add(tuple_count(universe.len(), arity))
    });
    if atom_count > u128::from(max_atoms) {
        return Err(GroundError::TooManyAtoms {
            required: u64::try_from(atom_count).unwrap_or(u64::MAX),
            budget: config.max_atoms,
        });
    }
    let instances = program.rules().iter().fold(0u128, |sum, rule| {
        sum.saturating_add(tuple_count(universe.len(), rule.variables().len()))
    });
    let budget = config.max_rule_instances;
    if instances > u128::from(budget) {
        return Err(GroundError::TooManyRuleInstances {
            required: u64::try_from(instances).unwrap_or(u64::MAX),
            budget,
        });
    }
    let (atoms, offsets) = intern_full_atoms(program, universe, max_atoms);

    let mut rules = RuleSlab::default();
    let mut subst: Vec<ConstSym> = Vec::new();
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
            AtomTemplate {
                offset: offsets[&atom.pred],
                slots,
            }
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
            for (t, s) in &body_t {
                rules.push_literal(t.resolve(u, &assignment), *s);
            }
            subst.clear();
            subst.extend(assignment.iter().map(|&i| atoms.universe()[i as usize]));
            rules.end_rule(head, rule_index as u32, &subst);

            // Advance the counter; stop after wrapping.
            let Some(pos) = assignment.iter().rposition(|&i| u64::from(i) + 1 < u) else {
                break;
            };
            assignment[pos] += 1;
            assignment[pos + 1..].fill(0);
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
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        // |U| = 3, rule has 2 variables ⇒ 9 rule nodes; 12 atoms.
        assert_eq!(g.rule_count(), 9);
        assert_eq!(g.atom_count(), 12);
        // Edges: 9 head edges + 9 × 2 body edges.
        assert_eq!(g.edge_count(), 27);
    }

    #[test]
    fn instantiation_is_correct() {
        let (p, d) = win_move();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let atoms = g.atoms();
        // Find the instance X=a, Y=b.
        let head = atoms.id_of(&GroundAtom::from_texts("win", &["a"])).unwrap();
        let found = g.rules().any(|r| {
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
        let g = ground(
            &p,
            &Database::new(),
            GroundMode::Full,
            &GroundConfig::default(),
        )
        .unwrap();
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.atom_count(), 2);
        assert!(g.rules().all(|r| r.subst.is_empty()));
    }

    #[test]
    fn empty_universe_with_variables_grounds_to_nothing() {
        let p = parse_program("p(X) :- not q(X).").unwrap();
        let g = ground(
            &p,
            &Database::new(),
            GroundMode::Full,
            &GroundConfig::default(),
        )
        .unwrap();
        assert_eq!(g.rule_count(), 0);
        assert_eq!(g.atom_count(), 0);
    }

    #[test]
    fn budget_errors() {
        let (p, d) = win_move();
        let err = ground(
            &p,
            &d,
            GroundMode::Full,
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
            GroundMode::Full,
            &GroundConfig {
                max_atoms: 1000,
                max_rule_instances: 4,
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            GroundError::TooManyRuleInstances { required: 9, .. }
        ));
    }

    #[test]
    fn database_arity_conflict_rejected() {
        let p = parse_program("p(X) :- e(X).").unwrap();
        let d = parse_database("e(a, b).").unwrap();
        assert!(matches!(
            ground(&p, &d, GroundMode::Full, &GroundConfig::default()),
            Err(GroundError::Validation(_))
        ));
    }

    #[test]
    fn describe_rule_mentions_substitution() {
        let (p, d) = win_move();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let desc = g.describe_rule(&p, crate::graph::RuleId(0));
        assert!(desc.starts_with("r0["), "{desc}");
        assert!(desc.contains(":-"), "{desc}");
    }

    #[test]
    fn full_ids_follow_the_mixed_radix_formula() {
        // Nullary, unary and binary predicates over U = {a, b, c}: each
        // predicate's atoms start at its offset (the atoms of the
        // predicates listed before it), and a tuple sits at its
        // mixed-radix code in base |U|, most significant argument first.
        let p = parse_program(
            "r(X, Y) :- e(X), e(Y), not s.\ns :- not t.\nt :- not s.\nq(X) :- e(X), not q(X).",
        )
        .unwrap();
        let d = parse_database("e(c).\ne(a).\ne(b).").unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let atoms = g.atoms();
        let u = atoms.universe();
        assert_eq!(u.len(), 3);
        let mut offset = 0u32;
        for &pred in p.predicates() {
            let arity = p.arity(pred).unwrap();
            let size = 3u32.pow(arity as u32);
            for code in 0..size {
                let args: Vec<ConstSym> = (0..arity)
                    .map(|i| u[(code / 3u32.pow((arity - 1 - i) as u32) % 3) as usize])
                    .collect();
                let id = AtomId(offset + code);
                assert_eq!(
                    atoms.decode(id),
                    GroundAtom {
                        pred,
                        args: args.into()
                    }
                );
                assert_eq!(atoms.atom_id(pred, &atoms.decode(id).args), Some(id));
            }
            assert_eq!(atoms.ids_of_pred(pred).count(), size as usize);
            offset += size;
        }
        // e/1, r/2, s/0, t/0, q/1.
        assert_eq!(atoms.len(), offset as usize);
        assert_eq!(atoms.len(), 3 + 9 + 1 + 1 + 3);
    }
}
