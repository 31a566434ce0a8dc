//! Grounding cost estimation from EDB cardinalities and join structure.
//!
//! The estimate answers, before grounding: *how many ground atoms and
//! rule instances will `ground` build, and does that fit the budget?*
//!
//! Full mode instantiates every rule over the whole universe, so its
//! counts are **exact**: `|U|^arity` atoms per predicate and `|U|^k`
//! instances per rule with `k` distinct variables — the same closed
//! forms the grounder itself checks. Relevant mode grounds only
//! supportable instances; its counts are a sound **upper bound** from a
//! monotone per-predicate size fixpoint (each positive body literal
//! contributes at most the current size of its predicate, each variable
//! outside the positive body ranges over the universe, everything
//! capped at `|U|^arity`).

use datalog_ast::{Database, FxHashMap, FxHashSet, PredSym, Program, Rule, Sign, VarSym};
use datalog_ground::{GroundConfig, GroundMode};

/// The cost estimate for grounding one program/database pair.
#[derive(Clone, Debug)]
pub struct CostEstimate {
    /// Which grounding mode was estimated.
    pub mode: GroundMode,
    /// `true` iff the counts are exact (full mode), not upper bounds.
    pub exact: bool,
    /// Universe size |U| (constants of program and database).
    pub universe: usize,
    /// Ground atoms: total count (exact) or upper bound (relevant).
    pub atoms: u128,
    /// Rule instances: total count or upper bound.
    pub instances: u128,
    /// Per-rule instance counts/bounds, aligned with `Program::rules`.
    pub per_rule: Vec<u128>,
    /// The atom budget the estimate was checked against.
    pub max_atoms: u64,
    /// The rule-instance budget.
    pub max_rule_instances: u64,
}

impl CostEstimate {
    /// `true` iff the estimate exceeds either budget. With `exact` set
    /// this means grounding *will* fail; otherwise it *may*.
    pub fn over_budget(&self) -> bool {
        self.atoms > u128::from(self.max_atoms)
            || self.instances > u128::from(self.max_rule_instances)
    }
}

fn pow(base: usize, exp: usize) -> u128 {
    u32::try_from(exp)
        .ok()
        .and_then(|e| (base as u128).checked_pow(e))
        .unwrap_or(u128::MAX)
}

/// Estimates the cost of a `mode` grounding of `program` over
/// `database` against `config`'s budgets.
pub fn estimate(
    program: &Program,
    database: &Database,
    mode: GroundMode,
    config: &GroundConfig,
) -> CostEstimate {
    let universe = Database::universe(program, database).len();
    let (atoms, per_rule, exact) = match mode {
        GroundMode::Full => full_counts(program, universe),
        GroundMode::Relevant => relevant_bounds(program, database, universe),
    };
    let instances = per_rule.iter().fold(0u128, |acc, &b| acc.saturating_add(b));
    CostEstimate {
        mode,
        exact,
        universe,
        atoms,
        instances,
        per_rule,
        max_atoms: config.max_atoms,
        max_rule_instances: config.max_rule_instances,
    }
}

/// Full mode: the grounder's own closed forms.
fn full_counts(program: &Program, universe: usize) -> (u128, Vec<u128>, bool) {
    let atoms = program
        .predicates()
        .iter()
        .map(|&p| pow(universe, program.arity(p).expect("known predicate")))
        .fold(0u128, u128::saturating_add);
    let per_rule = program
        .rules()
        .iter()
        .map(|r| pow(universe, r.variables().len()))
        .collect();
    (atoms, per_rule, true)
}

/// Relevant mode: monotone size fixpoint, round-limited; if the limit is
/// hit before convergence every IDB size saturates to its cap, so the
/// result is an upper bound either way.
fn relevant_bounds(
    program: &Program,
    database: &Database,
    universe: usize,
) -> (u128, Vec<u128>, bool) {
    let base_size = |p: PredSym| -> u128 { database.relation(p).map_or(0, |r| r.len() as u128) };
    let cap: FxHashMap<PredSym, u128> = program
        .predicates()
        .iter()
        .map(|&p| (p, pow(universe, program.arity(p).expect("known predicate"))))
        .collect();
    let mut size: FxHashMap<PredSym, u128> = program
        .predicates()
        .iter()
        .map(|&p| (p, base_size(p).min(cap[&p])))
        .collect();

    let rounds = program.predicates().len() + 2;
    let mut converged = false;
    for _ in 0..rounds {
        let mut next: FxHashMap<PredSym, u128> = program
            .predicates()
            .iter()
            .map(|&p| (p, base_size(p)))
            .collect();
        for rule in program.rules() {
            let b = rule_bound(rule, &size, universe);
            let slot = next.get_mut(&rule.head.pred).expect("known predicate");
            *slot = slot.saturating_add(b);
        }
        let mut changed = false;
        for (&p, &capacity) in &cap {
            let v = next[&p].min(capacity);
            if v != size[&p] {
                size.insert(p, v);
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    if !converged {
        // Still growing at the round limit: saturate so the bound stays
        // sound without chasing slow multiplicative convergence.
        for &p in program.predicates() {
            if program.is_idb(p) {
                size.insert(p, cap[&p]);
            }
        }
    }

    let per_rule: Vec<u128> = program
        .rules()
        .iter()
        .map(|r| rule_bound(r, &size, universe))
        .collect();
    let atoms = program
        .predicates()
        .iter()
        .map(|&p| size[&p])
        .fold(0u128, u128::saturating_add);
    (atoms, per_rule, false)
}

/// Upper bound on the supportable instances of one rule: the product of
/// the positive body predicates' sizes (a join never exceeds the product
/// of its inputs) times |U| per variable not bound by the positive body,
/// all capped at the dense `|U|^k` count.
fn rule_bound(rule: &Rule, size: &FxHashMap<PredSym, u128>, universe: usize) -> u128 {
    let positive_vars: FxHashSet<VarSym> = rule
        .body_with_sign(Sign::Pos)
        .flat_map(|l| l.atom.variables())
        .collect();
    let total_vars = rule.variables();
    let unbound = total_vars
        .iter()
        .filter(|v| !positive_vars.contains(v))
        .count();
    let mut bound = pow(universe, unbound);
    for lit in rule.body_with_sign(Sign::Pos) {
        bound = bound.saturating_mul(*size.get(&lit.atom.pred).unwrap_or(&0));
    }
    bound.min(pow(universe, total_vars.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program};

    fn estimate(program: &Program, database: &Database, mode: GroundMode) -> CostEstimate {
        super::estimate(program, database, mode, &GroundConfig::default())
    }

    #[test]
    fn full_counts_match_the_dense_closed_forms() {
        // U = {a, b, c}; win/1, move/2: atoms = 3 + 9; rule has 2 vars.
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let d = parse_database("move(a, b).\nmove(b, c).").unwrap();
        let e = estimate(&p, &d, GroundMode::Full);
        assert!(e.exact);
        assert_eq!(e.universe, 3);
        assert_eq!(e.atoms, 12);
        assert_eq!(e.per_rule, vec![9]);
        assert_eq!(e.instances, 9);
        assert!(!e.over_budget());
    }

    #[test]
    fn relevant_bound_tracks_edb_cardinality_not_universe() {
        // 100-constant universe but only 2 move facts: the relevant
        // bound stays near the data size while full counts explode.
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let mut db_src = String::from("move(a, b).\nmove(b, c).\n");
        for i in 0..100 {
            db_src.push_str(&format!("pad(k{i}).\n"));
        }
        let d = parse_database(&db_src).unwrap();
        let full = estimate(&p, &d, GroundMode::Full);
        let rel = estimate(&p, &d, GroundMode::Relevant);
        assert!(!rel.exact);
        assert!(rel.instances <= 2, "join bound: {}", rel.instances);
        assert!(full.instances >= 100 * 100);
    }

    #[test]
    fn relevant_bound_dominates_actual_grounding() {
        // Soundness on a recursive program: the bound must be at least
        // the real relevant grounding's rule-node count.
        let p = parse_program("t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let d = parse_database("e(a, b).\ne(b, c).\ne(c, d).").unwrap();
        let e = estimate(&p, &d, GroundMode::Relevant);
        let g =
            datalog_ground::ground(&p, &d, GroundMode::Relevant, &GroundConfig::default()).unwrap();
        assert!(
            e.instances >= g.rule_count() as u128,
            "bound {} < actual {}",
            e.instances,
            g.rule_count()
        );
        assert!(e.atoms >= g.atoms().len() as u128);
    }

    #[test]
    fn unsafe_rule_ranges_over_the_universe() {
        // p(X) :- not q(X): X is not positively bound, so the bound is
        // |U| per rule even in relevant mode.
        let p = parse_program("p(X) :- not q(X).\nq(X) :- not p(X).").unwrap();
        let d = parse_database("e(a).\ne(b).").unwrap();
        let e = estimate(&p, &d, GroundMode::Relevant);
        assert_eq!(e.universe, 2);
        assert_eq!(e.per_rule, vec![2, 2]);
    }

    #[test]
    fn over_budget_detection_saturates_instead_of_overflowing() {
        // 8 distinct variables over a 12-constant universe: 12^8 ≈ 430M
        // full instances, far past the default 4M budget.
        let p = parse_program("big(A) :- e(A), e(B), e(C), e(D), e(E), e(F), e(G), e(H).").unwrap();
        let mut src = String::new();
        for i in 0..12 {
            src.push_str(&format!("e(c{i}).\n"));
        }
        let d = parse_database(&src).unwrap();
        let e = estimate(&p, &d, GroundMode::Full);
        assert!(e.exact);
        assert!(e.over_budget());
        assert_eq!(e.instances, 12u128.pow(8));
        // The relevant bound agrees here: a cross product of 8
        // independent variables really is 12^8 supportable instances.
        let rel = estimate(&p, &d, GroundMode::Relevant);
        assert!(!rel.exact);
        assert!(rel.over_budget());
        assert_eq!(rel.per_rule, vec![12u128.pow(8)]);
    }

    #[test]
    fn chained_join_is_cheap_in_relevant_mode_only() {
        // A 7-step chained join over a path: full mode pays |U|^8 = 9^8
        // ≈ 43M instances, while the relevant bound is the product of
        // the edge relation sizes, 8^7 ≈ 2.1M.
        let p = parse_program(
            "big(A, H) :- e(A, B), e(B, C), e(C, D), e(D, E), e(E, F), \
             e(F, G), e(G, H).",
        )
        .unwrap();
        let mut src = String::new();
        for i in 0..8 {
            src.push_str(&format!("e(c{}, c{}).\n", i, i + 1));
        }
        let d = parse_database(&src).unwrap();
        let full = estimate(&p, &d, GroundMode::Full);
        assert!(full.over_budget());
        assert_eq!(full.instances, 9u128.pow(8));
        let rel = estimate(&p, &d, GroundMode::Relevant);
        assert!(!rel.over_budget());
        assert_eq!(rel.per_rule, vec![8u128.pow(7)]);
    }
}
