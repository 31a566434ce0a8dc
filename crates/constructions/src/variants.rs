//! The alphabetic-variant constructions of Theorems 2, 3, and 5.
//!
//! Given a program whose (possibly reduced) program graph contains a cycle
//! with an odd number of negative edges, the proofs construct a program
//! with the **same skeleton** and a database for which *no fixpoint
//! exists*. Four constructions are implemented:
//!
//! * [`theorem2_unary_variant`] — all predicates unary, constants a, b, c;
//!   Δ = {Q(b) : every predicate Q} (uniform case);
//! * [`theorem2_ternary_variant`] — constant-free, all predicates ternary,
//!   equality patterns simulate the constants; Δ = {Q(d,d,d) : d ∈ {1,2}};
//! * [`theorem3_binary_variant`] — all predicates binary, constants a, b;
//!   EDB relations = {(a, b)}, IDBs empty (nonuniform case);
//! * [`theorem3_quaternary_variant`] — constant-free nonuniform variant
//!   with 4-ary predicates; EDB relations = {(1, 2, 2, 2)}.
//!
//! The same machinery drives Theorem 5 (structural well-founded totality):
//! starting from a cycle that merely *contains* a negative edge, the
//! constructed variant has no total well-founded model.
//!
//! A technical preliminary handled here: the odd-cycle witnesses produced
//! by the analyses may be non-simple walks; [`extract_simple_odd_cycle`]
//! excises even sub-cycles until a *simple* odd cycle remains, so that
//! each arc can be realized by a distinct rule of the program.

use datalog_ast::{
    Atom, Database, FxHashMap, GroundAtom, Literal, PredSym, Program, Rule, Sign, Term,
};
use tiebreak_core::analysis::{PredCycle, UselessAnalysis};

/// One arc of the cycle, realized by a concrete rule and body literal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArcRealization {
    /// Source predicate of the arc.
    pub from: PredSym,
    /// Target predicate (the head of the realizing rule).
    pub to: PredSym,
    /// `true` iff the arc is negative.
    pub negative: bool,
    /// Index of the realizing rule in the source program.
    pub rule_index: usize,
    /// Index of the body literal `(¬)from` within that rule.
    pub literal_index: usize,
}

/// A simple odd cycle with every arc realized by a distinct rule.
#[derive(Clone, Debug)]
pub struct CycleRealization {
    /// The arcs in cycle order: `arcs[i].to == arcs[(i+1) % n].from`.
    pub arcs: Vec<ArcRealization>,
}

impl CycleRealization {
    /// The arc realized by rule `rule_index`, if any.
    pub fn arc_for_rule(&self, rule_index: usize) -> Option<&ArcRealization> {
        self.arcs.iter().find(|a| a.rule_index == rule_index)
    }

    /// Number of negative arcs (always odd for Theorem 2/3 realizations).
    pub fn negative_count(&self) -> usize {
        self.arcs.iter().filter(|a| a.negative).count()
    }
}

/// Excises even sub-cycles from a closed walk until a **simple** cycle of
/// the same parity remains. For an odd input walk the result is a simple
/// odd cycle; for a walk with ≥1 negative edge but even parity (Theorem 5
/// witnesses), pass `require_odd = false` to instead obtain a simple cycle
/// containing a negative edge.
pub fn extract_simple_odd_cycle(cycle: &PredCycle, require_odd: bool) -> PredCycle {
    let n = cycle.preds.len();
    assert!(n > 0, "empty cycle");

    if require_odd {
        assert_eq!(cycle.negative_count % 2, 1, "input walk must be odd");
    }

    // Stack of visited nodes; entering[i] = sign of the edge arriving at
    // stack[i] from stack[i-1] (entering[0] unused).
    let mut stack: Vec<PredSym> = vec![cycle.preds[0]];
    let mut entering: Vec<bool> = vec![false];
    let mut pos: FxHashMap<PredSym, usize> = FxHashMap::default();
    pos.insert(cycle.preds[0], 0);

    for i in 0..n {
        let next = cycle.preds[(i + 1) % n];
        let sign = cycle.negative_steps[i];
        if let Some(&j) = pos.get(&next) {
            // Closing a sub-cycle stack[j..] + this edge.
            let mut negs: Vec<bool> = entering[j + 1..].to_vec();
            negs.push(sign);
            let parity = negs.iter().filter(|&&b| b).count() % 2 == 1;
            let keep = if require_odd {
                parity
            } else {
                negs.iter().any(|&b| b)
            };
            if keep {
                let preds: Vec<PredSym> = stack[j..].to_vec();
                let negative_count = negs.iter().filter(|&&b| b).count();
                return PredCycle {
                    preds,
                    negative_steps: negs,
                    negative_count,
                };
            }
            // Excise the even (or negative-free) sub-cycle.
            for node in &stack[j + 1..] {
                pos.remove(node);
            }
            stack.truncate(j + 1);
            entering.truncate(j + 1);
        } else {
            pos.insert(next, stack.len());
            stack.push(next);
            entering.push(sign);
        }
    }
    unreachable!("a closed walk of the requested parity must contain a matching simple cycle");
}

/// Realizes every arc of (a simple odd sub-cycle of) `cycle` by a distinct
/// rule of `program`. Returns `None` if some arc has no realizing rule —
/// impossible for witnesses produced from `program`'s own graph.
pub fn realize_cycle(program: &Program, cycle: &PredCycle) -> Option<CycleRealization> {
    realize(program, cycle, true, None)
}

/// Like [`realize_cycle`] but for cycles of the **reduced** graph G(Π′)
/// (Theorem 3): realizing rules must survive reduction (no positive
/// useless body occurrence), and negative arcs must not come from
/// stripped useless literals.
pub fn realize_cycle_nonuniform(
    program: &Program,
    analysis: &UselessAnalysis,
    cycle: &PredCycle,
) -> Option<CycleRealization> {
    realize(program, cycle, true, Some(analysis))
}

/// Realizes a cycle that merely contains a negative edge (Theorem 5).
pub fn realize_negative_cycle(program: &Program, cycle: &PredCycle) -> Option<CycleRealization> {
    realize(program, cycle, false, None)
}

fn realize(
    program: &Program,
    cycle: &PredCycle,
    require_odd: bool,
    reduced: Option<&UselessAnalysis>,
) -> Option<CycleRealization> {
    let simple = extract_simple_odd_cycle(cycle, require_odd);
    let n = simple.preds.len();
    let mut arcs = Vec::with_capacity(n);
    for i in 0..n {
        let from = simple.preds[i];
        let to = simple.preds[(i + 1) % n];
        let negative = simple.negative_steps[i];
        let want = if negative { Sign::Neg } else { Sign::Pos };
        let found = program.rules().iter().enumerate().find_map(|(ri, rule)| {
            if rule.head.pred != to {
                return None;
            }
            if let Some(analysis) = reduced {
                // The rule must survive reduction.
                if rule
                    .body
                    .iter()
                    .any(|l| l.is_pos() && analysis.is_useless(l.atom.pred))
                {
                    return None;
                }
                // A stripped literal cannot realize the arc.
                if negative && analysis.is_useless(from) {
                    return None;
                }
            }
            rule.body
                .iter()
                .position(|l| l.sign == want && l.atom.pred == from)
                .map(|li| ArcRealization {
                    from,
                    to,
                    negative,
                    rule_index: ri,
                    literal_index: li,
                })
        })?;
        arcs.push(found);
    }
    Some(CycleRealization { arcs })
}

/// Argument patterns used by the four constructions.
struct Patterns {
    /// Pattern for the distinguished cycle positions (`a` in the proofs).
    cycle_head: Vec<Term>,
    /// Pattern for the cycle body literal; for the nonuniform variants the
    /// negative case differs from the positive case.
    cycle_body_pos: Vec<Term>,
    cycle_body_neg: Vec<Term>,
    /// Pattern for every other positive occurrence (`b`).
    other_pos: Vec<Term>,
    /// Pattern for every other negative occurrence (`c`).
    other_neg: Vec<Term>,
}

/// Rewrites `program` along `realization` using `patterns`, preserving the
/// skeleton (same rules, same predicate signs, new arguments).
fn rewrite(program: &Program, realization: &CycleRealization, patterns: &Patterns) -> Program {
    let rules: Vec<Rule> = program
        .rules()
        .iter()
        .enumerate()
        .map(|(ri, rule)| {
            let arc = realization.arc_for_rule(ri);
            let head = match arc {
                Some(a) if rule.head.pred == a.to => Atom {
                    pred: rule.head.pred,
                    args: patterns.cycle_head.clone(),
                },
                _ => Atom {
                    pred: rule.head.pred,
                    args: patterns.other_pos.clone(),
                },
            };
            let body: Vec<Literal> = rule
                .body
                .iter()
                .enumerate()
                .map(|(li, lit)| {
                    let is_cycle_literal = arc.is_some_and(|a| a.literal_index == li);
                    let args = if is_cycle_literal {
                        if lit.is_neg() {
                            patterns.cycle_body_neg.clone()
                        } else {
                            patterns.cycle_body_pos.clone()
                        }
                    } else if lit.is_pos() {
                        patterns.other_pos.clone()
                    } else {
                        patterns.other_neg.clone()
                    };
                    Literal {
                        sign: lit.sign,
                        atom: Atom {
                            pred: lit.atom.pred,
                            args,
                        },
                    }
                })
                .collect();
            Rule::new(head, body)
        })
        .collect();
    Program::new(rules).expect("rewrite preserves arity consistency")
}

fn consts(names: &[&str]) -> Vec<Term> {
    names.iter().map(|n| Term::constant(n)).collect()
}

fn vars(names: &[&str]) -> Vec<Term> {
    names.iter().map(|n| Term::var(n)).collect()
}

/// Theorem 2's unary construction: an alphabetic variant with no fixpoint
/// for Δ = {Q(b) : all predicates Q} (uniform case).
pub fn theorem2_unary_variant(
    program: &Program,
    realization: &CycleRealization,
) -> (Program, Database) {
    let patterns = Patterns {
        cycle_head: consts(&["a"]),
        cycle_body_pos: consts(&["a"]),
        cycle_body_neg: consts(&["a"]),
        other_pos: consts(&["b"]),
        other_neg: consts(&["c"]),
    };
    let variant = rewrite(program, realization, &patterns);
    let mut delta = Database::new();
    for &pred in program.predicates() {
        delta
            .insert(GroundAtom::from_texts(pred.as_str(), &["b"]))
            .expect("unary facts");
    }
    (variant, delta)
}

/// Theorem 2's constant-free construction: ternary predicates, equality
/// patterns (x, y, y) / (y, y, y) / (x, x, y) in place of a / b / c;
/// Δ = {Q(d, d, d) : d ∈ {1, 2}, all predicates Q}.
pub fn theorem2_ternary_variant(
    program: &Program,
    realization: &CycleRealization,
) -> (Program, Database) {
    let patterns = Patterns {
        cycle_head: vars(&["X", "Y", "Y"]),
        cycle_body_pos: vars(&["X", "Y", "Y"]),
        cycle_body_neg: vars(&["X", "Y", "Y"]),
        other_pos: vars(&["Y", "Y", "Y"]),
        other_neg: vars(&["X", "X", "Y"]),
    };
    let variant = rewrite(program, realization, &patterns);
    let mut delta = Database::new();
    for &pred in program.predicates() {
        for d in ["1", "2"] {
            delta
                .insert(GroundAtom::from_texts(pred.as_str(), &[d, d, d]))
                .expect("ternary facts");
        }
    }
    (variant, delta)
}

/// Theorem 3's binary construction (nonuniform case): positive arcs become
/// `P_{i+1}(a, x) ← P_i(a, x), …`, negative arcs
/// `P_{i+1}(a, x) ← ¬P_i(x, a), …`; other positives Q(a, b), other
/// negatives ¬Q(b, a). EDB relations = {(a, b)}, IDBs empty.
pub fn theorem3_binary_variant(
    program: &Program,
    realization: &CycleRealization,
) -> (Program, Database) {
    let patterns = Patterns {
        cycle_head: vec![Term::constant("a"), Term::var("X")],
        cycle_body_pos: vec![Term::constant("a"), Term::var("X")],
        cycle_body_neg: vec![Term::var("X"), Term::constant("a")],
        other_pos: consts(&["a", "b"]),
        other_neg: consts(&["b", "a"]),
    };
    let variant = rewrite(program, realization, &patterns);
    let mut delta = Database::new();
    for pred in program.edb_predicates() {
        delta
            .insert(GroundAtom::from_texts(pred.as_str(), &["a", "b"]))
            .expect("binary facts");
    }
    (variant, delta)
}

/// Theorem 3's constant-free construction: 4-ary predicates; positive arcs
/// `P_{i+1}(x, y, y, z) ← P_i(x, y, y, z)`, negative arcs
/// `P_{i+1}(x, y, y, z) ← ¬P_i(y, x, y, z)`; other positives
/// Q(x, z, z, z), other negatives ¬Q(z, x, z, z). EDB relations =
/// {(1, 2, 2, 2)}, IDBs empty.
pub fn theorem3_quaternary_variant(
    program: &Program,
    realization: &CycleRealization,
) -> (Program, Database) {
    let patterns = Patterns {
        cycle_head: vars(&["X", "Y", "Y", "Z"]),
        cycle_body_pos: vars(&["X", "Y", "Y", "Z"]),
        cycle_body_neg: vars(&["Y", "X", "Y", "Z"]),
        other_pos: vars(&["X", "Z", "Z", "Z"]),
        other_neg: vars(&["Z", "X", "Z", "Z"]),
    };
    let variant = rewrite(program, realization, &patterns);
    let mut delta = Database::new();
    for pred in program.edb_predicates() {
        delta
            .insert(GroundAtom::from_texts(pred.as_str(), &["1", "2", "2", "2"]))
            .expect("quaternary facts");
    }
    (variant, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::parse_program;
    use datalog_ground::{ground, GroundConfig, GroundMode};
    use tiebreak_core::analysis::{stratify, structural_totality, useless_predicates};
    use tiebreak_core::semantics::enumerate::{enumerate_fixpoints, EnumerateConfig};
    use tiebreak_core::semantics::well_founded::well_founded;

    fn no_fixpoint(program: &Program, delta: &Database) -> bool {
        let g = ground(program, delta, GroundMode::Full, &GroundConfig::default()).unwrap();
        enumerate_fixpoints(
            &g,
            program,
            delta,
            &EnumerateConfig {
                limit: 1,
                max_branch_atoms: 30,
            },
        )
        .unwrap()
        .is_empty()
    }

    #[test]
    fn simple_odd_extraction_from_nonsimple_walk() {
        // Walk p -¬-> q -+-> p -¬-> r -¬-> p : parity 3 (odd), but node p
        // repeats. The extractor must find a simple odd sub-cycle.
        let walk = PredCycle {
            preds: vec!["p".into(), "q".into(), "p".into(), "r".into()],
            negative_steps: vec![true, false, true, true],
            negative_count: 3,
        };
        let simple = extract_simple_odd_cycle(&walk, true);
        assert_eq!(simple.negative_count % 2, 1);
        // Simple: no repeated predicates.
        let mut sorted: Vec<_> = simple.preds.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), simple.preds.len());
    }

    #[test]
    fn program_1_unary_variant_has_no_fixpoint() {
        // Paper's program (1): total, but not structurally total. The
        // construction produces a same-skeleton program with no fixpoint.
        let p = parse_program("p(a) :- not p(X), e(b).").unwrap();
        let st = structural_totality(&p);
        assert!(!st.total);
        let real = realize_cycle(&p, &st.witness.unwrap()).unwrap();
        let (variant, delta) = theorem2_unary_variant(&p, &real);
        assert!(p.is_alphabetic_variant_of(&variant));
        assert!(no_fixpoint(&variant, &delta));
    }

    #[test]
    fn odd_three_cycle_unary_variant() {
        let p = parse_program("p :- not q.\nq :- not r.\nr :- not p.").unwrap();
        let st = structural_totality(&p);
        let real = realize_cycle(&p, &st.witness.unwrap()).unwrap();
        assert_eq!(real.negative_count(), 3);
        let (variant, delta) = theorem2_unary_variant(&p, &real);
        assert!(p.is_alphabetic_variant_of(&variant));
        assert!(no_fixpoint(&variant, &delta));
    }

    #[test]
    fn ternary_constant_free_variant_has_no_fixpoint() {
        let p = parse_program("p(a) :- not p(X), e(b).").unwrap();
        let st = structural_totality(&p);
        let real = realize_cycle(&p, &st.witness.unwrap()).unwrap();
        let (variant, delta) = theorem2_ternary_variant(&p, &real);
        assert!(p.is_alphabetic_variant_of(&variant));
        // Constant-free: the variant's rules mention no constants.
        assert!(variant.constants().is_empty());
        assert!(no_fixpoint(&variant, &delta));
    }

    #[test]
    fn theorem3_binary_variant_kills_nonuniform_totality() {
        // Odd cycle on *useful* predicates: g is useful via e.
        let p = parse_program("g :- e.\np :- not p, g.").unwrap();
        let analysis = useless_predicates(&p);
        assert!(analysis.useless.is_empty());
        let st = structural_totality(&p);
        let real = realize_cycle_nonuniform(&p, &analysis, &st.witness.unwrap()).unwrap();
        let (variant, delta) = theorem3_binary_variant(&p, &real);
        assert!(p.is_alphabetic_variant_of(&variant));
        assert!(delta.idb_is_empty(&variant));
        assert!(no_fixpoint(&variant, &delta));
    }

    #[test]
    fn theorem3_quaternary_variant_kills_nonuniform_totality() {
        let p = parse_program("g :- e.\np :- not p, g.").unwrap();
        let analysis = useless_predicates(&p);
        let st = structural_totality(&p);
        let real = realize_cycle_nonuniform(&p, &analysis, &st.witness.unwrap()).unwrap();
        let (variant, delta) = theorem3_quaternary_variant(&p, &real);
        assert!(p.is_alphabetic_variant_of(&variant));
        assert!(variant.constants().is_empty());
        assert!(delta.idb_is_empty(&variant));
        assert!(no_fixpoint(&variant, &delta));
    }

    #[test]
    fn theorem5_variant_defeats_well_founded() {
        // p ← ¬q ; q ← ¬p: structurally total (even cycle) but NOT
        // stratified. Theorem 5: some variant has no total WF model — for
        // this program every variant does, e.g. the unary rewrite.
        let p = parse_program("p(X) :- not q(X).\nq(X) :- not p(X).").unwrap();
        let strat = stratify(&p);
        assert!(!strat.stratified);
        let real = realize_negative_cycle(&p, &strat.witness.unwrap()).unwrap();
        let (variant, delta) = theorem2_unary_variant(&p, &real);
        assert!(p.is_alphabetic_variant_of(&variant));
        let g = ground(&variant, &delta, GroundMode::Full, &GroundConfig::default()).unwrap();
        let run = well_founded(&g, &variant, &delta).unwrap();
        assert!(!run.total, "well-founded must get stuck on the variant");
        // ... while a fixpoint still exists (the cycle is even).
        assert!(!no_fixpoint(&variant, &delta));
    }

    #[test]
    fn realization_uses_distinct_rules() {
        let p = parse_program("p :- not q.\nq :- not r.\nr :- not p.").unwrap();
        let st = structural_totality(&p);
        let real = realize_cycle(&p, &st.witness.unwrap()).unwrap();
        let mut rules: Vec<usize> = real.arcs.iter().map(|a| a.rule_index).collect();
        rules.sort_unstable();
        rules.dedup();
        assert_eq!(rules.len(), real.arcs.len());
    }

    #[test]
    fn win_move_unary_variant() {
        // The classic rule also yields a Theorem 2 witness.
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let st = structural_totality(&p);
        let real = realize_cycle(&p, &st.witness.unwrap()).unwrap();
        let (variant, delta) = theorem2_unary_variant(&p, &real);
        assert!(no_fixpoint(&variant, &delta));
    }
}
