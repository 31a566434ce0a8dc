//! Semi-naive bottom-up rule evaluation over [`Database`] relations.
//!
//! The relational substrate shared by two consumers:
//!
//! * **stratified evaluation** in `tiebreak-core` (\[CH, ABW\]; paper,
//!   Section 1): within one stratum, rules are evaluated to a least
//!   fixpoint with *delta* relations so each round only joins against
//!   newly derived tuples, negation tested against relations completed by
//!   lower strata;
//! * the **relevant grounder** ([`crate::grounder::GroundMode::Relevant`]):
//!   the same join engine run in *envelope* mode (negative literals
//!   ignored) computes the set of supportable atoms, and
//!   [`RuleEvaluator::for_each_substitution`] then enumerates exactly the
//!   rule instances whose positive body is supportable.
//!
//! Variables not bound by positive body literals (unsafe rules, or
//! variables occurring only under negation) range over the universe *U*,
//! matching the ground-graph semantics exactly.

use std::convert::Infallible;

use datalog_ast::{
    Atom, ConstSym, Database, FxHashMap, GroundAtom, Program, Rule, Sign, Term, VarSym,
};

/// Where a positive literal reads its tuples during a semi-naive round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Source {
    /// The full current relation.
    Total,
    /// Only the last round's new tuples.
    Delta,
}

/// The state of one join: its sources, the partial substitution, and
/// the trail of variable positions bound so far, shared by every depth.
struct Join<'a> {
    total: &'a Database,
    delta: &'a Database,
    delta_occurrence: Option<usize>,
    universe: &'a [ConstSym],
    subst: Vec<Option<ConstSym>>,
    trail: Vec<usize>,
    /// The leftover variables being enumerated: `(position, universe
    /// index)`, reused by every leaf.
    digits: Vec<(usize, usize)>,
    scratch: &'a mut Vec<ConstSym>,
}

/// A compiled rule evaluator: variable indexing plus the body split.
pub struct RuleEvaluator<'r> {
    rule: &'r Rule,
    vars: Vec<VarSym>,
    var_index: FxHashMap<VarSym, usize>,
    positive: Vec<&'r Atom>,
    negative: Vec<&'r Atom>,
    /// When `false`, negative literals are ignored entirely — the
    /// *positive envelope* used by the relevant grounder.
    check_negatives: bool,
    /// Per variable: enumerate it over the universe when the positive
    /// join leaves it unbound. The head-projection constructors
    /// ([`RuleEvaluator::envelope`], [`RuleEvaluator::edb_skeleton`])
    /// clear this for variables the head never reads, collapsing the
    /// |U|^m duplicate-head blowup to a single witness assignment.
    enumerate: Vec<bool>,
}

impl<'r> RuleEvaluator<'r> {
    /// Compiles `rule` for full evaluation (negatives tested on emit).
    pub fn new(rule: &'r Rule) -> Self {
        RuleEvaluator::with_negation(rule, true)
    }

    /// Compiles `rule` for the **positive envelope**: negative literals
    /// are dropped, so the evaluator over-approximates the rule
    /// (everything derivable if every negative literal were true).
    /// Intended for *head derivation*: variables the head never reads
    /// are projected out (one witness instead of |U| duplicates).
    pub fn envelope(rule: &'r Rule) -> Self {
        RuleEvaluator::with_negation(rule, false).project_to_head_support()
    }

    /// Compiles `rule` keeping only its positive **EDB** literals:
    /// negative and positive-IDB literals are dropped, their variables
    /// ranging freely over the universe (projected to one witness when
    /// the head never reads them). Emitting with this evaluator yields
    /// the relevant grounder's *candidate* heads — a superset of every
    /// head derivable no matter what the IDB relations turn out to be
    /// (a pre-fixpoint of the positive envelope operator).
    pub fn edb_skeleton(rule: &'r Rule, program: &Program) -> Self {
        let mut ev = RuleEvaluator::with_negation(rule, false);
        ev.positive.retain(|a| !program.is_idb(a.pred));
        ev.project_to_head_support()
    }

    /// Restricts unbound-variable enumeration to the variables the head
    /// or a (retained) positive literal reads; all others get a single
    /// arbitrary witness. Sound whenever the caller only grounds the
    /// head: ∃-semantics over the dropped variables is preserved, and a
    /// rule with *any* unbound variable still has no instances over an
    /// empty universe.
    fn project_to_head_support(mut self) -> Self {
        let mut needed = vec![false; self.vars.len()];
        for v in self.rule.head.variables() {
            needed[self.var_index[&v]] = true;
        }
        for atom in &self.positive {
            for v in atom.variables() {
                needed[self.var_index[&v]] = true;
            }
        }
        self.enumerate = needed;
        self
    }

    fn with_negation(rule: &'r Rule, check_negatives: bool) -> Self {
        let vars = rule.variables();
        let var_index: FxHashMap<VarSym, usize> =
            vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let positive: Vec<&Atom> = rule
            .body
            .iter()
            .filter(|l| l.sign == Sign::Pos)
            .map(|l| &l.atom)
            .collect();
        let negative: Vec<&Atom> = rule
            .body
            .iter()
            .filter(|l| l.sign == Sign::Neg)
            .map(|l| &l.atom)
            .collect();
        let enumerate = vec![true; vars.len()];
        RuleEvaluator {
            rule,
            vars,
            var_index,
            positive,
            negative,
            check_negatives,
            enumerate,
        }
    }

    /// Number of positive body literals.
    pub fn positive_len(&self) -> usize {
        self.positive.len()
    }

    /// The predicate of the i-th positive literal.
    pub fn positive_pred(&self, i: usize) -> datalog_ast::PredSym {
        self.positive[i].pred
    }

    /// The rule's variables in [`Rule::variables`] order (the order of the
    /// assignments passed to [`RuleEvaluator::for_each_substitution`]).
    pub fn vars(&self) -> &[VarSym] {
        &self.vars
    }

    /// Grounds `atom` under a full assignment (in [`RuleEvaluator::vars`]
    /// order).
    ///
    /// # Panics
    ///
    /// If `atom` mentions a variable not in this rule.
    pub fn ground_atom(&self, atom: &Atom, assignment: &[ConstSym]) -> GroundAtom {
        GroundAtom {
            pred: atom.pred,
            args: atom
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => assignment[self.var_index[v]],
                })
                .collect(),
        }
    }

    /// Writes the arguments of `atom` under a full assignment (in
    /// [`RuleEvaluator::vars`] order) into `args`, cleared first: the
    /// allocation-free form of [`RuleEvaluator::ground_atom`].
    ///
    /// # Panics
    ///
    /// If `atom` mentions a variable not in this rule.
    pub fn ground_args(&self, atom: &Atom, assignment: &[ConstSym], args: &mut Vec<ConstSym>) {
        args.clear();
        args.extend(atom.args.iter().map(|t| match t {
            Term::Const(c) => *c,
            Term::Var(v) => assignment[self.var_index[v]],
        }));
    }

    /// Evaluates the rule, emitting every head instance derivable with the
    /// given sources:
    ///
    /// * `total` — the current state of all relations,
    /// * `delta_occurrence` — if `Some(i)`, the i-th positive literal reads
    ///   from `delta` instead of `total` (the semi-naive restriction),
    /// * `universe` — range of variables not bound by positive literals.
    ///
    /// Negative literals are tested against `total` (complete for their
    /// strata by the stratification invariant) unless this evaluator was
    /// built with [`RuleEvaluator::envelope`].
    pub fn emit(
        &self,
        total: &Database,
        delta: &Database,
        delta_occurrence: Option<usize>,
        universe: &[ConstSym],
        out: &mut Vec<GroundAtom>,
    ) {
        let mut scratch: Vec<ConstSym> = Vec::with_capacity(self.vars.len());
        let result: Result<(), Infallible> = self.for_each_assignment(
            total,
            delta,
            delta_occurrence,
            universe,
            &mut |ev, assignment| {
                if ev.check_negatives {
                    for neg in &ev.negative {
                        if total.contains(&ev.ground_atom(neg, assignment)) {
                            return Ok(());
                        }
                    }
                }
                out.push(ev.ground_atom(&ev.rule.head, assignment));
                Ok(())
            },
            &mut scratch,
        );
        result.unwrap_or_else(|never| match never {});
    }

    /// Enumerates every substitution whose **positive body** is satisfied
    /// in `total` (each exactly once), calling `f` with the assignment in
    /// [`Rule::variables`] order. Negative literals are *not* tested —
    /// this is the relevant grounder's instance enumeration, where
    /// negation is resolved later by `close`. Variables not bound by
    /// positive literals range over `universe`.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns; enumeration stops at the first error.
    pub fn for_each_substitution<E>(
        &self,
        total: &Database,
        universe: &[ConstSym],
        f: &mut impl FnMut(&[ConstSym]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut scratch: Vec<ConstSym> = Vec::with_capacity(self.vars.len());
        self.for_each_assignment(
            total,
            &Database::new(),
            None,
            universe,
            &mut |_, a| f(a),
            &mut scratch,
        )
    }

    /// The semi-naive variant of [`RuleEvaluator::for_each_substitution`]:
    /// the `delta_occurrence`-th positive literal reads `delta` instead of
    /// `total`, so only substitutions whose body touches the delta at that
    /// occurrence are enumerated. The delta grounder drives this once per
    /// positive occurrence whose predicate gained supportable atoms,
    /// deduplicating across occurrences (the same substitution can match
    /// several delta literals).
    ///
    /// # Errors
    ///
    /// Whatever `f` returns; enumeration stops at the first error.
    pub fn for_each_substitution_delta<E>(
        &self,
        total: &Database,
        delta: &Database,
        delta_occurrence: usize,
        universe: &[ConstSym],
        f: &mut impl FnMut(&[ConstSym]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut scratch: Vec<ConstSym> = Vec::with_capacity(self.vars.len());
        self.for_each_assignment(
            total,
            delta,
            Some(delta_occurrence),
            universe,
            &mut |_, a| f(a),
            &mut scratch,
        )
    }

    /// The join driver: positive literals matched left to right against
    /// `total`/`delta`, leftover variables enumerated over `universe`,
    /// `f` called once per fully bound assignment.
    fn for_each_assignment<E>(
        &self,
        total: &Database,
        delta: &Database,
        delta_occurrence: Option<usize>,
        universe: &[ConstSym],
        f: &mut impl FnMut(&Self, &[ConstSym]) -> Result<(), E>,
        scratch: &mut Vec<ConstSym>,
    ) -> Result<(), E> {
        let mut join = Join {
            total,
            delta,
            delta_occurrence,
            universe,
            subst: vec![None; self.vars.len()],
            trail: Vec::new(),
            digits: Vec::new(),
            scratch,
        };
        self.join(0, &mut join, f)
    }

    fn join<E>(
        &self,
        depth: usize,
        join: &mut Join<'_>,
        f: &mut impl FnMut(&Self, &[ConstSym]) -> Result<(), E>,
    ) -> Result<(), E> {
        if depth == self.positive.len() {
            return self.finish(join, f);
        }
        let atom = self.positive[depth];
        let source = if join.delta_occurrence == Some(depth) {
            Source::Delta
        } else {
            Source::Total
        };
        let db = match source {
            Source::Total => join.total,
            Source::Delta => join.delta,
        };
        let Some(rel) = db.relation(atom.pred) else {
            return Ok(()); // empty relation: no matches
        };
        for tuple in rel.iter() {
            // Bindings made by this literal sit on the trail above
            // `mark` and are undone before the next tuple.
            let mark = join.trail.len();
            let matched = self.try_match(atom, tuple, &mut join.subst, &mut join.trail);
            let result = if matched {
                self.join(depth + 1, join, f)
            } else {
                Ok(())
            };
            for pos in join.trail.drain(mark..) {
                join.subst[pos] = None;
            }
            result?;
        }
        Ok(())
    }

    fn try_match(
        &self,
        atom: &Atom,
        tuple: &[ConstSym],
        subst: &mut [Option<ConstSym>],
        trail: &mut Vec<usize>,
    ) -> bool {
        debug_assert_eq!(atom.args.len(), tuple.len());
        for (term, &c) in atom.args.iter().zip(tuple.iter()) {
            match term {
                Term::Const(k) => {
                    if *k != c {
                        return false;
                    }
                }
                Term::Var(v) => {
                    let pos = self.var_index[v];
                    match subst[pos] {
                        Some(bound) if bound != c => return false,
                        Some(_) => {}
                        None => {
                            subst[pos] = Some(c);
                            trail.push(pos);
                        }
                    }
                }
            }
        }
        true
    }

    /// All positive literals matched: bind leftover variables over the
    /// universe and hand each full assignment to `f`. The leftovers go
    /// on the trail, so they are unbound again on the way out.
    fn finish<E>(
        &self,
        join: &mut Join<'_>,
        f: &mut impl FnMut(&Self, &[ConstSym]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mark = join.trail.len();
        join.digits.clear();
        for pos in 0..self.vars.len() {
            if join.subst[pos].is_none() {
                join.trail.push(pos);
                if self.enumerate[pos] {
                    join.digits.push((pos, 0));
                }
            }
        }
        let result = if join.trail.len() > mark && join.universe.is_empty() {
            Ok(()) // variables with an empty range: no instances
        } else {
            self.enumerate_leftovers(join, mark, f)
        };
        for pos in join.trail.drain(mark..) {
            join.subst[pos] = None;
        }
        result
    }

    /// Projected-out leftovers (on the trail above `mark`) take a single
    /// arbitrary witness; the `digits` are enumerated mixed-radix over
    /// the universe, the first one least significant.
    fn enumerate_leftovers<E>(
        &self,
        join: &mut Join<'_>,
        mark: usize,
        f: &mut impl FnMut(&Self, &[ConstSym]) -> Result<(), E>,
    ) -> Result<(), E> {
        let universe = join.universe;
        for &pos in &join.trail[mark..] {
            if !self.enumerate[pos] {
                join.subst[pos] = Some(universe[0]);
            }
        }
        loop {
            for &(pos, digit) in &join.digits {
                join.subst[pos] = Some(universe[digit]);
            }
            join.scratch.clear();
            join.scratch
                .extend(join.subst.iter().map(|o| o.expect("all bound")));
            f(self, &join.scratch[..])?;
            let mut i = 0;
            loop {
                let Some((_, digit)) = join.digits.get_mut(i) else {
                    return Ok(());
                };
                *digit += 1;
                if *digit < universe.len() {
                    break;
                }
                *digit = 0;
                i += 1;
            }
        }
    }
}

/// Runs one stratum's rules (`rule_indices` into `program`) to a least
/// fixpoint over `total`, semi-naively. `stratum_preds` are the IDB
/// predicates being computed (delta tracking applies to them).
///
/// `total` is updated in place; the function returns the number of new
/// facts derived.
pub fn evaluate_stratum(
    program: &Program,
    rule_indices: &[usize],
    stratum_preds: &[datalog_ast::PredSym],
    total: &mut Database,
    universe: &[ConstSym],
) -> usize {
    let evaluators: Vec<RuleEvaluator<'_>> = rule_indices
        .iter()
        .map(|&i| RuleEvaluator::new(&program.rules()[i]))
        .collect();
    let in_stratum = |p: datalog_ast::PredSym| -> bool { stratum_preds.contains(&p) };
    run_to_fixpoint(&evaluators, &in_stratum, total, universe)
}

/// The semi-naive driver shared by [`evaluate_stratum`] and the relevant
/// grounder's envelope pass: round 0 evaluates every rule in full, then
/// delta rounds re-join only against new tuples of `in_delta` predicates.
pub(crate) fn run_to_fixpoint(
    evaluators: &[RuleEvaluator<'_>],
    in_delta: &dyn Fn(datalog_ast::PredSym) -> bool,
    total: &mut Database,
    universe: &[ConstSym],
) -> usize {
    let mut derived = 0usize;
    let mut out: Vec<GroundAtom> = Vec::new();

    // Round 0: full evaluation.
    for ev in evaluators {
        ev.emit(total, &Database::new(), None, universe, &mut out);
    }
    let mut delta = Database::new();
    for fact in out.drain(..) {
        if !total.contains(&fact) {
            total.insert(fact.clone()).expect("arity consistent");
            delta.insert(fact).expect("arity consistent");
            derived += 1;
        }
    }

    // Semi-naive rounds.
    while !delta.is_empty() {
        for ev in evaluators {
            for occ in 0..ev.positive_len() {
                if in_delta(ev.positive_pred(occ)) {
                    ev.emit(total, &delta, Some(occ), universe, &mut out);
                }
            }
        }
        let mut next = Database::new();
        for fact in out.drain(..) {
            if !total.contains(&fact) {
                total.insert(fact.clone()).expect("arity consistent");
                next.insert(fact).expect("arity consistent");
                derived += 1;
            }
        }
        delta = next;
    }
    derived
}

/// The *seeded* semi-naive driver: like [`run_to_fixpoint`], but round 0
/// is skipped — the fixpoint is restarted from `total` (assumed already
/// closed under `evaluators` before the seeds arrived) with `seed` as the
/// initial delta. Seeds not already in `total` are inserted. Returns
/// every fact the seeding added to `total` (seeds included) in insertion
/// order — for the delta grounder this is exactly ΔS, the newly
/// supportable atoms.
///
/// `fact_cap` bounds `total` like the relevant grounder's candidate
/// pass: the run aborts with `Err(count reached)` as soon as an
/// insertion pushes past it, instead of materializing an over-budget
/// fixpoint first.
pub(crate) fn run_seeded(
    evaluators: &[RuleEvaluator<'_>],
    total: &mut Database,
    seed: Vec<GroundAtom>,
    universe: &[ConstSym],
    fact_cap: u64,
) -> Result<Vec<GroundAtom>, u64> {
    let mut added: Vec<GroundAtom> = Vec::new();
    let mut delta = Database::new();
    let insert_new = |total: &mut Database,
                      delta: &mut Database,
                      added: &mut Vec<GroundAtom>,
                      fact: GroundAtom| {
        if !total.contains(&fact) {
            total.insert(fact.clone()).expect("arity consistent");
            delta.insert(fact.clone()).expect("arity consistent");
            added.push(fact);
            if total.len() as u64 > fact_cap {
                return Err(total.len() as u64);
            }
        }
        Ok(())
    };
    for fact in seed {
        insert_new(total, &mut delta, &mut added, fact)?;
    }
    let mut out: Vec<GroundAtom> = Vec::new();
    while !delta.is_empty() {
        for ev in evaluators {
            debug_assert!(
                !ev.check_negatives,
                "run_seeded expects envelope evaluators"
            );
            for occ in 0..ev.positive_len() {
                if delta.relation(ev.positive_pred(occ)).is_none() {
                    continue;
                }
                // The fallible join (not `emit`) so a single runaway
                // occurrence aborts mid-enumeration; the buffer holds
                // not-yet-deduplicated heads, so the bound carries a 2×
                // slack rather than the exact cap.
                ev.for_each_substitution_delta::<u64>(total, &delta, occ, universe, &mut |a| {
                    out.push(ev.ground_atom(&ev.rule.head, a));
                    if total.len() as u64 + out.len() as u64 > fact_cap.saturating_mul(2) {
                        return Err(total.len() as u64 + out.len() as u64);
                    }
                    Ok(())
                })?;
            }
        }
        let mut next = Database::new();
        for fact in out.drain(..) {
            insert_new(total, &mut next, &mut added, fact)?;
        }
        delta = next;
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program, PredSym};

    #[test]
    fn transitive_closure() {
        let p = parse_program("t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let mut db = parse_database("e(a, b).\ne(b, c).\ne(c, d).").unwrap();
        let u = Database::universe(&p, &db);
        let n = evaluate_stratum(&p, &[0, 1], &[PredSym::new("t")], &mut db, &u);
        assert_eq!(n, 6); // ab bc cd ac bd ad
        assert!(db.contains(&GroundAtom::from_texts("t", &["a", "d"])));
        assert!(!db.contains(&GroundAtom::from_texts("t", &["d", "a"])));
    }

    #[test]
    fn envelope_ignores_negative_literals() {
        // p(X) :- e(X), not q(X). with q(a) present: the envelope derives
        // p(a) anyway, the strict evaluator does not.
        let p = parse_program("p(X) :- e(X), not q(X).").unwrap();
        let db = parse_database("e(a).\nq(a).").unwrap();
        let u = Database::universe(&p, &db);
        let rule = &p.rules()[0];

        let mut out = Vec::new();
        RuleEvaluator::new(rule).emit(&db, &Database::new(), None, &u, &mut out);
        assert!(out.is_empty());

        RuleEvaluator::envelope(rule).emit(&db, &Database::new(), None, &u, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], GroundAtom::from_texts("p", &["a"]));
    }

    #[test]
    fn substitution_enumeration_is_exact_and_unique() {
        // win(X) :- move(X, Y), not win(Y): one substitution per move
        // tuple, negation not consulted.
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let db = parse_database("move(a, b).\nmove(b, c).").unwrap();
        let u = Database::universe(&p, &db);
        let ev = RuleEvaluator::new(&p.rules()[0]);
        let mut seen: Vec<Vec<String>> = Vec::new();
        ev.for_each_substitution::<Infallible>(&db, &u, &mut |a| {
            seen.push(a.iter().map(|c| c.as_str().to_owned()).collect());
            Ok(())
        })
        .unwrap();
        seen.sort();
        assert_eq!(seen, vec![vec!["a", "b"], vec!["b", "c"]]);
    }

    #[test]
    fn substitution_enumeration_ranges_unbound_vars_over_universe() {
        // p ← ¬q(X): X unbound by positives, ranges over U.
        let p = parse_program("p :- not q(X).\nr(a).\nr(b).").unwrap();
        let db = Database::new();
        let u = Database::universe(&p, &db);
        assert_eq!(u.len(), 2);
        let ev = RuleEvaluator::new(&p.rules()[0]);
        let mut count = 0;
        ev.for_each_substitution::<Infallible>(&db, &u, &mut |a| {
            assert_eq!(a.len(), 1);
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 2);
    }

    #[test]
    fn projection_collapses_dont_care_variables() {
        // X occurs only under negation: the envelope derives p once, not
        // |U| duplicate times; the unprojected enumeration still sees
        // both substitutions.
        let p = parse_program("p :- not q(X).\nr(a).\nr(b).").unwrap();
        let db = Database::new();
        let u = Database::universe(&p, &db);
        assert_eq!(u.len(), 2);
        let mut out = Vec::new();
        RuleEvaluator::envelope(&p.rules()[0]).emit(&db, &Database::new(), None, &u, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], GroundAtom::from_texts("p", &[]));
        // With an empty universe the rule still has no instances at all.
        RuleEvaluator::envelope(&p.rules()[0]).emit(&db, &Database::new(), None, &[], &mut out);
        assert_eq!(out.len(), 1); // nothing appended
    }

    #[test]
    fn substitution_enumeration_stops_on_error() {
        let p = parse_program("p(X) :- e(X).").unwrap();
        let db = parse_database("e(a).\ne(b).\ne(c).").unwrap();
        let u = Database::universe(&p, &db);
        let ev = RuleEvaluator::new(&p.rules()[0]);
        let mut count = 0u32;
        let r = ev.for_each_substitution(&db, &u, &mut |_| {
            count += 1;
            if count == 2 {
                Err("stop")
            } else {
                Ok(())
            }
        });
        assert_eq!(r, Err("stop"));
        assert_eq!(count, 2);
    }
}
