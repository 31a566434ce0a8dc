//! Programs: validated collections of rules.
//!
//! A [`Program`] is a finite set of rules together with derived metadata:
//! the predicate signature (consistent arities), the IDB/EDB split (a
//! predicate is IDB iff it heads some rule — paper, Section 2), and the
//! constants appearing in the rules.

use std::collections::hash_map::Entry;
use std::fmt;

use crate::atom::Sign;
use crate::error::{Pos, ValidationError};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::rule::Rule;
use crate::skeleton::{Skeleton, SkeletonRule};
use crate::symbol::{ConstSym, PredSym};

/// Source positions for one rule: where the clause starts (the head atom)
/// and where each body literal starts, in body order.
///
/// Parsed programs carry one span per rule; programmatically built
/// programs carry none. Spans are presentation metadata: they do not
/// participate in [`Program`] equality.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RuleSpan {
    /// Position of the head atom (start of the clause).
    pub rule: Pos,
    /// Position of each body literal (at its `not`, if negated).
    pub literals: Vec<Pos>,
}

/// A dropped duplicate rule. [`Program::new`] keeps the first occurrence
/// of each syntactically identical rule and records later occurrences
/// here, so analyses can report them without the grounder paying for
/// them twice.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DuplicateRule {
    /// Index into [`Program::rules`] of the retained first occurrence.
    pub kept: usize,
    /// Source position of the dropped occurrence, when parsed.
    pub span: Option<RuleSpan>,
}

/// Signature information for one predicate of a program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PredInfo {
    /// The predicate's arity.
    pub arity: usize,
    /// `true` iff the predicate appears in the head of some rule.
    pub is_idb: bool,
    /// `true` iff the predicate appears negated somewhere in a body.
    pub occurs_negatively: bool,
}

/// A validated Datalog¬ program.
///
/// Construction via [`Program::new`] enforces that every occurrence of a
/// predicate has the same arity. A program is a *set* of rules: later
/// syntactically identical duplicates are dropped at construction (first
/// occurrence wins) and recorded in [`Program::duplicate_rules`] — kept,
/// they would ground twice and inflate every instance count. Retained
/// rules keep their source order; rule indices (`usize` positions into
/// [`Program::rules`]) are the stable rule identities used by the
/// grounder and the analyses.
///
/// Equality compares the retained rules only; spans and duplicate
/// records are source metadata.
#[derive(Clone, Debug)]
pub struct Program {
    rules: Vec<Rule>,
    preds: FxHashMap<PredSym, PredInfo>,
    /// Predicates in deterministic first-occurrence order.
    pred_order: Vec<PredSym>,
    /// One span per rule for parsed programs; empty otherwise.
    spans: Vec<RuleSpan>,
    /// Dropped syntactic duplicates, in source order.
    duplicates: Vec<DuplicateRule>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.rules == other.rules
    }
}

impl Eq for Program {}

impl Program {
    /// Validates and constructs a program from rules.
    ///
    /// # Errors
    ///
    /// [`ValidationError::ArityMismatch`] if a predicate occurs with two
    /// different arities.
    pub fn new(rules: impl IntoIterator<Item = Rule>) -> Result<Self, ValidationError> {
        Self::build(rules.into_iter().map(|r| (r, None)))
    }

    /// Like [`Program::new`], but attaches a source span to every rule
    /// (the parser's entry point).
    ///
    /// # Errors
    ///
    /// [`ValidationError::ArityMismatch`] if a predicate occurs with two
    /// different arities.
    pub fn with_spans(
        rules: impl IntoIterator<Item = (Rule, RuleSpan)>,
    ) -> Result<Self, ValidationError> {
        Self::build(rules.into_iter().map(|(r, s)| (r, Some(s))))
    }

    fn build(
        spanned: impl IntoIterator<Item = (Rule, Option<RuleSpan>)>,
    ) -> Result<Self, ValidationError> {
        let (mut rules, mut source_spans): (Vec<Rule>, Vec<Option<RuleSpan>>) =
            spanned.into_iter().unzip();
        // First occurrence wins. The map borrows the rules, so finding
        // duplicates copies no rule.
        let mut keep: Vec<bool> = Vec::with_capacity(rules.len());
        let mut duplicates: Vec<DuplicateRule> = Vec::new();
        {
            let mut seen: FxHashMap<&Rule, usize> = FxHashMap::default();
            seen.reserve(rules.len());
            for (rule, span) in rules.iter().zip(&mut source_spans) {
                let next = seen.len();
                match seen.entry(rule) {
                    Entry::Occupied(first) => {
                        keep.push(false);
                        duplicates.push(DuplicateRule {
                            kept: *first.get(),
                            span: span.take(),
                        });
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(next);
                        keep.push(true);
                    }
                }
            }
        }
        if !duplicates.is_empty() {
            let mut flags = keep.iter();
            rules.retain(|_| *flags.next().expect("one flag per rule"));
            let mut flags = keep.iter();
            source_spans.retain(|_| *flags.next().expect("one flag per rule"));
        }
        // Spans are all-or-nothing: a partially spanned input (never
        // produced by the parser or the builder) degrades to span-less.
        let spans: Vec<RuleSpan> = source_spans
            .into_iter()
            .collect::<Option<_>>()
            .unwrap_or_default();

        let mut preds: FxHashMap<PredSym, PredInfo> = FxHashMap::default();
        let mut pred_order: Vec<PredSym> = Vec::new();

        let note = |pred: PredSym,
                    arity: usize,
                    is_head: bool,
                    neg: bool,
                    preds: &mut FxHashMap<PredSym, PredInfo>,
                    pred_order: &mut Vec<PredSym>|
         -> Result<(), ValidationError> {
            match preds.get_mut(&pred) {
                Some(info) => {
                    if info.arity != arity {
                        return Err(ValidationError::ArityMismatch {
                            pred,
                            first: info.arity,
                            second: arity,
                        });
                    }
                    info.is_idb |= is_head;
                    info.occurs_negatively |= neg;
                }
                None => {
                    preds.insert(
                        pred,
                        PredInfo {
                            arity,
                            is_idb: is_head,
                            occurs_negatively: neg,
                        },
                    );
                    pred_order.push(pred);
                }
            }
            Ok(())
        };

        for rule in &rules {
            note(
                rule.head.pred,
                rule.head.arity(),
                true,
                false,
                &mut preds,
                &mut pred_order,
            )?;
            for lit in &rule.body {
                note(
                    lit.atom.pred,
                    lit.atom.arity(),
                    false,
                    lit.is_neg(),
                    &mut preds,
                    &mut pred_order,
                )?;
            }
        }

        Ok(Program {
            rules,
            preds,
            pred_order,
            spans,
            duplicates,
        })
    }

    /// An empty program.
    pub fn empty() -> Self {
        Program::new(std::iter::empty()).expect("empty program is valid")
    }

    /// The rules, in source order (duplicates already dropped).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The source span of rule `index`, if this program was parsed.
    pub fn span(&self, index: usize) -> Option<&RuleSpan> {
        self.spans.get(index)
    }

    /// The syntactic duplicates dropped at construction, in source order.
    pub fn duplicate_rules(&self) -> &[DuplicateRule] {
        &self.duplicates
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` iff there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Signature info for `pred`, if it occurs in the program.
    pub fn pred_info(&self, pred: PredSym) -> Option<&PredInfo> {
        self.preds.get(&pred)
    }

    /// All predicates in deterministic first-occurrence order.
    pub fn predicates(&self) -> &[PredSym] {
        &self.pred_order
    }

    /// IDB predicates (those that head a rule), in first-occurrence order.
    pub fn idb_predicates(&self) -> impl Iterator<Item = PredSym> + '_ {
        self.pred_order
            .iter()
            .copied()
            .filter(move |p| self.preds[p].is_idb)
    }

    /// EDB predicates (those that never head a rule), in first-occurrence
    /// order.
    pub fn edb_predicates(&self) -> impl Iterator<Item = PredSym> + '_ {
        self.pred_order
            .iter()
            .copied()
            .filter(move |p| !self.preds[p].is_idb)
    }

    /// `true` iff `pred` is an IDB predicate of this program.
    pub fn is_idb(&self, pred: PredSym) -> bool {
        self.preds.get(&pred).is_some_and(|i| i.is_idb)
    }

    /// The arity of `pred`, if known.
    pub fn arity(&self, pred: PredSym) -> Option<usize> {
        self.preds.get(&pred).map(|i| i.arity)
    }

    /// `true` iff some body literal anywhere is negative.
    pub fn has_negation(&self) -> bool {
        self.rules.iter().any(Rule::has_negation)
    }

    /// `true` iff every rule is safe (see [`Rule::is_safe`]).
    pub fn is_safe(&self) -> bool {
        self.rules.iter().all(Rule::is_safe)
    }

    /// The distinct constants appearing in the rules, in first-occurrence
    /// order.
    pub fn constants(&self) -> Vec<ConstSym> {
        let mut seen: FxHashSet<ConstSym> = FxHashSet::default();
        let mut out = Vec::new();
        for rule in &self.rules {
            for c in rule.constants() {
                if seen.insert(c) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// The skeleton (propositional form) of this program: rules with all
    /// parentheses, variables, and constants omitted (paper, Section 4).
    pub fn skeleton(&self) -> Skeleton {
        Skeleton::of_program(self)
    }

    /// `true` iff `other` is an alphabetic variant of `self`: same skeleton
    /// (paper, Section 4 — "programs that only differ in the arity of the
    /// predicates and the names of the variables and constants in each
    /// rule").
    ///
    /// Skeletons are compared as *sets* of skeleton rules: programs are
    /// rule sets, and realizing two same-skeleton rules identically
    /// collapses them at construction — multiplicity is not part of the
    /// variant relation.
    pub fn is_alphabetic_variant_of(&self, other: &Program) -> bool {
        let (sa, sb) = (self.skeleton(), other.skeleton());
        let a: FxHashSet<&SkeletonRule> = sa.rules.iter().collect();
        let b: FxHashSet<&SkeletonRule> = sb.rules.iter().collect();
        a == b
    }

    /// Signed predicate-level dependencies: for every rule `Q ← …(¬)P…`,
    /// yields `(P, sign, Q)` — an edge of the paper's *program graph*.
    ///
    /// (The program graph itself, with SCC/tie machinery, lives in the
    /// `tiebreak-core` crate; this iterator is the raw edge source.)
    pub fn dependency_edges(&self) -> impl Iterator<Item = (PredSym, Sign, PredSym)> + '_ {
        self.rules.iter().flat_map(|r| {
            let head = r.head.pred;
            r.body
                .iter()
                .map(move |lit| (lit.atom.pred, lit.sign, head))
        })
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Literal};

    fn win_move() -> Program {
        // win(X) :- move(X, Y), not win(Y).
        let r = Rule::new(
            Atom::from_texts("win", &["X"]),
            vec![
                Literal::pos(Atom::from_texts("move", &["X", "Y"])),
                Literal::neg(Atom::from_texts("win", &["Y"])),
            ],
        );
        Program::new(vec![r]).expect("valid")
    }

    #[test]
    fn idb_edb_split() {
        let p = win_move();
        let idb: Vec<&str> = p
            .idb_predicates()
            .map(super::super::symbol::PredSym::as_str)
            .collect();
        let edb: Vec<&str> = p
            .edb_predicates()
            .map(super::super::symbol::PredSym::as_str)
            .collect();
        assert_eq!(idb, vec!["win"]);
        assert_eq!(edb, vec!["move"]);
        assert!(p.is_idb(PredSym::new("win")));
        assert!(!p.is_idb(PredSym::new("move")));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let r1 = Rule::fact(Atom::from_texts("p", &["a"]));
        let r2 = Rule::fact(Atom::from_texts("p", &["a", "b"]));
        let err = Program::new(vec![r1, r2]).unwrap_err();
        match err {
            ValidationError::ArityMismatch {
                pred,
                first,
                second,
            } => {
                assert_eq!(pred.as_str(), "p");
                assert_eq!((first, second), (1, 2));
            }
        }
    }

    #[test]
    fn dependency_edges_signed() {
        let p = win_move();
        let deps: Vec<(String, Sign, String)> = p
            .dependency_edges()
            .map(|(a, s, b)| (a.to_string(), s, b.to_string()))
            .collect();
        assert_eq!(
            deps,
            vec![
                ("move".to_owned(), Sign::Pos, "win".to_owned()),
                ("win".to_owned(), Sign::Neg, "win".to_owned()),
            ]
        );
    }

    #[test]
    fn negation_and_safety_flags() {
        let p = win_move();
        assert!(p.has_negation());
        assert!(p.is_safe());
        assert_eq!(p.arity(PredSym::new("move")), Some(2));
        assert_eq!(p.arity(PredSym::new("absent")), None);
    }

    #[test]
    fn empty_program() {
        let p = Program::empty();
        assert!(p.is_empty());
        assert_eq!(p.predicates().len(), 0);
        assert!(!p.has_negation());
    }

    #[test]
    fn duplicate_rules_collapse_and_are_recorded() {
        let r = |a: &str, b: &str| {
            Rule::new(
                Atom::from_texts(a, &["X"]),
                vec![Literal::pos(Atom::from_texts(b, &["X"]))],
            )
        };
        let p = Program::new(vec![r("p", "q"), r("s", "q"), r("p", "q")]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.duplicate_rules().len(), 1);
        assert_eq!(p.duplicate_rules()[0].kept, 0);
        assert!(p.duplicate_rules()[0].span.is_none());
        // Equality ignores the duplicate record.
        let q = Program::new(vec![r("p", "q"), r("s", "q")]).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn variant_relation_ignores_rule_multiplicity() {
        // Two same-skeleton rules on one side, one on the other: still
        // alphabetic variants (a realization can collapse them).
        let two = Program::new(vec![
            Rule::new(
                Atom::from_texts("p", &["X"]),
                vec![Literal::pos(Atom::from_texts("q", &["X"]))],
            ),
            Rule::new(
                Atom::from_texts("p", &["a"]),
                vec![Literal::pos(Atom::from_texts("q", &["b"]))],
            ),
        ])
        .unwrap();
        let one = Program::new(vec![Rule::new(
            Atom::from_texts("p", &[]),
            vec![Literal::pos(Atom::from_texts("q", &[]))],
        )])
        .unwrap();
        assert_eq!(two.len(), 2);
        assert!(two.is_alphabetic_variant_of(&one));
        assert!(one.is_alphabetic_variant_of(&two));
    }

    #[test]
    fn constants_first_occurrence_order() {
        let r = Rule::new(
            Atom::from_texts("p", &["b"]),
            vec![Literal::pos(Atom::from_texts("q", &["a", "b"]))],
        );
        let p = Program::new(vec![r]).unwrap();
        let cs: Vec<&str> = p.constants().iter().map(|c| c.as_str()).collect();
        assert_eq!(cs, vec!["b", "a"]);
    }
}
