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
/// participate in [`Program`] equality. A span is a view: every rule's
/// literal positions live in one vector per program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RuleSpan<'a> {
    /// Position of the head atom (start of the clause).
    pub rule: Pos,
    /// Position of each body literal (at its `not`, if negated).
    pub literals: &'a [Pos],
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
    pub pos: Option<Pos>,
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
    /// The predicate's dense id: its position in [`Program::predicates`].
    pub index: u32,
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
    /// Each predicate's dense id.
    preds: FxHashMap<PredSym, u32>,
    /// Predicates in deterministic first-occurrence order, by dense id.
    pred_order: Vec<PredSym>,
    /// Signature info, by dense id.
    pred_infos: Vec<PredInfo>,
    /// The dense ids of every rule's head and body literal predicates,
    /// rule after rule; rule `i`'s start at `pred_id_start[i]`.
    pred_ids: Vec<u32>,
    pred_id_start: Vec<u32>,
    /// Per rule of a parsed program: its head position, and where its
    /// literal positions start in `literal_pos`. Empty otherwise.
    rule_spans: Vec<(Pos, u32)>,
    /// The body literal positions of every parsed rule, dropped
    /// duplicates' included, in source order.
    literal_pos: Vec<Pos>,
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
        Self::build(rules.into_iter().collect(), Vec::new(), Vec::new())
    }

    /// Like [`Program::new`], with the parser's source positions: per
    /// rule its head position and the start of its literal positions in
    /// `literal_pos`.
    pub(crate) fn parsed(
        rules: Vec<Rule>,
        rule_spans: Vec<(Pos, u32)>,
        literal_pos: Vec<Pos>,
    ) -> Result<Self, ValidationError> {
        debug_assert_eq!(rules.len(), rule_spans.len(), "one span per rule");
        Self::build(rules, rule_spans, literal_pos)
    }

    fn build(
        mut rules: Vec<Rule>,
        mut rule_spans: Vec<(Pos, u32)>,
        literal_pos: Vec<Pos>,
    ) -> Result<Self, ValidationError> {
        // First occurrence wins. The map borrows the rules, so finding
        // duplicates copies no rule.
        let mut keep: Vec<bool> = Vec::with_capacity(rules.len());
        let mut duplicates: Vec<DuplicateRule> = Vec::new();
        {
            let mut seen: FxHashMap<&Rule, usize> = FxHashMap::default();
            seen.reserve(rules.len());
            for (i, rule) in rules.iter().enumerate() {
                let next = seen.len();
                match seen.entry(rule) {
                    Entry::Occupied(first) => {
                        keep.push(false);
                        duplicates.push(DuplicateRule {
                            kept: *first.get(),
                            pos: rule_spans.get(i).map(|&(pos, _)| pos),
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
            if !rule_spans.is_empty() {
                let mut flags = keep.iter();
                rule_spans.retain(|_| *flags.next().expect("one flag per rule"));
            }
        }

        let mut preds: FxHashMap<PredSym, u32> = FxHashMap::default();
        let mut pred_order: Vec<PredSym> = Vec::new();
        let mut pred_infos: Vec<PredInfo> = Vec::new();
        let mut pred_ids: Vec<u32> =
            Vec::with_capacity(rules.iter().map(|r| 1 + r.body.len()).sum());
        let mut pred_id_start: Vec<u32> = Vec::with_capacity(rules.len());

        let mut note = |pred: PredSym,
                        arity: usize,
                        is_head: bool,
                        neg: bool|
         -> Result<u32, ValidationError> {
            let next = pred_order.len() as u32;
            match preds.entry(pred) {
                Entry::Occupied(known) => {
                    let info = &mut pred_infos[*known.get() as usize];
                    if info.arity != arity {
                        return Err(ValidationError::ArityMismatch {
                            pred,
                            first: info.arity,
                            second: arity,
                        });
                    }
                    info.is_idb |= is_head;
                    info.occurs_negatively |= neg;
                    Ok(info.index)
                }
                Entry::Vacant(slot) => {
                    slot.insert(next);
                    pred_infos.push(PredInfo {
                        arity,
                        is_idb: is_head,
                        occurs_negatively: neg,
                        index: next,
                    });
                    pred_order.push(pred);
                    Ok(next)
                }
            }
        };

        for rule in &rules {
            pred_id_start.push(u32::try_from(pred_ids.len()).expect("literal count fits u32"));
            pred_ids.push(note(rule.head.pred, rule.head.arity(), true, false)?);
            for lit in &rule.body {
                pred_ids.push(note(lit.atom.pred, lit.atom.arity(), false, lit.is_neg())?);
            }
        }

        Ok(Program {
            rules,
            preds,
            pred_order,
            pred_infos,
            pred_ids,
            pred_id_start,
            rule_spans,
            literal_pos,
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
    pub fn span(&self, index: usize) -> Option<RuleSpan<'_>> {
        let &(rule, start) = self.rule_spans.get(index)?;
        let start = start as usize;
        Some(RuleSpan {
            rule,
            literals: &self.literal_pos[start..start + self.rules[index].body.len()],
        })
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
        self.preds.get(&pred).map(|&i| &self.pred_infos[i as usize])
    }

    /// All predicates in deterministic first-occurrence order: a
    /// predicate's position is its dense id ([`PredInfo::index`]).
    pub fn predicates(&self) -> &[PredSym] {
        &self.pred_order
    }

    /// Signature info of every predicate, by dense id.
    pub fn pred_infos(&self) -> &[PredInfo] {
        &self.pred_infos
    }

    /// The dense ids of rule `index`'s head predicate and then of each of
    /// its body literals' predicates, in body order.
    pub fn pred_ids(&self, index: usize) -> &[u32] {
        let start = self.pred_id_start[index] as usize;
        &self.pred_ids[start..=start + self.rules[index].body.len()]
    }

    /// IDB predicates (those that head a rule), in first-occurrence order.
    pub fn idb_predicates(&self) -> impl Iterator<Item = PredSym> + '_ {
        self.pred_order
            .iter()
            .zip(&self.pred_infos)
            .filter(|(_, info)| info.is_idb)
            .map(|(&p, _)| p)
    }

    /// EDB predicates (those that never head a rule), in first-occurrence
    /// order.
    pub fn edb_predicates(&self) -> impl Iterator<Item = PredSym> + '_ {
        self.pred_order
            .iter()
            .zip(&self.pred_infos)
            .filter(|(_, info)| !info.is_idb)
            .map(|(&p, _)| p)
    }

    /// `true` iff `pred` is an IDB predicate of this program.
    pub fn is_idb(&self, pred: PredSym) -> bool {
        self.pred_info(pred).is_some_and(|i| i.is_idb)
    }

    /// The arity of `pred`, if known.
    pub fn arity(&self, pred: PredSym) -> Option<usize> {
        self.pred_info(pred).map(|i| i.arity)
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
        assert!(p.duplicate_rules()[0].pos.is_none());
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
