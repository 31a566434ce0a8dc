//! Finite databases of ground facts.
//!
//! A [`Database`] is the paper's Δ: *"a set of initial values for all
//! predicates (relations) of Π"*. Both EDB and IDB predicates may carry
//! initial facts (the **uniform** setting); the **nonuniform** setting
//! restricts IDB relations to be empty — see
//! [`Database::idb_is_empty`].
//!
//! The universe *U* of a pair (Π, Δ) is the set of all constants in either;
//! [`Database::constants`] yields the database's share.
//!
//! A relation holds its rows as [`Tuple`]s: up to [`INLINE_ARITY`]
//! constants inline, longer rows in one box. A tuple hashes, compares
//! and borrows exactly as the `[ConstSym]` slice it holds, so relations
//! are probed with borrowed slices ([`Database::contains_tuple`],
//! [`Database::insert_tuple`]) and a fact of small arity costs no
//! allocation of its own. Because the hash is the slice's, a relation's
//! iteration order — which grounding walks, and which fixes atom ids
//! and rule order — is the same as a set of boxed slices would have.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::atom::GroundAtom;
use crate::error::ValidationError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::program::Program;
use crate::symbol::{ConstSym, PredSym, FILLER};

/// Rows of at most this many constants are stored inline in a [`Tuple`].
pub const INLINE_ARITY: usize = 4;

/// A tuple of constants: one row of a relation. See the module docs.
#[derive(Clone)]
pub struct Tuple(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        args: [ConstSym; INLINE_ARITY],
    },
    Boxed(Box<[ConstSym]>),
}

impl Tuple {
    /// Copies `args` into a tuple: inline up to [`INLINE_ARITY`]
    /// constants, boxed beyond.
    pub fn new(args: &[ConstSym]) -> Self {
        if args.len() <= INLINE_ARITY {
            let mut inline = [FILLER; INLINE_ARITY];
            inline[..args.len()].copy_from_slice(args);
            Tuple(Repr::Inline {
                len: args.len() as u8,
                args: inline,
            })
        } else {
            Tuple(Repr::Boxed(args.into()))
        }
    }

    /// The constants.
    pub fn as_slice(&self) -> &[ConstSym] {
        match &self.0 {
            Repr::Inline { len, args } => &args[..usize::from(*len)],
            Repr::Boxed(args) => args,
        }
    }
}

impl std::ops::Deref for Tuple {
    type Target = [ConstSym];

    fn deref(&self) -> &[ConstSym] {
        self.as_slice()
    }
}

impl Borrow<[ConstSym]> for Tuple {
    fn borrow(&self) -> &[ConstSym] {
        self.as_slice()
    }
}

impl Hash for Tuple {
    /// The slice's hash, so that `&[ConstSym]` probes find the tuple.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Tuple {}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A finite relation: a set of constant tuples of a fixed arity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation {
    arity: usize,
    /// The tuples of a relation of positive arity.
    tuples: FxHashSet<Tuple>,
    /// Whether a nullary relation holds its one tuple, so that a
    /// propositional atom costs no hash table of its own.
    unit: bool,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            tuples: FxHashSet::default(),
            unit: false,
        }
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len() + usize::from(self.unit)
    }

    /// `true` iff no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a tuple. Returns `true` if it was new.
    ///
    /// # Panics
    ///
    /// If the tuple's length differs from the relation's arity (internal
    /// misuse — external inputs are validated at the [`Database`] level).
    pub fn insert(&mut self, tuple: &[ConstSym]) -> bool {
        assert_eq!(
            tuple.len(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            tuple.len(),
            self.arity
        );
        if self.arity == 0 {
            return !std::mem::replace(&mut self.unit, true);
        }
        self.tuples.insert(Tuple::new(tuple))
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[ConstSym]) -> bool {
        if self.arity == 0 {
            return tuple.is_empty() && self.unit;
        }
        self.tuples.contains(tuple)
    }

    /// Removes a tuple. Returns `true` if it was present.
    pub fn remove(&mut self, tuple: &[ConstSym]) -> bool {
        if self.arity == 0 {
            return tuple.is_empty() && std::mem::take(&mut self.unit);
        }
        self.tuples.remove(tuple)
    }

    /// Iterates over the tuples (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &[ConstSym]> {
        let unit: &[ConstSym] = &[];
        self.unit
            .then_some(unit)
            .into_iter()
            .chain(self.tuples.iter().map(Tuple::as_slice))
    }

    /// The tuples in lexicographic order of their constant texts
    /// (deterministic output for display and tests).
    pub fn sorted(&self) -> Vec<&[ConstSym]> {
        let mut v: Vec<&[ConstSym]> = self.iter().collect();
        v.sort_by(|a, b| {
            a.iter()
                .map(|c| c.as_str())
                .cmp(b.iter().map(|c| c.as_str()))
        });
        v
    }
}

/// A database Δ: a finite set of ground facts, grouped per predicate.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Database {
    relations: FxHashMap<PredSym, Relation>,
    /// Total fact count, kept in step with `relations` by
    /// [`Database::insert`] and [`Database::remove`] so [`Database::len`]
    /// is O(1) (budget checks call it once per derived fact).
    len: usize,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Inserts a ground fact. Creates the relation on first use.
    ///
    /// # Errors
    ///
    /// [`ValidationError::ArityMismatch`] if the predicate already has a
    /// relation of a different arity.
    pub fn insert(&mut self, fact: GroundAtom) -> Result<bool, ValidationError> {
        self.insert_tuple(fact.pred, &fact.args)
    }

    /// Inserts the fact `pred(args…)` from a borrowed tuple: no
    /// allocation beyond the relation's own growth for arities up to
    /// [`INLINE_ARITY`].
    ///
    /// # Errors
    ///
    /// As for [`Database::insert`].
    pub fn insert_tuple(
        &mut self,
        pred: PredSym,
        args: &[ConstSym],
    ) -> Result<bool, ValidationError> {
        let arity = args.len();
        let rel = self
            .relations
            .entry(pred)
            .or_insert_with(|| Relation::new(arity));
        if rel.arity() != arity {
            return Err(ValidationError::ArityMismatch {
                pred,
                first: rel.arity(),
                second: arity,
            });
        }
        let new = rel.insert(args);
        self.len += usize::from(new);
        Ok(new)
    }

    /// Convenience: inserts `pred(args…)` from texts.
    ///
    /// # Panics
    ///
    /// On arity mismatch with an existing relation (use [`Database::insert`]
    /// for fallible insertion).
    pub fn insert_texts(&mut self, pred: &str, args: &[&str]) {
        self.insert(GroundAtom::from_texts(pred, args))
            .expect("arity mismatch in insert_texts");
    }

    /// Removes a ground fact. Returns `true` if it was present. Empty
    /// relations are kept (the predicate's arity stays pinned).
    pub fn remove(&mut self, fact: &GroundAtom) -> bool {
        self.remove_tuple(fact.pred, &fact.args)
    }

    /// Removes the fact `pred(args…)`. Returns `true` if it was present.
    pub fn remove_tuple(&mut self, pred: PredSym, args: &[ConstSym]) -> bool {
        let removed = self
            .relations
            .get_mut(&pred)
            .is_some_and(|rel| rel.remove(args));
        self.len -= usize::from(removed);
        removed
    }

    /// Membership test for a ground atom.
    pub fn contains(&self, fact: &GroundAtom) -> bool {
        self.contains_tuple(fact.pred, &fact.args)
    }

    /// Membership test for the fact `pred(args…)`.
    pub fn contains_tuple(&self, pred: PredSym, args: &[ConstSym]) -> bool {
        self.relations
            .get(&pred)
            .is_some_and(|rel| rel.contains(args))
    }

    /// The relation for `pred`, if present.
    pub fn relation(&self, pred: PredSym) -> Option<&Relation> {
        self.relations.get(&pred)
    }

    /// Every predicate with its (possibly empty) relation, in the order
    /// [`Database::facts`] walks them.
    pub fn relations(&self) -> impl Iterator<Item = (PredSym, &Relation)> {
        self.relations.iter().map(|(&pred, rel)| (pred, rel))
    }

    /// All predicates with (possibly empty) relations, sorted by name for
    /// determinism.
    pub fn predicates(&self) -> Vec<PredSym> {
        let mut v: Vec<PredSym> = self.relations.keys().copied().collect();
        v.sort_by_key(|p| p.as_str());
        v
    }

    /// Total number of facts. O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no facts at all. O(1).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over all facts as [`GroundAtom`]s (unspecified order).
    /// Each yielded atom is a fresh copy; [`Database::tuples`] walks the
    /// same facts in the same order without copying.
    pub fn facts(&self) -> impl Iterator<Item = GroundAtom> + '_ {
        self.tuples().map(|(pred, args)| GroundAtom {
            pred,
            args: args.into(),
        })
    }

    /// Iterates over all facts as borrowed `(predicate, tuple)` pairs,
    /// in [`Database::facts`] order.
    pub fn tuples(&self) -> impl Iterator<Item = (PredSym, &[ConstSym])> {
        self.relations
            .iter()
            .flat_map(|(&pred, rel)| rel.iter().map(move |t| (pred, t)))
    }

    /// The distinct constants appearing in the database, sorted by text.
    pub fn constants(&self) -> Vec<ConstSym> {
        let mut seen: FxHashSet<ConstSym> = FxHashSet::default();
        let mut out = Vec::new();
        self.collect_constants(&mut seen, &mut out);
        sort_by_text(out)
    }

    /// Appends the constants of the database not yet in `seen` to `out`,
    /// in first-occurrence order.
    fn collect_constants(&self, seen: &mut FxHashSet<ConstSym>, out: &mut Vec<ConstSym>) {
        for rel in self.relations.values() {
            for tuple in rel.iter() {
                for &c in tuple {
                    if seen.insert(c) {
                        out.push(c);
                    }
                }
            }
        }
    }

    /// `true` iff every IDB predicate of `program` has an empty relation —
    /// the paper's **nonuniform** initialization (IDBs empty, cf. \[Sa\]).
    pub fn idb_is_empty(&self, program: &Program) -> bool {
        program
            .idb_predicates()
            .all(|p| self.relations.get(&p).is_none_or(Relation::is_empty))
    }

    /// Validates the database against a program's signature: every fact's
    /// predicate must either be unknown to the program (allowed — extra
    /// relations are ignored by grounding) or match its arity.
    ///
    /// # Errors
    ///
    /// [`ValidationError::ArityMismatch`] on the first offending predicate.
    pub fn validate_against(&self, program: &Program) -> Result<(), ValidationError> {
        for (&pred, rel) in &self.relations {
            if let Some(arity) = program.arity(pred) {
                if arity != rel.arity() {
                    return Err(ValidationError::ArityMismatch {
                        pred,
                        first: arity,
                        second: rel.arity(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Merges `other` into `self`.
    ///
    /// # Errors
    ///
    /// [`ValidationError::ArityMismatch`] if a shared predicate has
    /// conflicting arities.
    pub fn merge(&mut self, other: &Database) -> Result<(), ValidationError> {
        for (pred, args) in other.tuples() {
            self.insert_tuple(pred, args)?;
        }
        Ok(())
    }

    /// The universe *U* of (program, database): all constants of either, in
    /// sorted order.
    pub fn universe(program: &Program, database: &Database) -> Vec<ConstSym> {
        let mut seen: FxHashSet<ConstSym> = FxHashSet::default();
        let mut out = Vec::new();
        for c in program.constants() {
            if seen.insert(c) {
                out.push(c);
            }
        }
        database.collect_constants(&mut seen, &mut out);
        sort_by_text(out)
    }
}

/// Sorts distinct constants by text, reading each text once. Interning
/// is a bijection, so distinct constants have distinct texts and the
/// unstable sort is deterministic.
fn sort_by_text(constants: Vec<ConstSym>) -> Vec<ConstSym> {
    let mut keyed: Vec<(&'static str, ConstSym)> =
        constants.into_iter().map(|c| (c.as_str(), c)).collect();
    keyed.sort_unstable_by(|a, b| a.0.cmp(b.0));
    keyed.into_iter().map(|(_, c)| c).collect()
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pred in self.predicates() {
            let rel = &self.relations[&pred];
            for tuple in rel.sorted() {
                let atom = GroundAtom {
                    pred,
                    args: tuple.into(),
                };
                writeln!(f, "{atom}.")?;
            }
        }
        Ok(())
    }
}

impl FromIterator<GroundAtom> for Database {
    /// Builds a database from facts.
    ///
    /// # Panics
    ///
    /// On arity mismatch; use [`Database::insert`] for fallible building.
    fn from_iter<I: IntoIterator<Item = GroundAtom>>(iter: I) -> Self {
        let mut db = Database::new();
        for fact in iter {
            db.insert(fact).expect("arity mismatch building Database");
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Literal};
    use crate::rule::Rule;

    #[test]
    fn insert_and_contains() {
        let mut db = Database::new();
        db.insert_texts("e", &["a", "b"]);
        db.insert_texts("e", &["b", "c"]);
        assert_eq!(db.len(), 2);
        assert!(db.contains(&GroundAtom::from_texts("e", &["a", "b"])));
        assert!(!db.contains(&GroundAtom::from_texts("e", &["c", "a"])));
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut db = Database::new();
        assert!(db.insert(GroundAtom::from_texts("p", &["a"])).unwrap());
        assert!(!db.insert(GroundAtom::from_texts("p", &["a"])).unwrap());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn remove_round_trips() {
        let mut db = Database::new();
        db.insert_texts("p", &["a"]);
        assert!(db.remove(&GroundAtom::from_texts("p", &["a"])));
        assert!(!db.remove(&GroundAtom::from_texts("p", &["a"])));
        assert!(!db.contains(&GroundAtom::from_texts("p", &["a"])));
        assert_eq!(db.len(), 0);
        // The (now empty) relation keeps its arity pinned.
        assert!(db.insert(GroundAtom::from_texts("p", &["a", "b"])).is_err());
    }

    #[test]
    fn nullary_relations_hold_one_tuple() {
        let mut db = Database::new();
        let p = GroundAtom::from_texts("p", &[]);
        assert!(db.insert(p.clone()).unwrap());
        assert!(!db.insert(p.clone()).unwrap());
        assert_eq!(db.len(), 1);
        assert!(db.contains(&p));
        assert_eq!(db.relation(p.pred).unwrap().iter().count(), 1);
        assert_eq!(db.to_string(), "p.\n");
        assert!(db.remove(&p));
        assert!(!db.contains(&p));
        assert!(db.relation(p.pred).unwrap().is_empty());
        assert!(db.insert(GroundAtom::from_texts("p", &["a"])).is_err());
    }

    #[test]
    fn tuples_hash_and_borrow_as_their_slices() {
        use std::hash::BuildHasher;
        let build = crate::fxhash::FxBuildHasher::default();
        for arity in [1, INLINE_ARITY, INLINE_ARITY + 1, 7] {
            let args: Vec<ConstSym> = (0..arity)
                .map(|i| ConstSym::new(&format!("k{i}")))
                .collect();
            let tuple = Tuple::new(&args);
            assert_eq!(tuple.as_slice(), &args[..]);
            assert_eq!(build.hash_one(&tuple), build.hash_one(&args[..]));
            let boxed: Box<[ConstSym]> = args.clone().into();
            assert_eq!(build.hash_one(&tuple), build.hash_one(&boxed));
            let mut rel = Relation::new(arity);
            assert!(rel.insert(&args));
            assert!(!rel.insert(&args));
            assert!(rel.contains(&args));
            assert!(rel.remove(&args));
            assert!(rel.is_empty());
        }
    }

    #[test]
    fn borrowed_tuples_insert_probe_and_remove() {
        let mut db = Database::new();
        let (e, a, b) = (PredSym::new("e"), ConstSym::new("a"), ConstSym::new("b"));
        assert!(db.insert_tuple(e, &[a, b]).unwrap());
        assert!(!db.insert_tuple(e, &[a, b]).unwrap());
        assert!(db.contains_tuple(e, &[a, b]));
        assert!(!db.contains_tuple(e, &[b, a]));
        assert!(db.insert_tuple(e, &[a]).is_err());
        let walked: Vec<(PredSym, Vec<ConstSym>)> =
            db.tuples().map(|(p, t)| (p, t.to_vec())).collect();
        assert_eq!(walked, vec![(e, vec![a, b])]);
        assert!(db.remove_tuple(e, &[a, b]));
        assert_eq!(db.len(), 0);
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut db = Database::new();
        db.insert_texts("p", &["a"]);
        assert!(db.insert(GroundAtom::from_texts("p", &["a", "b"])).is_err());
    }

    #[test]
    fn universe_unions_program_and_database_constants() {
        let r = Rule::new(
            Atom::from_texts("p", &["a"]),
            vec![Literal::pos(Atom::from_texts("e", &["X"]))],
        );
        let prog = Program::new(vec![r]).unwrap();
        let mut db = Database::new();
        db.insert_texts("e", &["b"]);
        let u: Vec<&str> = Database::universe(&prog, &db)
            .iter()
            .map(|c| c.as_str())
            .collect();
        assert_eq!(u, vec!["a", "b"]);
    }

    #[test]
    fn nonuniform_check() {
        let r = Rule::new(
            Atom::from_texts("p", &["X"]),
            vec![Literal::pos(Atom::from_texts("e", &["X"]))],
        );
        let prog = Program::new(vec![r]).unwrap();
        let mut db = Database::new();
        db.insert_texts("e", &["a"]);
        assert!(db.idb_is_empty(&prog));
        db.insert_texts("p", &["a"]);
        assert!(!db.idb_is_empty(&prog));
    }

    #[test]
    fn display_is_sorted_and_parseable_shape() {
        let mut db = Database::new();
        db.insert_texts("e", &["b", "c"]);
        db.insert_texts("e", &["a", "b"]);
        db.insert_texts("d", &["z"]);
        assert_eq!(db.to_string(), "d(z).\ne(a, b).\ne(b, c).\n");
    }

    #[test]
    fn validate_against_program() {
        let r = Rule::new(
            Atom::from_texts("p", &["X"]),
            vec![Literal::pos(Atom::from_texts("e", &["X"]))],
        );
        let prog = Program::new(vec![r]).unwrap();
        let mut db = Database::new();
        db.insert_texts("e", &["a", "b"]); // wrong arity: program says 1
        assert!(db.validate_against(&prog).is_err());
    }
}
