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

use std::fmt;

use crate::atom::GroundAtom;
use crate::error::ValidationError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::program::Program;
use crate::symbol::{ConstSym, PredSym};

/// A tuple of constants: one row of a relation.
pub type Tuple = Box<[ConstSym]>;

/// A finite relation: a set of constant tuples of a fixed arity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation {
    arity: usize,
    /// The tuples of a relation of positive arity.
    tuples: FxHashSet<Tuple>,
    /// The one possible tuple of a nullary relation, so that a
    /// propositional atom costs no hash table of its own.
    unit: Option<Tuple>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            tuples: FxHashSet::default(),
            unit: None,
        }
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len() + usize::from(self.unit.is_some())
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
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        assert_eq!(
            tuple.len(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            tuple.len(),
            self.arity
        );
        if self.arity == 0 {
            return self.unit.replace(tuple).is_none();
        }
        self.tuples.insert(tuple)
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[ConstSym]) -> bool {
        if self.arity == 0 {
            return tuple.is_empty() && self.unit.is_some();
        }
        self.tuples.contains(tuple)
    }

    /// Removes a tuple. Returns `true` if it was present.
    pub fn remove(&mut self, tuple: &[ConstSym]) -> bool {
        if self.arity == 0 {
            return tuple.is_empty() && self.unit.take().is_some();
        }
        self.tuples.remove(tuple)
    }

    /// Iterates over the tuples (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.unit.iter().chain(&self.tuples)
    }

    /// The tuples in lexicographic order of their constant texts
    /// (deterministic output for display and tests).
    pub fn sorted(&self) -> Vec<&Tuple> {
        let mut v: Vec<&Tuple> = self.iter().collect();
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
        let arity = fact.arity();
        let rel = self
            .relations
            .entry(fact.pred)
            .or_insert_with(|| Relation::new(arity));
        if rel.arity() != arity {
            return Err(ValidationError::ArityMismatch {
                pred: fact.pred,
                first: rel.arity(),
                second: arity,
            });
        }
        let new = rel.insert(fact.args);
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
        let removed = self
            .relations
            .get_mut(&fact.pred)
            .is_some_and(|rel| rel.remove(&fact.args));
        self.len -= usize::from(removed);
        removed
    }

    /// Membership test for a ground atom.
    pub fn contains(&self, fact: &GroundAtom) -> bool {
        self.relations
            .get(&fact.pred)
            .is_some_and(|rel| rel.contains(&fact.args))
    }

    /// The relation for `pred`, if present.
    pub fn relation(&self, pred: PredSym) -> Option<&Relation> {
        self.relations.get(&pred)
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
    pub fn facts(&self) -> impl Iterator<Item = GroundAtom> + '_ {
        self.relations.iter().flat_map(|(&pred, rel)| {
            rel.iter().map(move |t| GroundAtom {
                pred,
                args: t.clone(),
            })
        })
    }

    /// The distinct constants appearing in the database.
    pub fn constants(&self) -> Vec<ConstSym> {
        let mut seen: FxHashSet<ConstSym> = FxHashSet::default();
        let mut out = Vec::new();
        for rel in self.relations.values() {
            for tuple in rel.iter() {
                for &c in tuple {
                    if seen.insert(c) {
                        out.push(c);
                    }
                }
            }
        }
        out.sort_by_key(|c| c.as_str());
        out
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
        for fact in other.facts() {
            self.insert(fact)?;
        }
        Ok(())
    }

    /// The universe *U* of (program, database): all constants of either, in
    /// sorted order.
    pub fn universe(program: &Program, database: &Database) -> Vec<ConstSym> {
        let mut seen: FxHashSet<ConstSym> = FxHashSet::default();
        let mut out = Vec::new();
        for c in program.constants().into_iter().chain(database.constants()) {
            if seen.insert(c) {
                out.push(c);
            }
        }
        out.sort_by_key(|c| c.as_str());
        out
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pred in self.predicates() {
            let rel = &self.relations[&pred];
            for tuple in rel.sorted() {
                let atom = GroundAtom {
                    pred,
                    args: (*tuple).clone(),
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
