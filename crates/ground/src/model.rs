//! Three-valued partial models.
//!
//! A (partial) model *M* maps ground atoms to `true`/`false`, leaving some
//! atoms undefined; it is *total* when every atom has a value (paper,
//! Section 2). The initial model M₀(Δ) makes every atom of Δ true, every
//! EDB atom outside Δ false, and leaves IDB atoms outside Δ undefined.

use std::fmt;

use datalog_ast::{Database, GroundAtom, Program, Sign};

use crate::atoms::{AtomId, AtomTable};

/// The three truth values.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum TruthValue {
    /// No value assigned yet.
    #[default]
    Undefined,
    /// Assigned true.
    True,
    /// Assigned false.
    False,
}

impl TruthValue {
    /// `true` iff defined (not [`TruthValue::Undefined`]).
    pub fn is_defined(self) -> bool {
        !matches!(self, TruthValue::Undefined)
    }

    /// Converts a boolean.
    pub fn from_bool(b: bool) -> Self {
        if b {
            TruthValue::True
        } else {
            TruthValue::False
        }
    }
}

impl fmt::Display for TruthValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TruthValue::Undefined => "undefined",
            TruthValue::True => "true",
            TruthValue::False => "false",
        })
    }
}

/// A partial model over an [`AtomTable`]'s atoms.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PartialModel {
    values: Vec<TruthValue>,
}

impl PartialModel {
    /// The everywhere-undefined model over `n` atoms.
    pub fn undefined(n: usize) -> Self {
        PartialModel {
            values: vec![TruthValue::Undefined; n],
        }
    }

    /// The paper's initial model M₀(Δ): atoms of Δ (IDB or EDB) are true;
    /// EDB atoms not in Δ are false; IDB atoms not in Δ stay undefined.
    pub fn initial(program: &Program, database: &Database, atoms: &AtomTable) -> Self {
        let mut m = PartialModel::undefined(atoms.len());
        for pred in program.predicates() {
            let is_idb = program.is_idb(*pred);
            for id in atoms.ids_of_pred(*pred) {
                if !is_idb {
                    m.values[id.index()] = TruthValue::False;
                }
            }
        }
        for (pred, args) in database.tuples() {
            if let Some(id) = atoms.atom_id(pred, args) {
                m.values[id.index()] = TruthValue::True;
            }
            // Facts about predicates the program never mentions are outside
            // V_P and simply do not participate.
        }
        m
    }

    /// Number of atoms (defined or not).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Grows the model to `n` atoms, the new atoms undefined — the delta
    /// grounder's extension point (atom ids only ever append).
    ///
    /// # Panics
    ///
    /// If `n` is smaller than the current length (ids never retire).
    pub fn grow(&mut self, n: usize) {
        assert!(n >= self.values.len(), "models never shrink");
        self.values.resize(n, TruthValue::Undefined);
    }

    /// `true` iff the model ranges over zero atoms.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of `atom`.
    pub fn get(&self, atom: AtomId) -> TruthValue {
        self.values[atom.index()]
    }

    /// Sets the value of `atom`.
    pub fn set(&mut self, atom: AtomId, value: TruthValue) {
        self.values[atom.index()] = value;
    }

    /// `true` iff every atom is defined.
    pub fn is_total(&self) -> bool {
        self.values.iter().all(|v| v.is_defined())
    }

    /// Number of defined atoms.
    pub fn defined_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_defined()).count()
    }

    /// Number of true atoms.
    pub fn true_count(&self) -> usize {
        self.values
            .iter()
            .filter(|v| matches!(v, TruthValue::True))
            .count()
    }

    /// Iterates over `(atom, value)` for defined atoms.
    pub fn defined(&self) -> impl Iterator<Item = (AtomId, TruthValue)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_defined())
            .map(|(i, &v)| (AtomId(i as u32), v))
    }

    /// Iterates over the undefined atoms.
    pub fn undefined_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_defined())
            .map(|(i, _)| AtomId(i as u32))
    }

    /// The true atoms, decoded.
    pub fn true_atoms(&self, atoms: &AtomTable) -> Vec<GroundAtom> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v, TruthValue::True))
            .map(|(i, _)| atoms.decode(AtomId(i as u32)))
            .collect()
    }

    /// `self` *extends* `other`: every atom defined in `other` has the
    /// same value in `self` (paper, Section 2).
    pub fn extends(&self, other: &PartialModel) -> bool {
        debug_assert_eq!(self.len(), other.len());
        other
            .values
            .iter()
            .zip(&self.values)
            .all(|(&o, &s)| !o.is_defined() || o == s)
    }

    /// Truth of a signed literal over `atom`: `Some(true)` / `Some(false)`
    /// when determined, `None` when the atom is undefined.
    pub fn literal_truth(&self, atom: AtomId, sign: Sign) -> Option<bool> {
        match (self.get(atom), sign) {
            (TruthValue::Undefined, _) => None,
            (TruthValue::True, Sign::Pos) | (TruthValue::False, Sign::Neg) => Some(true),
            (TruthValue::True, Sign::Neg) | (TruthValue::False, Sign::Pos) => Some(false),
        }
    }

    /// The paper's M₋ for the stable-model test: every **true IDB atom not
    /// in Δ** becomes undefined; everything else keeps its value.
    pub fn minus(&self, program: &Program, database: &Database, atoms: &AtomTable) -> PartialModel {
        let mut m = self.clone();
        for (i, v) in m.values.iter_mut().enumerate() {
            if *v == TruthValue::True {
                let id = AtomId(i as u32);
                let pred = atoms.pred_of(id);
                if program.is_idb(pred) {
                    let ga = atoms.decode(id);
                    if !database.contains(&ga) {
                        *v = TruthValue::Undefined;
                    }
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ground, GroundConfig, GroundMode};
    use datalog_ast::{parse_database, parse_program};

    /// Every atom over the universe of `(p, d)`.
    fn full_table(p: &Program, d: &Database) -> AtomTable {
        let g = ground(p, d, GroundMode::Full, &GroundConfig::default()).unwrap();
        g.atoms().clone()
    }

    fn setup() -> (Program, Database, AtomTable) {
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let d = parse_database("move(a, b).").unwrap();
        let t = full_table(&p, &d);
        (p, d, t)
    }

    #[test]
    fn initial_model_shape() {
        let (p, d, t) = setup();
        let m = PartialModel::initial(&p, &d, &t);
        // |U| = 2: win/1 → 2 atoms (undefined), move/2 → 4 atoms.
        assert_eq!(m.len(), 6);
        // move(a,b) true; other 3 move atoms false; 2 win atoms undefined.
        assert_eq!(m.true_count(), 1);
        assert_eq!(m.defined_count(), 4);
        assert!(!m.is_total());

        let mv = t
            .id_of(&GroundAtom::from_texts("move", &["a", "b"]))
            .unwrap();
        assert_eq!(m.get(mv), TruthValue::True);
        let mv2 = t
            .id_of(&GroundAtom::from_texts("move", &["b", "a"]))
            .unwrap();
        assert_eq!(m.get(mv2), TruthValue::False);
        let w = t.id_of(&GroundAtom::from_texts("win", &["a"])).unwrap();
        assert_eq!(m.get(w), TruthValue::Undefined);
    }

    #[test]
    fn idb_facts_in_delta_are_true() {
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let d = parse_database("move(a, b).\nwin(b).").unwrap();
        let t = full_table(&p, &d);
        let m = PartialModel::initial(&p, &d, &t);
        let w = t.id_of(&GroundAtom::from_texts("win", &["b"])).unwrap();
        assert_eq!(m.get(w), TruthValue::True);
    }

    #[test]
    fn extends_ordering() {
        let (p, d, t) = setup();
        let m0 = PartialModel::initial(&p, &d, &t);
        let mut m1 = m0.clone();
        let w = t.id_of(&GroundAtom::from_texts("win", &["a"])).unwrap();
        m1.set(w, TruthValue::True);
        assert!(m1.extends(&m0));
        assert!(!m0.extends(&m1));
        let mut m2 = m0.clone();
        m2.set(w, TruthValue::False);
        assert!(!m1.extends(&m2));
    }

    #[test]
    fn literal_truth_table() {
        let (p, d, t) = setup();
        let mut m = PartialModel::initial(&p, &d, &t);
        let w = t.id_of(&GroundAtom::from_texts("win", &["a"])).unwrap();
        assert_eq!(m.literal_truth(w, Sign::Pos), None);
        m.set(w, TruthValue::True);
        assert_eq!(m.literal_truth(w, Sign::Pos), Some(true));
        assert_eq!(m.literal_truth(w, Sign::Neg), Some(false));
        m.set(w, TruthValue::False);
        assert_eq!(m.literal_truth(w, Sign::Pos), Some(false));
        assert_eq!(m.literal_truth(w, Sign::Neg), Some(true));
    }

    #[test]
    fn minus_undefines_derived_idb_truths_only() {
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let d = parse_database("move(a, b).\nwin(b).").unwrap();
        let t = full_table(&p, &d);
        let mut m = PartialModel::initial(&p, &d, &t);
        let wa = t.id_of(&GroundAtom::from_texts("win", &["a"])).unwrap();
        let wb = t.id_of(&GroundAtom::from_texts("win", &["b"])).unwrap();
        m.set(wa, TruthValue::True); // derived, not in Δ
        let minus = m.minus(&p, &d, &t);
        assert_eq!(minus.get(wa), TruthValue::Undefined);
        // win(b) ∈ Δ keeps its value; EDB atoms keep theirs.
        assert_eq!(minus.get(wb), TruthValue::True);
        let mv = t
            .id_of(&GroundAtom::from_texts("move", &["a", "b"]))
            .unwrap();
        assert_eq!(minus.get(mv), TruthValue::True);
    }
}
