//! The atom table: a bijection between ground atoms and integers.
//!
//! The paper's set V_P of predicate nodes is, for each m-ary predicate Q
//! and each m-tuple over the universe *U*, the ground atom Q(a₁, …, a_m).
//! The table interns only the atoms a grounding touches, in first-intern
//! order: the relevant grounder those in Δ or in an emitted rule
//! instance, the paper-literal `Full` grounder every atom over *U*, in an
//! order that gives each id a closed form ([`crate::grounder`]). Its
//! atoms live in one store: a predicate per id, every argument tuple
//! back to back in one flat arena, and a hand-written open-addressing
//! index of `u32` ids probed with a borrowed `(PredSym, &[ConstSym])`
//! key — a known atom costs a hash probe, a new one an arena append, and
//! neither allocates beyond amortized growth. Decoding copies the stored
//! tuple out of the arena.
//!
//! Atom ids are `u32`, so every table caps its atom budget at
//! `u32::MAX`; [`AtomInterner::intern`] reports the required count on
//! overflow instead of silently wrapping.
//!
//! **Text order.** Replies list facts in text order
//! ([`GroundAtom::text_cmp`]), which does not depend on interning
//! history. [`AtomTable::text_order`] lists every id in that order: it
//! ranks the distinct predicate texts and takes the universe's position
//! as a constant's rank (the universe is sorted by text), sorts the ids
//! by rank tuples without reading a text, and caches the result until an
//! append. A reply is then one filtered pass over the order, each atom's
//! text appended straight from its symbols ([`AtomTable::write_atom`]);
//! no text is stored per atom.

use std::fmt;
use std::sync::OnceLock;

use std::hash::Hasher;

use datalog_ast::fxhash::FxHasher;
use datalog_ast::{ConstSym, FxHashMap, FxHashSet, GroundAtom, PredSym, Symbol};

/// Identifier of a ground atom: an index into the [`AtomTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The atom space exceeds its budget. `required` is the count reached
/// when interning aborted — a lower bound on the true requirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AtomSpaceOverflow {
    /// How many ground atoms the instance needs (at least this many).
    pub required: u64,
}

impl fmt::Display for AtomSpaceOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "atom space requires {} ground atoms", self.required)
    }
}

/// End of a [`PredChains`] chain.
const NO_NEXT: u32 = u32::MAX;

/// The atom ids of each predicate of a table, chained in
/// ascending order through one link per atom: a predicate costs one map
/// entry, so a propositional atom costs no list of its own.
#[derive(Clone, Debug, Default)]
struct PredChains {
    /// Per predicate: its first and last atom id.
    ends: FxHashMap<PredSym, (u32, u32)>,
    /// Per atom id: the next id of the same predicate, or [`NO_NEXT`].
    next: Vec<u32>,
}

impl PredChains {
    /// Appends atom `id`, which must be the next id, to `pred`'s chain.
    fn push(&mut self, pred: PredSym, id: u32) {
        debug_assert_eq!(id as usize, self.next.len(), "ids append in order");
        self.next.push(NO_NEXT);
        let (_, last) = self.ends.entry(pred).or_insert((id, id));
        if *last != id {
            self.next[*last as usize] = id;
            *last = id;
        }
    }

    fn iter(&self, pred: PredSym) -> PredIds<'_> {
        PredIds {
            next: &self.next,
            at: self.ends.get(&pred).map_or(NO_NEXT, |&(first, _)| first),
        }
    }
}

/// An empty [`AtomStore`] index slot.
const EMPTY: u64 = u64::MAX;

/// The interned atoms of a table, in id order (see the module docs).
#[derive(Clone, Debug, Default)]
struct AtomStore {
    /// Per atom id: its predicate, and where its arguments end in
    /// `args` (they start where the previous atom's end).
    atoms: Vec<(PredSym, u32)>,
    /// Every atom's arguments, back to back.
    args: Vec<ConstSym>,
    /// Linear-probing index: per slot, the top 32 bits of an atom's key
    /// hash above its id, or [`EMPTY`] (no id is `u32::MAX`). The hash
    /// bits spare a probe from reading atoms that do not match and let
    /// the index grow without rereading a tuple. Its length is zero or
    /// a power of two, and it is kept at most half full.
    slots: Vec<u64>,
    by_pred: PredChains,
}

/// The top 32 bits of the Fx hash of `pred(args…)`, which Fx mixes
/// best.
fn key_tag(pred: PredSym, args: &[ConstSym]) -> u32 {
    let mut h = FxHasher::default();
    h.write_u32(pred.symbol().index());
    for c in args {
        h.write_u32(c.symbol().index());
    }
    (h.finish() >> 32) as u32
}

impl AtomStore {
    fn len(&self) -> usize {
        self.atoms.len()
    }

    fn pred_of(&self, id: u32) -> PredSym {
        self.atoms[id as usize].0
    }

    fn args_of(&self, id: u32) -> &[ConstSym] {
        let i = id as usize;
        let start = if i == 0 {
            0
        } else {
            self.atoms[i - 1].1 as usize
        };
        &self.args[start..self.atoms[i].1 as usize]
    }

    /// The home slot of a key: the top bits of its tag.
    fn home(&self, tag: u32) -> usize {
        let bits = self.slots.len().trailing_zeros();
        ((u64::from(tag) << 32) >> (64 - bits)) as usize
    }

    /// The id of `pred(args…)`, or the empty slot where it would go.
    fn probe(&self, pred: PredSym, args: &[ConstSym], tag: u32) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut at = self.home(tag);
        loop {
            let slot = self.slots[at];
            if slot == EMPTY {
                return Err(at);
            }
            let id = slot as u32;
            if (slot >> 32) as u32 == tag && self.pred_of(id) == pred && self.args_of(id) == args {
                return Ok(id);
            }
            at = (at + 1) & mask;
        }
    }

    fn find(&self, pred: PredSym, args: &[ConstSym]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(pred, args, key_tag(pred, args)).ok()
    }

    /// Interns `pred(args…)`. A new atom takes the next id if that id is
    /// below `max_atoms`.
    fn intern(
        &mut self,
        pred: PredSym,
        args: &[ConstSym],
        max_atoms: u64,
    ) -> Result<u32, AtomSpaceOverflow> {
        let tag = key_tag(pred, args);
        // A full index grows only for an atom it does not hold yet.
        if (self.len() + 1) * 2 > self.slots.len() {
            if let Some(id) = self.find(pred, args) {
                return Ok(id);
            }
            self.grow_index();
        }
        let slot = match self.probe(pred, args, tag) {
            Ok(id) => return Ok(id),
            Err(slot) => slot,
        };
        let next = self.len() as u64;
        if next >= max_atoms {
            return Err(AtomSpaceOverflow {
                required: next.saturating_add(1),
            });
        }
        let id = u32::try_from(next).expect("budget clamped to u32 range");
        self.slots[slot] = u64::from(tag) << 32 | u64::from(id);
        self.args.extend_from_slice(args);
        let end = u32::try_from(self.args.len()).expect("argument arena fits u32 offsets");
        self.atoms.push((pred, end));
        self.by_pred.push(pred, id);
        Ok(id)
    }

    /// Doubles the index (16 slots at first) and re-places every id.
    fn grow_index(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len]);
        let mask = len - 1;
        for slot in old.into_iter().filter(|&slot| slot != EMPTY) {
            let mut at = self.home((slot >> 32) as u32);
            while self.slots[at] != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }

    fn decode(&self, id: u32) -> GroundAtom {
        GroundAtom {
            pred: self.pred_of(id),
            args: self.args_of(id).into(),
        }
    }
}

/// The universe of ground atoms for one (program, database) pair.
#[derive(Clone, Debug)]
pub struct AtomTable {
    universe: Vec<ConstSym>,
    const_index: FxHashMap<ConstSym, u32>,
    store: AtomStore,
    /// Every id in text order, built on first use
    /// ([`AtomTable::text_order`]) and dropped by an append.
    text_order: OnceLock<Box<[AtomId]>>,
}

fn index_universe(universe: &[ConstSym]) -> FxHashMap<ConstSym, u32> {
    universe
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i as u32))
        .collect()
}

/// Atom ids live in `u32`, so no table can hold more atoms than this;
/// larger `max_atoms` budgets are clamped here (see
/// [`crate::GroundConfig::max_atoms`]).
pub const MAX_ATOM_SPACE: u64 = u32::MAX as u64;

impl AtomTable {
    /// Number of ground atoms (the size of V_P for this table).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` iff there are no ground atoms at all.
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// The universe *U*, sorted by constant text.
    pub fn universe(&self) -> &[ConstSym] {
        &self.universe
    }

    /// The index of `c` in the universe, if present.
    pub fn const_index(&self, c: ConstSym) -> Option<u32> {
        self.const_index.get(&c).copied()
    }

    /// The id of the ground atom `pred(args…)`, if it has been interned.
    pub fn atom_id(&self, pred: PredSym, args: &[ConstSym]) -> Option<AtomId> {
        self.store.find(pred, args).map(AtomId)
    }

    /// The id of a [`GroundAtom`].
    pub fn id_of(&self, atom: &GroundAtom) -> Option<AtomId> {
        self.atom_id(atom.pred, &atom.args)
    }

    /// Decodes an id back into its [`GroundAtom`].
    ///
    /// # Panics
    ///
    /// If `id` is out of range for this table.
    pub fn decode(&self, id: AtomId) -> GroundAtom {
        assert!(id.index() < self.len(), "AtomId {} out of range", id.0);
        self.store.decode(id.0)
    }

    /// The predicate of atom `id`.
    ///
    /// # Panics
    ///
    /// If `id` is out of range for this table.
    pub fn pred_of(&self, id: AtomId) -> PredSym {
        assert!(id.index() < self.len(), "AtomId {} out of range", id.0);
        self.store.pred_of(id.0)
    }

    /// Iterates over all atom ids of predicate `pred`, ascending.
    pub fn ids_of_pred(&self, pred: PredSym) -> PredIds<'_> {
        self.store.by_pred.iter(pred)
    }

    /// Iterates over all atom ids.
    pub fn ids(&self) -> impl Iterator<Item = AtomId> {
        (0..self.len() as u32).map(AtomId)
    }

    /// Interns `atom` into the table after the fact — the delta
    /// grounder's extension point: new atoms discovered by an incremental
    /// mutation get ids appended past the prepared range, so every
    /// existing id (and every structure indexed by it) stays valid.
    ///
    /// `max_atoms` is the session's atom budget (clamped to
    /// [`MAX_ATOM_SPACE`]), enforced exactly as [`AtomInterner::intern`]
    /// does at build time.
    ///
    /// # Errors
    ///
    /// [`AtomSpaceOverflow`] when a *new* atom would exceed the budget.
    pub fn intern(
        &mut self,
        atom: &GroundAtom,
        max_atoms: u64,
    ) -> Result<AtomId, AtomSpaceOverflow> {
        self.intern_tuple(atom.pred, &atom.args, max_atoms)
    }

    /// [`AtomTable::intern`] of the atom `pred(args…)`, from a borrowed
    /// tuple.
    ///
    /// # Errors
    ///
    /// As for [`AtomTable::intern`].
    pub fn intern_tuple(
        &mut self,
        pred: PredSym,
        args: &[ConstSym],
        max_atoms: u64,
    ) -> Result<AtomId, AtomSpaceOverflow> {
        let known = self.len();
        let id = self
            .store
            .intern(pred, args, max_atoms.min(MAX_ATOM_SPACE))?;
        if self.len() > known {
            // A new atom: the cached text order no longer lists every id.
            self.text_order.take();
        }
        Ok(AtomId(id))
    }

    /// Every atom id in text order ([`GroundAtom::text_cmp`]): predicate
    /// name, then argument names left to right. Built on the first call
    /// (under a `session/text_order` trace span) and cached until an
    /// atom is appended ([`AtomTable::intern`]).
    ///
    /// The sort reads no text: predicates are ranked by sorting their
    /// distinct texts once, a constant's rank is its position in the
    /// text-sorted universe, and ids are sorted by their rank tuples.
    pub fn text_order(&self) -> &[AtomId] {
        self.text_order.get_or_init(|| {
            let _span =
                tiebreak_trace::span("session", "text_order", &[("atoms", self.len() as u64)]);
            let store = &self.store;
            let pred_rank = text_ranks(store.by_pred.ends.keys().map(|p| p.symbol()));
            // Per argument slot of the arena: its constant's rank.
            let const_rank = self.const_ranks(&store.args);
            let ranks_of = |id: u32| {
                let i = id as usize;
                let start = if i == 0 {
                    0
                } else {
                    store.atoms[i - 1].1 as usize
                };
                &const_rank[start..store.atoms[i].1 as usize]
            };
            let mut keyed: Vec<(u32, u32)> = (0..store.len() as u32)
                .map(|id| (pred_rank[&store.pred_of(id).symbol()], id))
                .collect();
            // Distinct atoms have distinct rank tuples, so the order is
            // total.
            keyed.sort_unstable_by(|&(pa, a), &(pb, b)| {
                pa.cmp(&pb).then_with(|| ranks_of(a).cmp(ranks_of(b)))
            });
            keyed.into_iter().map(|(_, id)| AtomId(id)).collect()
        })
    }

    /// The text rank of each constant of `args`: its universe position,
    /// or, when some constant lies outside the universe, its rank among
    /// the distinct constants of `args`.
    fn const_ranks(&self, args: &[ConstSym]) -> Vec<u32> {
        if let Some(ranks) = args.iter().map(|&c| self.const_index(c)).collect() {
            return ranks;
        }
        let rank = text_ranks(args.iter().map(|c| c.symbol()));
        args.iter().map(|c| rank[&c.symbol()]).collect()
    }

    /// Appends the text of atom `id` to `out`, byte for byte what
    /// [`GroundAtom`]'s `Display` prints for [`AtomTable::decode`]`(id)`:
    /// `pred` or `pred(a, b)`. Nothing is decoded or allocated.
    ///
    /// # Panics
    ///
    /// If `id` is out of range for this table.
    pub fn write_atom(&self, id: AtomId, out: &mut Vec<u8>) {
        let (pred, args) = self.parts(id);
        out.extend_from_slice(pred.as_str().as_bytes());
        let mut open = false;
        for c in args {
            let separator: &[u8] = if open { b", " } else { b"(" };
            out.extend_from_slice(separator);
            out.extend_from_slice(c.as_str().as_bytes());
            open = true;
        }
        if open {
            out.push(b')');
        }
    }

    /// The length in bytes of [`AtomTable::write_atom`]'s text for `id`,
    /// without writing it.
    ///
    /// # Panics
    ///
    /// If `id` is out of range for this table.
    pub fn text_len(&self, id: AtomId) -> usize {
        let (pred, args) = self.parts(id);
        // `(` and `)` around the arguments, `, ` between them.
        args.iter()
            .fold(pred.as_str().len(), |len, c| len + c.as_str().len() + 2)
    }

    /// The predicate and arguments of atom `id`.
    fn parts(&self, id: AtomId) -> (PredSym, &[ConstSym]) {
        assert!(id.index() < self.len(), "AtomId {} out of range", id.0);
        (self.store.pred_of(id.0), self.store.args_of(id.0))
    }
}

/// Each distinct symbol of `symbols` and its rank in text order.
fn text_ranks(symbols: impl Iterator<Item = Symbol>) -> FxHashMap<Symbol, u32> {
    let mut distinct: Vec<Symbol> = symbols.collect::<FxHashSet<Symbol>>().into_iter().collect();
    distinct.sort_unstable_by_key(|s| s.as_str());
    distinct.into_iter().zip(0..).collect()
}

/// Iterator over one predicate's atom ids: a walk of its chain.
pub struct PredIds<'a> {
    /// Per atom id: the next id of the same predicate.
    next: &'a [u32],
    /// The next id to yield, or [`NO_NEXT`] at the end.
    at: u32,
}

impl Iterator for PredIds<'_> {
    type Item = AtomId;

    fn next(&mut self) -> Option<AtomId> {
        let id = self.at;
        if id == NO_NEXT {
            return None;
        }
        self.at = self.next[id as usize];
        Some(AtomId(id))
    }
}

/// Builder for an [`AtomTable`]: atoms are interned in
/// first-touch order, ids assigned sequentially, budget enforced at every
/// insertion.
pub struct AtomInterner {
    universe: Vec<ConstSym>,
    store: AtomStore,
    /// Clamped to [`MAX_ATOM_SPACE`].
    max_atoms: u64,
}

impl AtomInterner {
    /// A fresh interner over `universe` with an atom budget (clamped to
    /// [`MAX_ATOM_SPACE`]).
    pub fn new(universe: Vec<ConstSym>, max_atoms: u64) -> Self {
        AtomInterner {
            universe,
            store: AtomStore::default(),
            max_atoms: max_atoms.min(MAX_ATOM_SPACE),
        }
    }

    /// Number of atoms interned so far.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` iff nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Interns `atom`, returning its (possibly pre-existing) id.
    ///
    /// # Errors
    ///
    /// [`AtomSpaceOverflow`] when a *new* atom would exceed the budget;
    /// `required` is the count reached (a lower bound on the true need).
    pub fn intern(&mut self, atom: &GroundAtom) -> Result<AtomId, AtomSpaceOverflow> {
        self.intern_tuple(atom.pred, &atom.args)
    }

    /// [`AtomInterner::intern`] of the atom `pred(args…)`, from a
    /// borrowed tuple.
    ///
    /// # Errors
    ///
    /// As for [`AtomInterner::intern`].
    pub fn intern_tuple(
        &mut self,
        pred: PredSym,
        args: &[ConstSym],
    ) -> Result<AtomId, AtomSpaceOverflow> {
        self.store.intern(pred, args, self.max_atoms).map(AtomId)
    }

    /// Finalizes the interner into an [`AtomTable`].
    pub fn finish(self) -> AtomTable {
        let const_index = index_universe(&self.universe);
        AtomTable {
            universe: self.universe,
            const_index,
            store: self.store,
            text_order: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ground, GroundConfig, GroundError, GroundMode};
    use datalog_ast::{parse_database, parse_program, Database, Program};

    fn setup() -> (Program, Database) {
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let d = parse_database("move(a, b).\nmove(b, c).").unwrap();
        (p, d)
    }

    /// The atom table of `(p, d)`'s paper-literal grounding: every atom
    /// over the universe.
    fn full_table(p: &Program, d: &Database, max_atoms: u64) -> Result<AtomTable, GroundError> {
        let config = GroundConfig {
            max_atoms,
            ..GroundConfig::default()
        };
        ground(p, d, GroundMode::Full, &config).map(|g| g.atoms().clone())
    }

    #[test]
    fn layout_counts() {
        let (p, d) = setup();
        let t = full_table(&p, &d, 1 << 20).unwrap();
        // |U| = 3 (a, b, c); win/1 ⇒ 3 atoms; move/2 ⇒ 9 atoms.
        assert_eq!(t.universe().len(), 3);
        assert_eq!(t.len(), 12);
    }

    #[test]
    fn round_trip_every_atom() {
        let (p, d) = setup();
        let t = full_table(&p, &d, 1 << 20).unwrap();
        for id in t.ids() {
            let atom = t.decode(id);
            assert_eq!(t.id_of(&atom), Some(id), "atom {atom}");
        }
    }

    #[test]
    fn unknown_predicate_or_constant() {
        let (p, d) = setup();
        let t = full_table(&p, &d, 1 << 20).unwrap();
        assert!(t.id_of(&GroundAtom::from_texts("nope", &["a"])).is_none());
        assert!(t.id_of(&GroundAtom::from_texts("win", &["zz"])).is_none());
        // Wrong arity.
        assert!(t
            .id_of(&GroundAtom::from_texts("win", &["a", "b"]))
            .is_none());
    }

    #[test]
    fn zero_arity_predicates_get_one_atom() {
        let p = parse_program("p :- not q.\nq :- not p.").unwrap();
        let d = Database::new();
        let t = full_table(&p, &d, 1 << 20).unwrap();
        assert_eq!(t.len(), 2);
        let pa = t.atom_id("p".into(), &[]).unwrap();
        let qa = t.atom_id("q".into(), &[]).unwrap();
        assert_ne!(pa, qa);
        assert_eq!(t.decode(pa).to_string(), "p");
    }

    #[test]
    fn empty_universe_positive_arity_gives_zero_atoms() {
        let p = parse_program("p(X) :- not q(X).").unwrap();
        let d = Database::new();
        let t = full_table(&p, &d, 1 << 20).unwrap();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn budget_enforced_with_exact_required_count() {
        // 3-ary over a universe of 3: 27 + 3 atoms; cap at 10.
        let p = parse_program("t(X, Y, Z) :- e(X), e(Y), e(Z).").unwrap();
        let d = parse_database("e(a).\ne(b).\ne(c).").unwrap();
        let err = full_table(&p, &d, 10).unwrap_err();
        assert_eq!(
            err,
            GroundError::TooManyAtoms {
                required: 30,
                budget: 10
            }
        );
        assert!(full_table(&p, &d, 100).is_ok());
    }

    #[test]
    fn oversized_budget_is_clamped_to_u32_ids() {
        // A budget past u32::MAX must not let ids silently alias: the
        // effective cap is MAX_ATOM_SPACE and overflow still errors.
        let (p, d) = setup();
        let t = full_table(&p, &d, u64::MAX).unwrap();
        assert_eq!(t.len(), 12);
        for id in t.ids() {
            let atom = t.decode(id);
            assert_eq!(t.id_of(&atom), Some(id));
        }
    }

    #[test]
    fn pred_of_and_block_lookup() {
        let (p, d) = setup();
        let t = full_table(&p, &d, 1 << 20).unwrap();
        let id = t
            .atom_id("move".into(), &[ConstSym::new("c"), ConstSym::new("a")])
            .unwrap();
        assert_eq!(t.pred_of(id).as_str(), "move");
        assert_eq!(t.ids_of_pred("win".into()).count(), 3);
        assert_eq!(t.ids_of_pred("move".into()).count(), 9);
        assert_eq!(t.ids_of_pred("nope".into()).count(), 0);
    }

    #[test]
    fn interner_round_trips_and_dedupes() {
        let (p, d) = setup();
        let universe = Database::universe(&p, &d);
        let mut interner = AtomInterner::new(universe, 1 << 20);
        let wa = GroundAtom::from_texts("win", &["a"]);
        let mv = GroundAtom::from_texts("move", &["a", "b"]);
        let id0 = interner.intern(&wa).unwrap();
        let id1 = interner.intern(&mv).unwrap();
        assert_eq!(interner.intern(&wa).unwrap(), id0);
        assert_eq!(interner.len(), 2);

        let t = interner.finish();
        assert_eq!(t.len(), 2);
        assert_eq!(t.decode(id0), wa);
        assert_eq!(t.decode(id1), mv);
        assert_eq!(t.id_of(&wa), Some(id0));
        assert_eq!(
            t.atom_id("move".into(), &[ConstSym::new("a"), ConstSym::new("b")]),
            Some(id1)
        );
        assert_eq!(t.id_of(&GroundAtom::from_texts("win", &["b"])), None);
        assert_eq!(t.pred_of(id1).as_str(), "move");
        assert_eq!(t.ids_of_pred("win".into()).collect::<Vec<_>>(), vec![id0]);
        assert_eq!(t.ids().count(), 2);
    }

    #[test]
    fn interner_index_survives_growth() {
        // Enough atoms, of mixed arities, to double the index several
        // times; every id stays findable and decodes to its atom.
        let mut interner = AtomInterner::new(Vec::new(), 1 << 20);
        let atom = |i: usize| {
            let args: Vec<String> = (0..=i % 7).map(|j| format!("g{}", i + j)).collect();
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            GroundAtom::from_texts(if i.is_multiple_of(2) { "even" } else { "odd" }, &args)
        };
        for i in 0..1000 {
            assert_eq!(interner.intern(&atom(i)).unwrap(), AtomId(i as u32));
        }
        for i in 0..1000 {
            assert_eq!(interner.intern(&atom(i)).unwrap(), AtomId(i as u32));
        }
        let t = interner.finish();
        for i in 0..1000 {
            let id = AtomId(i as u32);
            assert_eq!(t.decode(id), atom(i));
            assert_eq!(t.id_of(&atom(i)), Some(id));
        }
        assert_eq!(t.ids_of_pred("odd".into()).count(), 500);
        assert_eq!(t.id_of(&GroundAtom::from_texts("odd", &["g0"])), None);
    }

    #[test]
    fn interner_budget_reports_lower_bound() {
        let mut interner = AtomInterner::new(Vec::new(), 2);
        interner
            .intern(&GroundAtom::from_texts("p", &["a"]))
            .unwrap();
        interner
            .intern(&GroundAtom::from_texts("p", &["b"]))
            .unwrap();
        let err = interner
            .intern(&GroundAtom::from_texts("p", &["c"]))
            .unwrap_err();
        assert_eq!(err.required, 3);
        // Re-interning an existing atom still succeeds.
        assert!(interner
            .intern(&GroundAtom::from_texts("p", &["a"]))
            .is_ok());
    }

    /// Every id of `t`, sorted by decoding and comparing texts.
    fn sorted_by_text(t: &AtomTable) -> Vec<AtomId> {
        let mut ids: Vec<AtomId> = t.ids().collect();
        ids.sort_by(|&a, &b| t.decode(a).text_cmp(&t.decode(b)));
        ids
    }

    fn assert_text_forms(t: &AtomTable) {
        assert_eq!(t.text_order(), sorted_by_text(t).as_slice());
        for id in t.ids() {
            let mut text = Vec::new();
            t.write_atom(id, &mut text);
            assert_eq!(t.text_len(id), text.len());
            assert_eq!(String::from_utf8(text).unwrap(), t.decode(id).to_string());
        }
    }

    #[test]
    fn text_order_and_atom_text_match_the_decoded_atoms() {
        // Interner ids run opposite to text order.
        for name in ["tord_zz", "tord_z", "tord_m", "tord_a"] {
            ConstSym::new(name);
            PredSym::new(&format!("{name}_p"));
        }
        let p = parse_program(
            "tord_zz_p(X, Y) :- tord_a_p(X), tord_a_p(Y), not tord_m_p.\n\
             tord_m_p :- not tord_z_p.\ntord_z_p :- not tord_m_p.",
        )
        .unwrap();
        let d = parse_database("tord_a_p(tord_zz). tord_a_p(tord_z). tord_a_p(tord_a).").unwrap();
        assert_text_forms(&full_table(&p, &d, 1 << 20).unwrap());

        let universe = Database::universe(&p, &d);
        let mut sparse = AtomInterner::new(universe, 1 << 20);
        for (pred, args) in [
            ("tord_zz_p", &["tord_z", "tord_a"][..]),
            ("tord_a_p", &["tord_zz"]),
            ("tord_m_p", &[]),
            ("tord_zz_p", &["tord_z", "tord_zz"]),
            ("tord_a_p", &["tord_a"]),
        ] {
            sparse.intern(&GroundAtom::from_texts(pred, args)).unwrap();
        }
        let mut t = sparse.finish();
        assert_text_forms(&t);

        // An append drops the cached order; a known atom keeps it.
        let cached = t.text_order().as_ptr();
        t.intern(&GroundAtom::from_texts("tord_a_p", &["tord_a"]), 1 << 20)
            .unwrap();
        assert_eq!(t.text_order().as_ptr(), cached);
        t.intern(&GroundAtom::from_texts("tord_a_p", &["tord_m"]), 1 << 20)
            .unwrap();
        assert_eq!(t.text_order().len(), 6);
        assert_text_forms(&t);

        // Constants outside the universe are ranked among themselves.
        let mut outside = AtomInterner::new(Vec::new(), 1 << 20);
        for args in [
            ["tord_z", "tord_zz"],
            ["tord_m", "tord_a"],
            ["tord_z", "tord_a"],
        ] {
            outside
                .intern(&GroundAtom::from_texts("tord_zz_p", &args))
                .unwrap();
        }
        assert_text_forms(&outside.finish());
    }
}
