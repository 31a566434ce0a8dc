//! The atom table: a bijection between ground atoms and integers, in one
//! of two layouts.
//!
//! The paper's set V_P of predicate nodes is, for each m-ary predicate Q
//! and each m-tuple over the universe *U*, the ground atom Q(a₁, …, a_m).
//! The **dense** layout realizes that literally: predicates get
//! consecutive blocks of |U|^arity ids and a tuple is its mixed-radix
//! number in base |U| — encoding and decoding are pure arithmetic, no
//! hashing on the hot path. The **sparse** layout (used by the relevant
//! grounder, [`crate::grounder::GroundMode::Relevant`]) interns only the
//! atoms that actually occur in Δ or in an emitted rule instance: ids are
//! assigned in first-intern order and decoding reads the stored atom.
//!
//! Atom ids are `u32`, so every table caps its atom budget at
//! `u32::MAX`; [`AtomTable::build`] and [`AtomInterner::intern`] report
//! the required count on overflow instead of silently wrapping.

use std::fmt;

use datalog_ast::{ConstSym, Database, FxHashMap, GroundAtom, PredSym, Program};

/// Identifier of a ground atom: an index into the [`AtomTable`] layout.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The atom space exceeds its budget. `required` is the exact count for
/// the dense layout; for the interned layout it is the count reached when
/// the build aborted — a lower bound on the true requirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AtomSpaceOverflow {
    /// How many ground atoms the instance needs (dense: exact, saturating
    /// at `u64::MAX`; sparse: at least this many).
    pub required: u64,
}

impl fmt::Display for AtomSpaceOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "atom space requires {} ground atoms", self.required)
    }
}

/// Layout information for one predicate's block of atom ids (dense
/// layout).
#[derive(Clone, Debug)]
struct PredBlock {
    pred: PredSym,
    arity: usize,
    /// First [`AtomId`] of this predicate's block.
    offset: u32,
    /// Number of atoms in the block: |U|^arity (or 1 when arity = 0).
    size: u32,
}

/// How the ids of an [`AtomTable`] map to ground atoms.
#[derive(Clone, Debug)]
enum Layout {
    /// Consecutive |U|^arity blocks per predicate, mixed-radix within.
    Dense {
        blocks: Vec<PredBlock>,
        pred_index: FxHashMap<PredSym, u32>,
    },
    /// Interned atoms in first-touch order.
    Sparse {
        atoms: Vec<GroundAtom>,
        index: FxHashMap<GroundAtom, u32>,
        by_pred: PredChains,
    },
}

/// End of a [`PredChains`] chain.
const NO_NEXT: u32 = u32::MAX;

/// The atom ids of each predicate of a sparse table, chained in
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
        PredIds::Chain {
            next: &self.next,
            at: self.ends.get(&pred).map_or(NO_NEXT, |&(first, _)| first),
        }
    }
}

/// The universe of ground atoms for one (program, database) pair, dense
/// or interned.
#[derive(Clone, Debug)]
pub struct AtomTable {
    universe: Vec<ConstSym>,
    const_index: FxHashMap<ConstSym, u32>,
    layout: Layout,
    total: u32,
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
    /// Builds the **dense** atom table for `program` over the universe of
    /// (program, database): every predicate of the program (in its
    /// deterministic order) gets a block of |U|^arity ids.
    ///
    /// `max_atoms` is clamped to [`MAX_ATOM_SPACE`] (ids are `u32`).
    ///
    /// # Errors
    ///
    /// [`AtomSpaceOverflow`] with the exact required count if the total
    /// number of ground atoms would exceed the (clamped) budget.
    pub fn build(
        program: &Program,
        database: &Database,
        max_atoms: u64,
    ) -> Result<AtomTable, AtomSpaceOverflow> {
        let max_atoms = max_atoms.min(MAX_ATOM_SPACE);
        let universe = Database::universe(program, database);
        let u = universe.len() as u128;

        // First pass: the exact required count, in u128 so even absurd
        // arities report a real number instead of wrapping.
        let mut required: u128 = 0;
        for &pred in program.predicates() {
            let arity = program
                .arity(pred)
                .expect("predicate listed by the program must have an arity");
            let size = u.checked_pow(arity as u32).unwrap_or(u128::MAX);
            required = required.saturating_add(size);
        }
        if required > u128::from(max_atoms) {
            return Err(AtomSpaceOverflow {
                required: u64::try_from(required).unwrap_or(u64::MAX),
            });
        }

        // Within budget ⇒ every offset/size fits u32 (budget ≤ u32::MAX).
        let mut blocks = Vec::new();
        let mut pred_index = FxHashMap::default();
        let mut total: u64 = 0;
        for &pred in program.predicates() {
            let arity = program.arity(pred).expect("arity known");
            let size = (universe.len() as u64)
                .checked_pow(arity as u32)
                .expect("block size fits u64 within a u32 budget");
            pred_index.insert(pred, blocks.len() as u32);
            blocks.push(PredBlock {
                pred,
                arity,
                offset: u32::try_from(total).expect("offset fits u32 within budget"),
                size: u32::try_from(size).expect("size fits u32 within budget"),
            });
            total += size;
        }
        let const_index = index_universe(&universe);
        Ok(AtomTable {
            universe,
            const_index,
            layout: Layout::Dense { blocks, pred_index },
            total: u32::try_from(total).expect("total fits u32 within budget"),
        })
    }

    /// Number of ground atoms (the size of V_P for this table).
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// `true` iff there are no ground atoms at all.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// `true` iff this table uses the interned (sparse) layout.
    pub fn is_sparse(&self) -> bool {
        matches!(self.layout, Layout::Sparse { .. })
    }

    /// The universe *U*, sorted by constant text.
    pub fn universe(&self) -> &[ConstSym] {
        &self.universe
    }

    /// The index of `c` in the universe, if present.
    pub fn const_index(&self, c: ConstSym) -> Option<u32> {
        self.const_index.get(&c).copied()
    }

    /// The id of the ground atom `pred(args…)`, if it is in the table.
    /// For a dense table that means: known predicate, right arity, all
    /// constants in the universe; for a sparse table the atom must have
    /// been interned.
    pub fn atom_id(&self, pred: PredSym, args: &[ConstSym]) -> Option<AtomId> {
        match &self.layout {
            Layout::Dense { blocks, pred_index } => {
                let &b = pred_index.get(&pred)?;
                let block = &blocks[b as usize];
                if args.len() != block.arity {
                    return None;
                }
                let mut code: u64 = 0;
                let u = self.universe.len() as u64;
                for &c in args {
                    let i = self.const_index(c)?;
                    code = code.checked_mul(u)?.checked_add(u64::from(i))?;
                }
                debug_assert!(code < u64::from(block.size.max(1)));
                let id = u64::from(block.offset).checked_add(code)?;
                u32::try_from(id).ok().map(AtomId)
            }
            Layout::Sparse { index, .. } => {
                let key = GroundAtom {
                    pred,
                    args: args.into(),
                };
                index.get(&key).copied().map(AtomId)
            }
        }
    }

    /// The id of a [`GroundAtom`].
    pub fn id_of(&self, atom: &GroundAtom) -> Option<AtomId> {
        match &self.layout {
            Layout::Dense { .. } => self.atom_id(atom.pred, &atom.args),
            Layout::Sparse { index, .. } => index.get(atom).copied().map(AtomId),
        }
    }

    /// Decodes an id back into its [`GroundAtom`].
    ///
    /// # Panics
    ///
    /// If `id` is out of range for this table.
    pub fn decode(&self, id: AtomId) -> GroundAtom {
        assert!(id.0 < self.total, "AtomId {} out of range", id.0);
        match &self.layout {
            Layout::Dense { blocks, .. } => {
                let block = block_of(blocks, id);
                let mut code = id.0 - block.offset;
                let u = (self.universe.len() as u32).max(1);
                // Mixed-radix digits come out least significant first.
                let mut args: Vec<ConstSym> = Vec::with_capacity(block.arity);
                for _ in 0..block.arity {
                    args.push(self.universe[(code % u) as usize]);
                    code /= u;
                }
                args.reverse();
                GroundAtom {
                    pred: block.pred,
                    args: args.into_boxed_slice(),
                }
            }
            Layout::Sparse { atoms, .. } => atoms[id.index()].clone(),
        }
    }

    /// The predicate of atom `id`.
    ///
    /// # Panics
    ///
    /// If `id` is out of range for this table.
    pub fn pred_of(&self, id: AtomId) -> PredSym {
        assert!(id.0 < self.total, "AtomId {} out of range", id.0);
        match &self.layout {
            Layout::Dense { blocks, .. } => block_of(blocks, id).pred,
            Layout::Sparse { atoms, .. } => atoms[id.index()].pred,
        }
    }

    /// Iterates over all atom ids of predicate `pred`.
    pub fn ids_of_pred(&self, pred: PredSym) -> PredIds<'_> {
        match &self.layout {
            Layout::Dense { blocks, pred_index } => {
                let block = pred_index.get(&pred).map(|&b| &blocks[b as usize]);
                let (offset, size) = block.map_or((0, 0), |b| (b.offset, b.size));
                PredIds::Range(offset..offset + size)
            }
            Layout::Sparse { by_pred, .. } => by_pred.iter(pred),
        }
    }

    /// Iterates over all atom ids.
    pub fn ids(&self) -> impl Iterator<Item = AtomId> {
        (0..self.total).map(AtomId)
    }

    /// Interns `atom` into a **sparse** table after the fact — the delta
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
    ///
    /// # Panics
    ///
    /// If the table uses the dense layout — the dense atom space is
    /// universe-complete by construction and never needs extension.
    pub fn intern(
        &mut self,
        atom: &GroundAtom,
        max_atoms: u64,
    ) -> Result<AtomId, AtomSpaceOverflow> {
        let Layout::Sparse {
            atoms,
            index,
            by_pred,
        } = &mut self.layout
        else {
            panic!("intern on a dense atom table (the dense layout is universe-complete)");
        };
        if let Some(&i) = index.get(atom) {
            return Ok(AtomId(i));
        }
        let next = u64::from(self.total);
        if next >= max_atoms.min(MAX_ATOM_SPACE) {
            return Err(AtomSpaceOverflow {
                required: next.saturating_add(1),
            });
        }
        let id = u32::try_from(next).expect("budget clamped to u32 range");
        atoms.push(atom.clone());
        index.insert(atom.clone(), id);
        by_pred.push(atom.pred, id);
        self.total += 1;
        Ok(AtomId(id))
    }
}

fn block_of(blocks: &[PredBlock], id: AtomId) -> &PredBlock {
    // Binary search over block offsets.
    let mut lo = 0usize;
    let mut hi = blocks.len();
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if blocks[mid].offset <= id.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    &blocks[lo]
}

/// Iterator over one predicate's atom ids, for either layout.
pub enum PredIds<'a> {
    /// A dense block's contiguous id range.
    Range(std::ops::Range<u32>),
    /// A sparse table's per-predicate chain: the links and the next id.
    Chain {
        /// Per atom id: the next id of the same predicate.
        next: &'a [u32],
        /// The next id to yield, or `u32::MAX` at the end.
        at: u32,
    },
}

impl Iterator for PredIds<'_> {
    type Item = AtomId;

    fn next(&mut self) -> Option<AtomId> {
        match self {
            PredIds::Range(r) => r.next().map(AtomId),
            PredIds::Chain { next, at } => {
                let id = *at;
                if id == NO_NEXT {
                    return None;
                }
                *at = next[id as usize];
                Some(AtomId(id))
            }
        }
    }
}

/// Builder for a **sparse** [`AtomTable`]: atoms are interned in
/// first-touch order, ids assigned sequentially, budget enforced at every
/// insertion.
pub struct AtomInterner {
    universe: Vec<ConstSym>,
    atoms: Vec<GroundAtom>,
    index: FxHashMap<GroundAtom, u32>,
    by_pred: PredChains,
    /// Clamped to [`MAX_ATOM_SPACE`].
    max_atoms: u64,
}

impl AtomInterner {
    /// A fresh interner over `universe` with an atom budget (clamped to
    /// [`MAX_ATOM_SPACE`]).
    pub fn new(universe: Vec<ConstSym>, max_atoms: u64) -> Self {
        AtomInterner {
            universe,
            atoms: Vec::new(),
            index: FxHashMap::default(),
            by_pred: PredChains::default(),
            max_atoms: max_atoms.min(MAX_ATOM_SPACE),
        }
    }

    /// Number of atoms interned so far.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// `true` iff nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Interns `atom`, returning its (possibly pre-existing) id.
    ///
    /// # Errors
    ///
    /// [`AtomSpaceOverflow`] when a *new* atom would exceed the budget;
    /// `required` is the count reached (a lower bound on the true need).
    pub fn intern(&mut self, atom: &GroundAtom) -> Result<AtomId, AtomSpaceOverflow> {
        if let Some(&i) = self.index.get(atom) {
            return Ok(AtomId(i));
        }
        let next = self.atoms.len() as u64;
        if next >= self.max_atoms {
            return Err(AtomSpaceOverflow {
                required: next.saturating_add(1),
            });
        }
        let id = u32::try_from(next).expect("budget clamped to u32 range");
        self.atoms.push(atom.clone());
        self.index.insert(atom.clone(), id);
        self.by_pred.push(atom.pred, id);
        Ok(AtomId(id))
    }

    /// Finalizes the interner into a sparse [`AtomTable`].
    pub fn finish(self) -> AtomTable {
        let total = self.atoms.len() as u32;
        let const_index = index_universe(&self.universe);
        AtomTable {
            universe: self.universe,
            const_index,
            layout: Layout::Sparse {
                atoms: self.atoms,
                index: self.index,
                by_pred: self.by_pred,
            },
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program};

    fn setup() -> (Program, Database) {
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let d = parse_database("move(a, b).\nmove(b, c).").unwrap();
        (p, d)
    }

    #[test]
    fn layout_counts() {
        let (p, d) = setup();
        let t = AtomTable::build(&p, &d, 1 << 20).unwrap();
        // |U| = 3 (a, b, c); win/1 ⇒ 3 atoms; move/2 ⇒ 9 atoms.
        assert_eq!(t.universe().len(), 3);
        assert_eq!(t.len(), 12);
        assert!(!t.is_sparse());
    }

    #[test]
    fn round_trip_every_atom() {
        let (p, d) = setup();
        let t = AtomTable::build(&p, &d, 1 << 20).unwrap();
        for id in t.ids() {
            let atom = t.decode(id);
            assert_eq!(t.id_of(&atom), Some(id), "atom {atom}");
        }
    }

    #[test]
    fn unknown_predicate_or_constant() {
        let (p, d) = setup();
        let t = AtomTable::build(&p, &d, 1 << 20).unwrap();
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
        let t = AtomTable::build(&p, &d, 1 << 20).unwrap();
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
        let t = AtomTable::build(&p, &d, 1 << 20).unwrap();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn budget_enforced_with_exact_required_count() {
        // 3-ary over a universe of 3: 27 + 3 atoms; cap at 10.
        let p = parse_program("t(X, Y, Z) :- e(X), e(Y), e(Z).").unwrap();
        let d = parse_database("e(a).\ne(b).\ne(c).").unwrap();
        let err = AtomTable::build(&p, &d, 10).unwrap_err();
        assert_eq!(err.required, 30);
        assert!(AtomTable::build(&p, &d, 100).is_ok());
    }

    #[test]
    fn oversized_budget_is_clamped_to_u32_ids() {
        // A budget past u32::MAX must not let ids silently alias: the
        // effective cap is MAX_ATOM_SPACE and overflow still errors.
        let (p, d) = setup();
        let t = AtomTable::build(&p, &d, u64::MAX).unwrap();
        assert_eq!(t.len(), 12);
        for id in t.ids() {
            let atom = t.decode(id);
            assert_eq!(t.id_of(&atom), Some(id));
        }
    }

    #[test]
    fn pred_of_and_block_lookup() {
        let (p, d) = setup();
        let t = AtomTable::build(&p, &d, 1 << 20).unwrap();
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
        assert!(t.is_sparse());
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
}
