//! The join-based relevant grounder ([`crate::GroundMode::Relevant`]).
//!
//! Instead of enumerating all |U|^k substitutions per rule, this grounder
//! computes the **supportable set** S — the greatest set of ground atoms
//! with
//!
//! ```text
//! S = Δ ∪ { head(rσ) : rule r, substitution σ, positive body of rσ ⊆ S }
//! ```
//!
//! and emits exactly the rule instances whose positive body lies in S,
//! into an interned [`AtomTable`](crate::AtomTable). S is precisely
//! the set of atoms that survive the EDB-false/unsupported cascade of
//! `close(M₀, G)` (operations 2 and 4 on the full graph): everything the
//! relevant grounder omits is deleted and decided **false** by the very
//! first close round, so the post-close residual graph — and with it
//! every semantics in this workspace — is identical to Full mode's (see
//! the [`crate::grounder`] module docs for the argument, and the
//! differential property suites for the evidence). Note S is a
//! *greatest* fixpoint: a positive loop like `p ← p` survives `close`
//! (its rule node keeps its incoming edge), so it must be grounded even
//! though no least-model computation ever derives `p`.
//!
//! The computation is three passes over the program's rules, each rule
//! read once per pass. Every rule is read through
//! [`Program::pred_ids`], the dense predicate ids the program compiled
//! once when it was built. A **propositional** rule (every atom nullary,
//! the whole of the braided benchmark programs) needs no join and no
//! atom lookup at all: its one instance exists iff each of its positive
//! atoms is in the set at hand, and a nullary atom is its predicate, so
//! membership and pass-2 ids are flags and slots indexed by dense
//! predicate id. Every other rule is joined by a [`RuleEvaluator`] (a
//! variable-free rule with constants needs no join plan: its one
//! instance is a membership test per positive literal):
//!
//! 1. **Candidates** — each rule joined on its positive *EDB* literals
//!    only ([`RuleEvaluator::edb_skeleton`]), other variables ranging
//!    over U: a pre-fixpoint T̂ ⊇ S, never larger than the full atom
//!    space. Candidate atoms outside Δ get dense ids, except heads of
//!    rules with no positive IDB literal: their supports lie in Δ.
//! 2. **Support counting** — the positive-envelope instances
//!    ([`RuleEvaluator::envelope`]) over T̂ are enumerated once, and each
//!    candidate atom counts the instances that support it. Atoms with
//!    no support that are not in Δ go on a worklist; retiring an atom
//!    kills every instance it occurs in positively, and each head whose
//!    count drops to zero retires in turn. What survives is the greatest
//!    fixpoint S — the same deletion `close` runs on the full graph, here
//!    touching each instance O(1) times however deep the cascade.
//!    Only instances whose positive body holds a retirable atom are
//!    stored (a few `u32`s each), at most `max_rule_instances +
//!    max_atoms` of them
//!    ([`GroundError::TooManyCandidateInstances`] past that); an
//!    instance over fixed atoms alone supports its head for good. The
//!    pass ends with S as a database and, per nullary predicate, a flag.
//! 3. **Emission** — a propositional rule's instance is written out
//!    when the S flags of its positive atoms are set; any other rule's
//!    positive body is joined against S
//!    ([`RuleEvaluator::for_each_substitution`]), each satisfying
//!    substitution emitted exactly once. Head and body atoms (including
//!    negative literals, so the instance is the paper's untruncated rule
//!    node) are interned on first touch, a nullary atom's id then kept
//!    by dense predicate id. Δ's facts are interned first so the initial
//!    model M₀(Δ) is fully representable. Emission visits the rules in
//!    program order and walks each relation of S in its hash-set order,
//!    and that walk fixes atom ids and rule order. Bodies and
//!    substitutions go into the graph's rule slab, not a box each.
//!
//! A first-order rule is joined again at emission rather than replayed
//! from a pass-2 record: on the first-order benchmark shape (win–move)
//! pass 2 enumerates no instance at all, since no head can retire, so a
//! record would move the join into pass 2 rather than save it.
//!
//! No pass builds a [`GroundAtom`](datalog_ast::GroundAtom) to look one up: each literal is
//! grounded into one reused argument buffer
//! ([`RuleEvaluator::ground_args`]) and probed as a borrowed
//! `(PredSym, &[ConstSym])` key — in the databases, in pass 2's id map
//! and in the atom interner.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

use datalog_ast::{Atom, ConstSym, Database, FxHashMap, PredSym, Program, Rule, Sign, Tuple};

use crate::atoms::{AtomId, AtomInterner, AtomSpaceOverflow, MAX_ATOM_SPACE};
use crate::graph::{GroundGraph, RuleSlab};
use crate::grounder::{GroundConfig, GroundError};
use crate::seminaive::RuleEvaluator;

/// Grounds `program` against `database` relevantly. See the module docs.
pub(crate) fn ground_relevant(
    program: &Program,
    database: &Database,
    config: &GroundConfig,
) -> Result<GroundGraph, GroundError> {
    Ok(ground_relevant_parts(program, database, config)?.0)
}

/// [`ground_relevant`] also handing back the supportable set S — the
/// incremental session stores it so delta grounding can extend it
/// without recomputing the gfp from scratch.
pub(crate) fn ground_relevant_parts(
    program: &Program,
    database: &Database,
    config: &GroundConfig,
) -> Result<(GroundGraph, Database), GroundError> {
    let universe = {
        let mut span = tiebreak_trace::span("ground", "universe", &[]);
        let universe = Database::universe(program, database);
        span.arg("constants", universe.len() as u64);
        universe
    };
    let budget = SupportBudget::new(config, ignored_fact_count(program, database));
    let rules: Vec<usize> = (0..program.len()).collect();
    let supportable = support_counted_gfp(
        program,
        &rules,
        database,
        database.clone(),
        &universe,
        &budget,
    )?;
    let graph = emit_instances(program, database, config, &universe, &supportable)?;
    Ok((graph, supportable.db))
}

/// The number of database facts about predicates the program never
/// mentions: they sit in the databases we join against but never become
/// atoms, so budget arithmetic must discount them.
pub(crate) fn ignored_fact_count(program: &Program, database: &Database) -> u64 {
    database
        .relations()
        .filter(|&(pred, _)| program.arity(pred).is_none())
        .map(|(_, rel)| rel.len() as u64)
        .sum()
}

/// The caps on the supportable-set computation. Its databases also carry
/// Δ's facts about predicates the program never mentions
/// (`ignored_facts`), so the atom cap is raised by that many and reported
/// counts discount them. `instance_cap` bounds the candidate instances
/// pass 2 stores: `max_rule_instances + max_atoms`, which every input
/// whose candidates all survive stays within, clamped so instance ids
/// fit `u32`.
pub(crate) struct SupportBudget {
    pub(crate) fact_cap: u64,
    ignored_facts: u64,
    max_atoms: u64,
    instance_cap: u64,
}

impl SupportBudget {
    pub(crate) fn new(config: &GroundConfig, ignored_facts: u64) -> Self {
        SupportBudget {
            fact_cap: config
                .max_atoms
                .min(MAX_ATOM_SPACE)
                .saturating_add(ignored_facts),
            ignored_facts,
            max_atoms: config.max_atoms,
            instance_cap: config
                .max_rule_instances
                .saturating_add(config.max_atoms)
                .min(u64::from(u32::MAX)),
        }
    }

    /// The error for a database that reached `count` facts.
    pub(crate) fn too_many(&self, count: u64) -> GroundError {
        GroundError::TooManyAtoms {
            required: count.saturating_sub(self.ignored_facts),
            budget: self.max_atoms,
        }
    }
}

/// No pass-2 id: the atom is fixed, or no candidate.
const NO_ID: u32 = u32::MAX;

/// The supportable set S: every atom in `db`, and for each nullary
/// predicate (by dense id) whether its one atom is in S.
pub(crate) struct Supportable {
    pub(crate) db: Database,
    nullary: Vec<bool>,
}

/// `true` iff every atom of rule `r` is nullary: the rule is its own one
/// instance, and each of its atoms is identified by its predicate's
/// dense id.
fn is_propositional(program: &Program, r: usize) -> bool {
    let infos = program.pred_infos();
    program
        .pred_ids(r)
        .iter()
        .all(|&p| infos[p as usize].arity == 0)
}

/// The rule's body literals with their predicates' dense ids.
fn dense_body<'p>(program: &'p Program, r: usize) -> impl Iterator<Item = (u32, Sign)> + 'p {
    let ids = &program.pred_ids(r)[1..];
    ids.iter()
        .zip(&program.rules()[r].body)
        .map(|(&p, lit)| (p, lit.sign))
}

/// Whether each nullary program predicate's atom is in `db`, by dense
/// id.
fn nullary_members(program: &Program, db: &Database) -> Vec<bool> {
    let mut members = vec![false; program.predicates().len()];
    for (pred, rel) in db.relations() {
        if rel.arity() == 0 && !rel.is_empty() {
            if let Some(info) = program.pred_info(pred) {
                members[info.index as usize] = true;
            }
        }
    }
    members
}

/// The candidate set T̂ of pass 1, with pass 2's dense ids for the atoms
/// that may retire. A nullary atom is its predicate: its membership and
/// id are read by dense predicate id, every other atom's by a hash
/// probe. Every candidate is also in `db`, which the joins read.
struct Candidates {
    db: Database,
    /// Per nullary predicate: its atom is a candidate.
    nullary: Vec<bool>,
    /// Per nullary predicate: its atom's id, or [`NO_ID`].
    nullary_id: Vec<u32>,
    ids: FxHashMap<AtomKey, u32>,
    /// Ids handed out so far, nullary and keyed together.
    next_id: u32,
    /// Per predicate: some atom of it has an id.
    retirable: Vec<bool>,
}

impl Candidates {
    fn contains(&self, p: u32, pred: PredSym, args: &[ConstSym]) -> bool {
        if args.is_empty() {
            self.nullary[p as usize]
        } else {
            self.db.contains_tuple(pred, args)
        }
    }

    fn id(&self, p: u32, pred: PredSym, args: &[ConstSym]) -> Option<u32> {
        if args.is_empty() {
            Some(self.nullary_id[p as usize]).filter(|&id| id != NO_ID)
        } else {
            id_in(&self.ids, pred, args)
        }
    }

    /// Adds a new candidate; one that may retire gets the next id.
    fn insert(
        &mut self,
        p: u32,
        pred: PredSym,
        args: &[ConstSym],
        retirable: bool,
        budget: &SupportBudget,
    ) -> Result<(), GroundError> {
        if retirable {
            self.retirable[p as usize] = true;
            if args.is_empty() {
                self.nullary_id[p as usize] = self.next_id;
            } else {
                let key = AtomKey {
                    pred,
                    args: Tuple::new(args),
                };
                self.ids.insert(key, self.next_id);
            }
            self.next_id += 1;
        }
        if args.is_empty() {
            self.nullary[p as usize] = true;
        }
        self.db.insert_tuple(pred, args).expect("arity consistent");
        if self.db.len() as u64 > budget.fact_cap {
            return Err(budget.too_many(self.db.len() as u64));
        }
        Ok(())
    }
}

/// Passes 1 + 2 over the rules with indices `rules`: the greatest set
/// S ⊇ `fixed` closed under the positive envelopes of those rules (see
/// the module docs). Atoms of `fixed` never retire: Δ for a fresh
/// grounding, Δ plus the frozen context for the incremental session's
/// scoped refresh. `edb` is the database the candidate pass joins the
/// rules' EDB skeletons against.
pub(crate) fn support_counted_gfp(
    program: &Program,
    rules: &[usize],
    edb: &Database,
    fixed: Database,
    universe: &[ConstSym],
    budget: &SupportBudget,
) -> Result<Supportable, GroundError> {
    // Pass 1: candidate heads T̂ — join each rule on its positive EDB
    // literals only, streaming each head straight into the candidate
    // database so memory stays bounded by the atom budget (T̂ never
    // exceeds the full atom space Σ |U|^arity, so an instance Full mode
    // accepts is never rejected here). New heads get dense ids — they
    // are the atoms pass 2 may retire — unless their rule has no positive
    // IDB literal: such a rule is its own envelope, its body lies in
    // `fixed`, so its heads are supported for good. A propositional rule
    // is read by dense predicate id alone.
    let mut pass1 = tiebreak_trace::span("ground", "candidates_pass", &[]);
    let infos = program.pred_infos();
    let preds = program.predicates();
    let propositional: Vec<bool> = rules
        .iter()
        .map(|&r| is_propositional(program, r))
        .collect();
    let edb_nullary = nullary_members(program, edb);
    let mut cands = Candidates {
        nullary: nullary_members(program, &fixed),
        db: fixed,
        nullary_id: vec![NO_ID; preds.len()],
        ids: FxHashMap::default(),
        next_id: 0,
        retirable: vec![false; preds.len()],
    };
    let mut args: Vec<ConstSym> = Vec::new();
    for (&r, &propositional) in rules.iter().zip(&propositional) {
        let rule = &program.rules()[r];
        let h = program.pred_ids(r)[0];
        let supported_for_good =
            dense_body(program, r).all(|(p, sign)| sign == Sign::Neg || !infos[p as usize].is_idb);
        if propositional {
            let holds = dense_body(program, r).all(|(p, sign)| {
                sign == Sign::Neg || infos[p as usize].is_idb || edb_nullary[p as usize]
            });
            if holds && !cands.nullary[h as usize] {
                cands.insert(h, preds[h as usize], &[], !supported_for_good, budget)?;
            }
            continue;
        }
        let joined = |a: &Atom| !program.is_idb(a.pred);
        let plan = || RuleEvaluator::edb_skeleton(rule, program);
        let pred = rule.head.pred;
        for_each_instance(rule, plan, joined, edb, universe, |ground, _| {
            ground(&rule.head, &mut args);
            if cands.contains(h, pred, &args) {
                return Ok(());
            }
            cands.insert(h, pred, &args, !supported_for_good, budget)
        })?;
    }
    pass1.arg("candidates", cands.db.len() as u64);
    drop(pass1);

    // Pass 2: support counting. Every envelope instance over T̂ with a
    // retirable head is enumerated once. An instance whose positive body
    // holds only fixed atoms anchors its head: it is supported for good,
    // and further instances with that head are not needed. The others
    // are stored (CSR over their retirable body atoms, at most
    // `instance_cap` of them) and indexed by body atom; `supports[a]`
    // counts the stored instances with head a. Retiring an atom kills
    // every live instance it occurs in positively, and an unanchored head
    // left with no live instance retires in turn — the unsupported
    // cascade of `close`, run on T̂.
    let mut pass2 = tiebreak_trace::span("ground", "envelope_pass", &[]);
    let id_count = cands.next_id as usize;
    let mut supports: Vec<u32> = vec![0; id_count];
    let mut anchored: Vec<bool> = vec![false; id_count];
    let mut inst_head: Vec<u32> = Vec::new();
    let mut inst_body_end: Vec<usize> = Vec::new();
    let mut inst_body: Vec<u32> = Vec::new();
    // Stores one instance with head id `head` whose retirable body atoms
    // were pushed onto `inst_body` from `start` on.
    let mut store = |head: u32,
                     start: usize,
                     inst_body: &mut Vec<u32>,
                     anchored: &mut Vec<bool>|
     -> Result<(), GroundError> {
        if inst_body.len() == start {
            anchored[head as usize] = true;
            return Ok(());
        }
        inst_head.push(head);
        inst_body_end.push(inst_body.len());
        supports[head as usize] += 1;
        if inst_head.len() as u64 > budget.instance_cap {
            return Err(GroundError::TooManyCandidateInstances {
                required: inst_head.len() as u64,
                budget: budget.instance_cap,
            });
        }
        Ok(())
    };
    for (&r, &propositional) in rules.iter().zip(&propositional) {
        let h = program.pred_ids(r)[0];
        // Only atoms of predicates with retirable atoms need looking up.
        if !cands.retirable[h as usize] {
            continue;
        }
        if propositional {
            let head = cands.nullary_id[h as usize];
            let exists = dense_body(program, r)
                .all(|(p, sign)| sign == Sign::Neg || cands.nullary[p as usize]);
            if !exists || head == NO_ID || anchored[head as usize] {
                continue;
            }
            let start = inst_body.len();
            for (p, sign) in dense_body(program, r) {
                let id = cands.nullary_id[p as usize];
                if sign == Sign::Pos && id != NO_ID && !inst_body[start..].contains(&id) {
                    inst_body.push(id);
                }
            }
            store(head, start, &mut inst_body, &mut anchored)?;
            continue;
        }
        let rule = &program.rules()[r];
        let plan = || RuleEvaluator::envelope(rule);
        for_each_instance(rule, plan, all, &cands.db, universe, |ground, _| {
            ground(&rule.head, &mut args);
            let Some(head) = cands.id(h, rule.head.pred, &args) else {
                return Ok(()); // a fixed head never retires
            };
            if anchored[head as usize] {
                return Ok(());
            }
            let start = inst_body.len();
            for (lit, &p) in rule.body.iter().zip(&program.pred_ids(r)[1..]) {
                if lit.sign == Sign::Neg || !cands.retirable[p as usize] {
                    continue;
                }
                ground(&lit.atom, &mut args);
                if let Some(id) = cands.id(p, lit.atom.pred, &args) {
                    if !inst_body[start..].contains(&id) {
                        inst_body.push(id);
                    }
                }
            }
            store(head, start, &mut inst_body, &mut anchored)
        })?;
    }

    // Occurrence index: the stored instances each atom occurs in.
    let mut occ_start: Vec<usize> = vec![0; id_count + 1];
    for &a in &inst_body {
        occ_start[a as usize + 1] += 1;
    }
    for i in 0..id_count {
        occ_start[i + 1] += occ_start[i];
    }
    let mut fill = occ_start.clone();
    let mut occ: Vec<u32> = vec![0; inst_body.len()];
    let mut body_start = 0;
    for (inst, &end) in (0u32..).zip(&inst_body_end) {
        for &a in &inst_body[body_start..end] {
            occ[fill[a as usize]] = inst;
            fill[a as usize] += 1;
        }
        body_start = end;
    }

    let mut alive = vec![true; inst_head.len()];
    let mut worklist: Vec<u32> = (0..id_count as u32)
        .filter(|&a| !anchored[a as usize] && supports[a as usize] == 0)
        .collect();
    let mut retired = worklist.len() as u64;
    while let Some(a) = worklist.pop() {
        for &inst in &occ[occ_start[a as usize]..occ_start[a as usize + 1]] {
            if !std::mem::replace(&mut alive[inst as usize], false) {
                continue;
            }
            let head = inst_head[inst as usize];
            supports[head as usize] -= 1;
            if !anchored[head as usize] && supports[head as usize] == 0 {
                retired += 1;
                worklist.push(head);
            }
        }
    }
    // Counts only fall, so an atom retired exactly when it hit zero.
    let is_retired = |id: u32| !anchored[id as usize] && supports[id as usize] == 0;
    let mut candidates = cands.db;
    for (key, &id) in &cands.ids {
        if is_retired(id) {
            candidates.remove_tuple(key.pred, &key.args);
        }
    }
    let mut nullary = cands.nullary;
    for (p, &id) in cands.nullary_id.iter().enumerate() {
        if id != NO_ID && is_retired(id) {
            candidates.remove_tuple(preds[p], &[]);
            nullary[p] = false;
        }
    }
    pass2.arg("retired", retired);
    pass2.arg("supportable", candidates.len() as u64);
    Ok(Supportable {
        db: candidates,
        nullary,
    })
}

/// A candidate atom as a key of pass 2's id map. It hashes exactly like
/// a `GroundAtom` (predicate, then the argument slice), so the map walks
/// its atoms — and retires them — in the order a map keyed on ground
/// atoms would; [`AtomRef`] lets it be probed with a borrowed tuple.
#[derive(PartialEq, Eq, Hash)]
struct AtomKey {
    pred: PredSym,
    args: Tuple,
}

/// An atom key, owned or borrowed.
trait AtomRef {
    fn pred(&self) -> PredSym;
    fn args(&self) -> &[ConstSym];
}

impl AtomRef for AtomKey {
    fn pred(&self) -> PredSym {
        self.pred
    }

    fn args(&self) -> &[ConstSym] {
        &self.args
    }
}

impl AtomRef for (PredSym, &[ConstSym]) {
    fn pred(&self) -> PredSym {
        self.0
    }

    fn args(&self) -> &[ConstSym] {
        self.1
    }
}

impl<'a> Borrow<dyn AtomRef + 'a> for AtomKey {
    fn borrow(&self) -> &(dyn AtomRef + 'a) {
        self
    }
}

impl Hash for dyn AtomRef + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.pred().hash(state);
        self.args().hash(state);
    }
}

impl PartialEq for dyn AtomRef + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.pred() == other.pred() && self.args() == other.args()
    }
}

impl Eq for dyn AtomRef + '_ {}

/// The id of `pred(args…)` in pass 2's id map.
fn id_in(ids: &FxHashMap<AtomKey, u32>, pred: PredSym, args: &[ConstSym]) -> Option<u32> {
    ids.get(&(pred, args) as &dyn AtomRef).copied()
}

/// Writes the arguments of one of a rule's atoms, under the instance at
/// hand, into a buffer (cleared first).
type Ground<'a> = &'a dyn Fn(&Atom, &mut Vec<ConstSym>);

/// Runs `visit` once per instance of `rule` whose positive literals
/// selected by `joined` are facts of `db`, handing it a grounding
/// function and the substitution. A rule with variables is joined by
/// the evaluator `plan` builds, which must join exactly those literals.
/// A variable-free rule needs no join plan: its one instance exists iff
/// each selected literal is a fact of `db`.
fn for_each_instance<'r>(
    rule: &'r Rule,
    plan: impl FnOnce() -> RuleEvaluator<'r>,
    joined: impl Fn(&Atom) -> bool,
    db: &Database,
    universe: &[ConstSym],
    mut visit: impl FnMut(Ground<'_>, &[ConstSym]) -> Result<(), GroundError>,
) -> Result<(), GroundError> {
    if rule.is_ground() {
        let mut args = Vec::new();
        let holds = rule
            .body
            .iter()
            .filter(|l| l.sign == Sign::Pos && joined(&l.atom))
            .all(|l| {
                ground_of(&l.atom, &mut args);
                db.contains_tuple(l.atom.pred, &args)
            });
        return if holds {
            visit(&ground_of, &[])
        } else {
            Ok(())
        };
    }
    let ev = plan();
    ev.for_each_substitution(db, universe, &mut |assignment| {
        visit(
            &|atom, args| ev.ground_args(atom, assignment, args),
            assignment,
        )
    })
}

/// [`for_each_instance`]'s `joined` for evaluators that join every
/// positive literal.
fn all(_: &Atom) -> bool {
    true
}

/// The arguments of an atom of a variable-free rule.
fn ground_of(atom: &Atom, args: &mut Vec<ConstSym>) {
    args.clear();
    args.extend(
        atom.args
            .iter()
            .map(|t| t.as_const().expect("atom of a variable-free rule")),
    );
}

/// Pass 3: emit every instance whose positive body lies in S. A
/// propositional rule's one instance is emitted when each of its
/// positive atoms is in S, read by dense predicate id, and a nullary
/// atom's table id is kept by dense predicate id after its first touch.
pub(crate) fn emit_instances(
    program: &Program,
    database: &Database,
    config: &GroundConfig,
    universe: &[ConstSym],
    supportable: &Supportable,
) -> Result<GroundGraph, GroundError> {
    let _span = tiebreak_trace::span("ground", "emit_pass", &[]);
    let mut interner = AtomInterner::new(universe.to_vec(), config.max_atoms);
    let overflow = |ov: AtomSpaceOverflow| GroundError::TooManyAtoms {
        required: ov.required,
        budget: config.max_atoms,
    };
    // Deterministic ids for Δ: by predicate id, then argument ids.
    let mut delta_facts: Vec<(PredSym, &[ConstSym])> = database
        .tuples()
        .filter(|&(pred, _)| program.arity(pred).is_some())
        .collect();
    delta_facts.sort_unstable();
    for &(pred, args) in &delta_facts {
        interner.intern_tuple(pred, args).map_err(overflow)?;
    }
    drop(delta_facts);

    let preds = program.predicates();
    let mut nullary_atom: Vec<Option<AtomId>> = vec![None; preds.len()];
    let mut intern = |interner: &mut AtomInterner, p: u32, args: &[ConstSym]| {
        if !args.is_empty() {
            return interner.intern_tuple(preds[p as usize], args);
        }
        if let Some(id) = nullary_atom[p as usize] {
            return Ok(id);
        }
        let id = interner.intern_tuple(preds[p as usize], args)?;
        nullary_atom[p as usize] = Some(id);
        Ok(id)
    };
    let budget = config.max_rule_instances;
    let mut rules_out = RuleSlab::default();
    let mut emitted: u64 = 0;
    let mut count = || {
        emitted += 1;
        if emitted > budget {
            // Abort rather than walking the rest of the space; the
            // error reports the count reached (a lower bound on the
            // true requirement).
            return Err(GroundError::TooManyRuleInstances {
                required: emitted,
                budget,
            });
        }
        Ok(())
    };
    let mut args: Vec<ConstSym> = Vec::new();

    for (rule_index, rule) in program.rules().iter().enumerate() {
        let ids = program.pred_ids(rule_index);
        if is_propositional(program, rule_index) {
            let exists = dense_body(program, rule_index)
                .all(|(p, sign)| sign == Sign::Neg || supportable.nullary[p as usize]);
            if !exists {
                continue;
            }
            count()?;
            let head = intern(&mut interner, ids[0], &[]).map_err(overflow)?;
            for (p, sign) in dense_body(program, rule_index) {
                let atom = intern(&mut interner, p, &[]).map_err(overflow)?;
                rules_out.push_literal(atom, sign);
            }
            rules_out.end_rule(head, rule_index as u32, &[]);
            continue;
        }
        let plan = || RuleEvaluator::new(rule);
        for_each_instance(
            rule,
            plan,
            all,
            &supportable.db,
            universe,
            |ground, subst| {
                count()?;
                ground(&rule.head, &mut args);
                let head = intern(&mut interner, ids[0], &args).map_err(overflow)?;
                for (lit, &p) in rule.body.iter().zip(&ids[1..]) {
                    ground(&lit.atom, &mut args);
                    let atom = intern(&mut interner, p, &args).map_err(overflow)?;
                    rules_out.push_literal(atom, lit.sign);
                }
                rules_out.end_rule(head, rule_index as u32, subst);
                Ok(())
            },
        )?;
    }

    Ok(GroundGraph::from_parts(interner.finish(), rules_out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounder::{ground, GroundMode};
    use datalog_ast::{parse_database, parse_program};

    #[test]
    fn win_move_grounds_to_supportable_instances_only() {
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let d = parse_database("move(a, b).\nmove(b, c).").unwrap();
        let g = ground(&p, &d, GroundMode::Relevant, &GroundConfig::default()).unwrap();
        // One instance per move tuple (vs 9 in Full mode).
        assert_eq!(g.rule_count(), 2);
        // Atoms: 2 Δ move facts + win(a), win(b), win(c) (vs 12).
        assert_eq!(g.atom_count(), 5);
        for rule in g.rules() {
            let (mv, sign) = rule.body[0];
            assert_eq!(sign, Sign::Pos);
            assert!(d.contains(&g.atoms().decode(mv)));
        }
    }

    #[test]
    fn positive_loops_survive_relevance() {
        // close(M₀) leaves p ← p, ¬q and q ← q, ¬p fully intact, so the
        // relevant grounder must not discard them (gfp, not lfp).
        let p = parse_program("p :- p, not q.\nq :- q, not p.").unwrap();
        let g = ground(
            &p,
            &Database::new(),
            GroundMode::Relevant,
            &GroundConfig::default(),
        )
        .unwrap();
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.atom_count(), 2);
    }

    #[test]
    fn unsupportable_chains_are_discarded() {
        // a ← b, b ← c: no base case, both unfounded *and* unsupported —
        // close falsifies both, so relevance drops everything.
        let p = parse_program("a :- b.\nb :- c.\nc :- d.").unwrap();
        let g = ground(
            &p,
            &Database::new(),
            GroundMode::Relevant,
            &GroundConfig::default(),
        )
        .unwrap();
        assert_eq!(g.rule_count(), 0);
        assert_eq!(g.atom_count(), 0);
    }

    #[test]
    fn delta_facts_are_always_represented() {
        // A Δ fact no rule touches must still be in the atom table (it is
        // true in every model).
        let p = parse_program("p(X) :- e(X).").unwrap();
        let d = parse_database("e(a).\np(zz).").unwrap();
        let g = ground(&p, &d, GroundMode::Relevant, &GroundConfig::default()).unwrap();
        assert!(g
            .atoms()
            .id_of(&datalog_ast::GroundAtom::from_texts("p", &["zz"]))
            .is_some());
    }

    #[test]
    fn negative_literal_atoms_are_interned() {
        // ¬q(a) occurs in a supportable instance: q(a) must be a node
        // even though nothing derives it (close makes it false).
        let p = parse_program("p(X) :- e(X), not q(X).").unwrap();
        let d = parse_database("e(a).").unwrap();
        let g = ground(&p, &d, GroundMode::Relevant, &GroundConfig::default()).unwrap();
        let qa = g
            .atoms()
            .id_of(&datalog_ast::GroundAtom::from_texts("q", &["a"]))
            .unwrap();
        assert!(g.heads_of(qa).is_empty());
        assert_eq!(g.uses_of(qa).len(), 1);
    }

    #[test]
    fn relevant_instance_budget_reports_real_count() {
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let d = parse_database("move(a, b).\nmove(b, c).").unwrap();
        let err = ground(
            &p,
            &d,
            GroundMode::Relevant,
            &GroundConfig {
                max_rule_instances: 1,
                ..GroundConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                GroundError::TooManyRuleInstances {
                    required: 2,
                    budget: 1
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn candidate_pass_respects_the_atom_budget() {
        // All-IDB body: the EDB skeleton binds nothing, so the candidate
        // space for big/3 is |U|³ = 125000 — the streaming cap must turn
        // that into a prompt TooManyAtoms, not an OOM.
        let p = parse_program(
            "big(X, Y, Z) :- p(X), q(Y), r(Z).\np(X) :- e(X).\nq(X) :- e(X).\nr(X) :- e(X).",
        )
        .unwrap();
        let mut d = datalog_ast::Database::new();
        for i in 0..50 {
            d.insert(datalog_ast::GroundAtom::from_texts(
                "e",
                &[&format!("c{i}")],
            ))
            .expect("facts");
        }
        let err = ground(
            &p,
            &d,
            GroundMode::Relevant,
            &GroundConfig {
                max_atoms: 1000,
                ..GroundConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, GroundError::TooManyAtoms { required, budget: 1000 } if required > 1000),
            "{err:?}"
        );
    }

    #[test]
    fn support_counting_respects_the_instance_budget() {
        // Dense transitive closure: T̂ holds all 10⁴ tc pairs, well inside
        // the atom budget, but pass 2 meets 10⁶ envelope instances. The
        // stored-instance cap (max_rule_instances + max_atoms) must turn
        // that into a prompt typed error, not unbounded memory.
        let p = parse_program("tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), tc(Y, Z).").unwrap();
        let mut d = datalog_ast::Database::new();
        for i in 0..100 {
            let (x, y) = (format!("c{i}"), format!("c{}", (i + 1) % 100));
            d.insert(datalog_ast::GroundAtom::from_texts("e", &[&x, &y]))
                .expect("facts");
        }
        let err = ground(
            &p,
            &d,
            GroundMode::Relevant,
            &GroundConfig {
                max_atoms: 20_000,
                max_rule_instances: 1000,
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                GroundError::TooManyCandidateInstances {
                    required: 21_001,
                    budget: 21_000
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn dont_care_variables_do_not_blow_up_candidate_generation() {
        // X1..X4 appear only under negation: the head-projection gives
        // them one witness each during candidate/envelope passes, while
        // instance emission still enumerates them (|U|⁴ = 16 instances).
        let p = parse_program("p :- not q(X1), not q(X2), not q(X3), not q(X4).").unwrap();
        // e is not a program predicate: its facts only contribute the
        // constants a, b to the universe.
        let d = parse_database("e(a).\ne(b).").unwrap();
        let g = ground(&p, &d, GroundMode::Relevant, &GroundConfig::default()).unwrap();
        assert_eq!(g.rule_count(), 16);
        // Atoms: p, q(a), q(b).
        assert_eq!(g.atom_count(), 3);
    }

    #[test]
    fn propositional_facts_fire() {
        let p = parse_program("p(a).\nq(X) :- p(X).").unwrap();
        let g = ground(
            &p,
            &Database::new(),
            GroundMode::Relevant,
            &GroundConfig::default(),
        )
        .unwrap();
        // p(a) is a bodiless instance; q(a) :- p(a) is supportable.
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.atom_count(), 2);
    }
}
