//! The `close(M, G)` operator and the largest unfounded set.
//!
//! Paper, Section 2 — `close(M, G)` applies four operations until none is
//! applicable:
//!
//! 1. a **true** atom is deleted from G, along with every rule node it
//!    reaches by a *negative* arc (the rule's body is falsified);
//! 2. a **false** atom is deleted from G, along with every rule node it
//!    reaches by a *positive* arc;
//! 3. a rule node with **no incoming edges** fires: its head becomes true
//!    and the rule node is deleted;
//! 4. an atom with **no incoming edges** (no remaining rule can derive it)
//!    becomes false.
//!
//! The result is independent of operation order (the paper notes this;
//! [`Closer`] is worklist-based and a property test exercises confluence).
//!
//! [`Closer`] keeps the deletion state *incrementally*: the well-founded
//! and tie-breaking interpreters alternate `close` with external
//! assignments, and re-scanning the graph each round would square the
//! complexity. External assignments enter through [`Closer::define`];
//! [`Closer::run`] drains the worklist.
//!
//! The same struct also computes `Atoms[close(M, G⁺)]` — the largest
//! unfounded set — by simulating `close` on the positive subgraph of the
//! *remaining* graph without mutating the real state.

use std::collections::VecDeque;
use std::fmt;

use datalog_ast::Sign;
use signed_graph::{EdgeSign, NodeId, SignedDigraph};

use crate::atoms::AtomId;
use crate::graph::{GroundGraph, RuleId};
use crate::model::{PartialModel, TruthValue};

/// A contradiction detected during propagation: a rule with an all-true
/// body fired, but its head had already been made false (by an earlier
/// external assignment).
///
/// `close` itself never produces conflicts when used as the paper
/// prescribes; this surfaces misuse (e.g. a deliberately wrong tie-break
/// injected by a test).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CloseConflict {
    /// The head atom that should be true but is false.
    pub atom: AtomId,
}

impl fmt::Display for CloseConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "close conflict: a rule fired for atom #{} which is already false",
            self.atom.0
        )
    }
}

impl std::error::Error for CloseConflict {}

#[derive(Clone, Copy, Debug)]
enum Event {
    /// The model value of this atom was set; propagate its deletion.
    AtomDefined(AtomId),
    /// This rule's pending count hit zero; it fires unless already dead.
    RuleFires(RuleId),
    /// This atom's support hit zero; it becomes false unless defined.
    AtomUnsupported(AtomId),
}

/// Incremental state of `close(M, G)` over a [`GroundGraph`].
#[derive(Clone)]
pub struct Closer<'g> {
    graph: &'g GroundGraph,
    /// Atom still in the graph (⇔ undefined in the model, once `run` has
    /// drained the queue).
    atom_alive: Vec<bool>,
    /// Rule node still in the graph.
    rule_alive: Vec<bool>,
    /// Per rule: body occurrences not yet resolved true.
    rule_pending: Vec<u32>,
    /// Per atom: alive rule nodes with this head.
    atom_support: Vec<u32>,
    queue: VecDeque<Event>,
}

/// An owned snapshot of a [`Closer`]'s deletion state, detached from the
/// graph borrow.
///
/// This is the copy-on-write fork primitive of the session runtime: a
/// solver session runs `close(M₀, G)` **once**, snapshots the result, and
/// every subsequent evaluation (a tie-breaking run, one script of an
/// outcome enumeration) rehydrates a private [`Closer`] from the shared
/// snapshot with [`Closer::from_state`] — a few `memcpy`s instead of a
/// whole propagation pass.
///
/// A snapshot can only be taken of (and restored to) a *quiescent*
/// closer — one whose worklist has been drained by [`Closer::run`] — so
/// restoring never replays half-processed events.
#[derive(Clone, Debug, Default)]
pub struct CloseState {
    atom_alive: Vec<bool>,
    rule_alive: Vec<bool>,
    rule_pending: Vec<u32>,
    atom_support: Vec<u32>,
}

impl CloseState {
    /// Number of atoms still in the graph at snapshot time.
    pub fn alive_atom_count(&self) -> usize {
        self.atom_alive.iter().filter(|&&b| b).count()
    }

    /// Grows the snapshot to a graph that gained atoms and rules since it
    /// was taken (the delta grounder only ever appends). New entries get
    /// placeholder values — they are always inside the mutation cone, so
    /// [`Closer::reopen_cone`] recomputes them before anything reads them.
    ///
    /// # Panics
    ///
    /// If either dimension shrinks (graphs never retire nodes).
    pub fn grow(&mut self, atom_count: usize, rule_count: usize) {
        assert!(
            atom_count >= self.atom_alive.len() && rule_count >= self.rule_alive.len(),
            "ground graphs never shrink"
        );
        self.atom_alive.resize(atom_count, true);
        self.rule_alive.resize(rule_count, true);
        self.rule_pending.resize(rule_count, 0);
        self.atom_support.resize(atom_count, 0);
    }
}

impl<'g> Closer<'g> {
    /// Fresh state over `graph`: everything alive, nothing queued.
    pub fn new(graph: &'g GroundGraph) -> Self {
        let rule_pending: Vec<u32> = graph.rules().map(|r| r.body.len() as u32).collect();
        let atom_support: Vec<u32> = (0..graph.atom_count())
            .map(|i| graph.heads_of(AtomId(i as u32)).len() as u32)
            .collect();
        Closer {
            graph,
            atom_alive: vec![true; graph.atom_count()],
            rule_alive: vec![true; graph.rule_count()],
            rule_pending,
            atom_support,
            queue: VecDeque::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g GroundGraph {
        self.graph
    }

    /// Snapshots the deletion state (see [`CloseState`]).
    ///
    /// # Panics
    ///
    /// If the worklist is not empty — snapshot only quiescent state, i.e.
    /// after [`Closer::run`] has returned.
    pub fn snapshot(&self) -> CloseState {
        assert!(
            self.queue.is_empty(),
            "snapshot of a closer with queued events"
        );
        CloseState {
            atom_alive: self.atom_alive.clone(),
            rule_alive: self.rule_alive.clone(),
            rule_pending: self.rule_pending.clone(),
            atom_support: self.atom_support.clone(),
        }
    }

    /// Rehydrates a closer over `graph` from a snapshot previously taken
    /// by [`Closer::snapshot`] of a closer over the *same* graph.
    ///
    /// # Panics
    ///
    /// If the snapshot's dimensions do not match `graph`.
    pub fn from_state(graph: &'g GroundGraph, state: &CloseState) -> Self {
        Closer::resume(graph, state.clone())
    }

    /// [`Closer::from_state`] taking the snapshot by value: resumes it
    /// without copying. Pair with [`Closer::into_state`] to advance a
    /// kept state in place.
    ///
    /// # Panics
    ///
    /// If the snapshot's dimensions do not match `graph`.
    pub fn resume(graph: &'g GroundGraph, state: CloseState) -> Self {
        assert_eq!(
            (state.atom_alive.len(), state.rule_alive.len()),
            (graph.atom_count(), graph.rule_count()),
            "snapshot is for a different graph"
        );
        Closer {
            graph,
            atom_alive: state.atom_alive,
            rule_alive: state.rule_alive,
            rule_pending: state.rule_pending,
            atom_support: state.atom_support,
            queue: VecDeque::new(),
        }
    }

    /// [`Closer::snapshot`] consuming the closer: no copy.
    ///
    /// # Panics
    ///
    /// If the worklist is not empty.
    pub fn into_state(self) -> CloseState {
        assert!(
            self.queue.is_empty(),
            "snapshot of a closer with queued events"
        );
        CloseState {
            atom_alive: self.atom_alive,
            rule_alive: self.rule_alive,
            rule_pending: self.rule_pending,
            atom_support: self.atom_support,
        }
    }

    /// Queues every already-defined atom of `model` (typically M₀), every
    /// body-less rule, and every unsupported atom. Call once before the
    /// first [`Closer::run`].
    pub fn bootstrap(&mut self, model: &PartialModel) {
        debug_assert_eq!(model.len(), self.graph.atom_count());
        for (atom, _) in model.defined() {
            self.queue.push_back(Event::AtomDefined(atom));
        }
        for (i, &pending) in self.rule_pending.iter().enumerate() {
            if pending == 0 {
                self.queue.push_back(Event::RuleFires(RuleId(i as u32)));
            }
        }
        for (i, &support) in self.atom_support.iter().enumerate() {
            if support == 0 {
                self.queue
                    .push_back(Event::AtomUnsupported(AtomId(i as u32)));
            }
        }
    }

    /// Reopens the forward cone of a mutation for re-closing — the
    /// incremental counterpart of [`Closer::bootstrap`], in the spirit of
    /// DRed: every conclusion the base `close` drew inside the cone is
    /// *over-deleted* (cone atoms revert to undefined-and-alive, cone
    /// rules to alive) and then *re-derived* by replaying `close` against
    /// the frozen out-of-cone boundary. Because the cone is the forward
    /// closure of the changed atoms ([`crate::GroundGraph::forward_cone`])
    /// and every `close` operation follows a graph edge, (a) nothing
    /// outside the cone can be affected by the mutation, and (b) no event
    /// queued here can escape the cone — so splicing the re-closed cone
    /// into the untouched remainder reproduces exactly what a from-scratch
    /// `close` on the mutated database computes (close is confluent;
    /// order the from-scratch run to process all out-of-cone events
    /// first and it becomes this computation).
    ///
    /// `initial` must be the paper's M₀ for the **mutated** database;
    /// `model` holds the base post-close model and is spliced in place.
    /// The caller must [`Closer::run`] afterwards and may then snapshot.
    ///
    /// Boundary replay: an out-of-cone rule node is dead either because
    /// it **fired** (its pending count reached 0 — every body occurrence
    /// resolved true, which forces its head true) or because it was
    /// **killed** by a false body literal (pending still positive; body
    /// occurrences resolve at most once, so the two are distinguishable
    /// from the retained pending count). Fired out-of-cone rules heading
    /// a cone atom re-impose truth on it; alive out-of-cone rules keep it
    /// supported; killed ones contribute nothing.
    pub fn reopen_cone(
        &mut self,
        model: &mut PartialModel,
        initial: &PartialModel,
        cone: &crate::graph::Cone,
    ) {
        let _span = tiebreak_trace::span(
            "close",
            "reopen_cone",
            &[
                ("cone_atoms", cone.atoms.len() as u64),
                ("cone_rules", cone.rules.len() as u64),
            ],
        );
        tiebreak_trace::metrics().cones_reopened.inc();
        assert!(self.queue.is_empty(), "reopen requires a quiescent closer");
        // Over-delete: revert the cone to its pre-close state.
        for &a in &cone.atoms {
            self.atom_alive[a.index()] = true;
            model.set(a, TruthValue::Undefined);
        }
        for &r in &cone.rules {
            self.rule_alive[r.index()] = true;
        }
        // Cone rules: recompute pending counts against the frozen
        // boundary; a false out-of-cone literal kills the rule outright
        // (its AtomDefined event was consumed by the base close).
        for &r in &cone.rules {
            let rule = self.graph.rule(r);
            let mut pending = 0u32;
            let mut dead = false;
            for &(a, sign) in rule.body {
                if cone.atom_in[a.index()] {
                    pending += 1; // resolved by cone events, if ever
                    continue;
                }
                match model.literal_truth(a, sign) {
                    None => pending += 1, // alive boundary atom: never resolves
                    Some(true) => {}
                    Some(false) => {
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                self.rule_alive[r.index()] = false;
                // A killed rule must never read as *fired* (dead with
                // pending 0) to a later epoch's boundary replay: record
                // the falsified occurrence explicitly. Without this, a
                // rule appended by delta grounding — whose grown
                // placeholder pending is 0 — and killed right here
                // would force its head true in the next cone that
                // contains the head but not the rule.
                self.rule_pending[r.index()] = self.rule_pending[r.index()].max(1);
            } else {
                self.rule_pending[r.index()] = pending;
                if pending == 0 {
                    self.queue.push_back(Event::RuleFires(r));
                }
            }
        }
        // Cone atoms: M₀ value (+ boundary replay of fired out-of-cone
        // rules), support from the final aliveness of their head rules.
        for &a in &cone.atoms {
            let mut value = initial.get(a);
            let mut support = 0u32;
            for &r in self.graph.heads_of(a) {
                if self.rule_alive[r.index()] {
                    support += 1;
                } else if !cone.rule_in[r.index()] && self.rule_pending[r.index()] == 0 {
                    value = TruthValue::True; // fired out-of-cone rule
                }
            }
            self.atom_support[a.index()] = support;
            if value.is_defined() {
                model.set(a, value);
                self.queue.push_back(Event::AtomDefined(a));
            } else if support == 0 {
                self.queue.push_back(Event::AtomUnsupported(a));
            }
        }
    }

    /// Externally assigns `value` to `atom` in `model` and queues the
    /// propagation. The caller must [`Closer::run`] afterwards.
    ///
    /// # Panics
    ///
    /// If `value` is undefined, or the atom already has a *different*
    /// defined value (interpreters never re-assign).
    pub fn define(&mut self, model: &mut PartialModel, atom: AtomId, value: TruthValue) {
        assert!(value.is_defined(), "cannot define an atom as undefined");
        let old = model.get(atom);
        if old.is_defined() {
            assert_eq!(old, value, "conflicting external assignment");
            return;
        }
        model.set(atom, value);
        self.queue.push_back(Event::AtomDefined(atom));
    }

    /// `true` iff the atom is still in the graph.
    pub fn atom_alive(&self, atom: AtomId) -> bool {
        self.atom_alive[atom.index()]
    }

    /// `true` iff the rule node is still in the graph.
    pub fn rule_alive(&self, rule: RuleId) -> bool {
        self.rule_alive[rule.index()]
    }

    /// Number of atoms still in the graph.
    pub fn alive_atom_count(&self) -> usize {
        self.atom_alive.iter().filter(|&&b| b).count()
    }

    /// Iterates over the atoms still in the graph.
    pub fn alive_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.atom_alive
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| AtomId(i as u32))
    }

    fn kill_rule(&mut self, rule: RuleId) {
        if !self.rule_alive[rule.index()] {
            return;
        }
        self.rule_alive[rule.index()] = false;
        let head = self.graph.rule(rule).head;
        if self.atom_alive[head.index()] {
            let s = &mut self.atom_support[head.index()];
            *s -= 1;
            if *s == 0 {
                self.queue.push_back(Event::AtomUnsupported(head));
            }
        }
    }

    /// Drains the worklist, applying the four `close` operations to a
    /// fixpoint.
    ///
    /// # Errors
    ///
    /// [`CloseConflict`] if a firing rule's head is already false.
    pub fn run(&mut self, model: &mut PartialModel) -> Result<(), CloseConflict> {
        let mut processed: u64 = 0;
        let result = self.run_inner(model, &mut processed);
        // One coarse metrics update per run, never per event.
        let m = tiebreak_trace::metrics();
        m.close_runs.inc();
        m.close_events.add(processed);
        result
    }

    fn run_inner(
        &mut self,
        model: &mut PartialModel,
        processed: &mut u64,
    ) -> Result<(), CloseConflict> {
        while let Some(event) = self.queue.pop_front() {
            *processed += 1;
            match event {
                Event::AtomDefined(atom) => {
                    if !self.atom_alive[atom.index()] {
                        continue;
                    }
                    self.atom_alive[atom.index()] = false;
                    let value = model.get(atom);
                    debug_assert!(value.is_defined(), "queued atom must be defined");
                    let truth = value == TruthValue::True;
                    // Borrow dance: collect uses first (they are immutable
                    // per graph; cloning the small Vec is avoided by raw
                    // indexing).
                    for k in 0..self.graph.uses_of(atom).len() {
                        let (rule, sign) = self.graph.uses_of(atom)[k];
                        if !self.rule_alive[rule.index()] {
                            continue;
                        }
                        let literal_true = match sign {
                            Sign::Pos => truth,
                            Sign::Neg => !truth,
                        };
                        if literal_true {
                            let p = &mut self.rule_pending[rule.index()];
                            *p -= 1;
                            if *p == 0 {
                                self.queue.push_back(Event::RuleFires(rule));
                            }
                        } else {
                            self.kill_rule(rule);
                        }
                    }
                }
                Event::RuleFires(rule) => {
                    if !self.rule_alive[rule.index()] {
                        continue;
                    }
                    self.rule_alive[rule.index()] = false;
                    let head = self.graph.rule(rule).head;
                    match model.get(head) {
                        TruthValue::False => return Err(CloseConflict { atom: head }),
                        TruthValue::True => {
                            // Already true (and queued or processed);
                            // nothing more to do. Support bookkeeping is
                            // irrelevant for defined atoms.
                        }
                        TruthValue::Undefined => {
                            model.set(head, TruthValue::True);
                            self.queue.push_back(Event::AtomDefined(head));
                        }
                    }
                }
                Event::AtomUnsupported(atom) => {
                    if !self.atom_alive[atom.index()] {
                        continue;
                    }
                    if model.get(atom).is_defined() {
                        // Defined but not yet popped; the AtomDefined event
                        // will handle deletion.
                        continue;
                    }
                    model.set(atom, TruthValue::False);
                    self.queue.push_back(Event::AtomDefined(atom));
                }
            }
        }
        Ok(())
    }

    /// The largest unfounded set with respect to the current state:
    /// `Atoms[close(M, G⁺)]`, i.e. the atoms of the remaining graph that
    /// survive running `close` on its positive subgraph.
    ///
    /// Graph-theoretically (paper, Section 2): the maximal set *D* of
    /// remaining atoms such that the subgraph of G⁺ induced by *D* and the
    /// rule nodes preceding them has no source.
    pub fn largest_unfounded_set(&self) -> Vec<AtomId> {
        // Simulated deletion state, seeded from the live state.
        let mut atom_in = self.atom_alive.clone();
        let mut rule_in = self.rule_alive.clone();
        // pending⁺: positive body occurrences over *alive* atoms.
        let mut pending_pos: Vec<u32> = vec![0; self.graph.rule_count()];
        let mut support: Vec<u32> = self.atom_support.clone();
        let mut queue: VecDeque<Event> = VecDeque::new();

        for (i, rule) in self.graph.rules().enumerate() {
            if !rule_in[i] {
                continue;
            }
            let p = rule
                .body
                .iter()
                .filter(|&&(a, s)| s.is_pos() && atom_in[a.index()])
                .count() as u32;
            pending_pos[i] = p;
            if p == 0 {
                queue.push_back(Event::RuleFires(RuleId(i as u32)));
            }
        }
        for (i, &alive) in self.atom_alive.iter().enumerate() {
            if alive && support[i] == 0 {
                queue.push_back(Event::AtomUnsupported(AtomId(i as u32)));
            }
        }

        // `remove_atom` cascade, specialised for the positive subgraph.
        while let Some(event) = queue.pop_front() {
            match event {
                Event::RuleFires(rule) => {
                    if !rule_in[rule.index()] {
                        continue;
                    }
                    rule_in[rule.index()] = false;
                    let head = self.graph.rule(rule).head;
                    if atom_in[head.index()] {
                        // Head becomes "true": delete it; its positive uses
                        // lose an incoming edge.
                        atom_in[head.index()] = false;
                        for &(r, s) in self.graph.uses_of(head) {
                            if s.is_pos() && rule_in[r.index()] {
                                let p = &mut pending_pos[r.index()];
                                *p -= 1;
                                if *p == 0 {
                                    queue.push_back(Event::RuleFires(r));
                                }
                            }
                        }
                    }
                }
                Event::AtomUnsupported(atom) => {
                    if !atom_in[atom.index()] {
                        continue;
                    }
                    atom_in[atom.index()] = false;
                    // "False": kill rules with a positive arc from it.
                    for &(r, s) in self.graph.uses_of(atom) {
                        if s.is_pos() && rule_in[r.index()] {
                            rule_in[r.index()] = false;
                            let head = self.graph.rule(r).head;
                            if atom_in[head.index()] {
                                let sp = &mut support[head.index()];
                                *sp -= 1;
                                if *sp == 0 {
                                    queue.push_back(Event::AtomUnsupported(head));
                                }
                            }
                        }
                    }
                }
                Event::AtomDefined(_) => unreachable!("not used by the simulation"),
            }
        }

        // Atoms alive in the real graph that survived the simulation.
        self.atom_alive
            .iter()
            .enumerate()
            .filter(|&(i, &alive)| alive && atom_in[i])
            .map(|(i, _)| AtomId(i as u32))
            .collect()
    }

    /// Materializes the *remaining* ground graph (alive atoms and rules,
    /// with their surviving edges) as a [`SignedDigraph`] for SCC and tie
    /// analysis.
    pub fn remaining_digraph(&self) -> RemainingGraph {
        let mut kinds: Vec<NodeKind> = Vec::new();
        let mut atom_node: Vec<Option<NodeId>> = vec![None; self.graph.atom_count()];
        let mut rule_node: Vec<Option<NodeId>> = vec![None; self.graph.rule_count()];

        for (i, &alive) in self.atom_alive.iter().enumerate() {
            if alive {
                atom_node[i] = Some(kinds.len() as NodeId);
                kinds.push(NodeKind::Atom(AtomId(i as u32)));
            }
        }
        for (i, &alive) in self.rule_alive.iter().enumerate() {
            if alive {
                rule_node[i] = Some(kinds.len() as NodeId);
                kinds.push(NodeKind::Rule(RuleId(i as u32)));
            }
        }

        let mut digraph = SignedDigraph::new(kinds.len());
        for (i, rule) in self.graph.rules().enumerate() {
            let Some(rn) = rule_node[i] else { continue };
            if let Some(hn) = atom_node[rule.head.index()] {
                digraph.add_edge(rn, hn, EdgeSign::Pos);
            }
            for &(a, s) in rule.body {
                if let Some(an) = atom_node[a.index()] {
                    let sign = match s {
                        Sign::Pos => EdgeSign::Pos,
                        Sign::Neg => EdgeSign::Neg,
                    };
                    digraph.add_edge(an, rn, sign);
                }
            }
        }

        RemainingGraph {
            digraph,
            kinds,
            atom_node,
        }
    }
}

/// What a node of the [`RemainingGraph`] stands for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// A ground atom (predicate node).
    Atom(AtomId),
    /// A rule node.
    Rule(RuleId),
}

/// The remaining ground graph as a plain signed digraph plus node
/// provenance.
pub struct RemainingGraph {
    /// The graph over alive nodes (atoms then rules, densely renumbered).
    pub digraph: SignedDigraph,
    /// Node provenance, indexed by [`NodeId`].
    pub kinds: Vec<NodeKind>,
    /// Reverse lookup: the node of each atom, if alive.
    pub atom_node: Vec<Option<NodeId>>,
}

impl RemainingGraph {
    /// The atom behind `node`, if it is an atom node.
    pub fn as_atom(&self, node: NodeId) -> Option<AtomId> {
        match self.kinds[node as usize] {
            NodeKind::Atom(a) => Some(a),
            NodeKind::Rule(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounder::{ground, GroundConfig, GroundMode};
    use crate::model::PartialModel;
    use datalog_ast::{parse_database, parse_program, Database, GroundAtom};

    fn closed(
        program_src: &str,
        db_src: &str,
    ) -> (crate::graph::GroundGraph, datalog_ast::Program, Database) {
        let p = parse_program(program_src).unwrap();
        let d = parse_database(db_src).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        (g, p, d)
    }

    /// Runs M₀ + close and returns (closer, model).
    fn run_close<'g>(
        g: &'g crate::graph::GroundGraph,
        p: &datalog_ast::Program,
        d: &Database,
    ) -> (Closer<'g>, PartialModel) {
        let mut m = PartialModel::initial(p, d, g.atoms());
        let mut closer = Closer::new(g);
        closer.bootstrap(&m);
        closer.run(&mut m).expect("no conflict");
        (closer, m)
    }

    fn truth(
        g: &crate::graph::GroundGraph,
        m: &PartialModel,
        pred: &str,
        args: &[&str],
    ) -> TruthValue {
        let id = g
            .atoms()
            .id_of(&GroundAtom::from_texts(pred, args))
            .expect("atom exists");
        m.get(id)
    }

    #[test]
    fn positive_chain_closes_completely() {
        // p(X) :- e(X).  q(X) :- p(X).  over e(a).
        let (g, p, d) = closed("p(X) :- e(X).\nq(X) :- p(X).", "e(a).");
        let (closer, m) = run_close(&g, &p, &d);
        assert!(m.is_total());
        assert_eq!(closer.alive_atom_count(), 0);
        assert_eq!(truth(&g, &m, "p", &["a"]), TruthValue::True);
        assert_eq!(truth(&g, &m, "q", &["a"]), TruthValue::True);
    }

    #[test]
    fn unsupported_atoms_become_false() {
        let (g, p, d) = closed("p(X) :- e(X).", "e(a).\nf(b).");
        // f is mentioned nowhere in the program, so V_P has no f atoms; but
        // constant b joins the universe, making p(b)/e(b) exist.
        let (_, m) = run_close(&g, &p, &d);
        assert!(m.is_total());
        assert_eq!(truth(&g, &m, "p", &["b"]), TruthValue::False);
        assert_eq!(truth(&g, &m, "e", &["b"]), TruthValue::False);
    }

    #[test]
    fn negation_on_edb_resolves() {
        // p(X) :- e(X), not f(X). with f EDB.
        let p = parse_program("p(X) :- e(X), not f(X).").unwrap();
        let d = parse_database("e(a).\ne(b).\nf(b).").unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let (_, m) = run_close(&g, &p, &d);
        assert!(m.is_total());
        assert_eq!(truth(&g, &m, "p", &["a"]), TruthValue::True);
        assert_eq!(truth(&g, &m, "p", &["b"]), TruthValue::False);
    }

    #[test]
    fn mutual_negation_stays_open() {
        // p :- not q. q :- not p. — close assigns nothing.
        let (g, p, d) = closed("p :- not q.\nq :- not p.", "");
        let (closer, m) = run_close(&g, &p, &d);
        assert!(!m.is_total());
        assert_eq!(closer.alive_atom_count(), 2);
        assert_eq!(m.defined_count(), 0);
    }

    #[test]
    fn external_definition_propagates() {
        let (g, p, d) = closed("p :- not q.\nq :- not p.", "");
        let (mut closer, mut m) = run_close(&g, &p, &d);
        let qa = g.atoms().atom_id("q".into(), &[]).unwrap();
        closer.define(&mut m, qa, TruthValue::False);
        closer.run(&mut m).unwrap();
        assert!(m.is_total());
        assert_eq!(truth(&g, &m, "p", &[]), TruthValue::True);
    }

    #[test]
    fn conflict_detected_on_bad_assignment() {
        // p :- e.  with e true: forcing p false must conflict.
        let (g, p, d) = closed("p :- e.", "e.");
        let mut m = PartialModel::initial(&p, &d, g.atoms());
        let mut closer = Closer::new(&g);
        let pa = g.atoms().atom_id("p".into(), &[]).unwrap();
        // Pre-force p false, then bootstrap.
        closer.define(&mut m, pa, TruthValue::False);
        closer.bootstrap(&m);
        let err = closer.run(&mut m).unwrap_err();
        assert_eq!(err.atom, pa);
    }

    #[test]
    fn facts_fire_immediately() {
        let (g, p, d) = closed("p(a).\nq(X) :- p(X).", "");
        let (_, m) = run_close(&g, &p, &d);
        assert!(m.is_total());
        assert_eq!(truth(&g, &m, "p", &["a"]), TruthValue::True);
        assert_eq!(truth(&g, &m, "q", &["a"]), TruthValue::True);
    }

    #[test]
    fn unfounded_set_of_positive_loop() {
        // p :- q. q :- p. — close leaves both; both are unfounded.
        let (g, p, d) = closed("p :- q.\nq :- p.", "");
        let (closer, m) = run_close(&g, &p, &d);
        assert_eq!(m.defined_count(), 0);
        let unfounded = closer.largest_unfounded_set();
        assert_eq!(unfounded.len(), 2);
    }

    #[test]
    fn unfounded_set_of_pq_example_is_everything() {
        // Paper §3: p ← p, ¬q ; q ← q, ¬p — {p, q} is unfounded.
        let (g, p, d) = closed("p :- p, not q.\nq :- q, not p.", "");
        let (closer, _) = run_close(&g, &p, &d);
        let unfounded = closer.largest_unfounded_set();
        assert_eq!(unfounded.len(), 2);
    }

    #[test]
    fn no_unfounded_set_in_pure_negation_cycle() {
        // p :- not q. q :- not p. — G⁺ has only the head edges; each atom
        // keeps support, each rule has zero positive pending ⇒ everything
        // deleted in the simulation ⇒ unfounded set empty.
        let (g, p, d) = closed("p :- not q.\nq :- not p.", "");
        let (closer, _) = run_close(&g, &p, &d);
        assert!(closer.largest_unfounded_set().is_empty());
    }

    #[test]
    fn remaining_digraph_of_pq_example() {
        let (g, p, d) = closed("p :- p, not q.\nq :- q, not p.", "");
        let (closer, _) = run_close(&g, &p, &d);
        let rem = closer.remaining_digraph();
        // 2 atoms + 2 rules.
        assert_eq!(rem.digraph.node_count(), 4);
        // Each rule: head edge + 2 body edges = 6 total.
        assert_eq!(rem.digraph.edge_count(), 6);
        // One SCC spanning everything.
        let sccs = signed_graph::Sccs::compute(&rem.digraph);
        assert_eq!(sccs.len(), 1);
    }

    #[test]
    fn closer_is_confluent_under_definition_order() {
        // Define the same atoms in both orders; final models agree.
        let (g, p, d) = closed("a :- not b.\nb :- not a.\nc :- not d.\nd :- not c.", "");
        let ids: Vec<AtomId> = ["a", "c"]
            .iter()
            .map(|n| g.atoms().atom_id((*n).into(), &[]).unwrap())
            .collect();

        let (mut c1, mut m1) = run_close(&g, &p, &d);
        c1.define(&mut m1, ids[0], TruthValue::True);
        c1.run(&mut m1).unwrap();
        c1.define(&mut m1, ids[1], TruthValue::True);
        c1.run(&mut m1).unwrap();

        let (mut c2, mut m2) = run_close(&g, &p, &d);
        c2.define(&mut m2, ids[1], TruthValue::True);
        c2.define(&mut m2, ids[0], TruthValue::True);
        c2.run(&mut m2).unwrap();

        assert_eq!(m1, m2);
        assert!(m1.is_total());
    }

    #[test]
    fn snapshot_forks_independent_evaluations() {
        // Fork two closers off one post-close snapshot and drive them to
        // opposite orientations; the snapshot itself stays pristine.
        let (g, p, d) = closed("p :- not q.\nq :- not p.\nr :- not p.", "");
        let (closer, m) = run_close(&g, &p, &d);
        let snap = closer.snapshot();
        assert_eq!(snap.alive_atom_count(), closer.alive_atom_count());

        let qa = g.atoms().atom_id("q".into(), &[]).unwrap();
        let run_fork = |value: TruthValue| {
            let mut fork = Closer::from_state(&g, &snap);
            let mut fm = m.clone();
            fork.define(&mut fm, qa, value);
            fork.run(&mut fm).unwrap();
            fm
        };
        let m_false = run_fork(TruthValue::False);
        let m_true = run_fork(TruthValue::True);
        assert!(m_false.is_total() && m_true.is_total());
        assert_eq!(truth(&g, &m_false, "p", &[]), TruthValue::True);
        assert_eq!(truth(&g, &m_false, "r", &[]), TruthValue::False);
        assert_eq!(truth(&g, &m_true, "p", &[]), TruthValue::False);
        assert_eq!(truth(&g, &m_true, "r", &[]), TruthValue::True);
    }

    /// Flips one EDB fact in a prepared close state via the cone splice
    /// and checks the result against a from-scratch close of the mutated
    /// database.
    fn assert_cone_reclose_matches_fresh(program_src: &str, db_src: &str, flip: (&str, &[&str])) {
        let p = parse_program(program_src).unwrap();
        let d = parse_database(db_src).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let (mut closer, mut model) = run_close(&g, &p, &d);

        let fact = GroundAtom::from_texts(flip.0, flip.1);
        let atom = g.atoms().id_of(&fact).expect("fact in atom space");
        let mut d2 = d.clone();
        if !d2.remove(&fact) {
            d2.insert(fact).unwrap();
        }
        // Incremental: reopen the forward cone against the new M₀.
        let initial = PartialModel::initial(&p, &d2, g.atoms());
        let cone = g.forward_cone([atom], []);
        closer.reopen_cone(&mut model, &initial, &cone);
        closer.run(&mut model).expect("no conflict");

        // Reference: close from scratch on the mutated database.
        let (fresh_closer, fresh_model) = run_close(&g, &p, &d2);
        assert_eq!(model, fresh_model, "spliced model ≠ fresh close");
        for id in g.atoms().ids() {
            assert_eq!(
                closer.atom_alive(id),
                fresh_closer.atom_alive(id),
                "aliveness differs at {}",
                g.atoms().decode(id)
            );
        }
        for i in 0..g.rule_count() {
            let r = RuleId(i as u32);
            assert_eq!(closer.rule_alive(r), fresh_closer.rule_alive(r));
        }
        let mut a = closer.largest_unfounded_set();
        let mut b = fresh_closer.largest_unfounded_set();
        a.sort();
        b.sort();
        assert_eq!(a, b, "unfounded sets differ after splice");
    }

    #[test]
    fn cone_reclose_retracts_a_chain_edge() {
        // Retracting e(b) must revive nothing and falsify p(b)/q(b)'s
        // support exactly as a fresh close would.
        assert_cone_reclose_matches_fresh(
            "p(X) :- e(X).\nq(X) :- p(X).",
            "e(a).\ne(b).",
            ("e", &["b"]),
        );
    }

    #[test]
    fn cone_reclose_inserts_into_a_win_move_game() {
        assert_cone_reclose_matches_fresh(
            "win(X) :- move(X, Y), not win(Y).",
            "move(a, b).\nmove(b, c).\nmove(c, a).\nmove(a, c).",
            ("move", &["b", "a"]),
        );
    }

    #[test]
    fn cone_reclose_revives_killed_rules() {
        // With f(a) present the rule for p(a) is dead (negative literal
        // false); retracting f(a) must revive and fire it.
        assert_cone_reclose_matches_fresh(
            "p(X) :- e(X), not f(X).\nr(X) :- p(X).",
            "e(a).\nf(a).",
            ("f", &["a"]),
        );
    }

    #[test]
    fn cone_reclose_keeps_residual_ties_intact() {
        // The p/q tie survives a mutation in an unrelated region, and a
        // mutation of its guard resolves it exactly like a fresh close.
        assert_cone_reclose_matches_fresh(
            "p :- not q, e.\nq :- not p, e.\nr(X) :- g(X).",
            "e.\ng(a).",
            ("g", &["a"]),
        );
        assert_cone_reclose_matches_fresh(
            "p :- not q, e.\nq :- not p, e.\nr(X) :- g(X).",
            "e.\ng(a).",
            ("e", &[]),
        );
    }

    #[test]
    fn cone_reclose_sequences_compose() {
        // A sequence of flips, each spliced incrementally, stays equal to
        // fresh closes of every intermediate database.
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let d0 = parse_database("move(a, b).\nmove(b, c).\nmove(c, d).\nmove(d, a).").unwrap();
        let g = ground(&p, &d0, GroundMode::Full, &GroundConfig::default()).unwrap();
        let (mut closer, mut model) = run_close(&g, &p, &d0);
        let mut db = d0.clone();
        for (pred, args) in [
            ("move", ["b", "a"]),
            ("move", ["c", "b"]),
            ("move", ["b", "a"]), // retract again
            ("move", ["a", "c"]),
        ] {
            let fact = GroundAtom::from_texts(pred, &args);
            if !db.remove(&fact) {
                db.insert(fact.clone()).unwrap();
            }
            let atom = g.atoms().id_of(&fact).unwrap();
            let initial = PartialModel::initial(&p, &db, g.atoms());
            let cone = g.forward_cone([atom], []);
            closer.reopen_cone(&mut model, &initial, &cone);
            closer.run(&mut model).expect("no conflict");
            let (_, fresh_model) = run_close(&g, &p, &db);
            assert_eq!(model, fresh_model);
        }
    }

    #[test]
    #[should_panic(expected = "queued events")]
    fn snapshot_of_pending_closer_panics() {
        let (g, p, d) = closed("p :- not q.\nq :- not p.", "");
        let (mut closer, mut m) = run_close(&g, &p, &d);
        let qa = g.atoms().atom_id("q".into(), &[]).unwrap();
        closer.define(&mut m, qa, TruthValue::False);
        let _ = closer.snapshot(); // queue still holds the definition
    }
}
