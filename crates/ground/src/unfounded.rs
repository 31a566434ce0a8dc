//! Component-scoped unfounded-set computation over the residual graph.
//!
//! `Closer::largest_unfounded_set` recomputes `Atoms[close(M, G⁺)]` from a
//! full clone of the live deletion state, so interpreters that alternate
//! unfounded rounds (or tie breaks) with `close` pay Θ(|G|) per round —
//! quadratic end-to-end on alternation-heavy instances such as win–move
//! chains. [`UnfoundedEngine`] removes that bottleneck:
//!
//! * it condenses the residual graph **once** (SCCs of the bipartite
//!   atom/rule graph left alive by the first `close`), and
//! * it answers unfounded-set and tie-structure queries **per component**,
//!   touching only the component's members and their incident rules, with
//!   reusable scratch buffers instead of whole-graph clones.
//!
//! The decomposition is exact because every `close` propagation step
//! follows a graph edge (body atom → rule → head), so external
//! assignments inside a component can only affect that component and the
//! components **downstream** of it in the condensation. Processing
//! components in topological order (sources first) therefore never needs
//! to revisit a finished component.
//!
//! **Local unfounded sets.** For a component *C*, the engine simulates the
//! positive fire-cascade of `close(M, G⁺)` restricted to *C*: every alive
//! rule whose head lies in *C* starts with a pending count of its alive
//! positive body atoms *inside C*; rules at zero fire and delete their
//! heads, decrementing dependents. Survivors are unfounded. Positive body
//! atoms outside *C* are always in upstream components (edges point
//! downstream), and upstream components are processed to an empty local
//! unfounded set first, so their alive atoms would fire in the global
//! simulation — counting them as satisfied is exact, not a heuristic.
//! Starting from a closed state no alive atom lacks support and no alive
//! rule has zero pending, so the global simulation never takes the
//! "unsupported" branch either — the fire-cascade is the whole story.
//!
//! **Incremental patches.** A mutation re-closes only its forward cone,
//! and [`UnfoundedEngine::patch_cone`] re-condenses only the cone's
//! alive remnant, in O(cone): retained components keep their ids and
//! position.
//!
//! **Tie phase without allocation.** [`UnfoundedEngine::bottom_tie`]
//! finds the next tie to break inside a component: it lays the
//! component's alive remnant out as a CSR graph
//! ([`ComponentGraph`]), condenses it with [`signed_graph::Sccs`]'s
//! Tarjan, and runs the Lemma 1 search ([`signed_graph::TieScratch`])
//! on its bottom SCCs, all into buffers the engine keeps, as it keeps
//! [`UnfoundedEngine::local_unfounded`]'s answer. Component numbering,
//! member order and the search's root are those of the allocating
//! oracles (`Sccs::compute`, `tie::check_tie` over a `SignedDigraph`),
//! so a tie policy sees the same ties in the same order. An evaluation
//! walks a private clone of the engine, so after the first components
//! a walk allocates nothing per component.

use datalog_ast::Sign;
use signed_graph::{EdgeSign, NodeId, Sccs, TieScratch};

use crate::atoms::AtomId;
use crate::close::{Closer, NodeKind};
use crate::csr::CsrArena;
use crate::graph::{Cone, RuleId};

/// Sentinel component id for nodes not alive when the engine was built.
const NO_COMP: u32 = u32::MAX;

/// The SCC condensation of a residual graph, with component-scoped
/// unfounded-set and tie-structure queries.
///
/// Build it once after the first `close(M₀, G)`; it stays valid for the
/// rest of the run because deletions only ever shrink components. A
/// session that mutates its database keeps it current with
/// [`UnfoundedEngine::patch_cone`], at a cost proportional to the
/// mutation's cone.
///
/// A node has a component id iff it is alive in the close state the
/// engine was built or last patched against (checked in debug builds
/// after every patch).
///
/// The engine is `Clone` so that an evaluation can walk a private copy
/// (the `pending`/`removed`/`queue`/`node_of_atom` fields are per-call
/// scratch).
#[derive(Clone)]
pub struct UnfoundedEngine {
    /// Component of each atom (by [`AtomId`] index); [`NO_COMP`] if the
    /// atom was already defined at build time.
    atom_comp: Vec<u32>,
    /// Component of each rule node; [`NO_COMP`] if dead at build time.
    rule_comp: Vec<u32>,
    /// Member atoms of each component (CSR over one contiguous slab).
    comp_atoms: CsrArena<AtomId>,
    /// Member rule nodes of each component.
    comp_rules: CsrArena<RuleId>,
    /// Alive-at-build rules whose *head* lies in the component (includes
    /// external support rules sitting in upstream components).
    comp_head_rules: CsrArena<RuleId>,
    /// Component ids in topological order of the condensation (sources
    /// first — the processing order).
    order: Vec<u32>,
    /// Position of each live component in `order` (stale for retired
    /// ids), so a patch edits `order` from its first retired position on.
    order_pos: Vec<u32>,
    /// Component ids retired by earlier [`UnfoundedEngine::patch_cone`]
    /// calls and not yet reassigned, kept sorted descending (allocation
    /// pops the smallest). Bounds the component tables at their peak
    /// live size however long a session churns.
    free_comps: Vec<u32>,
    /// Scratch: per-rule pending⁺ count, valid only for the component
    /// currently being simulated.
    pending: Vec<u32>,
    /// Scratch: atoms deleted by the current simulation.
    removed: Vec<bool>,
    /// Scratch: the fire-cascade worklist.
    queue: Vec<RuleId>,
    /// Scratch: subgraph node of each atom ([`NO_NODE`] outside a call),
    /// valid only for the component whose subgraph is being built.
    node_of_atom: Vec<NodeId>,
    /// Scratch of [`UnfoundedEngine::patch_cone`]'s cone condensation.
    tarjan: ConeTarjan,
    /// Scratch of the tie phase ([`UnfoundedEngine::bottom_tie`]) and
    /// of [`UnfoundedEngine::local_unfounded`]'s answer.
    walk: WalkScratch,
}

/// The per-component buffers of the tie phase and of the unfounded-set
/// answer: grown by the first components an engine visits and reused for
/// every later one, so a walk allocates nothing per component once they
/// have reached the largest component's size.
#[derive(Clone, Default)]
struct WalkScratch {
    /// The component's alive remnant.
    remnant: ComponentGraph,
    /// The remnant's strongly connected components.
    sccs: Sccs,
    /// Per remnant SCC: `true` iff another SCC has an edge into it.
    entered: Vec<bool>,
    /// The Lemma 1 search.
    tie: TieScratch,
    /// The atoms of the tie found, on the root's side and the other.
    root_side: Vec<AtomId>,
    other_side: Vec<AtomId>,
    /// The last [`UnfoundedEngine::local_unfounded`] answer.
    unfounded: Vec<AtomId>,
}

/// Sentinel for [`UnfoundedEngine::node_of_atom`] entries not in the
/// subgraph under construction.
const NO_NODE: NodeId = NodeId::MAX;

/// Sentinel for [`UnfoundedEngine::order_pos`] entries of components a
/// patch is retiring.
const NO_POS: u32 = u32::MAX;

/// Reusable buffers of the cone condensation, sized by the first patch
/// (an engine that is never patched holds none): after a patch every DFS
/// index is [`NO_NODE`] again and the lists are empty or stale, so
/// steady-state patches allocate nothing here.
#[derive(Clone, Default)]
struct ConeTarjan {
    /// DFS index per atom, [`NO_NODE`] outside a patch.
    atom_index: Vec<u32>,
    /// DFS index per rule node, [`NO_NODE`] outside a patch.
    rule_index: Vec<u32>,
    /// Lowlink per DFS index.
    low: Vec<u32>,
    /// The cone's alive atoms, ascending.
    atoms: Vec<AtomId>,
    /// The cone's alive rule nodes, ascending.
    rules: Vec<RuleId>,
    /// DFS frames: a node and the position of its next out-edge.
    frames: Vec<(NodeKind, u32)>,
    /// Tarjan's stack of visited nodes not yet assigned a component.
    stack: Vec<NodeKind>,
    /// Per new component: the next slab position of the table being
    /// placed.
    cursors: Vec<u32>,
}

impl ConeTarjan {
    fn index(&mut self, v: NodeKind) -> &mut u32 {
        match v {
            NodeKind::Atom(a) => &mut self.atom_index[a.index()],
            NodeKind::Rule(r) => &mut self.rule_index[r.index()],
        }
    }

    /// Gives `v` the next DFS index and pushes it on both stacks.
    fn open(&mut self, v: NodeKind) {
        let index = self.low.len() as u32;
        *self.index(v) = index;
        self.low.push(index);
        self.stack.push(v);
        self.frames.push((v, 0));
    }
}

/// The out-edge of `v` in the alive cone at or after edge position
/// `pos`, and the position after it. An atom's out-edges are its uses
/// (the alive cone rules in [`GroundGraph::uses_of`], ascending by rule
/// id with one edge per body occurrence); a rule's is its head, when
/// that is an alive cone atom.
fn cone_successor(
    closer: &Closer<'_>,
    cone: &Cone,
    v: NodeKind,
    mut pos: u32,
) -> (Option<NodeKind>, u32) {
    let graph = closer.graph();
    match v {
        NodeKind::Atom(a) => {
            let uses = graph.uses_of(a);
            while let Some(&(r, _)) = uses.get(pos as usize) {
                pos += 1;
                if cone.rule_in[r.index()] && closer.rule_alive(r) {
                    return (Some(NodeKind::Rule(r)), pos);
                }
            }
            (None, pos)
        }
        NodeKind::Rule(r) => {
            let head = graph.rule(r).head;
            if pos == 0 && cone.atom_in[head.index()] && closer.atom_alive(head) {
                (Some(NodeKind::Atom(head)), 1)
            } else {
                (None, 1)
            }
        }
    }
}

/// What [`UnfoundedEngine::patch_cone`] did to the condensation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConePatch {
    /// The component ids the cone retired, ascending. Until reassigned
    /// (see `new_components`) they denote nothing.
    pub retired: Vec<u32>,
    /// The ids assigned to the new components, in topological order
    /// (retired ids are recycled before fresh ones append): an id listed
    /// here no longer denotes what it did before the patch.
    pub new_components: Vec<u32>,
}

/// The alive induced subgraph of one component, for tie detection.
///
/// Nodes are the component's alive atoms, then its alive rule nodes,
/// densely renumbered in the component's member order; edges are the
/// surviving internal edges, stored CSR: an atom node has one out-edge
/// per body occurrence of it, in rule order, and a rule node one to its
/// head.
/// `external_in` marks nodes that still receive an edge from an alive
/// node *outside* the component — a sub-SCC containing such a node is not
/// a bottom component of the global remaining graph and must not be
/// tie-broken.
///
/// The engine keeps one and rebuilds it in place per component
/// ([`UnfoundedEngine::alive_subgraph`]).
#[derive(Clone, Debug, Default)]
pub struct ComponentGraph {
    /// Where each node's out-edges start in `edges`, plus the end.
    offsets: Vec<u32>,
    /// Every node's out-edges, node by node.
    edges: Vec<(NodeId, EdgeSign)>,
    /// The atom behind each atom node (the first nodes).
    atoms: Vec<AtomId>,
    /// Whether each node has an alive in-edge from outside the component.
    external_in: Vec<bool>,
    /// Placement cursor per node while the edges are laid out.
    cursor: Vec<u32>,
}

impl ComponentGraph {
    /// Number of nodes (alive atoms and alive rule nodes).
    pub fn node_count(&self) -> usize {
        self.external_in.len()
    }

    /// The out-edges of node `n` as `(target, sign)` pairs.
    pub fn out_edges(&self, n: NodeId) -> &[(NodeId, EdgeSign)] {
        let n = n as usize;
        &self.edges[self.offsets[n] as usize..self.offsets[n + 1] as usize]
    }

    /// The atom behind node `n`, or `None` for a rule node.
    pub fn node_atom(&self, n: NodeId) -> Option<AtomId> {
        self.atoms.get(n as usize).copied()
    }

    /// Whether node `n` has an alive in-edge from outside the component.
    pub fn has_external_in(&self, n: NodeId) -> bool {
        self.external_in[n as usize]
    }

    /// `true` iff every node of `members` is free of external in-edges.
    pub fn is_globally_bottom(&self, members: &[NodeId]) -> bool {
        members.iter().all(|&n| !self.external_in[n as usize])
    }
}

impl UnfoundedEngine {
    /// Condenses the residual graph of `closer` (everything still alive).
    pub fn build(closer: &Closer<'_>) -> Self {
        let mut span = tiebreak_trace::span("condense", "condense", &[]);
        tiebreak_trace::metrics().condense_runs.inc();
        let graph = closer.graph();
        let mut engine = UnfoundedEngine {
            atom_comp: vec![NO_COMP; graph.atom_count()],
            rule_comp: vec![NO_COMP; graph.rule_count()],
            comp_atoms: CsrArena::default(),
            comp_rules: CsrArena::default(),
            comp_head_rules: CsrArena::default(),
            order: Vec::new(),
            order_pos: Vec::new(),
            free_comps: Vec::new(),
            pending: vec![0; graph.rule_count()],
            removed: vec![false; graph.atom_count()],
            queue: Vec::new(),
            node_of_atom: vec![NO_NODE; graph.atom_count()],
            tarjan: ConeTarjan {
                atom_index: vec![NO_NODE; graph.atom_count()],
                rule_index: vec![NO_NODE; graph.rule_count()],
                ..ConeTarjan::default()
            },
            walk: WalkScratch::default(),
        };
        // The whole graph is one cone: the patch's Tarjan over the ground
        // graph's own adjacency, roots in ascending atom then rule ids,
        // numbers components exactly as `Sccs::compute` over
        // `Closer::remaining_digraph` would (emission order, sinks
        // first) without materialising that digraph. Its scratch is
        // dropped again: an engine that is never patched holds none.
        let everything = Cone {
            atoms: graph.atoms().ids().collect(),
            rules: (0..graph.rule_count() as u32).map(RuleId).collect(),
            atom_in: vec![true; graph.atom_count()],
            rule_in: vec![true; graph.rule_count()],
        };
        let n_comps = engine.condense_cone(closer, &everything);
        drop(everything);
        engine.tarjan = ConeTarjan::default();
        let UnfoundedEngine {
            atom_comp,
            rule_comp,
            ..
        } = &engine;

        // Counting-sort the members into CSR arenas: one sizing pass, one
        // placement pass, atoms ascending and rules ascending within each
        // component.
        let mut atom_counts = vec![0u32; n_comps];
        let mut rule_counts = vec![0u32; n_comps];
        for &c in atom_comp {
            if c != NO_COMP {
                atom_counts[c as usize] += 1;
            }
        }
        for &c in rule_comp {
            if c != NO_COMP {
                rule_counts[c as usize] += 1;
            }
        }
        let (mut comp_atoms, mut atom_cursors) = CsrArena::from_counts(&atom_counts, AtomId(0));
        let (mut comp_rules, mut rule_cursors) = CsrArena::from_counts(&rule_counts, RuleId(0));
        for (i, &c) in atom_comp.iter().enumerate() {
            if c != NO_COMP {
                comp_atoms.place(&mut atom_cursors, c, AtomId(i as u32));
            }
        }
        for (i, &c) in rule_comp.iter().enumerate() {
            if c != NO_COMP {
                comp_rules.place(&mut rule_cursors, c, RuleId(i as u32));
            }
        }

        let mut head_counts = vec![0u32; n_comps];
        for (i, rule) in graph.rules().enumerate() {
            if closer.rule_alive(RuleId(i as u32)) {
                let head_comp = atom_comp[rule.head.index()];
                if head_comp != NO_COMP {
                    head_counts[head_comp as usize] += 1;
                }
            }
        }
        let (mut comp_head_rules, mut head_cursors) =
            CsrArena::from_counts(&head_counts, RuleId(0));
        for (i, rule) in graph.rules().enumerate() {
            let r = RuleId(i as u32);
            if !closer.rule_alive(r) {
                continue;
            }
            let head_comp = atom_comp[rule.head.index()];
            if head_comp != NO_COMP {
                comp_head_rules.place(&mut head_cursors, head_comp, r);
            }
        }

        // Tarjan emits sinks first: the processing order is the reverse.
        let order: Vec<u32> = (0..n_comps as u32).rev().collect();
        let mut order_pos = vec![NO_POS; n_comps];
        for (i, &c) in order.iter().enumerate() {
            order_pos[c as usize] = i as u32;
        }
        engine.comp_atoms = comp_atoms;
        engine.comp_rules = comp_rules;
        engine.comp_head_rules = comp_head_rules;
        engine.order = order;
        engine.order_pos = order_pos;
        span.arg("components", engine.component_count() as u64);
        engine
    }

    /// Component ids in topological order (sources first): the order in
    /// which components must be processed.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Number of live components in the condensation. (After a
    /// [`UnfoundedEngine::patch_cone`], retired component ids leave holes
    /// in the internal tables; the processing order lists exactly the
    /// live ones.)
    pub fn component_count(&self) -> usize {
        self.order.len()
    }

    /// Splices a mutated cone into the condensation after an incremental
    /// re-close: every component intersecting the cone is retired (an SCC
    /// through a cone node lies wholly inside the cone — the cone is
    /// forward-closed, so the whole cycle is reachable from that node),
    /// the alive cone remnant is re-condensed, and the new components are
    /// appended to the topological order with **fresh ids** — untouched
    /// components keep their ids, membership lists, and position, so
    /// their prepared state stays valid verbatim.
    ///
    /// Appending is topologically correct because every edge between the
    /// cone and the rest points *into* the cone (nothing inside is
    /// forward-reachable from outside-bound edges — again forward
    /// closure), so new components have no successors among the retained
    /// ones.
    ///
    /// No step walks the whole residual:
    ///
    /// * the cone is condensed by an iterative Tarjan that reads the
    ///   ground graph's own adjacency (no subgraph is materialised) with
    ///   reusable scratch. Roots are taken in the node order of a fresh
    ///   build (atoms ascending, then rules ascending), so component ids,
    ///   topological order and member lists come out exactly as
    ///   re-condensing a [`SignedDigraph`](signed_graph::SignedDigraph)
    ///   of the cone would give them;
    /// * members are counting-sorted straight into the CSR arenas;
    /// * the topological order is edited from the first retired position
    ///   on — O(cone) once a cone's components sit at the end of the
    ///   order, where every patch appends them;
    /// * the slab compaction is O(live) but amortised over the patches
    ///   whose garbage triggered it.
    ///
    /// Retired ids are recycled, so callers keeping
    /// per-component state (the runtime session's round counts) forget
    /// the entries of [`ConePatch::retired`] and overwrite those of
    /// [`ConePatch::new_components`].
    pub fn patch_cone(&mut self, closer: &Closer<'_>, cone: &Cone) -> ConePatch {
        let _span = tiebreak_trace::span(
            "condense",
            "patch_cone",
            &[
                ("cone_atoms", cone.atoms.len() as u64),
                ("cone_rules", cone.rules.len() as u64),
            ],
        );
        tiebreak_trace::metrics().cones_patched.inc();
        let graph = closer.graph();
        // The graph may have grown since the engine was built.
        self.atom_comp.resize(graph.atom_count(), NO_COMP);
        self.rule_comp.resize(graph.rule_count(), NO_COMP);
        self.pending.resize(graph.rule_count(), 0);
        self.removed.resize(graph.atom_count(), false);
        self.node_of_atom.resize(graph.atom_count(), NO_NODE);
        self.tarjan.atom_index.resize(graph.atom_count(), NO_NODE);
        self.tarjan.rule_index.resize(graph.rule_count(), NO_NODE);

        let retired = self.retire_cone(cone);
        let added = self.condense_cone(closer, cone);
        // Ids for the new components, in topological order of the cone
        // sub-condensation: slots retired by this or any earlier patch
        // are reused first (so a long-lived session flapping facts does
        // not grow the component tables without bound), then fresh ids
        // append. The free list is drained smallest-first for
        // determinism.
        self.free_comps.extend_from_slice(&retired);
        self.free_comps.sort_unstable_by(|a, b| b.cmp(a));
        let new_ids: Vec<u32> = (0..added)
            .map(|_| {
                self.free_comps.pop().unwrap_or_else(|| {
                    let id = self.comp_atoms.slot_count() as u32;
                    self.comp_atoms.ensure_slot(id);
                    self.comp_rules.ensure_slot(id);
                    self.comp_head_rules.ensure_slot(id);
                    id
                })
            })
            .collect();
        self.order_pos.resize(self.comp_atoms.slot_count(), NO_POS);
        self.place_cone_members(closer, &new_ids);
        self.comp_atoms.compact();
        self.comp_rules.compact();
        self.comp_head_rules.compact();

        // New order: retained components in place, cone components after
        // (their in-edges all come from retained components or from
        // earlier cone components), in cone-topological order.
        for &c in &new_ids {
            self.order_pos[c as usize] = self.order.len() as u32;
            self.order.push(c);
        }
        debug_assert!(
            self.comp_ids_track_aliveness(closer),
            "a node has a component id iff it is alive"
        );
        ConePatch {
            retired,
            new_components: new_ids,
        }
    }

    /// Takes every component the cone touches out of the condensation:
    /// cone nodes lose their component id, the components' member lists
    /// are emptied, and `order` drops them by one pass over its suffix
    /// from the first retired position. Returns the retired ids,
    /// ascending.
    fn retire_cone(&mut self, cone: &Cone) -> Vec<u32> {
        let mut retired: Vec<u32> = Vec::new();
        for &a in &cone.atoms {
            let c = std::mem::replace(&mut self.atom_comp[a.index()], NO_COMP);
            if c != NO_COMP {
                retired.push(c);
            }
        }
        for &r in &cone.rules {
            let c = std::mem::replace(&mut self.rule_comp[r.index()], NO_COMP);
            if c != NO_COMP {
                retired.push(c);
            }
        }
        retired.sort_unstable();
        retired.dedup();
        for &c in &retired {
            self.comp_atoms.clear(c);
            self.comp_rules.clear(c);
            self.comp_head_rules.clear(c);
        }
        let Some(first) = retired.iter().map(|&c| self.order_pos[c as usize]).min() else {
            return retired;
        };
        for &c in &retired {
            self.order_pos[c as usize] = NO_POS;
        }
        let mut kept = first as usize;
        for i in first as usize..self.order.len() {
            let c = self.order[i];
            if self.order_pos[c as usize] != NO_POS {
                self.order[kept] = c;
                self.order_pos[c as usize] = kept as u32;
                kept += 1;
            }
        }
        self.order.truncate(kept);
        retired
    }

    /// Tarjan's algorithm over the alive cone, read off the ground graph
    /// (see [`cone_successor`]) with roots in ascending atom ids, then
    /// ascending rule ids. Leaves each alive cone node's component in
    /// emission order (sinks first) in `atom_comp`/`rule_comp` and
    /// returns the number of components. A node is on Tarjan's stack iff
    /// it is visited and still has no component: the cone's nodes lost
    /// theirs in [`UnfoundedEngine::retire_cone`].
    fn condense_cone(&mut self, closer: &Closer<'_>, cone: &Cone) -> usize {
        let t = &mut self.tarjan;
        t.atoms.clear();
        t.atoms
            .extend(cone.atoms.iter().copied().filter(|&a| closer.atom_alive(a)));
        t.atoms.sort_unstable();
        t.rules.clear();
        t.rules
            .extend(cone.rules.iter().copied().filter(|&r| closer.rule_alive(r)));
        t.rules.sort_unstable();

        t.low.clear();
        let mut emitted = 0u32;
        for i in 0..t.atoms.len() + t.rules.len() {
            let root = match t.atoms.get(i) {
                Some(&a) => NodeKind::Atom(a),
                None => NodeKind::Rule(t.rules[i - t.atoms.len()]),
            };
            if *t.index(root) != NO_NODE {
                continue;
            }
            t.open(root);
            while let Some(&(v, pos)) = t.frames.last() {
                let (succ, next_pos) = cone_successor(closer, cone, v, pos);
                t.frames.last_mut().expect("frame in hand").1 = next_pos;
                let v_index = *t.index(v) as usize;
                if let Some(w) = succ {
                    let w_index = *t.index(w);
                    let w_assigned = match w {
                        NodeKind::Atom(a) => self.atom_comp[a.index()] != NO_COMP,
                        NodeKind::Rule(r) => self.rule_comp[r.index()] != NO_COMP,
                    };
                    if w_index == NO_NODE {
                        t.open(w);
                    } else if !w_assigned {
                        t.low[v_index] = t.low[v_index].min(w_index);
                    }
                    continue;
                }
                t.frames.pop();
                let v_low = t.low[v_index];
                if let Some(&(parent, _)) = t.frames.last() {
                    let p_index = *t.index(parent) as usize;
                    t.low[p_index] = t.low[p_index].min(v_low);
                }
                if v_low as usize == v_index {
                    loop {
                        let w = t.stack.pop().expect("Tarjan stack underflow");
                        match w {
                            NodeKind::Atom(a) => self.atom_comp[a.index()] = emitted,
                            NodeKind::Rule(r) => self.rule_comp[r.index()] = emitted,
                        }
                        if w == v {
                            break;
                        }
                    }
                    emitted += 1;
                }
            }
        }
        emitted as usize
    }

    /// Counting-sorts the cone's members into the arenas under
    /// `new_ids` (indexed by topological rank; Tarjan emitted rank `k`
    /// as component `added - 1 - k`), then replaces the emission ids
    /// [`UnfoundedEngine::condense_cone`] left in `atom_comp`/`rule_comp`
    /// by the new ids and clears the DFS indices. Member lists come out
    /// in ascending id order, head rules grouped by ascending head atom,
    /// as in [`UnfoundedEngine::build`].
    fn place_cone_members(&mut self, closer: &Closer<'_>, new_ids: &[u32]) {
        let graph = closer.graph();
        let rank = |emitted: u32| (new_ids.len() - 1 - emitted as usize) as u32;
        let t = &mut self.tarjan;
        let (atom_comp, rule_comp) = (&self.atom_comp, &self.rule_comp);
        let atom_rank = |a: AtomId| rank(atom_comp[a.index()]);
        self.comp_atoms.append_sorted(
            new_ids,
            || t.atoms.iter().map(|&a| (atom_rank(a), a)),
            &mut t.cursors,
        );
        self.comp_rules.append_sorted(
            new_ids,
            || t.rules.iter().map(|&r| (rank(rule_comp[r.index()]), r)),
            &mut t.cursors,
        );
        self.comp_head_rules.append_sorted(
            new_ids,
            || {
                t.atoms.iter().flat_map(|&a| {
                    graph
                        .heads_of(a)
                        .iter()
                        .filter(|&&r| closer.rule_alive(r))
                        .map(move |&r| (atom_rank(a), r))
                })
            },
            &mut t.cursors,
        );

        for &a in &t.atoms {
            let c = &mut self.atom_comp[a.index()];
            *c = new_ids[rank(*c) as usize];
            t.atom_index[a.index()] = NO_NODE;
        }
        for &r in &t.rules {
            let c = &mut self.rule_comp[r.index()];
            *c = new_ids[rank(*c) as usize];
            t.rule_index[r.index()] = NO_NODE;
        }
    }

    /// `true` iff exactly the nodes alive in `closer` carry a component
    /// id. O(graph); debug builds check it after every patch.
    fn comp_ids_track_aliveness(&self, closer: &Closer<'_>) -> bool {
        let graph = closer.graph();
        graph
            .atoms()
            .ids()
            .all(|a| (self.atom_comp[a.index()] != NO_COMP) == closer.atom_alive(a))
            && (0..graph.rule_count())
                .all(|i| (self.rule_comp[i] != NO_COMP) == closer.rule_alive(RuleId(i as u32)))
    }

    /// The member atoms of component `c` (aliveness as of build time).
    pub fn component_atoms(&self, c: u32) -> &[AtomId] {
        self.comp_atoms.get(c)
    }

    /// Always 0. Only `perfbench` calls it;
    /// goes with ROADMAP item 1's benchmark cleanup.
    pub fn widest_wave(&self) -> usize {
        0
    }

    /// The component of `atom`, if it was alive at build time.
    pub fn component_of_atom(&self, atom: AtomId) -> Option<u32> {
        match self.atom_comp[atom.index()] {
            NO_COMP => None,
            c => Some(c),
        }
    }

    /// `true` iff component `c` still contains an alive (undefined) atom.
    pub fn has_alive_atoms(&self, closer: &Closer<'_>, c: u32) -> bool {
        self.comp_atoms.get(c).iter().any(|&a| closer.atom_alive(a))
    }

    /// The unfounded subset of component `c` at the current state of
    /// `closer`: the alive atoms of `c` not reachable by the positive
    /// fire-cascade restricted to `c` (see the module docs for why this
    /// matches the global `Atoms[close(M, G⁺)] ∩ c` when components are
    /// processed in topological order).
    ///
    /// Cost: O(|c| + incident rules), independent of the graph size. The
    /// answer lives in the engine's scratch until the next call.
    pub fn local_unfounded(&mut self, closer: &Closer<'_>, c: u32) -> &[AtomId] {
        let graph = closer.graph();
        debug_assert!(self.queue.is_empty());

        for &r in self.comp_head_rules.get(c) {
            if !closer.rule_alive(r) {
                continue;
            }
            let rule = graph.rule(r);
            if !closer.atom_alive(rule.head) {
                continue;
            }
            let p = rule
                .body
                .iter()
                .filter(|&&(a, s)| {
                    s.is_pos() && closer.atom_alive(a) && self.atom_comp[a.index()] == c
                })
                .count() as u32;
            self.pending[r.index()] = p;
            if p == 0 {
                self.queue.push(r);
            }
        }

        while let Some(r) = self.queue.pop() {
            let head = graph.rule(r).head;
            if self.removed[head.index()] {
                continue;
            }
            self.removed[head.index()] = true;
            for &(r2, s) in graph.uses_of(head) {
                if s != Sign::Pos || !closer.rule_alive(r2) {
                    continue;
                }
                let h2 = graph.rule(r2).head;
                // Only rules initialized above participate: alive, head
                // alive, head in this component.
                if self.atom_comp[h2.index()] != c || !closer.atom_alive(h2) {
                    continue;
                }
                let p = &mut self.pending[r2.index()];
                if *p > 0 {
                    *p -= 1;
                    if *p == 0 {
                        self.queue.push(r2);
                    }
                }
            }
        }

        let unfounded = &mut self.walk.unfounded;
        unfounded.clear();
        for &a in self.comp_atoms.get(c) {
            if closer.atom_alive(a) && !self.removed[a.index()] {
                unfounded.push(a);
            }
            self.removed[a.index()] = false; // reset scratch for reuse
        }
        unfounded
    }

    /// The alive induced subgraph of component `c`, with external-inflow
    /// markers (see [`ComponentGraph`]), rebuilt in the engine's scratch.
    /// Used for per-component tie detection: the sub-SCCs of this graph
    /// are exactly the SCCs of the global remaining graph that descend
    /// from `c`.
    pub fn alive_subgraph(&mut self, closer: &Closer<'_>, c: u32) -> &ComponentGraph {
        let graph = closer.graph();
        let atoms = self.comp_atoms.get(c);
        let rules = self.comp_rules.get(c);
        let sub = &mut self.walk.remnant;
        sub.atoms.clear();
        sub.external_in.clear();

        // Dense renumbering: alive atoms first (indexed through the
        // graph-sized `node_of_atom` scratch, reset on exit), then alive
        // rule nodes in member order.
        for &a in atoms {
            if !closer.atom_alive(a) {
                continue;
            }
            self.node_of_atom[a.index()] = sub.atoms.len() as NodeId;
            sub.atoms.push(a);
            // An alive rule head-feeding `a` from another component (e.g.
            // an external support rule, or a member of a stuck upstream
            // component) keeps `a` out of every global bottom component.
            sub.external_in.push(
                graph
                    .heads_of(a)
                    .iter()
                    .any(|&r| closer.rule_alive(r) && self.rule_comp[r.index()] != c),
            );
        }
        for &r in rules {
            if closer.rule_alive(r) {
                sub.external_in.push(
                    graph
                        .rule(r)
                        .body
                        .iter()
                        .any(|&(a, _)| closer.atom_alive(a) && self.atom_comp[a.index()] != c),
                );
            }
        }

        // The internal edges of each alive rule node `rn`: its head edge
        // and one edge per body occurrence of an alive member atom. Two
        // passes over the rules in member order — count, then place — so
        // each node's out-edges keep rule order.
        let n = sub.external_in.len();
        let first_rule = sub.atoms.len() as NodeId;
        let node_of_atom = &self.node_of_atom;
        let alive_rules = || {
            rules
                .iter()
                .filter(|&&r| closer.rule_alive(r))
                .zip(first_rule..)
        };
        let ComponentGraph {
            offsets,
            edges,
            cursor,
            ..
        } = sub;
        offsets.clear();
        offsets.resize(n + 1, 0);
        for (&r, rn) in alive_rules() {
            let rule = graph.rule(r);
            if node_of_atom[rule.head.index()] != NO_NODE {
                offsets[rn as usize + 1] += 1;
            }
            for &(a, _) in rule.body {
                let an = node_of_atom[a.index()];
                if an != NO_NODE {
                    offsets[an as usize + 1] += 1;
                }
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        cursor.clear();
        cursor.extend_from_slice(&offsets[..n]);
        edges.clear();
        edges.resize(offsets[n] as usize, (0, EdgeSign::Pos));
        for (&r, rn) in alive_rules() {
            let rule = graph.rule(r);
            let hn = node_of_atom[rule.head.index()];
            if hn != NO_NODE {
                edges[cursor[rn as usize] as usize] = (hn, EdgeSign::Pos);
                cursor[rn as usize] += 1;
            }
            for &(a, s) in rule.body {
                let an = node_of_atom[a.index()];
                if an != NO_NODE {
                    let sign = match s {
                        Sign::Pos => EdgeSign::Pos,
                        Sign::Neg => EdgeSign::Neg,
                    };
                    edges[cursor[an as usize] as usize] = (rn, sign);
                    cursor[an as usize] += 1;
                }
            }
        }

        for &a in atoms {
            self.node_of_atom[a.index()] = NO_NODE; // reset scratch
        }
        &self.walk.remnant
    }

    /// The first bottom tie inside component `c`'s alive remnant, as its
    /// atoms on the side of the spanning-tree root (the paper's K) and on
    /// the other side, each in member order: the tie the interpreters
    /// break next in `c`, or `None` when the remnant holds none.
    ///
    /// The remnant ([`UnfoundedEngine::alive_subgraph`]) is condensed and
    /// its SCCs are taken in emission order. The answer is the first one
    /// that has no in-edge from another SCC and no external alive in-edge
    /// ([`ComponentGraph::is_globally_bottom`]), is a tie (Lemma 1), and
    /// holds an atom. Both sides live in the engine's scratch until the
    /// next call; after the first components, a call allocates nothing.
    pub fn bottom_tie(&mut self, closer: &Closer<'_>, c: u32) -> Option<(&[AtomId], &[AtomId])> {
        self.alive_subgraph(closer, c);
        let WalkScratch {
            remnant,
            sccs,
            entered,
            tie,
            root_side,
            other_side,
            ..
        } = &mut self.walk;
        let n = remnant.node_count();
        sccs.recompute(n, |v| remnant.out_edges(v), |&(w, _)| w);
        sccs.mark_entered(|v| remnant.out_edges(v), |&(w, _)| w, entered);
        for s in 0..sccs.len() as u32 {
            let members = sccs.members(s);
            if entered[s as usize] || !remnant.is_globally_bottom(members) {
                continue;
            }
            let Some(in_l) = tie.partition(n, members, |v| remnant.out_edges(v)) else {
                continue; // odd component: not a tie
            };
            root_side.clear();
            other_side.clear();
            for (&m, &l) in members.iter().zip(in_l) {
                if let Some(a) = remnant.node_atom(m) {
                    let side = if l { &mut *other_side } else { &mut *root_side };
                    side.push(a);
                }
            }
            if root_side.is_empty() && other_side.is_empty() {
                // Unreachable post-close (every bottom SCC is cyclic and
                // hence contains an atom); guard against looping.
                continue;
            }
            return Some((root_side, other_side));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounder::{ground, GroundConfig, GroundMode};
    use crate::model::PartialModel;
    use crate::model::TruthValue;
    use datalog_ast::{parse_database, parse_program, GroundAtom};
    use signed_graph::{Sccs, SignedDigraph};

    fn closed(
        program_src: &str,
        db_src: &str,
    ) -> (
        crate::graph::GroundGraph,
        datalog_ast::Program,
        datalog_ast::Database,
    ) {
        let p = parse_program(program_src).unwrap();
        let d = parse_database(db_src).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        (g, p, d)
    }

    fn run_close<'g>(
        g: &'g crate::graph::GroundGraph,
        p: &datalog_ast::Program,
        d: &datalog_ast::Database,
    ) -> (Closer<'g>, PartialModel) {
        let mut m = PartialModel::initial(p, d, g.atoms());
        let mut closer = Closer::new(g);
        closer.bootstrap(&m);
        closer.run(&mut m).expect("no conflict");
        (closer, m)
    }

    fn atom(g: &crate::graph::GroundGraph, name: &str) -> AtomId {
        g.atoms()
            .id_of(&GroundAtom::from_texts(name, &[]))
            .expect("atom exists")
    }

    /// A build numbers components, orders them and lists their members
    /// exactly as `Sccs::compute` over the materialised remaining
    /// digraph does.
    #[test]
    fn build_matches_the_digraph_condensation() {
        let cases = [
            (
                "p :- p, not q.\nq :- q, not p.\nr :- p.\ns :- r, s.\nt :- not s.",
                "",
            ),
            (
                "win(X) :- move(X, Y), not win(Y).",
                "move(a, b).\nmove(b, a).\nmove(b, c).\nmove(c, d).\nmove(d, c).",
            ),
            (
                "a :- b, c.\nb :- a.\nc :- c, not a.\nd :- a, b.\nd :- d.\ne :- not d.",
                "",
            ),
        ];
        for (src, db) in cases {
            let (g, p, d) = closed(src, db);
            let (closer, _) = run_close(&g, &p, &d);
            let engine = UnfoundedEngine::build(&closer);
            let rem = closer.remaining_digraph();
            let sccs = Sccs::compute(&rem.digraph);
            assert_eq!(engine.order(), sccs.topological_order().collect::<Vec<_>>());
            for (node, &kind) in rem.kinds.iter().enumerate() {
                let c = sccs.component_of(node as NodeId);
                match kind {
                    NodeKind::Atom(a) => assert_eq!(engine.atom_comp[a.index()], c, "{src}"),
                    NodeKind::Rule(r) => assert_eq!(engine.rule_comp[r.index()], c, "{src}"),
                }
            }
            for c in 0..sccs.len() as u32 {
                let members = sccs.members(c);
                let mut atoms: Vec<AtomId> =
                    members.iter().filter_map(|&n| rem.as_atom(n)).collect();
                atoms.sort_unstable();
                assert_eq!(engine.comp_atoms.get(c), atoms.as_slice(), "{src}");
                assert_eq!(
                    engine.comp_rules.get(c).len() + atoms.len(),
                    members.len(),
                    "{src}"
                );
            }
        }
    }

    /// The union of local unfounded sets over the topological order, with
    /// falsification between components, equals the global fixpoint of
    /// repeated `largest_unfounded_set` rounds.
    fn stratified_wf_falsified(src: &str) -> Vec<String> {
        let (g, p, d) = closed(src, "");
        let (mut closer, mut m) = run_close(&g, &p, &d);
        let mut engine = UnfoundedEngine::build(&closer);
        let mut all: Vec<AtomId> = Vec::new();
        for c in engine.order().to_vec() {
            loop {
                let u = engine.local_unfounded(&closer, c).to_vec();
                if u.is_empty() {
                    break;
                }
                for &a in &u {
                    closer.define(&mut m, a, TruthValue::False);
                }
                closer.run(&mut m).unwrap();
                all.extend(u);
            }
        }
        let mut names: Vec<String> = all
            .iter()
            .map(|&a| g.atoms().decode(a).to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn positive_loop_is_locally_unfounded() {
        let (g, p, d) = closed("p :- q.\nq :- p.", "");
        let (closer, _) = run_close(&g, &p, &d);
        let mut engine = UnfoundedEngine::build(&closer);
        let c = engine.component_of_atom(atom(&g, "p")).unwrap();
        assert_eq!(c, engine.component_of_atom(atom(&g, "q")).unwrap());
        let mut u = engine.local_unfounded(&closer, c).to_vec();
        u.sort();
        let mut expect = closer.largest_unfounded_set();
        expect.sort();
        assert_eq!(u, expect);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn externally_supported_loop_is_not_unfounded() {
        // The loop {p} has support from `p :- not x`; x is upstream and
        // still alive, so p must not be reported unfounded.
        let (g, p, d) = closed("p :- p.\np :- not x.\nx :- not x.", "");
        let (closer, _) = run_close(&g, &p, &d);
        let mut engine = UnfoundedEngine::build(&closer);
        let c = engine.component_of_atom(atom(&g, "p")).unwrap();
        assert!(engine.local_unfounded(&closer, c).is_empty());
        assert!(closer.largest_unfounded_set().is_empty());
    }

    #[test]
    fn guarded_pairs_match_global_unfounded_fixpoint() {
        let src = "p :- p, not q.\nq :- q, not p.\na :- a, not b.\nb :- b, not a.";
        assert_eq!(stratified_wf_falsified(src), vec!["a", "b", "p", "q"]);
    }

    #[test]
    fn chained_unfounded_rounds_resolve_in_one_pass() {
        // a0 unfounded → b0 true → a1 true → b1 false → a2 unfounded → …
        // The global algorithm needs Θ(n) rounds; the engine resolves the
        // chain in one topological pass.
        let mut src = String::from("a0 :- a0.\nb0 :- not a0.\n");
        for i in 1..6 {
            src.push_str(&format!(
                "a{i} :- a{i}.\na{i} :- b{}.\nb{i} :- not a{i}.\n",
                i - 1
            ));
        }
        let falsified = stratified_wf_falsified(&src);
        // Exactly the even-index loop atoms are unfounded (odd ones become
        // true through the b-chain).
        assert_eq!(falsified, vec!["a0", "a2", "a4"]);
    }

    #[test]
    fn subgraph_marks_external_inflow() {
        // {p, q} is a tie but fed by the stuck odd loop via `p :- x`.
        let (g, p, d) = closed("p :- not q.\nq :- not p.\np :- x.\nx :- not x.", "");
        let (closer, _) = run_close(&g, &p, &d);
        let mut engine = UnfoundedEngine::build(&closer);
        let c = engine.component_of_atom(atom(&g, "p")).unwrap();
        let sub = engine.alive_subgraph(&closer, c);
        // p (fed by the alive rule `p :- x` from outside) carries the
        // external-in mark; q does not.
        let node = |name| {
            (0..sub.node_count() as NodeId)
                .find(|&n| sub.node_atom(n) == Some(atom(&g, name)))
                .unwrap()
        };
        let (pn, qn) = (node("p"), node("q"));
        assert!(sub.has_external_in(pn));
        assert!(!sub.has_external_in(qn));
        assert!(!sub.is_globally_bottom(&[pn, qn]));
    }

    #[test]
    fn subgraph_of_isolated_tie_is_bottom() {
        let (g, p, d) = closed("p :- not q.\nq :- not p.", "");
        let (closer, _) = run_close(&g, &p, &d);
        let mut engine = UnfoundedEngine::build(&closer);
        let c = engine.component_of_atom(atom(&g, "p")).unwrap();
        let sub = engine.alive_subgraph(&closer, c);
        assert_eq!(sub.node_count(), 4); // 2 atoms + 2 rules
        let all: Vec<NodeId> = (0..4).collect();
        assert!(sub.is_globally_bottom(&all));
        let sccs = Sccs::of_adjacency(4, |v| sub.out_edges(v), |&(w, _)| w);
        assert_eq!(sccs.len(), 1);
    }

    /// The remnant as a [`SignedDigraph`], edge for edge.
    fn remnant_digraph(sub: &ComponentGraph) -> SignedDigraph {
        let mut digraph = SignedDigraph::new(sub.node_count());
        for v in 0..sub.node_count() as NodeId {
            for &(w, sign) in sub.out_edges(v) {
                digraph.add_edge(v, w, sign);
            }
        }
        digraph
    }

    /// One engine walking every component, tie after tie, finds the tie
    /// the allocating oracles (`Sccs::compute`, `bottom_components`,
    /// `check_tie`) find on the same remnant: its scratch, reused across
    /// components of every size, carries nothing from one to the next.
    #[test]
    fn bottom_tie_matches_the_allocating_oracles() {
        // A chain of draw pockets, pocket i with i % 3 even detours of
        // length 4 (ties of three sizes), an odd 3-cycle downstream of
        // the last pocket, and a pocket vetoed by an edge into that cycle.
        let mut db = String::new();
        for i in 0..6 {
            db.push_str(&format!("move(a{i}, b{i}).\nmove(b{i}, a{i}).\n"));
            for j in 0..i % 3 {
                db.push_str(&format!(
                    "move(b{i}, c{i}x{j}).\nmove(c{i}x{j}, d{i}x{j}).\nmove(d{i}x{j}, a{i}).\n"
                ));
            }
            if i > 0 {
                db.push_str(&format!("move(a{i}, a{}).\n", i - 1));
            }
        }
        db.push_str("move(o1, o2).\nmove(o2, o3).\nmove(o3, o1).\nmove(o1, a5).\n");
        db.push_str("move(e, f).\nmove(f, e).\nmove(e, o1).\n");
        let (g, p, d) = closed("win(X) :- move(X, Y), not win(Y).", &db);
        let (mut closer, mut m) = run_close(&g, &p, &d);
        let mut engine = UnfoundedEngine::build(&closer);
        let mut ties = 0;
        for c in engine.order().to_vec() {
            loop {
                let oracle = {
                    let digraph = remnant_digraph(engine.alive_subgraph(&closer, c));
                    let sub = engine.alive_subgraph(&closer, c).clone();
                    let sccs = Sccs::compute(&digraph);
                    sccs.bottom_components(&digraph).into_iter().find_map(|s| {
                        let members = sccs.members(s);
                        let partition = signed_graph::tie::check_tie(&digraph, members).ok()?;
                        let side = |l: bool| -> Vec<AtomId> {
                            members
                                .iter()
                                .zip(&partition.in_l)
                                .filter(|&(_, &in_l)| in_l == l)
                                .filter_map(|(&n, _)| sub.node_atom(n))
                                .collect()
                        };
                        sub.is_globally_bottom(members)
                            .then(|| (side(false), side(true)))
                    })
                };
                let found = engine
                    .bottom_tie(&closer, c)
                    .map(|(k, l)| (k.to_vec(), l.to_vec()));
                assert_eq!(found, oracle);
                let Some((k, l)) = found else { break };
                ties += 1;
                let (k_value, l_value) = if l.is_empty() {
                    (TruthValue::False, TruthValue::False)
                } else {
                    (TruthValue::True, TruthValue::False)
                };
                for a in k {
                    closer.define(&mut m, a, k_value);
                }
                for a in l {
                    closer.define(&mut m, a, l_value);
                }
                closer.run(&mut m).unwrap();
            }
        }
        assert!(ties >= 3, "{ties}");
    }

    /// Flip one fact, splice the cone through close + engine, and check
    /// the patched condensation against a freshly built engine on the
    /// same (mutated) state: identical component partition, topologically
    /// valid order.
    fn assert_patch_matches_fresh(program_src: &str, db_src: &str, flip: (&str, &[&str])) {
        let p = parse_program(program_src).unwrap();
        let d = parse_database(db_src).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let (mut closer, mut model) = run_close(&g, &p, &d);
        let mut engine = UnfoundedEngine::build(&closer);

        let fact = datalog_ast::GroundAtom::from_texts(flip.0, flip.1);
        let id = g.atoms().id_of(&fact).expect("fact in atom space");
        let mut d2 = d.clone();
        if !d2.remove(&fact) {
            d2.insert(fact).unwrap();
        }
        let initial = PartialModel::initial(&p, &d2, g.atoms());
        let cone = g.forward_cone([id], []);
        closer.reopen_cone(&mut model, &initial, &cone);
        closer.run(&mut model).unwrap();
        engine.patch_cone(&closer, &cone);

        let fresh = UnfoundedEngine::build(&closer);
        assert_eq!(engine.component_count(), fresh.component_count());
        // Same partition: two alive atoms share a patched component iff
        // they share a fresh one.
        let alive: Vec<AtomId> = closer.alive_atoms().collect();
        for &a in &alive {
            for &b in &alive {
                assert_eq!(
                    engine.component_of_atom(a) == engine.component_of_atom(b),
                    fresh.component_of_atom(a) == fresh.component_of_atom(b),
                    "component partition differs at ({}, {})",
                    g.atoms().decode(a),
                    g.atoms().decode(b)
                );
            }
        }
        // Defined atoms carry no component.
        for id in g.atoms().ids() {
            if !closer.atom_alive(id) {
                assert_eq!(engine.component_of_atom(id), None);
            }
        }
        // The patched order is a topological order: walking it with
        // unfounded falsification must reach the same fixpoint as the
        // fresh engine (exactness of downstream evaluation).
        let run_wf = |eng: &mut UnfoundedEngine, closer: &Closer<'_>, model: &PartialModel| {
            let mut c = closer.clone();
            let mut m = model.clone();
            for comp in eng.order().to_vec() {
                loop {
                    let u = eng.local_unfounded(&c, comp).to_vec();
                    if u.is_empty() {
                        break;
                    }
                    for &a in &u {
                        c.define(&mut m, a, TruthValue::False);
                    }
                    c.run(&mut m).unwrap();
                }
            }
            m
        };
        let mut fresh = fresh;
        assert_eq!(
            run_wf(&mut engine, &closer, &model),
            run_wf(&mut fresh, &closer, &model),
            "wf fixpoint differs between patched and fresh engines"
        );
    }

    #[test]
    fn patched_condensation_matches_fresh_build() {
        // A chain of pockets: mutating the source pocket's edge touches a
        // small cone; downstream components must keep their identity.
        assert_patch_matches_fresh(
            "win(X) :- move(X, Y), not win(Y).",
            "move(a, b).\nmove(b, a).\nmove(c, d).\nmove(d, c).\nmove(a, c).",
            ("move", &["b", "a"]),
        );
        // Guarded positive loops + an independent tie.
        assert_patch_matches_fresh(
            "p :- p, not q, e.\nq :- q, not p.\na :- not b.\nb :- not a.",
            "e.",
            ("e", &[]),
        );
        // Unfounded chain: mutation revives upstream support.
        assert_patch_matches_fresh(
            "a0 :- a0.\na0 :- g.\nb0 :- not a0.\na1 :- a1.\na1 :- b0.\nb1 :- not a1.",
            "g.",
            ("g", &[]),
        );
    }

    /// The number of branch groups of `engine`'s condensation: the
    /// weakly connected families of its components, joined by the
    /// alive rule-to-atom edges between two components.
    fn branch_group_count(engine: &UnfoundedEngine, graph: &crate::graph::GroundGraph) -> usize {
        let mut uf: Vec<u32> = (0..engine.comp_atoms.slot_count() as u32).collect();
        fn find(uf: &mut [u32], mut x: u32) -> u32 {
            while uf[x as usize] != x {
                uf[x as usize] = uf[uf[x as usize] as usize];
                x = uf[x as usize];
            }
            x
        }
        for (i, &cr) in engine.rule_comp.iter().enumerate() {
            if cr == NO_COMP {
                continue;
            }
            let rule = graph.rule(RuleId(i as u32));
            let atoms = std::iter::once(rule.head).chain(rule.body.iter().map(|&(a, _)| a));
            for a in atoms {
                let ca = engine.atom_comp[a.index()];
                if ca != NO_COMP {
                    let (ra, rr) = (find(&mut uf, ca), find(&mut uf, cr));
                    uf[ra as usize] = rr;
                }
            }
        }
        let mut roots: Vec<u32> = engine.order().iter().map(|&c| find(&mut uf, c)).collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    #[test]
    fn patch_merges_and_splits_branch_groups() {
        // Two pockets bridged by a rule guarded on e: with e the groups
        // merge, without it they split — the patch must track both ways.
        let p = parse_program(
            "p :- not q.\nq :- not p.\na :- not b.\nb :- not a.\nr :- not p, not a, e.",
        )
        .unwrap();
        let d = parse_database("e.").unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let (mut closer, mut model) = run_close(&g, &p, &d);
        let mut engine = UnfoundedEngine::build(&closer);
        assert_eq!(
            branch_group_count(&engine, &g),
            1,
            "bridge rule merges the pockets"
        );

        let e = g
            .atoms()
            .id_of(&datalog_ast::GroundAtom::from_texts("e", &[]))
            .unwrap();
        let d2 = datalog_ast::Database::new();
        let initial = PartialModel::initial(&p, &d2, g.atoms());
        let cone = g.forward_cone([e], []);
        closer.reopen_cone(&mut model, &initial, &cone);
        closer.run(&mut model).unwrap();
        engine.patch_cone(&closer, &cone);
        assert_eq!(
            branch_group_count(&engine, &g),
            2,
            "retraction splits the groups"
        );
        assert_eq!(
            branch_group_count(&engine, &g),
            branch_group_count(&UnfoundedEngine::build(&closer), &g)
        );
        assert_patch_matches_fresh(
            "p :- not q.\nq :- not p.\na :- not b.\nb :- not a.\nr :- not p, not a, e.",
            "e.",
            ("e", &[]),
        );
    }

    #[test]
    fn repeated_patches_recycle_component_slots() {
        // Flapping one fact forever must not grow the component tables:
        // retired ids are recycled before fresh ones append.
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let d0 = parse_database("move(a, b).\nmove(b, a).\nmove(c, d).\nmove(d, c).").unwrap();
        let g = ground(&p, &d0, GroundMode::Full, &GroundConfig::default()).unwrap();
        let (mut closer, mut model) = run_close(&g, &p, &d0);
        let mut engine = UnfoundedEngine::build(&closer);
        let fact = datalog_ast::GroundAtom::from_texts("move", &["b", "a"]);
        let id = g.atoms().id_of(&fact).unwrap();

        let mut db = d0.clone();
        let mut table_sizes = Vec::new();
        for _ in 0..6 {
            for _ in 0..2 {
                if !db.remove(&fact) {
                    db.insert(fact.clone()).unwrap();
                }
                let initial = PartialModel::initial(&p, &db, g.atoms());
                let cone = g.forward_cone([id], []);
                closer.reopen_cone(&mut model, &initial, &cone);
                closer.run(&mut model).unwrap();
                let patch = engine.patch_cone(&closer, &cone);
                // Recycled ids are reported as newly assigned.
                for c in &patch.new_components {
                    assert!(engine.order().contains(c));
                }
                // The CSR slab never holds more than the compaction
                // bound's worth of garbage, however long the churn runs.
                assert!(
                    engine.comp_atoms.data.len() as u32
                        <= engine.comp_atoms.live.saturating_mul(2) + 64,
                    "atom slab outgrew the compaction bound"
                );
            }
            table_sizes.push(engine.comp_atoms.slot_count());
            // Steady state: same live partition as a fresh build.
            assert_eq!(
                engine.component_count(),
                UnfoundedEngine::build(&closer).component_count()
            );
        }
        assert!(
            table_sizes.windows(2).all(|w| w[0] == w[1]),
            "component tables grew under flapping: {table_sizes:?}"
        );
    }

    /// The cone patch as it was built before the Tarjan over the ground
    /// graph: the alive cone materialised as a [`SignedDigraph`],
    /// condensed by [`Sccs`], members buffered per component, `order`
    /// filtered whole. The oracle of
    /// [`patch_matches_the_materialised_reference`].
    fn reference_patch(
        engine: &mut UnfoundedEngine,
        closer: &Closer<'_>,
        cone: &Cone,
    ) -> ConePatch {
        let graph = closer.graph();
        engine.atom_comp.resize(graph.atom_count(), NO_COMP);
        engine.rule_comp.resize(graph.rule_count(), NO_COMP);

        let mut retired: Vec<u32> = Vec::new();
        let mut is_retired = vec![false; engine.comp_atoms.slot_count()];
        let mut retire = |c: u32| {
            if c != NO_COMP && !is_retired[c as usize] {
                is_retired[c as usize] = true;
                retired.push(c);
            }
        };
        for &a in &cone.atoms {
            retire(std::mem::replace(&mut engine.atom_comp[a.index()], NO_COMP));
        }
        for &r in &cone.rules {
            retire(std::mem::replace(&mut engine.rule_comp[r.index()], NO_COMP));
        }
        for &c in &retired {
            engine.comp_atoms.clear(c);
            engine.comp_rules.clear(c);
            engine.comp_head_rules.clear(c);
        }

        let mut cone_atoms = cone.atoms.clone();
        cone_atoms.sort_unstable();
        let mut cone_rules = cone.rules.clone();
        cone_rules.sort_unstable();
        let mut node_of_atom = vec![NO_NODE; graph.atom_count()];
        let mut node_kinds: Vec<NodeKind> = Vec::new();
        for &a in &cone_atoms {
            if closer.atom_alive(a) {
                node_of_atom[a.index()] = node_kinds.len() as NodeId;
                node_kinds.push(NodeKind::Atom(a));
            }
        }
        let mut rule_node: Vec<NodeId> = vec![NO_NODE; cone_rules.len()];
        for (i, &r) in cone_rules.iter().enumerate() {
            if closer.rule_alive(r) {
                rule_node[i] = node_kinds.len() as NodeId;
                node_kinds.push(NodeKind::Rule(r));
            }
        }
        let mut digraph = SignedDigraph::new(node_kinds.len());
        for (i, &r) in cone_rules.iter().enumerate() {
            let rn = rule_node[i];
            if rn == NO_NODE {
                continue;
            }
            let rule = graph.rule(r);
            let hn = node_of_atom[rule.head.index()];
            if hn != NO_NODE && cone.atom_in[rule.head.index()] {
                digraph.add_edge(rn, hn, EdgeSign::Pos);
            }
            for &(a, s) in rule.body {
                let an = node_of_atom[a.index()];
                if cone.atom_in[a.index()] && an != NO_NODE {
                    let sign = if s.is_pos() {
                        EdgeSign::Pos
                    } else {
                        EdgeSign::Neg
                    };
                    digraph.add_edge(an, rn, sign);
                }
            }
        }
        let sccs = Sccs::compute(&digraph);
        let added = sccs.len();
        engine.free_comps.extend(retired.iter().copied());
        engine.free_comps.sort_unstable_by(|a, b| b.cmp(a));
        engine.free_comps.dedup();
        let new_ids: Vec<u32> = (0..added)
            .map(|_| {
                engine.free_comps.pop().unwrap_or_else(|| {
                    let id = engine.comp_atoms.slot_count() as u32;
                    engine.comp_atoms.ensure_slot(id);
                    engine.comp_rules.ensure_slot(id);
                    engine.comp_head_rules.ensure_slot(id);
                    id
                })
            })
            .collect();
        let mut rank_of_sub = vec![u32::MAX; added];
        for (rank, c) in sccs.topological_order().enumerate() {
            rank_of_sub[c as usize] = rank as u32;
        }
        let mut new_atoms: Vec<Vec<AtomId>> = vec![Vec::new(); added];
        let mut new_rules: Vec<Vec<RuleId>> = vec![Vec::new(); added];
        for (node, &kind) in node_kinds.iter().enumerate() {
            let rank = rank_of_sub[sccs.component_of(node as NodeId) as usize] as usize;
            match kind {
                NodeKind::Atom(a) => {
                    engine.atom_comp[a.index()] = new_ids[rank];
                    new_atoms[rank].push(a);
                }
                NodeKind::Rule(r) => {
                    engine.rule_comp[r.index()] = new_ids[rank];
                    new_rules[rank].push(r);
                }
            }
        }
        let mut rank_of_comp = vec![usize::MAX; engine.comp_atoms.slot_count()];
        for (rank, &c) in new_ids.iter().enumerate() {
            rank_of_comp[c as usize] = rank;
        }
        let mut new_heads: Vec<Vec<RuleId>> = vec![Vec::new(); added];
        for &a in &cone_atoms {
            if closer.atom_alive(a) {
                let rank = rank_of_comp[engine.atom_comp[a.index()] as usize];
                for &r in graph.heads_of(a) {
                    if closer.rule_alive(r) {
                        new_heads[rank].push(r);
                    }
                }
            }
        }
        fn store<T: Copy>(arena: &mut CsrArena<T>, c: u32, items: &[T]) {
            arena.append_sorted(&[c], || items.iter().map(|&x| (0, x)), &mut Vec::new());
        }
        for (rank, &c) in new_ids.iter().enumerate() {
            store(&mut engine.comp_atoms, c, &new_atoms[rank]);
            store(&mut engine.comp_rules, c, &new_rules[rank]);
            store(&mut engine.comp_head_rules, c, &new_heads[rank]);
        }
        engine.order.retain(|&c| !is_retired[c as usize]);
        engine.order.extend(new_ids.iter().copied());
        retired.sort_unstable();
        ConePatch {
            retired,
            new_components: new_ids,
        }
    }

    /// Replays `flips` (indices into `edb`, each toggling that fact) on a
    /// relevant-grounded session of `program`, patching one engine and
    /// checking each patch against [`reference_patch`] run on a clone of
    /// the engine it started from.
    fn assert_patches_match_reference(
        program: &datalog_ast::Program,
        db0: &datalog_ast::Database,
        edb: &[GroundAtom],
        flips: &[usize],
    ) {
        use crate::delta::SessionGrounder;
        let config = GroundConfig::default();
        let (mut graph, mut grounder) = SessionGrounder::build(program, db0, &config).unwrap();
        let mut db = db0.clone();
        let mut model = PartialModel::initial(program, &db, graph.atoms());
        let (mut engine, mut state) = {
            let mut closer = Closer::new(&graph);
            closer.bootstrap(&model);
            closer.run(&mut model).unwrap();
            (UnfoundedEngine::build(&closer), closer.into_state())
        };
        let mut cone = Cone::default();
        for &k in flips {
            let fact = edb[k].clone();
            let inserted = !db.remove(&fact);
            let (first_atom, first_rule) = (graph.atom_count(), graph.rule_count());
            if inserted {
                db.insert(fact.clone()).unwrap();
                grounder
                    .delta_insert(&mut graph, program, &config, std::slice::from_ref(&fact))
                    .unwrap();
            }
            let m0 = PartialModel::initial(program, &db, graph.atoms());
            model.grow(graph.atom_count());
            state.grow(graph.atom_count(), graph.rule_count());
            let seeds = graph.atoms().id_of(&fact).into_iter();
            let new_atoms = (first_atom..graph.atom_count()).map(|i| AtomId(i as u32));
            let new_rules = (first_rule..graph.rule_count()).map(|i| RuleId(i as u32));
            graph.forward_cone_into(&mut cone, seeds.chain(new_atoms), new_rules);
            let mut closer = Closer::resume(&graph, state);
            closer.reopen_cone(&mut model, &m0, &cone);
            closer.run(&mut model).unwrap();

            let mut reference = engine.clone();
            let reference_patch = reference_patch(&mut reference, &closer, &cone);
            let patch = engine.patch_cone(&closer, &cone);
            assert_eq!(patch, reference_patch, "patch report");
            assert_eq!(engine.order, reference.order, "topological order");
            assert_eq!(engine.atom_comp, reference.atom_comp, "atom components");
            assert_eq!(engine.rule_comp, reference.rule_comp, "rule components");
            for &c in &engine.order {
                assert_eq!(engine.comp_atoms.get(c), reference.comp_atoms.get(c));
                assert_eq!(engine.comp_rules.get(c), reference.comp_rules.get(c));
                assert_eq!(
                    engine.comp_head_rules.get(c),
                    reference.comp_head_rules.get(c)
                );
                assert_eq!(engine.order_pos[c as usize] as usize, {
                    engine.order.iter().position(|&x| x == c).unwrap()
                });
            }
            assert_eq!(engine.free_comps, reference.free_comps, "free list");
            assert!(engine.tarjan.atom_index.iter().all(|&v| v == NO_NODE));
            assert!(engine.tarjan.rule_index.iter().all(|&v| v == NO_NODE));
            state = closer.into_state();
        }
    }

    /// Random propositional programs over `p0..p5` (heads) and the
    /// toggled facts `e0..e2` (bodies only).
    fn arb_patch_case() -> impl proptest::strategy::Strategy<Value = (String, Vec<bool>, Vec<usize>)>
    {
        use proptest::prelude::*;
        let literal = (0..9usize, any::<bool>()).prop_map(|(i, neg)| {
            let name = if i < 6 {
                format!("p{i}")
            } else {
                format!("e{}", i - 6)
            };
            if neg {
                format!("not {name}")
            } else {
                name
            }
        });
        let rule =
            (0..6usize, proptest::collection::vec(literal, 0..4)).prop_map(|(head, body)| {
                if body.is_empty() {
                    format!("p{head}.\n")
                } else {
                    format!("p{head} :- {}.\n", body.join(", "))
                }
            });
        (
            proptest::collection::vec(rule, 1..14).prop_map(|rules| {
                // Every toggled fact is a predicate of the program.
                let mut src = String::from("p0 :- e0, e1, e2.\n");
                src.extend(rules);
                src
            }),
            proptest::collection::vec(any::<bool>(), 3),
            proptest::collection::vec(0..3usize, 1..12),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn patch_matches_the_materialised_reference(
            (src, present, flips) in arb_patch_case()
        ) {
            let program = parse_program(&src).unwrap();
            let edb: Vec<GroundAtom> =
                (0..3).map(|i| GroundAtom::from_texts(&format!("e{i}"), &[])).collect();
            let mut db = datalog_ast::Database::new();
            for (fact, &on) in edb.iter().zip(&present) {
                if on {
                    db.insert(fact.clone()).unwrap();
                }
            }
            assert_patches_match_reference(&program, &db, &edb, &flips);
        }
    }

    #[test]
    fn win_move_patches_match_the_materialised_reference() {
        // Pockets hanging off a hub, toggled pocket by pocket: cones that
        // split, merge and re-form multi-node components.
        let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let mut src = String::new();
        for i in 0..6 {
            src.push_str(&format!("move(a{i}, b{i}).\nmove(b{i}, a{i}).\n"));
            if i + 1 < 6 {
                src.push_str(&format!("move(a{i}, a{}).\n", i + 1));
            }
        }
        src.push_str("move(h, a0).\nmove(h, a3).\n");
        let db = parse_database(&src).unwrap();
        let edb: Vec<GroundAtom> = (0..6)
            .flat_map(|i| {
                [
                    GroundAtom::from_texts("move", &[&format!("b{i}"), &format!("a{i}")]),
                    GroundAtom::from_texts("move", &[&format!("a{i}"), &format!("b{i}")]),
                ]
            })
            .chain([GroundAtom::from_texts("move", &["b2", "h"])])
            .collect();
        let flips: Vec<usize> = (0..60).map(|k| (k * 7 + k / 5) % edb.len()).collect();
        assert_patches_match_reference(&program, &db, &edb, &flips);
    }

    #[test]
    fn order_respects_the_condensation() {
        // win(a) depends (negatively) on win(b): b's component first.
        let (g, p, d) = closed(
            "p :- not q.\nq :- not p.\nr :- not p, not r0.\nr0 :- not r0.",
            "",
        );
        let (closer, _) = run_close(&g, &p, &d);
        let engine = UnfoundedEngine::build(&closer);
        let cp = engine.component_of_atom(atom(&g, "p")).unwrap();
        let cr = engine.component_of_atom(atom(&g, "r")).unwrap();
        let pos = |c: u32| engine.order().iter().position(|&x| x == c).unwrap();
        assert!(pos(cp) < pos(cr), "upstream tie before its dependent");
    }
}
