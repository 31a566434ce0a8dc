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
//! position, and the branch grouping is recomputed on demand
//! ([`UnfoundedEngine::groups`]) rather than per patch.

use std::sync::OnceLock;

use datalog_ast::Sign;
use signed_graph::{EdgeSign, NodeId, SignedDigraph};

use crate::atoms::AtomId;
use crate::close::{Closer, NodeKind};
use crate::csr::CsrArena;
use crate::graph::{Cone, GroundGraph, RuleId};

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
/// after every patch). The branch grouping
/// ([`UnfoundedEngine::groups`]) reads aliveness from that alone.
///
/// The engine is `Clone` so that parallel schedulers can hand each worker
/// a private copy (the `pending`/`removed`/`queue`/`node_of_atom` fields
/// are per-call scratch and must not be shared across threads).
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
    /// The branch grouping: computed by a build, dropped by every patch,
    /// and recomputed on the next use (see [`UnfoundedEngine::groups`]).
    groups: OnceLock<BranchGroups>,
    /// Wave depth of each component: its longest-path layer in the
    /// condensation DAG (sources are 0). Every condensation edge strictly
    /// increases depth, so equal-depth components share no path — the
    /// members of one *wave* are causally independent. Only
    /// [`UnfoundedEngine::widest_wave`] reads it. A cone patch assigns
    /// depths to its new components only: nothing upstream of a retained
    /// component lies in the cone.
    comp_depth: Vec<u32>,
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

/// The branch grouping of a condensation: two components share a group
/// iff they are weakly connected in the condensation DAG. Close
/// propagation follows graph edges, so groups are *causally independent*
/// — the unit of parallel scheduling. Groups are numbered by first
/// appearance in the topological order, which fixes per-branch policy
/// seeds and the order in which the scheduler merges branch stats.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchGroups {
    /// Group of each component id (`u32::MAX` for retired ids).
    comp_group: Vec<u32>,
    /// Member components of each group, in topological order.
    group_comps: Vec<Vec<u32>>,
}

impl BranchGroups {
    /// Number of branch groups (weakly connected families of components).
    /// Groups share no graph edges, so `close` propagation never crosses
    /// a group boundary: they can be evaluated concurrently and merged in
    /// any order.
    pub fn count(&self) -> usize {
        self.group_comps.len()
    }

    /// The branch group of component `c`.
    pub fn group_of(&self, c: u32) -> u32 {
        self.comp_group[c as usize]
    }

    /// The components of group `g`, in topological order of the
    /// condensation (sources first — the required processing order).
    pub fn components(&self, g: u32) -> &[u32] {
        &self.group_comps[g as usize]
    }
}

/// The alive induced subgraph of one component, for tie detection.
///
/// Nodes are the component's alive atoms and alive rule nodes, densely
/// renumbered; edges are the surviving internal edges. `external_in`
/// marks nodes that still receive an edge from an alive node *outside*
/// the component — a sub-SCC containing such a node is not a bottom
/// component of the global remaining graph and must not be tie-broken.
pub struct ComponentGraph {
    /// The induced subgraph.
    pub digraph: SignedDigraph,
    /// The atom behind each node, or `None` for rule nodes.
    pub node_atoms: Vec<Option<AtomId>>,
    /// Whether each node has an alive in-edge from outside the component.
    pub external_in: Vec<bool>,
}

impl ComponentGraph {
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
            groups: OnceLock::new(),
            comp_depth: Vec::new(),
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
        for (i, rule) in graph.rules().iter().enumerate() {
            if closer.rule_alive(RuleId(i as u32)) {
                let head_comp = atom_comp[rule.head.index()];
                if head_comp != NO_COMP {
                    head_counts[head_comp as usize] += 1;
                }
            }
        }
        let (mut comp_head_rules, mut head_cursors) =
            CsrArena::from_counts(&head_counts, RuleId(0));
        for (i, rule) in graph.rules().iter().enumerate() {
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
        // A fresh condensation comes with its grouping, so shape
        // statistics ([`UnfoundedEngine::widest_wave`]) read it directly.
        engine.groups(graph);
        let order = std::mem::take(&mut engine.order);
        engine.assign_depths(closer, &order);
        engine.order = order;
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
    ///   re-condensing a [`SignedDigraph`] of the cone would give them;
    /// * members are counting-sorted straight into the CSR arenas;
    /// * the topological order is edited from the first retired position
    ///   on — O(cone) once a cone's components sit at the end of the
    ///   order, where every patch appends them;
    /// * the slab compaction is O(live) but amortised over the patches
    ///   whose garbage triggered it;
    /// * the branch grouping is dropped, not rebuilt: the next
    ///   [`UnfoundedEngine::groups`] call recomputes it, numbered exactly
    ///   as [`UnfoundedEngine::build`] numbers it.
    ///
    /// Wave depths are assigned to the new components only: a retained
    /// component has no upstream component in the cone, so its depth
    /// cannot change. Retired ids are recycled, so callers keeping
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
        self.groups.take();

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
        self.assign_depths(closer, &new_ids);
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
    /// id: the invariant [`UnfoundedEngine::groups`] reads aliveness
    /// from. O(graph); debug builds check it after every patch.
    fn comp_ids_track_aliveness(&self, closer: &Closer<'_>) -> bool {
        let graph = closer.graph();
        graph
            .atoms()
            .ids()
            .all(|a| (self.atom_comp[a.index()] != NO_COMP) == closer.atom_alive(a))
            && (0..graph.rule_count())
                .all(|i| (self.rule_comp[i] != NO_COMP) == closer.rule_alive(RuleId(i as u32)))
    }

    /// The branch grouping (weak connectivity of the condensation). A
    /// build computes it; a patch drops it, and the next call recomputes
    /// it and caches it until the following patch. `graph` must be the
    /// graph the engine was built or last patched against.
    ///
    /// The grouping is one union-find over the rule nodes, O(residual):
    /// the evaluation scheduler asks for it on a full run, the session
    /// for its branch count, and a write never does. Groups are
    /// numbered by first appearance in the topological order, exactly as
    /// a fresh build numbers them, so a patched engine hands out the
    /// same branch ids (and per-branch policies) as a fresh one.
    pub fn groups(&self, graph: &GroundGraph) -> &BranchGroups {
        self.groups.get_or_init(|| self.compute_groups(graph))
    }

    fn compute_groups(&self, graph: &GroundGraph) -> BranchGroups {
        let _span = tiebreak_trace::span("condense", "branch_groups", &[]);
        let n_comps = self.comp_atoms.slot_count();
        let mut uf: Vec<u32> = (0..n_comps as u32).collect();
        fn find(uf: &mut [u32], mut x: u32) -> u32 {
            while uf[x as usize] != x {
                uf[x as usize] = uf[uf[x as usize] as usize];
                x = uf[x as usize];
            }
            x
        }
        // A node has a component iff it is alive, so the alive edges
        // between components are the edges of rules with a component to
        // an atom with a component.
        for (i, &cr) in self.rule_comp.iter().enumerate() {
            if cr == NO_COMP {
                continue;
            }
            let rule = graph.rule(RuleId(i as u32));
            let atoms = std::iter::once(rule.head).chain(rule.body.iter().map(|&(a, _)| a));
            for a in atoms {
                let ca = self.atom_comp[a.index()];
                if ca != NO_COMP && ca != cr {
                    let (ra, rr) = (find(&mut uf, ca), find(&mut uf, cr));
                    if ra != rr {
                        uf[ra as usize] = rr;
                    }
                }
            }
        }
        let mut comp_group = vec![u32::MAX; n_comps];
        let mut group_of_root: Vec<u32> = vec![u32::MAX; n_comps];
        let mut group_comps: Vec<Vec<u32>> = Vec::new();
        for &c in &self.order {
            let root = find(&mut uf, c);
            let g = if group_of_root[root as usize] == u32::MAX {
                let g = group_comps.len() as u32;
                group_of_root[root as usize] = g;
                group_comps.push(Vec::new());
                g
            } else {
                group_of_root[root as usize]
            };
            comp_group[c as usize] = g;
            group_comps[g as usize].push(c);
        }
        BranchGroups {
            comp_group,
            group_comps,
        }
    }

    /// Assigns wave depths to `comps` (listed in topological order, each
    /// one's upstream components already assigned). A component's
    /// in-edges are exactly (a) its alive head rules sitting in another
    /// component (external support) and (b) the out-of-component alive
    /// positive/negative body atoms of its member rules — both derived
    /// from the bipartite edges `close` propagates along, so the depth
    /// layering is faithful to the condensation DAG the scheduler walks.
    fn assign_depths(&mut self, closer: &Closer<'_>, comps: &[u32]) {
        let graph = closer.graph();
        self.comp_depth.resize(self.comp_atoms.slot_count(), 0);
        for &c in comps {
            let mut depth = 0u32;
            for &r in self.comp_head_rules.get(c) {
                if !closer.rule_alive(r) {
                    continue;
                }
                let rc = self.rule_comp[r.index()];
                if rc != NO_COMP && rc != c {
                    depth = depth.max(self.comp_depth[rc as usize] + 1);
                }
            }
            for &r in self.comp_rules.get(c) {
                if !closer.rule_alive(r) {
                    continue;
                }
                for &(a, _) in &graph.rule(r).body {
                    if !closer.atom_alive(a) {
                        continue;
                    }
                    let ac = self.atom_comp[a.index()];
                    if ac != NO_COMP && ac != c {
                        depth = depth.max(self.comp_depth[ac as usize] + 1);
                    }
                }
            }
            self.comp_depth[c as usize] = depth;
        }
    }

    /// The member atoms of component `c` (aliveness as of build time).
    pub fn component_atoms(&self, c: u32) -> &[AtomId] {
        self.comp_atoms.get(c)
    }

    /// The widest wave (largest number of equal-depth components in one
    /// branch group): how many components of one branch share no path.
    /// A shape statistic of the condensation; computed on demand,
    /// O(|components| log |components|).
    ///
    /// # Panics
    ///
    /// If a patch dropped the grouping and no [`UnfoundedEngine::groups`]
    /// call has recomputed it since (a fresh build always has it).
    pub fn widest_wave(&self) -> usize {
        let groups = self
            .groups
            .get()
            .expect("the grouping is current (call `groups` after a patch)");
        groups
            .group_comps
            .iter()
            .map(|comps| {
                let mut depths: Vec<u32> =
                    comps.iter().map(|&c| self.comp_depth[c as usize]).collect();
                depths.sort_unstable();
                depths
                    .chunk_by(|a, b| a == b)
                    .map(<[u32]>::len)
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
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
    /// Cost: O(|c| + incident rules), independent of the graph size.
    pub fn local_unfounded(&mut self, closer: &Closer<'_>, c: u32) -> Vec<AtomId> {
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

        let mut unfounded = Vec::new();
        for &a in self.comp_atoms.get(c) {
            if closer.atom_alive(a) && !self.removed[a.index()] {
                unfounded.push(a);
            }
            self.removed[a.index()] = false; // reset scratch for reuse
        }
        unfounded
    }

    /// The alive induced subgraph of component `c`, with external-inflow
    /// markers (see [`ComponentGraph`]). Used for per-component tie
    /// detection: the sub-SCCs of this graph are exactly the SCCs of the
    /// global remaining graph that descend from `c`.
    pub fn alive_subgraph(&mut self, closer: &Closer<'_>, c: u32) -> ComponentGraph {
        let graph = closer.graph();
        let atoms = self.comp_atoms.get(c);
        let rules = self.comp_rules.get(c);

        // Dense renumbering: alive atoms first (indexed through the
        // graph-sized `node_of_atom` scratch, reset on exit), then alive
        // rule nodes.
        let mut node_atoms: Vec<Option<AtomId>> = Vec::new();
        let mut external_in: Vec<bool> = Vec::new();
        let mut rule_node: Vec<Option<NodeId>> = vec![None; rules.len()];

        for &a in atoms {
            if !closer.atom_alive(a) {
                continue;
            }
            self.node_of_atom[a.index()] = node_atoms.len() as NodeId;
            node_atoms.push(Some(a));
            // An alive rule head-feeding `a` from another component (e.g.
            // an external support rule, or a member of a stuck upstream
            // component) keeps `a` out of every global bottom component.
            external_in.push(
                graph
                    .heads_of(a)
                    .iter()
                    .any(|&r| closer.rule_alive(r) && self.rule_comp[r.index()] != c),
            );
        }
        for (i, &r) in rules.iter().enumerate() {
            if !closer.rule_alive(r) {
                continue;
            }
            rule_node[i] = Some(node_atoms.len() as NodeId);
            node_atoms.push(None);
            external_in.push(
                graph
                    .rule(r)
                    .body
                    .iter()
                    .any(|&(a, _)| closer.atom_alive(a) && self.atom_comp[a.index()] != c),
            );
        }

        let mut digraph = SignedDigraph::new(node_atoms.len());
        for (i, &r) in rules.iter().enumerate() {
            let Some(rn) = rule_node[i] else { continue };
            let rule = graph.rule(r);
            let hn = self.node_of_atom[rule.head.index()];
            if hn != NO_NODE {
                digraph.add_edge(rn, hn, EdgeSign::Pos);
            }
            for &(a, s) in &rule.body {
                let an = self.node_of_atom[a.index()];
                if an != NO_NODE {
                    let sign = match s {
                        Sign::Pos => EdgeSign::Pos,
                        Sign::Neg => EdgeSign::Neg,
                    };
                    digraph.add_edge(an, rn, sign);
                }
            }
        }

        for &a in atoms {
            self.node_of_atom[a.index()] = NO_NODE; // reset scratch
        }

        ComponentGraph {
            digraph,
            node_atoms,
            external_in,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounder::{ground, GroundConfig};
    use crate::model::PartialModel;
    use crate::model::TruthValue;
    use datalog_ast::{parse_database, parse_program, GroundAtom};
    use signed_graph::Sccs;

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
        let g = ground(&p, &d, &GroundConfig::default()).unwrap();
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
                let u = engine.local_unfounded(&closer, c);
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
        let mut u = engine.local_unfounded(&closer, c);
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
        let pn = sub
            .node_atoms
            .iter()
            .position(|&a| a == Some(atom(&g, "p")))
            .unwrap();
        let qn = sub
            .node_atoms
            .iter()
            .position(|&a| a == Some(atom(&g, "q")))
            .unwrap();
        assert!(sub.external_in[pn]);
        assert!(!sub.external_in[qn]);
        assert!(!sub.is_globally_bottom(&[pn as NodeId, qn as NodeId]));
    }

    #[test]
    fn subgraph_of_isolated_tie_is_bottom() {
        let (g, p, d) = closed("p :- not q.\nq :- not p.", "");
        let (closer, _) = run_close(&g, &p, &d);
        let mut engine = UnfoundedEngine::build(&closer);
        let c = engine.component_of_atom(atom(&g, "p")).unwrap();
        let sub = engine.alive_subgraph(&closer, c);
        assert_eq!(sub.digraph.node_count(), 4); // 2 atoms + 2 rules
        let all: Vec<NodeId> = (0..4).collect();
        assert!(sub.is_globally_bottom(&all));
        let sccs = Sccs::compute(&sub.digraph);
        assert_eq!(sccs.len(), 1);
    }

    #[test]
    fn branch_groups_split_exactly_at_weak_connectivity() {
        // Two independent ties + a dependent chain hanging off the first:
        // {p, q} and {r} are one group (r depends on p); {a, b} another.
        let (g, p, d) = closed(
            "p :- not q.\nq :- not p.\nr :- not p, not r.\na :- not b.\nb :- not a.",
            "",
        );
        let (closer, _) = run_close(&g, &p, &d);
        let engine = UnfoundedEngine::build(&closer);
        let groups = engine.groups(&g);
        assert_eq!(groups.count(), 2);
        let gp = groups.group_of(engine.component_of_atom(atom(&g, "p")).unwrap());
        let gr = groups.group_of(engine.component_of_atom(atom(&g, "r")).unwrap());
        let ga = groups.group_of(engine.component_of_atom(atom(&g, "a")).unwrap());
        assert_eq!(gp, gr, "dependent component joins its upstream's group");
        assert_ne!(gp, ga, "independent branches split");
        // Group-internal component order is topological: p's tie precedes
        // the r component that depends on it.
        let comps = groups.components(gp);
        let cp = engine.component_of_atom(atom(&g, "p")).unwrap();
        let cr = engine.component_of_atom(atom(&g, "r")).unwrap();
        let pos = |c: u32| comps.iter().position(|&x| x == c).unwrap();
        assert!(pos(cp) < pos(cr));
        // Every component belongs to exactly one group.
        let total: usize = (0..groups.count())
            .map(|g| groups.components(g as u32).len())
            .sum();
        assert_eq!(total, engine.component_count());
    }

    /// Flip one fact, splice the cone through close + engine, and check
    /// the patched condensation against a freshly built engine on the
    /// same (mutated) state: identical component partition, identical
    /// group partition, topologically valid order.
    fn assert_patch_matches_fresh(program_src: &str, db_src: &str, flip: (&str, &[&str])) {
        let p = parse_program(program_src).unwrap();
        let d = parse_database(db_src).unwrap();
        let g = ground(&p, &d, &GroundConfig::default()).unwrap();
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
        assert_eq!(engine.groups(&g).count(), fresh.groups(&g).count());
        // Same partition: two alive atoms share a patched component iff
        // they share a fresh one, ditto groups.
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
                let pg = |e: &UnfoundedEngine, x: AtomId| {
                    e.component_of_atom(x).map(|c| e.groups(&g).group_of(c))
                };
                assert_eq!(
                    pg(&engine, a) == pg(&engine, b),
                    pg(&fresh, a) == pg(&fresh, b),
                    "group partition differs"
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
                    let u = eng.local_unfounded(&c, comp);
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

    #[test]
    fn patch_merges_and_splits_branch_groups() {
        // Two pockets bridged by a rule guarded on e: with e the groups
        // merge, without it they split — the patch must track both ways.
        let p = parse_program(
            "p :- not q.\nq :- not p.\na :- not b.\nb :- not a.\nr :- not p, not a, e.",
        )
        .unwrap();
        let d = parse_database("e.").unwrap();
        let g = ground(&p, &d, &GroundConfig::default()).unwrap();
        let (mut closer, mut model) = run_close(&g, &p, &d);
        let mut engine = UnfoundedEngine::build(&closer);
        assert_eq!(
            engine.groups(&g).count(),
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
        assert_eq!(engine.groups(&g).count(), 2, "retraction splits the groups");
        assert_eq!(
            engine.groups(&g).count(),
            UnfoundedEngine::build(&closer).groups(&g).count()
        );
    }

    #[test]
    fn repeated_patches_recycle_component_slots() {
        // Flapping one fact forever must not grow the component tables:
        // retired ids are recycled before fresh ones append.
        let p = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let d0 = parse_database("move(a, b).\nmove(b, a).\nmove(c, d).\nmove(d, c).").unwrap();
        let g = ground(&p, &d0, &GroundConfig::default()).unwrap();
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

    #[test]
    fn wave_depths_layer_the_condensation() {
        // Two independent ties at depth 0 feed a stuck loop through one
        // rule each: the stuck loop sits at depth 1, the ties form one
        // two-wide wave, and the whole thing is a single branch group.
        let (g, p, d) = closed(
            "a :- not b.\nb :- not a.\nc :- not d.\nd :- not c.\ne :- not a, not c, not e.",
            "",
        );
        let (closer, _) = run_close(&g, &p, &d);
        let engine = UnfoundedEngine::build(&closer);
        let ca = engine.component_of_atom(atom(&g, "a")).unwrap();
        let cc = engine.component_of_atom(atom(&g, "c")).unwrap();
        let ce = engine.component_of_atom(atom(&g, "e")).unwrap();
        assert_eq!(engine.comp_depth[ca as usize], 0);
        assert_eq!(engine.comp_depth[cc as usize], 0);
        assert_eq!(engine.comp_depth[ce as usize], 1);
        assert_eq!(engine.groups(&g).count(), 1);
        assert_eq!(engine.widest_wave(), 2);
        // Edges strictly increase depth, so a depth layering is always a
        // topological layering of the processing order.
        let pos = |c: u32| engine.order().iter().position(|&x| x == c).unwrap();
        assert!(pos(ca) < pos(ce) && pos(cc) < pos(ce));
    }

    #[test]
    fn patched_engine_keeps_wave_depths_fresh() {
        // Retracting the bridge fact splits the branch; depths and wave
        // widths must match a fresh build on the mutated state.
        let p = parse_program(
            "p :- not q.\nq :- not p.\na :- not b.\nb :- not a.\nr :- not p, not a, e.",
        )
        .unwrap();
        let d = parse_database("e.").unwrap();
        let g = ground(&p, &d, &GroundConfig::default()).unwrap();
        let (mut closer, mut model) = run_close(&g, &p, &d);
        let mut engine = UnfoundedEngine::build(&closer);
        assert_eq!(engine.widest_wave(), 2, "p-tie and a-tie share depth 0");

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

        let fresh = UnfoundedEngine::build(&closer);
        engine.groups(&g);
        assert_eq!(engine.widest_wave(), fresh.widest_wave());
        for a in closer.alive_atoms() {
            let pd = engine.comp_depth[engine.component_of_atom(a).unwrap() as usize];
            let fd = fresh.comp_depth[fresh.component_of_atom(a).unwrap() as usize];
            assert_eq!(pd, fd, "depth differs at {}", g.atoms().decode(a));
        }
    }

    /// The cone patch as it was built before the Tarjan over the ground
    /// graph: the alive cone materialised as a [`SignedDigraph`],
    /// condensed by [`Sccs`], members buffered per component, `order`
    /// filtered whole, and the grouping rebuilt eagerly from `closer`'s
    /// aliveness. The oracle of [`patch_matches_the_materialised_reference`].
    fn reference_patch(
        engine: &mut UnfoundedEngine,
        closer: &Closer<'_>,
        cone: &Cone,
    ) -> (ConePatch, BranchGroups) {
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
            for &(a, s) in &rule.body {
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
        engine.assign_depths(closer, &new_ids);
        retired.sort_unstable();
        (
            ConePatch {
                retired,
                new_components: new_ids,
            },
            reference_groups(engine, closer),
        )
    }

    /// The eager grouping: union-find over every rule alive in `closer`.
    fn reference_groups(engine: &UnfoundedEngine, closer: &Closer<'_>) -> BranchGroups {
        let graph = closer.graph();
        let n_comps = engine.comp_atoms.slot_count();
        let mut uf: Vec<u32> = (0..n_comps as u32).collect();
        fn find(uf: &mut [u32], mut x: u32) -> u32 {
            while uf[x as usize] != x {
                x = uf[x as usize];
            }
            x
        }
        for (i, rule) in graph.rules().iter().enumerate() {
            let cr = engine.rule_comp[i];
            if cr == NO_COMP || !closer.rule_alive(RuleId(i as u32)) {
                continue;
            }
            let atoms = std::iter::once(rule.head).chain(rule.body.iter().map(|&(a, _)| a));
            for a in atoms {
                let ca = engine.atom_comp[a.index()];
                if closer.atom_alive(a) && ca != NO_COMP && ca != cr {
                    let (ra, rr) = (find(&mut uf, ca), find(&mut uf, cr));
                    uf[ra as usize] = rr;
                }
            }
        }
        let mut comp_group = vec![u32::MAX; n_comps];
        let mut group_comps: Vec<Vec<u32>> = Vec::new();
        let mut group_of_root = vec![u32::MAX; n_comps];
        for &c in &engine.order {
            let root = find(&mut uf, c) as usize;
            if group_of_root[root] == u32::MAX {
                group_of_root[root] = group_comps.len() as u32;
                group_comps.push(Vec::new());
            }
            comp_group[c as usize] = group_of_root[root];
            group_comps[group_of_root[root] as usize].push(c);
        }
        BranchGroups {
            comp_group,
            group_comps,
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
        use crate::grounder::GroundMode;
        let config = GroundConfig {
            mode: GroundMode::Relevant,
            ..GroundConfig::default()
        };
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
            let (reference_patch, reference_groups) =
                reference_patch(&mut reference, &closer, &cone);
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
                assert_eq!(
                    engine.comp_depth[c as usize],
                    reference.comp_depth[c as usize]
                );
                assert_eq!(engine.order_pos[c as usize] as usize, {
                    engine.order.iter().position(|&x| x == c).unwrap()
                });
            }
            assert_eq!(engine.free_comps, reference.free_comps, "free list");
            assert_eq!(engine.groups(&graph), &reference_groups, "branch groups");
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
