//! Ties and the Lemma 1 partition.
//!
//! Paper, Section 3: a strongly connected signed digraph *T* is a **tie**
//! if it contains no cycle with an odd number of negative edges ("odd
//! cycle"). Lemma 1: *T* is a tie iff its nodes partition into (K, L) such
//! that positive edges stay within a part and negative edges cross parts;
//! the partition is computable in linear time via a spanning tree whose
//! node parities are the path-parities from the root, after which every
//! non-tree edge either confirms the partition or closes an odd cycle.
//!
//! [`check_tie`] implements exactly this, returning either the partition
//! or an explicit [`OddCycle`] witness (used for diagnostics throughout
//! the structural-totality analyses).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;

use crate::graph::{EdgeSign, NodeId, SignedDigraph};

/// The (K, L) partition of a tie, aligned with `members`.
#[derive(Clone, Debug)]
pub struct TiePartition {
    /// The component's nodes (the order they were supplied in).
    pub members: Vec<NodeId>,
    /// `in_l[i]` is `true` iff `members[i]` is on the L side.
    ///
    /// The root of the spanning tree is placed in K, so K is nonempty
    /// unless the component is empty. L may be empty (a tie with no
    /// negative edges — e.g. any SCC of a positive program).
    pub in_l: Vec<bool>,
}

impl TiePartition {
    /// The K-side nodes.
    pub fn k_side(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members
            .iter()
            .zip(&self.in_l)
            .filter(|&(_, &l)| !l)
            .map(|(&n, _)| n)
    }

    /// The L-side nodes.
    pub fn l_side(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members
            .iter()
            .zip(&self.in_l)
            .filter(|&(_, &l)| l)
            .map(|(&n, _)| n)
    }

    /// Checks the Lemma 1 conditions against `graph` (positive edges
    /// within parts, negative across), considering only edges internal to
    /// the member set. Used by tests and property checks.
    pub fn is_valid(&self, graph: &SignedDigraph) -> bool {
        let side: HashMap<NodeId, bool> = self
            .members
            .iter()
            .copied()
            .zip(self.in_l.iter().copied())
            .collect();
        self.members.iter().all(|&u| {
            graph.out_edges(u).iter().all(|&(v, s)| match side.get(&v) {
                None => true, // edge leaves the component
                Some(&lv) => {
                    let lu = side[&u];
                    match s {
                        EdgeSign::Pos => lu == lv,
                        EdgeSign::Neg => lu != lv,
                    }
                }
            })
        })
    }
}

/// A cycle with an odd number of negative edges: the witness that a
/// component is *not* a tie.
///
/// `nodes[i] → nodes[(i+1) % len]` is an edge with sign `signs[i]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OddCycle {
    /// The cycle's nodes in order.
    pub nodes: Vec<NodeId>,
    /// `signs[i]` is the sign of the edge leaving `nodes[i]`.
    pub signs: Vec<EdgeSign>,
}

impl OddCycle {
    /// Number of negative edges on the cycle (always odd).
    pub fn negative_count(&self) -> usize {
        self.signs.iter().filter(|s| s.is_neg()).count()
    }

    /// Cycle length in edges.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the cycle is empty (never produced by [`check_tie`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Verifies the witness against `graph`: every step must be an actual
    /// edge and the negative count odd.
    pub fn is_valid(&self, graph: &SignedDigraph) -> bool {
        if self.nodes.is_empty() || self.negative_count().is_multiple_of(2) {
            return false;
        }
        (0..self.nodes.len()).all(|i| {
            let u = self.nodes[i];
            let v = self.nodes[(i + 1) % self.nodes.len()];
            let s = self.signs[i];
            graph.out_edges(u).iter().any(|&(w, t)| w == v && t == s)
        })
    }
}

impl fmt::Display for OddCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &n) in self.nodes.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(
                f,
                "{n} -{}->",
                if self.signs[i].is_pos() { "+" } else { "-" }
            )?;
        }
        if let Some(&first) = self.nodes.first() {
            write!(f, " {first}")?;
        }
        Ok(())
    }
}

/// Tests whether the strongly connected component `members` of `graph` is a
/// tie, returning the Lemma 1 partition or an odd-cycle witness.
///
/// The allocating form of [`TieScratch::partition`]: the partition is
/// the same, and an odd component additionally gets its witness.
///
/// # Preconditions
///
/// `members` must be exactly the node set of one strongly connected
/// component of `graph` (as produced by [`crate::Sccs`]). Violating this is
/// a logic error; the function panics if some member is unreachable from
/// the first within the member-induced subgraph.
pub fn check_tie(graph: &SignedDigraph, members: &[NodeId]) -> Result<TiePartition, OddCycle> {
    // Local indexing by a map of the members alone, so that checking
    // every component of a large graph stays linear.
    let local: HashMap<NodeId, usize> = members
        .iter()
        .copied()
        .enumerate()
        .map(|(i, n)| (n, i))
        .collect();
    let mut bfs = Bfs::default();
    match bfs.partition(members, |v| graph.out_edges(v), |v| local.get(&v).copied()) {
        Ok(()) => Ok(TiePartition {
            members: members.to_vec(),
            in_l: bfs.in_l,
        }),
        Err((ui, vi, s)) => Err(extract_odd_cycle(
            graph,
            members,
            &local,
            &bfs.parent,
            members[0],
            ui,
            vi,
            s,
        )),
    }
}

/// Reusable buffers for Lemma 1 partitions over a caller's own
/// adjacency: once they have grown to a component's size, checking a
/// component no larger allocates nothing. [`check_tie`] runs the same
/// search with fresh buffers and also extracts a witness.
#[derive(Clone, Debug, Default)]
pub struct TieScratch {
    /// Member index of each node, [`NOT_MEMBER`] outside a call.
    local: Vec<u32>,
    bfs: Bfs,
}

/// Sentinel of [`TieScratch::local`] for nodes not in the component.
const NOT_MEMBER: u32 = u32::MAX;

impl TieScratch {
    /// The Lemma 1 partition of the strongly connected component
    /// `members` of a graph of `node_count` nodes whose out-edges of `v`
    /// are `out_edges(v)`: `in_l` aligned with `members` (the root,
    /// `members[0]`, in K), or `None` when the component is not a tie.
    /// The spanning tree, and hence the partition, is [`check_tie`]'s for
    /// the same edges in the same order.
    ///
    /// # Panics
    ///
    /// As for [`check_tie`], if `members` is not strongly connected.
    pub fn partition<'g>(
        &mut self,
        node_count: usize,
        members: &[NodeId],
        out_edges: impl Fn(NodeId) -> &'g [(NodeId, EdgeSign)],
    ) -> Option<&[bool]> {
        if self.local.len() < node_count {
            self.local.resize(node_count, NOT_MEMBER);
        }
        for (i, &n) in members.iter().enumerate() {
            self.local[n as usize] = i as u32;
        }
        let local = &self.local;
        let result = self.bfs.partition(members, out_edges, |v| {
            let i = local[v as usize];
            (i != NOT_MEMBER).then_some(i as usize)
        });
        for &n in members {
            self.local[n as usize] = NOT_MEMBER;
        }
        result.ok().map(|()| self.bfs.in_l.as_slice())
    }
}

/// The breadth-first spanning tree of Lemma 1 and its buffers.
#[derive(Clone, Debug, Default)]
struct Bfs {
    /// Per member: its side once reached (`true` = L).
    side: Vec<Option<bool>>,
    /// Per member: (member index of its tree parent, tree edge's sign).
    parent: Vec<Option<(usize, EdgeSign)>>,
    queue: VecDeque<usize>,
    /// Per member: `true` iff on the L side.
    in_l: Vec<bool>,
}

impl Bfs {
    /// Spans `members` breadth-first from `members[0]` (placed in K),
    /// giving each member the parity of its tree path, then checks every
    /// internal edge against that partition. `local` maps a node to its
    /// member index. `Err` names the first violating edge, as member
    /// indices and its sign.
    fn partition<'g>(
        &mut self,
        members: &[NodeId],
        out_edges: impl Fn(NodeId) -> &'g [(NodeId, EdgeSign)],
        local: impl Fn(NodeId) -> Option<usize>,
    ) -> Result<(), (usize, usize, EdgeSign)> {
        self.side.clear();
        self.parent.clear();
        self.queue.clear();
        self.in_l.clear();
        if members.is_empty() {
            return Ok(());
        }
        self.side.resize(members.len(), None);
        self.parent.resize(members.len(), None);
        self.side[0] = Some(false); // root in K
        self.queue.push_back(0);
        while let Some(ui) = self.queue.pop_front() {
            for &(v, s) in out_edges(members[ui]) {
                if let Some(vi) = local(v) {
                    if self.side[vi].is_none() {
                        self.side[vi] = Some(self.side[ui].expect("BFS invariant") ^ s.is_neg());
                        self.parent[vi] = Some((ui, s));
                        self.queue.push_back(vi);
                    }
                }
            }
        }
        assert!(
            self.side.iter().all(Option::is_some),
            "check_tie precondition violated: members are not one strongly connected component"
        );
        self.in_l
            .extend(self.side.iter().map(|s| s.expect("checked above")));

        // Verify all internal edges against the partition.
        for (ui, &u) in members.iter().enumerate() {
            for &(v, s) in out_edges(u) {
                if let Some(vi) = local(v) {
                    let ok = match s {
                        EdgeSign::Pos => self.in_l[ui] == self.in_l[vi],
                        EdgeSign::Neg => self.in_l[ui] != self.in_l[vi],
                    };
                    if !ok {
                        return Err((ui, vi, s));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Convenience: `true` iff the component is a tie.
pub fn is_tie(graph: &SignedDigraph, members: &[NodeId]) -> bool {
    check_tie(graph, members).is_ok()
}

/// A path as parallel lists: `nodes[i] → nodes[i+1]` has sign `signs[i]`
/// (so `signs.len() == nodes.len() - 1` for nonempty paths).
struct Path {
    nodes: Vec<usize>,
    signs: Vec<EdgeSign>,
}

impl Path {
    fn parity(&self) -> bool {
        self.signs.iter().filter(|s| s.is_neg()).count() % 2 == 1
    }
}

/// Builds the odd cycle closed by the violating non-tree edge
/// `members[zi] → members[wi]` (sign `s`).
///
/// Per the proof of Lemma 1: the two root→w walks — (a) tree-path(root→z)
/// followed by the edge (z, w), and (b) tree-path(root→w) — have different
/// parities because the edge violates the partition. Appending any fixed
/// w→root walk to both, exactly one of the two closed walks has an odd
/// number of negative edges; that one is the witness.
#[allow(clippy::too_many_arguments)]
fn extract_odd_cycle(
    graph: &SignedDigraph,
    members: &[NodeId],
    local: &HashMap<NodeId, usize>,
    parent: &[Option<(usize, EdgeSign)>],
    root: NodeId,
    zi: usize,
    wi: usize,
    s: EdgeSign,
) -> OddCycle {
    let rooti = local[&root];

    // Tree path root → target (nodes include both endpoints).
    let tree_path = |target: usize| -> Path {
        let mut rev_nodes: Vec<usize> = Vec::new();
        let mut rev_signs: Vec<EdgeSign> = Vec::new();
        let mut cur = target;
        while let Some((p, ps)) = parent[cur] {
            rev_nodes.push(cur);
            rev_signs.push(ps);
            cur = p;
        }
        debug_assert_eq!(cur, rooti);
        let mut nodes = vec![rooti];
        nodes.extend(rev_nodes.into_iter().rev());
        Path {
            nodes,
            signs: rev_signs.into_iter().rev().collect(),
        }
    };

    // Walk (a): root →tree→ z, then the violating edge to w.
    let mut walk_a = tree_path(zi);
    walk_a.signs.push(s);
    walk_a.nodes.push(wi);
    // Walk (b): root →tree→ w.
    let walk_b = tree_path(wi);

    // Any w → root path inside the component (BFS).
    let back = {
        let mut prev: Vec<Option<(usize, EdgeSign)>> = vec![None; members.len()];
        let mut seen = vec![false; members.len()];
        seen[wi] = true;
        let mut queue: VecDeque<usize> = VecDeque::from([wi]);
        'bfs: while let Some(ui) = queue.pop_front() {
            for &(v, es) in graph.out_edges(members[ui]) {
                if let Some(&vi) = local.get(&v) {
                    if !seen[vi] {
                        seen[vi] = true;
                        prev[vi] = Some((ui, es));
                        if vi == rooti {
                            break 'bfs;
                        }
                        queue.push_back(vi);
                    }
                }
            }
        }
        let mut rev_nodes: Vec<usize> = Vec::new();
        let mut rev_signs: Vec<EdgeSign> = Vec::new();
        if wi != rooti {
            assert!(seen[rooti], "no path back to root inside the component");
            let mut cur = rooti;
            while cur != wi {
                let (p, ps) = prev[cur].expect("BFS path reconstruction");
                rev_nodes.push(cur);
                rev_signs.push(ps);
                cur = p;
            }
        }
        let mut nodes = vec![wi];
        nodes.extend(rev_nodes.into_iter().rev());
        Path {
            nodes,
            signs: rev_signs.into_iter().rev().collect(),
        }
    };

    // Pick the root→w walk that closes to an odd cycle.
    let chosen = if walk_a.parity() != back.parity() {
        walk_a
    } else {
        // The violating edge guarantees walk_a and walk_b have different
        // parities, so walk_b closes the odd cycle instead.
        debug_assert!(walk_b.parity() != back.parity());
        walk_b
    };

    // Assemble: chosen (root…w) + back (w…root), dropping the duplicated
    // endpoints (`w` at the seam, `root` at the close).
    let mut nodes: Vec<NodeId> = chosen.nodes.iter().map(|&i| members[i]).collect();
    let mut signs = chosen.signs;
    signs.extend(back.signs.iter().copied());
    nodes.extend(back.nodes[1..].iter().map(|&i| members[i]));
    // Now nodes = root … w … root; pop the final root to close the cycle.
    let popped = nodes.pop();
    debug_assert_eq!(popped, Some(root));

    let cycle = OddCycle { nodes, signs };
    debug_assert!(
        cycle.is_valid(graph),
        "extracted witness is not a valid odd cycle: {cycle}"
    );
    cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeSign::{Neg, Pos};
    use crate::scc::Sccs;

    /// A directed cycle of `n` nodes with the first `k` edges negative.
    fn cycle(n: usize, negatives: usize) -> SignedDigraph {
        let mut g = SignedDigraph::new(n);
        for i in 0..n {
            let sign = if i < negatives { Neg } else { Pos };
            g.add_edge(i as NodeId, ((i + 1) % n) as NodeId, sign);
        }
        g
    }

    fn whole(g: &SignedDigraph) -> Vec<NodeId> {
        (0..g.node_count() as NodeId).collect()
    }

    #[test]
    fn even_cycle_is_a_tie() {
        let g = cycle(4, 2);
        let p = check_tie(&g, &whole(&g)).expect("tie");
        assert!(p.is_valid(&g));
        // Two negative edges ⇒ both sides nonempty.
        assert!(p.k_side().count() > 0);
        assert!(p.l_side().count() > 0);
    }

    #[test]
    fn odd_cycle_is_not_a_tie() {
        let g = cycle(5, 3);
        let w = check_tie(&g, &whole(&g)).expect_err("odd");
        assert!(w.is_valid(&g));
        assert_eq!(w.negative_count() % 2, 1);
    }

    #[test]
    fn self_negative_loop() {
        // p ← ¬p : single node, negative self-loop. Odd cycle of length 1.
        let mut g = SignedDigraph::new(1);
        g.add_edge(0, 0, Neg);
        let w = check_tie(&g, &[0]).expect_err("odd");
        assert_eq!(w.len(), 1);
        assert!(w.is_valid(&g));
    }

    #[test]
    fn positive_scc_is_a_tie_with_empty_l() {
        let g = cycle(3, 0);
        let p = check_tie(&g, &whole(&g)).expect("tie");
        assert_eq!(p.l_side().count(), 0);
        assert_eq!(p.k_side().count(), 3);
    }

    #[test]
    fn swapped_partition_still_valid() {
        let g = cycle(6, 2);
        // The Lemma 1 conditions are symmetric in K and L.
        let mut p = check_tie(&g, &whole(&g)).unwrap();
        for in_l in &mut p.in_l {
            *in_l = !*in_l;
        }
        assert!(p.is_valid(&g));
    }

    #[test]
    fn the_paper_pq_component() {
        // Ground graph of {p ← p, ¬q ; q ← q, ¬p} collapsed to predicate
        // level: p -+-> p, q -+-> q, p ---> q (neg), q ---> p (neg).
        let mut g = SignedDigraph::new(2);
        g.add_edge(0, 0, Pos);
        g.add_edge(1, 1, Pos);
        g.add_edge(0, 1, Neg);
        g.add_edge(1, 0, Neg);
        let p = check_tie(&g, &[0, 1]).expect("tie");
        assert!(p.is_valid(&g));
        assert_eq!(p.k_side().count(), 1);
        assert_eq!(p.l_side().count(), 1);
    }

    #[test]
    fn three_mutual_negations_is_odd() {
        // p1 ← ¬p2, ¬p3 ; p2 ← ¬p1, ¬p3 ; p3 ← ¬p1, ¬p2 (paper §3):
        // predicate-level cycle with three negative arcs.
        let mut g = SignedDigraph::new(3);
        for i in 0..3u32 {
            for j in 0..3u32 {
                if i != j {
                    g.add_edge(i, j, Neg);
                }
            }
        }
        let w = check_tie(&g, &[0, 1, 2]).expect_err("odd");
        assert!(w.is_valid(&g));
    }

    #[test]
    fn mixed_graph_per_component() {
        // Component A: even (tie); component B: odd.
        let mut g = SignedDigraph::new(5);
        g.add_edge(0, 1, Neg);
        g.add_edge(1, 0, Neg);
        g.add_edge(1, 2, Pos); // bridge A→B
        g.add_edge(2, 3, Neg);
        g.add_edge(3, 4, Pos);
        g.add_edge(4, 2, Pos);
        let sccs = Sccs::compute(&g);
        let a = sccs.component_of(0);
        let b = sccs.component_of(2);
        assert!(is_tie(&g, sccs.members(a)));
        assert!(!is_tie(&g, sccs.members(b)));
    }

    #[test]
    #[should_panic(expected = "precondition")]
    fn non_scc_input_panics() {
        // Node 1 cannot be reached from node 0, so {0, 1} is not an SCC.
        let mut g = SignedDigraph::new(2);
        g.add_edge(1, 0, Pos);
        let _ = check_tie(&g, &[0, 1]);
    }

    #[test]
    fn witness_through_bridging_edge_parities() {
        // Two parallel paths of different parity between 0 and 2 make an
        // odd cycle even though each simple cycle edge set is "balanced
        // looking" locally.
        let mut g = SignedDigraph::new(3);
        g.add_edge(0, 1, Pos);
        g.add_edge(1, 2, Pos);
        g.add_edge(0, 1, Neg); // parallel negative edge
        g.add_edge(2, 0, Pos);
        let w = check_tie(&g, &[0, 1, 2]).expect_err("odd via parallel edges");
        assert!(w.is_valid(&g));
    }
}
