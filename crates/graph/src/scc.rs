//! Strongly connected components via iterative Tarjan.
//!
//! The recursion is replaced by an explicit stack so that ground graphs
//! with hundreds of thousands of nodes cannot overflow the call stack.

use crate::graph::{NodeId, SignedDigraph};

/// The SCC decomposition of a [`SignedDigraph`].
///
/// The members of every component sit back to back in one buffer, and a
/// decomposition can be recomputed in place ([`Sccs::recompute`]): once
/// its buffers have grown to a graph's size, recomputing over a graph no
/// larger allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Sccs {
    /// `comp_of[v]` is the component index of node `v`.
    comp_of: Vec<u32>,
    /// The members of every component, component by component.
    members: Vec<NodeId>,
    /// `ends[c]` is where component `c`'s members end in `members`.
    ends: Vec<u32>,
    /// Tarjan's working state, kept for the next [`Sccs::recompute`].
    scratch: TarjanScratch,
}

/// The buffers of one iterative Tarjan run.
#[derive(Clone, Debug, Default)]
struct TarjanScratch {
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<NodeId>,
    /// Explicit DFS frames: (node, next out-edge position).
    frames: Vec<(NodeId, usize)>,
}

impl Sccs {
    /// Computes the SCCs of `graph`.
    ///
    /// Components are emitted in **reverse topological order** of the
    /// condensation: if there is an edge from component `a` to component
    /// `b` (a ≠ b), then `b`'s index is smaller than `a`'s. In particular,
    /// component 0 has no outgoing inter-component edges.
    pub fn compute(graph: &SignedDigraph) -> Self {
        Sccs::of_adjacency(graph.node_count(), |v| graph.out_edges(v), |&(w, _)| w)
    }

    /// [`Sccs::compute`] over a graph in the caller's own adjacency
    /// layout: `n` nodes, `out_edges(v)` the out-edges of node `v`, and
    /// `target` the node an edge points to. Components come out exactly
    /// as [`Sccs::compute`] numbers them for the same edges in the same
    /// order.
    pub fn of_adjacency<'g, E: 'g>(
        n: usize,
        out_edges: impl Fn(NodeId) -> &'g [E],
        target: impl Fn(&E) -> NodeId,
    ) -> Self {
        let mut sccs = Sccs::default();
        sccs.recompute(n, out_edges, target);
        // A one-shot decomposition keeps no working state.
        sccs.scratch = TarjanScratch::default();
        sccs
    }

    /// [`Sccs::of_adjacency`] into `self`, reusing its buffers: the
    /// previous decomposition is replaced.
    pub fn recompute<'g, E: 'g>(
        &mut self,
        n: usize,
        out_edges: impl Fn(NodeId) -> &'g [E],
        target: impl Fn(&E) -> NodeId,
    ) {
        const UNVISITED: u32 = u32::MAX;

        let TarjanScratch {
            index,
            lowlink,
            on_stack,
            stack,
            frames,
        } = &mut self.scratch;
        index.clear();
        index.resize(n, UNVISITED);
        lowlink.clear();
        lowlink.resize(n, 0);
        on_stack.clear();
        on_stack.resize(n, false);
        stack.clear();
        frames.clear();
        self.comp_of.clear();
        self.comp_of.resize(n, 0);
        self.members.clear();
        self.ends.clear();
        let mut next_index: u32 = 0;

        for root in 0..n as NodeId {
            if index[root as usize] != UNVISITED {
                continue;
            }
            frames.push((root, 0));
            index[root as usize] = next_index;
            lowlink[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;

            while let Some(&mut (v, ref mut edge_pos)) = frames.last_mut() {
                let out = out_edges(v);
                if *edge_pos < out.len() {
                    let w = target(&out[*edge_pos]);
                    *edge_pos += 1;
                    if index[w as usize] == UNVISITED {
                        index[w as usize] = next_index;
                        lowlink[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        frames.push((w, 0));
                    } else if on_stack[w as usize] {
                        lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                    }
                } else {
                    frames.pop();
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        lowlink[parent as usize] =
                            lowlink[parent as usize].min(lowlink[v as usize]);
                    }
                    if lowlink[v as usize] == index[v as usize] {
                        let comp_id = self.ends.len() as u32;
                        loop {
                            let w = stack.pop().expect("Tarjan stack underflow");
                            on_stack[w as usize] = false;
                            self.comp_of[w as usize] = comp_id;
                            self.members.push(w);
                            if w == v {
                                break;
                            }
                        }
                        self.ends.push(self.members.len() as u32);
                    }
                }
            }
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` iff the graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The component index of `node`.
    pub fn component_of(&self, node: NodeId) -> u32 {
        self.comp_of[node as usize]
    }

    /// The member nodes of component `c`.
    pub fn members(&self, c: u32) -> &[NodeId] {
        let c = c as usize;
        let start = if c == 0 { 0 } else { self.ends[c - 1] as usize };
        &self.members[start..self.ends[c] as usize]
    }

    /// Iterates over components (reverse topological order; see
    /// [`Sccs::compute`]).
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        (0..self.len() as u32).map(|c| self.members(c))
    }

    /// Component indices in **topological order** of the condensation
    /// (sources first).
    pub fn topological_order(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len() as u32).rev()
    }

    /// The component indices with **no incoming edges from other
    /// components** — the "bottom" components in the paper's phrasing
    /// ("a tie T in G with no incoming edges").
    pub fn bottom_components(&self, graph: &SignedDigraph) -> Vec<u32> {
        let mut entered = Vec::new();
        self.mark_entered(|v| graph.out_edges(v), |&(w, _)| w, &mut entered);
        (0..self.len() as u32)
            .filter(|&c| !entered[c as usize])
            .collect()
    }

    /// Sets `entered[c]` (one entry per component) iff component `c` has
    /// an in-edge from another component, over the adjacency the
    /// decomposition was computed from (see [`Sccs::of_adjacency`]): the
    /// components left unmarked are the [bottom
    /// components](Sccs::bottom_components), without allocating once
    /// `entered` has grown.
    pub fn mark_entered<'g, E: 'g>(
        &self,
        out_edges: impl Fn(NodeId) -> &'g [E],
        target: impl Fn(&E) -> NodeId,
        entered: &mut Vec<bool>,
    ) {
        entered.clear();
        entered.resize(self.len(), false);
        for (u, &cu) in self.comp_of.iter().enumerate() {
            for e in out_edges(u as NodeId) {
                let cv = self.comp_of[target(e) as usize];
                if cu != cv {
                    entered[cv as usize] = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeSign::{Neg, Pos};

    fn graph(n: usize, edges: &[(NodeId, NodeId)]) -> SignedDigraph {
        let mut g = SignedDigraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v, Pos);
        }
        g
    }

    #[test]
    fn single_cycle_is_one_component() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let sccs = Sccs::compute(&g);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs.members(0).len(), 3);
    }

    #[test]
    fn dag_has_singleton_components_in_reverse_topo_order() {
        // 0 → 1 → 2
        let g = graph(3, &[(0, 1), (1, 2)]);
        let sccs = Sccs::compute(&g);
        assert_eq!(sccs.len(), 3);
        // Reverse topological: sinks first.
        assert!(sccs.component_of(2) < sccs.component_of(1));
        assert!(sccs.component_of(1) < sccs.component_of(0));
        let topo: Vec<u32> = sccs.topological_order().collect();
        assert_eq!(topo.first().copied(), Some(sccs.component_of(0)));
    }

    #[test]
    fn two_cycles_bridged() {
        // {0,1} → {2,3}
        let g = graph(4, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let sccs = Sccs::compute(&g);
        assert_eq!(sccs.len(), 2);
        assert_ne!(sccs.component_of(0), sccs.component_of(2));
        let bottoms = sccs.bottom_components(&g);
        assert_eq!(bottoms, vec![sccs.component_of(0)]);
    }

    #[test]
    fn trivial_vs_self_loop() {
        let mut g = graph(2, &[]);
        g.add_edge(1, 1, Neg);
        let sccs = Sccs::compute(&g);
        // The self-loop keeps node 1 a singleton component of its own.
        assert_eq!(sccs.len(), 2);
        assert_eq!(sccs.members(sccs.component_of(0)), &[0]);
        assert_eq!(sccs.members(sccs.component_of(1)), &[1]);
    }

    #[test]
    fn empty_graph() {
        let g = SignedDigraph::new(0);
        let sccs = Sccs::compute(&g);
        assert!(sccs.is_empty());
        assert!(sccs.bottom_components(&g).is_empty());
    }

    #[test]
    fn large_path_does_not_overflow_stack() {
        // 100k-node path; recursive Tarjan would explode.
        let n = 100_000;
        let mut g = SignedDigraph::new(n);
        for i in 0..(n - 1) as NodeId {
            g.add_edge(i, i + 1, Pos);
        }
        let sccs = Sccs::compute(&g);
        assert_eq!(sccs.len(), n);
    }
}
