//! The condensation (component DAG) of a signed digraph.

use std::collections::HashSet;

use crate::graph::{EdgeSign, SignedDigraph};
use crate::scc::Sccs;

/// The condensation of a graph: one node per strongly connected component,
/// inter-component edges deduplicated by `(from, to, sign)`.
///
/// Node indices coincide with the component indices of the [`Sccs`] used
/// to build it, so component 0 (first emitted by Tarjan) has no outgoing
/// edges and [`Sccs::topological_order`] is a topological order of this
/// DAG.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// The component-level DAG (signs preserved; parallel `+`/`-` edges
    /// between the same components are kept as two edges).
    pub dag: SignedDigraph,
}

impl Condensation {
    /// Builds the condensation of `graph` under `sccs`.
    pub fn of(graph: &SignedDigraph, sccs: &Sccs) -> Self {
        let mut dag = SignedDigraph::new(sccs.len());
        let mut seen: HashSet<(u32, u32, EdgeSign)> = HashSet::new();
        for (u, v, s) in graph.edges() {
            let cu = sccs.component_of(u);
            let cv = sccs.component_of(v);
            if cu != cv && seen.insert((cu, cv, s)) {
                dag.add_edge(cu, cv, s);
            }
        }
        Condensation { dag }
    }

    /// Longest-path "level" of every component along the DAG, following
    /// edges downstream from sources. Used by stratification: the level of
    /// a component is `max(level(pred) + cost(edge))` where `cost` is 1
    /// for negative and 0 for positive edges when `negative_costs` is
    /// `true`, and 1 for every edge otherwise.
    pub fn levels(&self, sccs: &Sccs, negative_costs: bool) -> Vec<u32> {
        let mut level = vec![0u32; self.dag.node_count()];
        // topological_order: sources first.
        for c in sccs.topological_order() {
            for &(d, s) in self.dag.out_edges(c) {
                let cost = if negative_costs {
                    u32::from(s.is_neg())
                } else {
                    1
                };
                level[d as usize] = level[d as usize].max(level[c as usize] + cost);
            }
        }
        level
    }

    /// `true` iff some component of `graph` contains an internal negative
    /// edge (i.e. the graph has a cycle through a negative edge —
    /// unstratifiability at whichever level `graph` models).
    pub fn has_negative_cycle_edge(graph: &SignedDigraph, sccs: &Sccs) -> bool {
        graph
            .edges()
            .any(|(u, v, s)| s.is_neg() && sccs.component_of(u) == sccs.component_of(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeSign::{Neg, Pos};

    fn two_sccs_bridged() -> (SignedDigraph, Sccs) {
        // {0,1} -neg-> {2,3}
        let mut g = SignedDigraph::new(4);
        g.add_edge(0, 1, Pos);
        g.add_edge(1, 0, Pos);
        g.add_edge(1, 2, Neg);
        g.add_edge(2, 3, Pos);
        g.add_edge(3, 2, Pos);
        let sccs = Sccs::compute(&g);
        (g, sccs)
    }

    #[test]
    fn condensation_is_a_two_node_dag() {
        let (g, sccs) = two_sccs_bridged();
        let cond = Condensation::of(&g, &sccs);
        assert_eq!(cond.dag.node_count(), 2);
        assert_eq!(cond.dag.edge_count(), 1);
        let (u, v, s) = cond.dag.edges().next().unwrap();
        assert_eq!(u, sccs.component_of(0));
        assert_eq!(v, sccs.component_of(2));
        assert_eq!(s, Neg);
    }

    #[test]
    fn duplicate_edges_are_merged_but_signs_kept_separate() {
        let mut g = SignedDigraph::new(2);
        g.add_edge(0, 1, Pos);
        g.add_edge(0, 1, Pos);
        g.add_edge(0, 1, Neg);
        let sccs = Sccs::compute(&g);
        let cond = Condensation::of(&g, &sccs);
        assert_eq!(cond.dag.edge_count(), 2); // one +, one -
    }

    #[test]
    fn negative_stratification_levels() {
        let (g, sccs) = two_sccs_bridged();
        let cond = Condensation::of(&g, &sccs);
        let levels = cond.levels(&sccs, true);
        let c_top = sccs.component_of(0);
        let c_bot = sccs.component_of(2);
        assert_eq!(levels[c_top as usize], 0);
        assert_eq!(levels[c_bot as usize], 1); // crossed one negative edge
    }

    #[test]
    fn negative_cycle_edge_detection() {
        let (g, sccs) = two_sccs_bridged();
        // The bridge is negative but crosses components: stratified.
        assert!(!Condensation::has_negative_cycle_edge(&g, &sccs));
        let mut g2 = g.clone();
        g2.add_edge(0, 1, Neg); // now a negative edge inside {0,1}
        let sccs2 = Sccs::compute(&g2);
        assert!(Condensation::has_negative_cycle_edge(&g2, &sccs2));
    }
}
