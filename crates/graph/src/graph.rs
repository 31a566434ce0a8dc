//! The signed digraph container.

use std::fmt;

/// The sign of an edge.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EdgeSign {
    /// A positive edge.
    Pos,
    /// A negative edge.
    Neg,
}

impl EdgeSign {
    /// `true` iff positive.
    pub fn is_pos(self) -> bool {
        matches!(self, EdgeSign::Pos)
    }

    /// `true` iff negative.
    pub fn is_neg(self) -> bool {
        matches!(self, EdgeSign::Neg)
    }

    /// The opposite sign.
    #[must_use]
    pub fn flip(self) -> EdgeSign {
        match self {
            EdgeSign::Pos => EdgeSign::Neg,
            EdgeSign::Neg => EdgeSign::Pos,
        }
    }

    /// Sign of a two-edge path: `Pos` is the identity element.
    #[must_use]
    pub fn compose(self, other: EdgeSign) -> EdgeSign {
        if self == other {
            EdgeSign::Pos
        } else {
            EdgeSign::Neg
        }
    }
}

/// A node index. Dense in `0..graph.node_count()`.
pub type NodeId = u32;

/// A directed graph with signed edges, stored as out-adjacency lists.
///
/// Parallel edges (same endpoints, same or different signs) are allowed —
/// ground graphs genuinely contain them (a rule may use the same atom
/// positively and negatively).
#[derive(Clone, Debug, Default)]
pub struct SignedDigraph {
    out: Vec<Vec<(NodeId, EdgeSign)>>,
    edge_count: usize,
}

impl SignedDigraph {
    /// A graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        SignedDigraph {
            out: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.out.len() as NodeId;
        self.out.push(Vec::new());
        id
    }

    /// Adds a signed edge `from → to`.
    ///
    /// # Panics
    ///
    /// If either endpoint is out of range.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, sign: EdgeSign) {
        assert!((to as usize) < self.out.len(), "edge target out of range");
        self.out[from as usize].push((to, sign));
        self.edge_count += 1;
    }

    /// The out-edges of `node` as `(target, sign)` pairs.
    pub fn out_edges(&self, node: NodeId) -> &[(NodeId, EdgeSign)] {
        &self.out[node as usize]
    }

    /// Iterates over all edges as `(from, to, sign)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeSign)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&(v, s)| (u as NodeId, v, s)))
    }

    /// `true` iff any edge is negative.
    pub fn has_negative_edge(&self) -> bool {
        self.out.iter().any(|vs| vs.iter().any(|(_, s)| s.is_neg()))
    }
}

impl fmt::Display for SignedDigraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "signed digraph: {} nodes, {} edges",
            self.node_count(),
            self.edge_count()
        )?;
        for (u, v, s) in self.edges() {
            writeln!(f, "  {u} -{}-> {v}", if s.is_pos() { "+" } else { "-" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_algebra() {
        assert_eq!(EdgeSign::Neg.compose(EdgeSign::Neg), EdgeSign::Pos);
        assert_eq!(EdgeSign::Pos.compose(EdgeSign::Neg), EdgeSign::Neg);
        assert_eq!(EdgeSign::Pos.flip(), EdgeSign::Neg);
    }

    #[test]
    fn build_and_query() {
        let mut g = SignedDigraph::new(3);
        g.add_edge(0, 1, EdgeSign::Pos);
        g.add_edge(1, 2, EdgeSign::Neg);
        g.add_edge(2, 0, EdgeSign::Pos);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_negative_edge());
        assert_eq!(g.out_edges(1), &[(2, EdgeSign::Neg)]);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = SignedDigraph::new(2);
        g.add_edge(0, 1, EdgeSign::Pos);
        g.add_edge(0, 1, EdgeSign::Neg);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_edges(0).len(), 2);
    }

    #[test]
    fn add_node_grows() {
        let mut g = SignedDigraph::new(0);
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, EdgeSign::Pos);
        assert_eq!(g.node_count(), 2);
    }
}
