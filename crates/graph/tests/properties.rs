//! Property-based tests for the signed-graph substrate.

use proptest::prelude::*;
use signed_graph::{is_tie_double_cover, tie, EdgeSign, Sccs, SignedDigraph, TieScratch};

/// Strategy: a random signed digraph with up to `n` nodes and `m` edges.
fn arb_graph(n: usize, m: usize) -> impl Strategy<Value = SignedDigraph> {
    (1..=n).prop_flat_map(move |nodes| {
        proptest::collection::vec((0..nodes as u32, 0..nodes as u32, prop::bool::ANY), 0..=m)
            .prop_map(move |edges| {
                let mut g = SignedDigraph::new(nodes);
                for (u, v, neg) in edges {
                    g.add_edge(u, v, if neg { EdgeSign::Neg } else { EdgeSign::Pos });
                }
                g
            })
    })
}

/// Reference reachability by DFS (used to validate Tarjan).
fn reaches(g: &SignedDigraph, from: u32, to: u32) -> bool {
    let mut seen = vec![false; g.node_count()];
    let mut stack = vec![from];
    seen[from as usize] = true;
    while let Some(u) = stack.pop() {
        if u == to {
            return true;
        }
        for &(v, _) in g.out_edges(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                stack.push(v);
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tarjan agrees with the mutual-reachability definition of SCCs.
    #[test]
    fn sccs_match_mutual_reachability(g in arb_graph(8, 20)) {
        let sccs = Sccs::compute(&g);
        for u in 0..g.node_count() as u32 {
            for v in 0..g.node_count() as u32 {
                let same = sccs.component_of(u) == sccs.component_of(v);
                let mutual = reaches(&g, u, v) && reaches(&g, v, u);
                prop_assert_eq!(same, mutual, "u={} v={}", u, v);
            }
        }
    }

    /// Component order is reverse topological: inter-component edges point
    /// from higher to lower component indices.
    #[test]
    fn scc_order_is_reverse_topological(g in arb_graph(10, 30)) {
        let sccs = Sccs::compute(&g);
        for (u, v, _) in g.edges() {
            let cu = sccs.component_of(u);
            let cv = sccs.component_of(v);
            if cu != cv {
                prop_assert!(cv < cu);
            }
        }
    }

    /// For every SCC, check_tie returns either a partition satisfying
    /// Lemma 1 or a genuine odd-cycle witness.
    #[test]
    fn check_tie_sound(g in arb_graph(8, 24)) {
        let sccs = Sccs::compute(&g);
        for c in 0..sccs.len() as u32 {
            match tie::check_tie(&g, sccs.members(c)) {
                Ok(p) => prop_assert!(p.is_valid(&g)),
                Err(w) => {
                    prop_assert!(w.is_valid(&g));
                    prop_assert_eq!(w.negative_count() % 2, 1);
                }
            }
        }
    }

    /// Recomputing into buffers a larger graph grew, and checking ties
    /// with a scratch an earlier graph used, gives exactly the fresh
    /// decomposition and `check_tie`'s partitions: member order, root and
    /// sides included.
    #[test]
    fn reused_buffers_match_fresh_computation(
        first in arb_graph(12, 40),
        g in arb_graph(8, 24),
    ) {
        let mut sccs = Sccs::compute(&first);
        let mut scratch = TieScratch::default();
        for c in 0..sccs.len() as u32 {
            let _ = scratch.partition(first.node_count(), sccs.members(c), |v| first.out_edges(v));
        }
        sccs.recompute(g.node_count(), |v| g.out_edges(v), |&(w, _)| w);
        let fresh = Sccs::compute(&g);
        prop_assert_eq!(sccs.len(), fresh.len());
        for c in 0..fresh.len() as u32 {
            prop_assert_eq!(sccs.members(c), fresh.members(c));
            let reused = scratch
                .partition(g.node_count(), sccs.members(c), |v| g.out_edges(v))
                .map(<[bool]>::to_vec);
            let checked = tie::check_tie(&g, fresh.members(c)).ok().map(|p| p.in_l);
            prop_assert_eq!(reused, checked);
        }
        prop_assert_eq!(sccs.bottom_components(&g), fresh.bottom_components(&g));
    }

    /// The Lemma 1 spanning-tree test and the double-cover test agree on
    /// every SCC of every random graph (two independent algorithms).
    #[test]
    fn lemma1_agrees_with_double_cover(g in arb_graph(9, 30)) {
        let sccs = Sccs::compute(&g);
        for c in 0..sccs.len() as u32 {
            let members = sccs.members(c);
            prop_assert_eq!(
                tie::check_tie(&g, members).is_ok(),
                is_tie_double_cover(&g, members),
                "component {:?}",
                members
            );
        }
    }

    /// Graphs signed from a planted 2-partition are ties on every SCC
    /// (completeness direction of Lemma 1).
    #[test]
    fn planted_partition_graphs_are_ties(
        sides in proptest::collection::vec(prop::bool::ANY, 2..8),
        pairs in proptest::collection::vec((0usize..8, 0usize..8), 0..24),
    ) {
        let n = sides.len();
        let mut g = SignedDigraph::new(n);
        for (u, v) in pairs {
            let (u, v) = (u % n, v % n);
            let sign = if sides[u] == sides[v] { EdgeSign::Pos } else { EdgeSign::Neg };
            g.add_edge(u as u32, v as u32, sign);
        }
        let sccs = Sccs::compute(&g);
        for c in 0..sccs.len() as u32 {
            prop_assert!(tie::is_tie(&g, sccs.members(c)));
        }
    }

    /// An SCC containing an odd cycle is never reported as a tie:
    /// build a cycle with an odd number of negative edges and arbitrary
    /// extra positive chords.
    #[test]
    fn odd_cycles_detected(
        len in 1usize..7,
        negs in proptest::collection::vec(prop::bool::ANY, 0..7),
        chords in proptest::collection::vec((0usize..7, 0usize..7), 0..6),
    ) {
        let mut g = SignedDigraph::new(len);
        let mut neg_count = 0;
        for i in 0..len {
            let neg = negs.get(i).copied().unwrap_or(false);
            neg_count += usize::from(neg);
            g.add_edge(i as u32, ((i + 1) % len) as u32, if neg { EdgeSign::Neg } else { EdgeSign::Pos });
        }
        // If the base cycle is even, add a parallel first edge of the
        // opposite sign: the cycle through it has odd parity.
        if neg_count % 2 == 0 {
            let first_was_neg = negs.first().copied().unwrap_or(false);
            g.add_edge(
                0,
                (1 % len) as u32,
                if first_was_neg { EdgeSign::Pos } else { EdgeSign::Neg },
            );
        }
        for (u, v) in chords {
            g.add_edge((u % len) as u32, (v % len) as u32, EdgeSign::Pos);
        }
        let sccs = Sccs::compute(&g);
        // All nodes are on the base cycle, hence one SCC.
        prop_assert_eq!(sccs.len(), 1);
        let res = tie::check_tie(&g, sccs.members(0));
        prop_assert!(res.is_err());
    }
}
