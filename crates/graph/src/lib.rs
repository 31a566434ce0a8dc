//! Directed graphs with positive and negative edges.
//!
//! This is the graph-theoretic substrate of the tie-breaking semantics:
//!
//! * [`SignedDigraph`] — adjacency-list digraph whose edges carry an
//!   [`EdgeSign`];
//! * [`Sccs`] — strongly connected components (iterative Tarjan) with the
//!   condensation order, bottom-component queries, and per-component edge
//!   classification;
//! * [`tie`] — Lemma 1 of the paper: a strongly connected signed graph is a
//!   **tie** iff its nodes 2-partition into (K, L) with positive edges
//!   inside the parts and negative edges across; the module computes the
//!   partition in linear time or exhibits a cycle with an odd number of
//!   negative edges as a witness.
//!
//! [`Sccs::recompute`] and [`tie::TieScratch`] run the same two
//! algorithms over a caller's own adjacency (a CSR slab, say) with
//! buffers kept from one call to the next, so a caller that condenses
//! and checks many small graphs allocates nothing per graph.
//!
//! Harary called ties *cycle-balanced* graphs; the paper's Lemma 1 is the
//! classical balance characterization specialized to strong components.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod condensation;
pub mod double_cover;
pub mod graph;
pub mod scc;
pub mod tie;

pub use condensation::Condensation;
pub use double_cover::is_tie_double_cover;
pub use graph::{EdgeSign, NodeId, SignedDigraph};
pub use scc::Sccs;
pub use tie::{OddCycle, TiePartition, TieScratch};
