//! Grounding of Datalog¬ programs: ground graphs, partial models, and the
//! `close(M, G)` operator.
//!
//! Implements Section 2 of Papadimitriou & Yannakakis, *"Tie-Breaking
//! Semantics and Structural Totality"*:
//!
//! * [`AtomTable`] — a dense bijection between the ground atoms over the
//!   universe *U* and integer [`AtomId`]s (mixed-radix encoding, no
//!   hashing on the hot path);
//! * [`PartialModel`] — three-valued models over the atom table, with the
//!   initial model M₀(Δ);
//! * [`GroundGraph`] — the bipartite graph *G(Π, Δ)* with predicate nodes,
//!   rule nodes, and signed body edges, built either by full instantiation
//!   of every rule over *U* exactly as the paper defines
//!   ([`GroundMode::Full`], with an explicit budget so pathological
//!   arities fail fast instead of exhausting memory) or by the join-based
//!   **relevant** grounder ([`GroundMode::Relevant`]) that emits only
//!   supportable rule instances into a sparse interned atom table while
//!   preserving the post-`close` residual graph exactly;
//! * [`Closer`] — an incremental, confluent implementation of the paper's
//!   `close(M, G)` procedure, reusable across the iterations of the
//!   well-founded and tie-breaking interpreters, plus the largest
//!   unfounded set `Atoms[close(M, G⁺)]`;
//! * [`UnfoundedEngine`] — the SCC condensation of the residual graph
//!   with component-scoped unfounded-set and tie-structure queries, the
//!   substrate of the stratified evaluation mode;
//! * [`seminaive`] — the semi-naive join engine shared by the relevant
//!   grounder and `tiebreak-core`'s stratified interpreter;
//! * [`delta`] — delta grounding for the incremental session: a
//!   [`SessionGrounder`] extends a prepared graph under fact insertion
//!   (seeded semi-naive passes, scoped gfp refresh for positive cycles),
//!   [`GroundGraph::forward_cone`] bounds how far a mutation can reach,
//!   [`Closer::reopen_cone`] re-closes exactly that cone against the
//!   frozen remainder, and [`UnfoundedEngine::patch_cone`] splices the
//!   re-condensed cone into the prepared condensation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atoms;
pub mod close;
mod csr;
pub mod delta;
pub mod graph;
pub mod grounder;
pub mod model;
pub mod reference;
pub mod relevant;
pub mod seminaive;
pub mod unfounded;

pub use atoms::{AtomId, AtomInterner, AtomSpaceOverflow, AtomTable};
pub use close::{CloseConflict, CloseState, Closer, NodeKind, RemainingGraph};
pub use delta::{DeltaGround, SessionGrounder};
pub use graph::{Cone, GraphFootprint, GroundGraph, GroundRule, RuleId};
pub use grounder::{ground, GroundConfig, GroundError, GroundMode};
pub use model::{PartialModel, TruthValue};
pub use reference::{naive_close, naive_largest_unfounded, ResidualGraph};
pub use unfounded::{ComponentGraph, ConePatch, UnfoundedEngine};
