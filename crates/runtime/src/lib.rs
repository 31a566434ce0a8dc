//! The session-oriented solver runtime.
//!
//! The `tiebreak-core` facade rebuilds the whole pipeline — ground,
//! `close(M₀, G)`, condense — for every query, and `all_outcomes` re-runs
//! `close` once per tie script. This crate turns that pipeline into a
//! persistent [`Solver`] **session**:
//!
//! * **Ground once, close once, condense once.** [`Solver::with_config`]
//!   grounds the instance, runs the first `close`, snapshots the
//!   quiescent deletion state ([`datalog_ground::CloseState`]), and
//!   builds the SCC condensation
//!   ([`datalog_ground::UnfoundedEngine`]). Everything after that is an
//!   *evaluation* against this immutable prepared state — the well-founded
//!   core is deterministic and order-independent, so the prepared state
//!   can be shared freely.
//! * **One walk, one thread, one policy.** [`Solver::well_founded`] and
//!   the tie-breaking evaluations fork the post-close state and walk the
//!   condensation's components once in topological order, sources first,
//!   with the same kernel the one-shot
//!   `tiebreak_core::semantics::*_with` interpreters use
//!   (`tiebreak_core::semantics::process_components`). One
//!   `&mut impl TiePolicy` drives the walk, so it meets the ties in that
//!   order: an outcome depends on the policy, never on a schedule.
//! * **Copy-on-write outcome enumeration.** [`Solver::all_outcomes`]
//!   forks each tie script off the shared post-close snapshot — a few
//!   `memcpy`s — instead of re-running `close` from scratch per script,
//!   turning enumeration from O(scripts × close) into
//!   O(close + scripts × residual), breadth-first over the choice tree.
//!   It builds only the scripts its run budget lets run.
//! * **Render once per state.** The read memo keeps the encoded bytes of
//!   the `? wf` and `? outcomes N` replies ([`ReadBatch::model`],
//!   [`ReadBatch::outcomes`]), rendered by the one renderer in
//!   [`reply`] on the first read of a state, so a repeated read of one
//!   state copies bytes: no decode, no formatting, no sort. The memo
//!   never holds a body larger than the reply cap
//!   ([`Solver::set_reply_cap`]).
//! * **Incremental mutation.** [`Solver::insert_fact`],
//!   [`Solver::retract_fact`], and [`Solver::apply`] mutate the database
//!   *in place*: delta grounding appends the newly supportable rule
//!   instances, `close` is re-derived only over the mutation's forward
//!   cone, the condensation is patched cone-wise, and the served
//!   well-founded model is advanced over the cone's new components
//!   only — each batch bumps
//!   [`Solver::epoch`] and reports a [`PrepareDelta`]. Exactness (wf
//!   models, outcome sets, totality identical to a fresh solver on the
//!   mutated database) is asserted by `tests/session_mutation.rs`.
//!
//! Tie choices are the only nondeterministic points (the tie scripts are
//! game-like choice moves; everything else is forced), which is exactly
//! what makes evaluations shareable as cheap forks off one prepared
//! state.
//!
//! ```
//! use tiebreak_runtime::Solver;
//! use tiebreak_core::RootTruePolicy;
//!
//! let solver = Solver::from_sources(
//!     "win(X) :- move(X, Y), not win(Y).",
//!     "move(a, b). move(b, a). move(c, d). move(d, c).",
//! )
//! .unwrap();
//!
//! // Two independent draw pockets: two ties, four outcomes.
//! let outcome = solver.well_founded_tie_breaking(&mut RootTruePolicy).unwrap();
//! assert!(outcome.total);
//! assert_eq!(outcome.stats.ties_broken, 2);
//! assert_eq!(solver.all_outcomes(false, 64).unwrap().models.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod eval;
mod outcomes;
pub mod reply;
mod session;
mod wf_state;

pub use reply::{Reply, ReplyTooLarge};
pub use session::{ReadBatch, Solver, SolverError};
pub use tiebreak_core::{Mutation, PrepareDelta, SessionConfig};
