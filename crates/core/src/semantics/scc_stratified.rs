//! SCC-stratified evaluation: the kernel the session runtime
//! (`tiebreak_runtime::Solver`) walks for every evaluation.
//!
//! The paper's interpreters alternate `close` with whole-graph queries:
//! every unfounded-set round clones the live deletion state
//! (`Closer::largest_unfounded_set`) and every tie break rebuilds the
//! remaining digraph and its SCCs. On alternation-heavy instances — a
//! win–move chain of draw pockets, the two-counter reduction — that makes
//! evaluation quadratic even though each individual round is cheap.
//!
//! [`process_components`] runs the *same* algorithms over the
//! condensation instead. Its caller does steps 1 and 2 once:
//!
//! 1. `close(M₀, G)` as usual;
//! 2. condense the residual graph once
//!    ([`datalog_ground::UnfoundedEngine`]);
//! 3. process components in topological order (sources first). Per
//!    component: falsify component-local unfounded sets to a fixpoint
//!    (well-founded flavours), then repeatedly break bottom ties inside
//!    the component's alive remnant (tie-breaking flavours), re-running
//!    the incremental `close` after every batch of assignments.
//!
//! **Why a single pass is exact.** Every `close` propagation step follows
//! an edge of the bipartite graph (body atom → rule node → head atom), so
//! assignments inside a component only ever affect that component and
//! components downstream in the condensation; a finished component is
//! never reopened. A component-local unfounded set equals the global
//! one's intersection with the component because upstream positive
//! support has already been resolved (see the `datalog-ground` module
//! docs), and a component sub-SCC is a bottom component of the *global*
//! remaining graph exactly when it is bottom inside the component's alive
//! subgraph and free of alive in-edges from outside
//! ([`datalog_ground::ComponentGraph::external_in`]) — stuck upstream
//! residues (odd loops) therefore veto downstream tie breaks exactly as
//! they do in the global loop.
//!
//! The differential suites (`tests/eval_modes.rs`,
//! `tests/runtime_parallel.rs`, plus the unit tests here, which drive the
//! kernel directly) check that condensation walks and the paper-literal
//! global loops (the plain `well_founded`, `pure_tie_breaking`, … names)
//! produce identical well-founded models and identical tie-breaking
//! outcome *sets*; individual runs may break isomorphic ties in a
//! different order.

use datalog_ground::{Closer, PartialModel, TruthValue, UnfoundedEngine};

use super::tie_breaking::{break_tie, TiePolicy};
use super::{RunStats, SemanticsError};

/// One pass over a sequence of condensation components — the flavour
/// switches (`policy: None` means plain well-founded; `use_unfounded`
/// keeps the unfounded-set priority of the well-founded flavours).
///
/// Bundling them keeps [`process_components`]' signature stable while
/// the runtime crate drives the same kernel over the whole order or a
/// mutation cone's new components.
pub struct ComponentPass<'p> {
    /// Falsify component-local unfounded sets before looking at ties.
    pub use_unfounded: bool,
    /// Record per-event details in the stats.
    pub detailed: bool,
    /// The tie policy; `None` skips the tie phase entirely.
    pub policy: Option<&'p mut dyn TiePolicy>,
}

/// Processes `components` (which must be listed in topological order of
/// the condensation, upstream first) against live `closer`/`model` state:
/// per component, falsify local unfounded sets to a fixpoint, then break
/// bottom ties inside the alive remnant, re-running the incremental
/// `close` after every batch.
///
/// This is the one evaluation kernel: the `tiebreak-runtime` session
/// drives it over the full topological order on a fork of its shared
/// post-close state, and over a mutation cone's new components when it
/// advances its served model.
///
/// # Errors
///
/// [`SemanticsError::Conflict`] on propagation conflicts (substrate
/// misuse; the paper's algorithms never conflict).
pub fn process_components(
    closer: &mut Closer<'_>,
    model: &mut PartialModel,
    engine: &mut UnfoundedEngine,
    components: &[u32],
    pass: &mut ComponentPass<'_>,
    stats: &mut RunStats,
) -> Result<(), SemanticsError> {
    for &c in components {
        let mut rounds = 0usize;
        loop {
            // Unfounded sets take priority over tie-breaking, exactly as
            // in the global Algorithm Well-Founded Tie-Breaking.
            if pass.use_unfounded {
                let unfounded = engine.local_unfounded(closer, c);
                if !unfounded.is_empty() {
                    stats.unfounded_rounds += 1;
                    for &atom in unfounded {
                        closer.define(model, atom, TruthValue::False);
                    }
                    closer.run(model)?;
                    stats.close_rounds += 1;
                    rounds += 1;
                    continue;
                }
            }

            let Some(policy) = pass.policy.as_deref_mut() else {
                break; // plain well-founded: no tie phase
            };
            if !engine.has_alive_atoms(closer, c) {
                break;
            }

            // The next bottom tie inside the component's alive remnant. A
            // sub-SCC with an external alive in-edge is not bottom in the
            // global graph (its upstream residue is stuck) and is skipped.
            let Some((root_side, other_side)) = engine.bottom_tie(closer, c) else {
                break; // stuck remnant (odd or vetoed): move on
            };
            break_tie(
                closer,
                model,
                policy,
                root_side,
                other_side,
                stats,
                pass.detailed,
            )?;
            rounds += 1;
        }
        stats.record_component(rounds, pass.detailed);
    }
    tiebreak_trace::metrics()
        .components_processed
        .add(components.len() as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::tie_breaking::{
        pure_tie_breaking, well_founded_tie_breaking, RootFalsePolicy, RootTruePolicy,
        ScriptedPolicy,
    };
    use crate::semantics::well_founded::well_founded;
    use crate::semantics::InterpreterRun;
    use datalog_ast::{parse_database, parse_program, Database, GroundAtom, Program};
    use datalog_ground::{ground, GroundConfig, GroundGraph, GroundMode};

    fn setup(src: &str, db: &str) -> (GroundGraph, Program, Database) {
        let p = parse_program(src).unwrap();
        let d = parse_database(db).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        (g, p, d)
    }

    /// The kernel over the whole condensation, as the session runtime
    /// walks it: close, condense, then one pass in topological order.
    fn walk(
        g: &GroundGraph,
        p: &Program,
        d: &Database,
        policy: Option<&mut dyn TiePolicy>,
        use_unfounded: bool,
        detailed: bool,
    ) -> InterpreterRun {
        let mut model = PartialModel::initial(p, d, g.atoms());
        let mut closer = Closer::new(g);
        closer.bootstrap(&model);
        closer.run(&mut model).unwrap();
        let mut stats = RunStats {
            close_rounds: 1,
            ..RunStats::default()
        };
        let mut engine = UnfoundedEngine::build(&closer);
        let order = engine.order().to_vec();
        let mut pass = ComponentPass {
            use_unfounded,
            detailed,
            policy,
        };
        process_components(
            &mut closer,
            &mut model,
            &mut engine,
            &order,
            &mut pass,
            &mut stats,
        )
        .unwrap();
        let total = model.is_total();
        InterpreterRun {
            model,
            total,
            stats,
        }
    }

    /// Plain well-founded: no tie phase.
    fn wf(g: &GroundGraph, p: &Program, d: &Database) -> InterpreterRun {
        walk(g, p, d, None, true, false)
    }

    /// Well-founded tie-breaking with `policy`.
    fn wf_tb(
        g: &GroundGraph,
        p: &Program,
        d: &Database,
        policy: &mut dyn TiePolicy,
    ) -> InterpreterRun {
        walk(g, p, d, Some(policy), true, false)
    }

    fn val(g: &GroundGraph, r: &InterpreterRun, pred: &str, args: &[&str]) -> TruthValue {
        r.model.get(
            g.atoms()
                .id_of(&GroundAtom::from_texts(pred, args))
                .unwrap(),
        )
    }

    #[test]
    fn wf_agrees_with_global_on_paper_examples() {
        for (src, db) in [
            ("p :- p, not q.\nq :- q, not p.", ""),
            ("p :- not q.\nq :- not p.", ""),
            ("p :- not q.\nq :- not r.\nr :- not p.", ""),
            ("p(a) :- not p(X), e(b).", "e(b)."),
            (
                "win(X) :- move(X, Y), not win(Y).",
                "move(a, b).\nmove(b, a).\nmove(c, a).",
            ),
            (
                "win(X) :- move(X, Y), not win(Y).",
                "move(a, b).\nmove(b, c).",
            ),
        ] {
            let (g, p, d) = setup(src, db);
            let global = well_founded(&g, &p, &d).unwrap();
            let strat = wf(&g, &p, &d);
            assert_eq!(strat.model, global.model, "program: {src}");
            assert_eq!(strat.total, global.total);
        }
    }

    #[test]
    fn chained_unfounded_rounds_collapse_to_one_pass() {
        // The global algorithm needs Θ(n) unfounded rounds on this chain;
        // the kernel needs one per affected component and its stats say so.
        let mut src = String::from("a0 :- a0.\nb0 :- not a0.\n");
        for i in 1..8 {
            src.push_str(&format!(
                "a{i} :- a{i}.\na{i} :- b{}.\nb{i} :- not a{i}.\n",
                i - 1
            ));
        }
        let (g, p, d) = setup(&src, "");
        let global = well_founded(&g, &p, &d).unwrap();
        let strat = wf(&g, &p, &d);
        assert_eq!(strat.model, global.model);
        assert!(strat.total);
        assert_eq!(global.stats.unfounded_rounds, 4, "global alternates");
        assert_eq!(strat.stats.unfounded_rounds, 4);
        assert_eq!(
            strat.stats.max_component_rounds, 1,
            "one round per component"
        );
        assert!(strat.stats.components_processed > 0);
    }

    #[test]
    fn tie_orientations_match_global() {
        let (g, p, d) = setup("p :- not q.\nq :- not p.", "");
        for root_true in [true, false] {
            let (a, b) = if root_true {
                (
                    well_founded_tie_breaking(&g, &p, &d, &mut RootTruePolicy).unwrap(),
                    wf_tb(&g, &p, &d, &mut RootTruePolicy),
                )
            } else {
                (
                    well_founded_tie_breaking(&g, &p, &d, &mut RootFalsePolicy).unwrap(),
                    wf_tb(&g, &p, &d, &mut RootFalsePolicy),
                )
            };
            assert!(a.total && b.total);
            assert_eq!(a.model, b.model, "same policy, same single-tie model");
        }
    }

    #[test]
    fn unfounded_priority_is_kept() {
        // {p, q} is unfounded, so WF-TB falsifies it instead of breaking
        // the tie — as the global loop does.
        let (g, p, d) = setup("p :- p, not q.\nq :- q, not p.", "");
        let strat = wf_tb(&g, &p, &d, &mut RootTruePolicy);
        let global = well_founded_tie_breaking(&g, &p, &d, &mut RootTruePolicy).unwrap();
        assert_eq!(strat.model, global.model);
        assert!(strat.total);
        assert_eq!(val(&g, &strat, "p", &[]), TruthValue::False);
        assert_eq!(val(&g, &strat, "q", &[]), TruthValue::False);
        assert_eq!(strat.stats.ties_broken, 0);
        assert_eq!(strat.stats.unfounded_rounds, 1);

        // Pure tie-breaking instead breaks the tie, as its global loop
        // does.
        let pure = walk(&g, &p, &d, Some(&mut RootTruePolicy), false, false);
        let global = pure_tie_breaking(&g, &p, &d, &mut RootTruePolicy).unwrap();
        assert_eq!(pure.model, global.model);
        assert!(pure.total);
        assert_eq!(pure.stats.ties_broken, 1);
        assert_ne!(val(&g, &pure, "p", &[]), val(&g, &pure, "q", &[]));
    }

    #[test]
    fn stuck_upstream_vetoes_downstream_ties() {
        // The odd loop `x` feeds `p` through an alive rule, so the {p, q}
        // tie never becomes a bottom component: the global loop leaves it
        // unbroken and so must the kernel.
        let (g, p, d) = setup("p :- not q.\nq :- not p.\np :- x.\nx :- not x.", "");
        let global = well_founded_tie_breaking(&g, &p, &d, &mut RootTruePolicy).unwrap();
        let strat = wf_tb(&g, &p, &d, &mut RootTruePolicy);
        assert_eq!(strat.model, global.model);
        assert!(!strat.total);
        assert_eq!(strat.stats.ties_broken, 0);
        assert_eq!(strat.model.defined_count(), 0);
    }

    #[test]
    fn resolved_upstream_unlocks_downstream_ties() {
        // Here the guard loop is unfounded: y := false resolves upstream,
        // which *closes* p to true — no tie remains anywhere.
        let (g, p, d) = setup("p :- not q.\nq :- not p.\np :- not y.\ny :- y.", "");
        let global = well_founded_tie_breaking(&g, &p, &d, &mut RootTruePolicy).unwrap();
        let strat = wf_tb(&g, &p, &d, &mut RootTruePolicy);
        assert_eq!(strat.model, global.model);
        assert!(strat.total);
        assert_eq!(val(&g, &strat, "p", &[]), TruthValue::True);
        assert_eq!(strat.stats.ties_broken, 0);
    }

    #[test]
    fn tie_chain_resolves_linearly() {
        // n draw pockets chained through the win–move game: one tie break
        // (or close cascade) per pocket, resolved source-first.
        let n = 12;
        let mut db = String::new();
        for i in 0..n {
            db.push_str(&format!("move(a{i}, b{i}).\nmove(b{i}, a{i}).\n"));
        }
        for i in 0..n - 1 {
            db.push_str(&format!("move(a{i}, a{}).\n", i + 1));
        }
        let (g, p, d) = setup("win(X) :- move(X, Y), not win(Y).", &db);
        let strat = wf_tb(&g, &p, &d, &mut RootTruePolicy);
        assert!(strat.total);
        assert!(strat.stats.ties_broken >= 1);
        assert!(strat.stats.components_processed > 0);

        // Identical outcome *sets* with the global loop are asserted by
        // the differential suites; here check both are total fixpoints.
        let global = well_founded_tie_breaking(&g, &p, &d, &mut RootTruePolicy).unwrap();
        assert!(global.total);
    }

    #[test]
    fn scripted_policy_reaches_both_orientations() {
        let (g, p, d) = setup("p :- not q.\nq :- not p.", "");
        let mut seen = std::collections::HashSet::new();
        for &choice in &[false, true] {
            let mut pol = ScriptedPolicy::new(vec![choice], false);
            let r = wf_tb(&g, &p, &d, &mut pol);
            assert!(r.total);
            assert_eq!(pol.consumed(), 1);
            seen.insert(format!("{:?}", val(&g, &r, "p", &[])));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn detailed_stats_record_component_rounds() {
        let (g, p, d) = setup("p :- not q.\nq :- not p.", "");
        let run = walk(&g, &p, &d, Some(&mut RootTruePolicy), true, true);
        assert_eq!(run.stats.tie_log.len(), 1);
        assert_eq!(run.stats.component_rounds.iter().sum::<usize>(), 1);
        // Default (non-detailed) keeps the logs empty but the counters.
        let lean = wf_tb(&g, &p, &d, &mut RootTruePolicy);
        assert!(lean.stats.tie_log.is_empty());
        assert!(lean.stats.component_rounds.is_empty());
        assert_eq!(lean.stats.ties_broken, 1);
    }
}
