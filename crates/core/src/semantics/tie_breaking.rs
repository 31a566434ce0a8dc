//! The tie-breaking interpreters (paper, Section 3).
//!
//! **Algorithm Pure Tie-Breaking:**
//!
//! ```text
//! M := M0(Δ); G := G(Π, Δ); (M, G) := close(M, G);
//! while there is a tie T in G with no incoming edges do:
//!     let (K, L) be the partition of T as in Lemma 1 with L nonempty;
//!     for each atom a ∈ K set M(a) := true;
//!     for each atom a ∈ L set M(a) := false;
//!     (M, G) := close(M, G)
//! ```
//!
//! **Algorithm Well-Founded Tie-Breaking** interleaves the well-founded
//! unfounded-set step, which takes priority; a tie may only be broken when
//! no nonempty unfounded set exists. (The paper's printed listing assigns
//! both branches over `a ∈ K` — an evident typo; we implement K-true /
//! L-false as in the pure version and the proofs of Lemmas 2–3.)
//!
//! Both algorithms are *nondeterministic*: when both sides of a tie are
//! nonempty, either may play the role of K. The choice is delegated to a
//! [`TiePolicy`]. When one side is empty, the paper's minimalist
//! convention is followed: all atoms of the tie become false.

use datalog_ast::{Database, Program};
use datalog_ground::{AtomId, Closer, GroundGraph, PartialModel, TruthValue};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use signed_graph::{tie, Sccs};

use super::{InterpreterRun, RunStats, SemanticsError};

/// What the policy sees when a tie with two nonempty sides must be broken.
///
/// "Root side" is the side containing the spanning-tree root of the
/// Lemma 1 partition (the paper's K, before the arbitrary renaming).
#[derive(Debug)]
pub struct TieView<'a> {
    /// Sequence number of this tie within the run (0-based).
    pub index: usize,
    /// Atoms on the root side.
    pub root_side: &'a [AtomId],
    /// Atoms on the other side.
    pub other_side: &'a [AtomId],
}

/// A tie-breaking choice strategy.
pub trait TiePolicy {
    /// Returns `true` to make the root side true (and the other false), or
    /// `false` for the opposite orientation.
    fn choose_root_side_true(&mut self, view: &TieView<'_>) -> bool;
}

/// Always makes the root side true.
#[derive(Clone, Copy, Debug, Default)]
pub struct RootTruePolicy;

impl TiePolicy for RootTruePolicy {
    fn choose_root_side_true(&mut self, _view: &TieView<'_>) -> bool {
        true
    }
}

/// Always makes the root side false.
#[derive(Clone, Copy, Debug, Default)]
pub struct RootFalsePolicy;

impl TiePolicy for RootFalsePolicy {
    fn choose_root_side_true(&mut self, _view: &TieView<'_>) -> bool {
        false
    }
}

/// Flips a seeded coin per tie (reproducible nondeterminism).
#[derive(Clone, Debug)]
pub struct RandomPolicy {
    rng: SmallRng,
}

impl RandomPolicy {
    /// A policy seeded with `seed`.
    pub fn seeded(seed: u64) -> Self {
        RandomPolicy {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TiePolicy for RandomPolicy {
    fn choose_root_side_true(&mut self, _view: &TieView<'_>) -> bool {
        self.rng.gen::<bool>()
    }
}

/// Plays back a fixed script of choices (then a default) — used to
/// exhaustively explore all tie-breaking outcomes of small programs.
#[derive(Clone, Debug)]
pub struct ScriptedPolicy {
    script: Vec<bool>,
    default: bool,
    at: usize,
}

impl ScriptedPolicy {
    /// A policy that answers `script[i]` for the i-th tie, then `default`.
    pub fn new(script: Vec<bool>, default: bool) -> Self {
        ScriptedPolicy {
            script,
            default,
            at: 0,
        }
    }

    /// How many scripted answers were consumed.
    pub fn consumed(&self) -> usize {
        self.at
    }
}

impl TiePolicy for ScriptedPolicy {
    fn choose_root_side_true(&mut self, _view: &TieView<'_>) -> bool {
        let choice = self.script.get(self.at).copied().unwrap_or(self.default);
        self.at += 1;
        choice
    }
}

/// Runs **Algorithm Pure Tie-Breaking** as the paper-literal loop (every
/// tie query rebuilds the whole remaining graph): the reference that the
/// condensation-driven kernel ([`super::process_components`], walked by
/// `tiebreak_runtime::Solver`) is checked against.
///
/// # Errors
///
/// [`SemanticsError::Conflict`] cannot arise from the algorithm's own
/// choices (Lemma 2) and indicates substrate misuse.
pub fn pure_tie_breaking<P: TiePolicy>(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
    policy: &mut P,
) -> Result<InterpreterRun, SemanticsError> {
    tie_breaking_loop(graph, program, database, policy, false)
}

/// Runs **Algorithm Well-Founded Tie-Breaking** (unfounded sets take
/// priority over tie-breaking) as the paper-literal loop: the reference
/// that the condensation-driven kernel is checked against.
///
/// # Errors
///
/// As for [`pure_tie_breaking`].
pub fn well_founded_tie_breaking<P: TiePolicy>(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
    policy: &mut P,
) -> Result<InterpreterRun, SemanticsError> {
    tie_breaking_loop(graph, program, database, policy, true)
}

fn tie_breaking_loop<P: TiePolicy>(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
    policy: &mut P,
    use_unfounded: bool,
) -> Result<InterpreterRun, SemanticsError> {
    let mut model = PartialModel::initial(program, database, graph.atoms());
    let mut closer = Closer::new(graph);
    let mut stats = RunStats::default();

    closer.bootstrap(&model);
    closer.run(&mut model)?;
    stats.close_rounds += 1;

    loop {
        if use_unfounded {
            let unfounded = closer.largest_unfounded_set();
            if !unfounded.is_empty() {
                stats.unfounded_rounds += 1;
                for atom in unfounded {
                    closer.define(&mut model, atom, TruthValue::False);
                }
                closer.run(&mut model)?;
                stats.close_rounds += 1;
                continue;
            }
        }

        // Look for a bottom tie in the remaining graph.
        let rem = closer.remaining_digraph();
        if rem.digraph.node_count() == 0 {
            break;
        }
        let sccs = Sccs::compute(&rem.digraph);
        let mut broke = false;
        for c in sccs.bottom_components(&rem.digraph) {
            let Ok(partition) = tie::check_tie(&rem.digraph, sccs.members(c)) else {
                continue; // odd component: not a tie
            };
            let root_side: Vec<AtomId> =
                partition.k_side().filter_map(|n| rem.as_atom(n)).collect();
            let other_side: Vec<AtomId> =
                partition.l_side().filter_map(|n| rem.as_atom(n)).collect();

            break_tie(
                &mut closer,
                &mut model,
                policy,
                &root_side,
                &other_side,
                &mut stats,
                false,
            )?;
            broke = true;
            break;
        }
        if !broke {
            break; // no bottom tie: the interpreter is stuck
        }
    }

    let total = model.is_total();
    Ok(InterpreterRun {
        model,
        total,
        stats,
    })
}

/// The shared tie-orientation convention of the global and stratified
/// loops (paper, Section 3): name the sides so L is nonempty and, when
/// one side has no atoms, make everything false (minimalist choice);
/// with both sides nonempty the policy decides. Assignments are
/// propagated through `closer` and the tie is recorded in `stats`.
///
/// Keeping this in one place is what the Global ≡ Stratified
/// differential suites rely on: a convention change cannot reach one
/// loop without the other.
pub(crate) fn break_tie(
    closer: &mut Closer<'_>,
    model: &mut PartialModel,
    policy: &mut dyn TiePolicy,
    root_side: &[AtomId],
    other_side: &[AtomId],
    stats: &mut RunStats,
    detailed: bool,
) -> Result<(), SemanticsError> {
    let one_sided = root_side.is_empty() || other_side.is_empty();
    let root_true = if one_sided {
        false // all atoms false, whichever side holds them
    } else {
        policy.choose_root_side_true(&TieView {
            index: stats.ties_broken,
            root_side,
            other_side,
        })
    };

    for &a in root_side {
        closer.define(model, a, TruthValue::from_bool(root_true));
    }
    let other_value = if one_sided {
        TruthValue::False
    } else {
        TruthValue::from_bool(!root_true)
    };
    for &a in other_side {
        closer.define(model, a, other_value);
    }

    stats.record_tie(root_side.len(), other_side.len(), root_true, detailed);
    closer.run(model)?;
    stats.close_rounds += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program, GroundAtom};
    use datalog_ground::{ground, GroundConfig, GroundMode};

    fn setup(src: &str, db: &str) -> (GroundGraph, Program, Database) {
        let p = parse_program(src).unwrap();
        let d = parse_database(db).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        (g, p, d)
    }

    fn val(g: &GroundGraph, r: &InterpreterRun, pred: &str) -> TruthValue {
        r.model
            .get(g.atoms().id_of(&GroundAtom::from_texts(pred, &[])).unwrap())
    }

    #[test]
    fn archetypal_pq_cycle_both_orientations() {
        // p ← ¬q ; q ← ¬p — the paper's archetypal structurally total but
        // unstratifiable program. Two fixpoints; the policy picks.
        let (g, p, d) = setup("p :- not q.\nq :- not p.", "");
        let mut pol = RootTruePolicy;
        let r1 = well_founded_tie_breaking(&g, &p, &d, &mut pol).unwrap();
        assert!(r1.total);
        let mut pol = RootFalsePolicy;
        let r2 = well_founded_tie_breaking(&g, &p, &d, &mut pol).unwrap();
        assert!(r2.total);
        // The two runs produce opposite orientations.
        let p1 = val(&g, &r1, "p");
        let p2 = val(&g, &r2, "p");
        assert_ne!(p1, p2);
        let q1 = val(&g, &r1, "q");
        assert_ne!(p1, q1);
    }

    #[test]
    fn pure_vs_wf_on_pq_guarded_cycle() {
        // Paper §3 example: p ← p, ¬q ; q ← q, ¬p.
        // Pure: breaks the tie, one true one false (a fixpoint, not stable).
        // WF-TB: {p, q} is unfounded ⇒ both false (the stable model).
        let (g, p, d) = setup("p :- p, not q.\nq :- q, not p.", "");

        let mut pol = RootTruePolicy;
        let pure = pure_tie_breaking(&g, &p, &d, &mut pol).unwrap();
        assert!(pure.total);
        let pv = val(&g, &pure, "p");
        let qv = val(&g, &pure, "q");
        assert_ne!(pv, qv, "pure TB makes exactly one of p, q true");
        assert_eq!(pure.stats.ties_broken, 1);

        let mut pol = RootTruePolicy;
        let wf = well_founded_tie_breaking(&g, &p, &d, &mut pol).unwrap();
        assert!(wf.total);
        assert_eq!(val(&g, &wf, "p"), TruthValue::False);
        assert_eq!(val(&g, &wf, "q"), TruthValue::False);
        assert_eq!(wf.stats.ties_broken, 0);
        assert_eq!(wf.stats.unfounded_rounds, 1);
    }

    #[test]
    fn odd_cycle_sticks_for_both() {
        // p ← ¬q ; q ← ¬r ; r ← ¬p: odd cycle, no ties, no unfounded sets.
        let (g, p, d) = setup("p :- not q.\nq :- not r.\nr :- not p.", "");
        let mut pol = RootTruePolicy;
        let pure = pure_tie_breaking(&g, &p, &d, &mut pol).unwrap();
        assert!(!pure.total);
        assert_eq!(pure.stats.ties_broken, 0);
        let mut pol = RootTruePolicy;
        let wf = well_founded_tie_breaking(&g, &p, &d, &mut pol).unwrap();
        assert!(!wf.total);
        assert_eq!(wf.model.defined_count(), 0);
    }

    #[test]
    fn three_rules_example_not_assigned() {
        // Paper §3: p1 ← ¬p2, ¬p3 ; p2 ← ¬p1, ¬p3 ; p3 ← ¬p1, ¬p2.
        // One SCC, not a tie (3 negative arcs on a cycle); no nonempty
        // unfounded set. WF-TB assigns nothing, though stable models exist.
        let (g, p, d) = setup(
            "p1 :- not p2, not p3.\np2 :- not p1, not p3.\np3 :- not p1, not p2.",
            "",
        );
        let mut pol = RootTruePolicy;
        let wf = well_founded_tie_breaking(&g, &p, &d, &mut pol).unwrap();
        assert!(!wf.total);
        assert_eq!(wf.model.defined_count(), 0);
    }

    #[test]
    fn scripted_policy_explores_both_branches() {
        let (g, p, d) = setup("p :- not q.\nq :- not p.", "");
        let mut seen = std::collections::HashSet::new();
        for &choice in &[false, true] {
            let mut pol = ScriptedPolicy::new(vec![choice], false);
            let r = well_founded_tie_breaking(&g, &p, &d, &mut pol).unwrap();
            assert!(r.total);
            assert_eq!(pol.consumed(), 1);
            seen.insert(format!("{:?}", val(&g, &r, "p")));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn random_policy_is_reproducible() {
        let (g, p, d) = setup("a :- not b.\nb :- not a.\nc :- not d.\nd :- not c.", "");
        let run = |seed: u64| {
            let mut pol = RandomPolicy::seeded(seed);
            let r = well_founded_tie_breaking(&g, &p, &d, &mut pol).unwrap();
            assert!(r.total);
            r.model
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn locally_stratified_perfect_model() {
        // even(0); odd(s(0))... encoded with succ facts:
        // even(X) :- zero(X).  even(Y) :- succ(X, Y), odd(X).
        // odd(Y) :- succ(X, Y), not odd(X), not zero(Y)... keep simple:
        // odd(Y) :- succ(X, Y), even(X).
        // Positive and stratified; both interpreters total.
        let (g, p, d) = setup(
            "even(X) :- zero(X).\neven(Y) :- succ(X, Y), odd(X).\nodd(Y) :- succ(X, Y), even(X).",
            "zero(0).\nsucc(0, 1).\nsucc(1, 2).\nsucc(2, 3).",
        );
        let mut pol = RootTruePolicy;
        let r = well_founded_tie_breaking(&g, &p, &d, &mut pol).unwrap();
        assert!(r.total);
        let gv = |pred: &str, c: &str| {
            r.model.get(
                g.atoms()
                    .id_of(&GroundAtom::from_texts(pred, &[c]))
                    .unwrap(),
            )
        };
        assert_eq!(gv("even", "0"), TruthValue::True);
        assert_eq!(gv("odd", "1"), TruthValue::True);
        assert_eq!(gv("even", "2"), TruthValue::True);
        assert_eq!(gv("odd", "3"), TruthValue::True);
        assert_eq!(gv("even", "1"), TruthValue::False);
    }

    #[test]
    fn win_move_draw_cycle_resolved_by_tie_breaking() {
        // The drawn 2-cycle a ↔ b that the well-founded semantics leaves
        // undefined: tie-breaking decides it (either orientation).
        let (g, p, d) = setup(
            "win(X) :- move(X, Y), not win(Y).",
            "move(a, b).\nmove(b, a).",
        );
        let mut pol = RootTruePolicy;
        let r = well_founded_tie_breaking(&g, &p, &d, &mut pol).unwrap();
        assert!(r.total);
        let wa = r.model.get(
            g.atoms()
                .id_of(&GroundAtom::from_texts("win", &["a"]))
                .unwrap(),
        );
        let wb = r.model.get(
            g.atoms()
                .id_of(&GroundAtom::from_texts("win", &["b"]))
                .unwrap(),
        );
        // Exactly one of the two positions wins.
        assert_ne!(wa, wb);
    }
}
