//! Differential suite: the session runtime against the core
//! interpreters.
//!
//! For every instance of the random program sweep (the same generators
//! as `tests/eval_modes.rs`), the runtime [`Solver`], which grounds
//! relevantly, must produce:
//!
//! * **the reference well-founded model** — the decoded fact list of the
//!   paper-literal global loop on the paper-literal `Full` grounding;
//! * **the core enumerator's tie-breaking outcome *sets*** — the
//!   session's copy-on-write enumeration agrees with the paper-literal
//!   `all_outcomes` on the solver's own graph and on the `Full` graph,
//!   for both the pure and well-founded flavours;
//! * **the kernel's single runs** — a `RandomPolicy` meets the ties of
//!   one session walk in the order a fresh close-condense-walk of the
//!   solver's graph ([`walk`]) meets them, so model, totality, tie count
//!   and tie log are equal seed by seed, and each model is one of the
//!   paper-literal loop's outcomes, on the solver's graph and on the
//!   `Full` graph.
//!
//! The braided generators force the whole residual into **one**
//! weakly-connected family of components; their churn suite re-checks
//! the wf model and the outcome set after every incremental mutation
//! (`patch_cone` splices split and re-merge the braid) against a
//! from-scratch solver on the mutated database.

use std::collections::{BTreeSet, BinaryHeap};

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tie_breaking_datalog::ast::{Atom, Literal, Rule, Sign, Term};
use tie_breaking_datalog::constructions::generators;
use tie_breaking_datalog::core::engine::EvalOutcome;
use tie_breaking_datalog::core::semantics::outcomes::all_outcomes;
use tie_breaking_datalog::core::semantics::well_founded::well_founded;
use tie_breaking_datalog::core::semantics::{process_components, ComponentPass};
use tie_breaking_datalog::core::RunStats;
use tie_breaking_datalog::core::TieView;
use tie_breaking_datalog::ground::{AtomTable, Closer, GroundGraph, RuleId, UnfoundedEngine};
use tie_breaking_datalog::prelude::*;

/// Policy seeds of the single-run comparison.
const SEEDS: [u64; 4] = [0, 1, 7, 0x5eed_cafe];

/// A random propositional program over `preds` proposition names (the
/// `tests/eval_modes.rs` generator).
fn arb_program(preds: usize, max_rules: usize) -> impl Strategy<Value = Program> {
    proptest::collection::vec(
        (
            0..preds,
            proptest::collection::vec((0..preds, prop::bool::ANY), 0..3),
        ),
        1..=max_rules,
    )
    .prop_map(move |rules| {
        let name = |i: usize| format!("p{i}");
        let rules: Vec<Rule> = rules
            .into_iter()
            .map(|(head, body)| {
                Rule::new(
                    Atom::new(name(head).as_str(), std::iter::empty::<Term>()),
                    body.into_iter().map(|(p, neg)| Literal {
                        sign: if neg { Sign::Neg } else { Sign::Pos },
                        atom: Atom::new(name(p).as_str(), std::iter::empty::<Term>()),
                    }),
                )
            })
            .collect();
        Program::new(rules).expect("propositional programs are arity-consistent")
    })
}

/// `program` with `pockets` disjoint two-atom ties
/// `tie_a{i} :- not tie_b{i}. tie_b{i} :- not tie_a{i}.` appended.
fn with_propositional_pockets(program: &Program, pockets: usize) -> Program {
    let atom = |name: String| Atom::new(name.as_str(), std::iter::empty::<Term>());
    let mut rules = program.rules().to_vec();
    for i in 0..pockets {
        let (a, b) = (format!("tie_a{i}"), format!("tie_b{i}"));
        rules.push(Rule::new(atom(a.clone()), [Literal::neg(atom(b.clone()))]));
        rules.push(Rule::new(atom(b), [Literal::neg(atom(a))]));
    }
    Program::new(rules).expect("propositional programs are arity-consistent")
}

fn db_from_mask(program: &Program, mask: u32) -> Database {
    let mut db = Database::new();
    for (i, &pred) in program.predicates().iter().enumerate() {
        if mask & (1 << (i % 32)) != 0 {
            db.insert(GroundAtom::new(pred, std::iter::empty()))
                .expect("facts");
        }
    }
    db
}

fn solver_for(program: &Program, db: &Database) -> Solver {
    Solver::new(program.clone(), db.clone()).expect("session prepares")
}

/// The paper-literal `Full` grounding of `(program, db)`.
fn full_graph(program: &Program, db: &Database) -> GroundGraph {
    ground(program, db, GroundMode::Full, &GroundConfig::default()).expect("reference grounds")
}

fn decoded(outcome: &EvalOutcome) -> (Vec<String>, Vec<String>) {
    let mut t: Vec<String> = outcome
        .true_facts
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    let mut u: Vec<String> = outcome
        .undefined
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    t.sort();
    u.sort();
    (t, u)
}

/// One decoded outcome: sorted true facts and sorted undefined facts.
type Outcome = (Vec<String>, Vec<String>);

fn outcome_set_of_models(models: &[PartialModel], atoms: &AtomTable) -> BTreeSet<Outcome> {
    models.iter().map(|m| decode(m, atoms)).collect()
}

/// One model as decoded text.
fn decode(model: &PartialModel, atoms: &AtomTable) -> Outcome {
    let mut t: Vec<String> = model
        .true_atoms(atoms)
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    t.sort();
    let mut u: Vec<String> = model
        .undefined_atoms()
        .map(|id| atoms.decode(id).to_string())
        .collect();
    u.sort();
    (t, u)
}

fn outcome_set(solver: &Solver, pure: bool) -> BTreeSet<Outcome> {
    let set = solver.all_outcomes(pure, 4096).expect("enumerates");
    assert!(!set.truncated, "sweep instances are small");
    outcome_set_of_models(&set.models, solver.graph().atoms())
}

/// The full reference check for one instance.
fn assert_matches_reference(program: &Program, db: &Database) {
    // The paper-literal reference interpreter on the paper-literal graph.
    let ref_graph = full_graph(program, db);
    let reference = well_founded(&ref_graph, program, db).expect("reference runs");
    let mut ref_true: Vec<String> = reference
        .model
        .true_atoms(ref_graph.atoms())
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    ref_true.sort();

    let solver = solver_for(program, db);
    let wf = solver.well_founded().expect("wf runs");
    assert_eq!(decoded(&wf).0, ref_true, "session wf ≠ reference wf");
    assert_eq!(wf.total, reference.total);

    // Outcome sets agree with the paper-literal enumerator over the
    // solver's own graph and over the `Full` graph.
    for pure in [false, true] {
        let session = outcome_set(&solver, pure);
        for graph in [solver.graph(), &ref_graph] {
            let core = all_outcomes(graph, program, db, pure, 4096).expect("core enumerates");
            assert!(!core.truncated);
            let core_set = outcome_set_of_models(&core.models, graph.atoms());
            assert_eq!(core_set, session, "session ≠ core outcome set");
        }
    }
}

/// A fresh solver's single runs under `RandomPolicy::seeded(s)`, with
/// detailed stats, equal [`walk`]s of the solver's own graph in
/// `engine.order()`: both walk the same topological order with one
/// policy, so they meet the same ties in the same order and draw the
/// same coins. Each model is also an outcome of the paper-literal loop,
/// on the solver's graph and on the `Full` graph.
fn assert_random_walks_match_core(program: &Program, db: &Database) {
    let solver = Solver::with_config(
        program.clone(),
        db.clone(),
        EngineConfig::default().with_detailed_stats(true),
    )
    .expect("session prepares");
    let graph = solver.graph();
    let full = full_graph(program, db);
    for pure in [false, true] {
        for seed in SEEDS {
            let session = if pure {
                solver.pure_tie_breaking_run(&mut RandomPolicy::seeded(seed))
            } else {
                solver.well_founded_tie_breaking_run(&mut RandomPolicy::seeded(seed))
            }
            .expect("session runs");
            let core = walk(
                graph,
                program,
                db,
                &mut RandomPolicy::seeded(seed),
                pure,
                false,
            );
            let what = format!("seed {seed}, pure {pure}");
            assert!(session.model == core.model, "model: {what}");
            assert_eq!(session.total, core.model.is_total(), "total: {what}");
            assert_eq!(
                session.stats.ties_broken, core.stats.ties_broken,
                "ties: {what}"
            );
            assert_eq!(session.stats.tie_log, core.stats.tie_log, "tie log: {what}");
            // The paper-literal loop, steered at each tie toward the
            // session's model, reaches it: the model is in the global
            // outcome set (a full enumeration would be cut by the run
            // budget on the wide forest), on either graph.
            for walked in [graph, &full] {
                let mut toward = Toward {
                    model: &session.model,
                    atoms: graph.atoms(),
                    walked: walked.atoms(),
                };
                let global = if pure {
                    pure_tie_breaking(walked, program, db, &mut toward)
                } else {
                    well_founded_tie_breaking(walked, program, db, &mut toward)
                }
                .expect("global runs");
                assert_eq!(
                    decode(&global.model, walked.atoms()),
                    decode(&session.model, graph.atoms()),
                    "not a global outcome: {what}"
                );
            }
            // Every instance here plants at least two independent ties,
            // so the coin streams are compared on more than one draw.
            assert!(
                session.stats.ties_broken >= 2,
                "{} ties: {what}",
                session.stats.ties_broken
            );
        }
    }
}

/// Orients every tie of a graph over `walked` the way `model`, a model
/// over `atoms`, values its root side.
struct Toward<'m> {
    model: &'m PartialModel,
    atoms: &'m AtomTable,
    walked: &'m AtomTable,
}

impl TiePolicy for Toward<'_> {
    fn choose_root_side_true(&mut self, view: &TieView<'_>) -> bool {
        let root = self.walked.decode(view.root_side[0]);
        let id = self.atoms.id_of(&root).expect("residual atoms are shared");
        self.model.get(id) == TruthValue::True
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random propositional programs — arbitrary mixtures of positive
    /// loops, negation cycles, and stuck odd components — over random
    /// fact masks.
    #[test]
    fn propositional_sessions_agree(
        program in arb_program(5, 8),
        mask in any::<u32>(),
    ) {
        let db = db_from_mask(&program, mask);
        assert_matches_reference(&program, &db);
    }

    /// Random first-order call-consistent programs over random databases
    /// (every residual component is a tie).
    #[test]
    fn first_order_call_consistent_sessions_agree(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = generators::random_call_consistent(&mut rng, 4, 6, 2);
        let db = generators::random_database(&mut rng, &program, 2, 0.35, true);
        assert_matches_reference(&program, &db);
    }

    /// One `RandomPolicy` stream per run: the session walk and the core
    /// walk draw the same coins at the same ties, on propositional
    /// programs of the sweep.
    #[test]
    fn propositional_random_walks_match_core(
        program in arb_program(5, 8),
        mask in any::<u32>(),
        pockets in 2usize..=4,
    ) {
        let db = db_from_mask(&program, mask);
        let program = with_propositional_pockets(&program, pockets);
        assert_random_walks_match_core(&program, &db);
    }

    /// The same on first-order call-consistent programs, with win–move
    /// added and disjoint `move` 2-cycles in the database, so that many
    /// independent tie pockets each take a coin from the one stream.
    #[test]
    fn first_order_random_walks_match_core(seed in 0u64..5_000, pockets in 2usize..=4) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = generators::random_call_consistent(&mut rng, 4, 6, 2);
        let mut db = generators::random_database(&mut rng, &program, 2, 0.35, true);
        let mut rules = program.rules().to_vec();
        rules.extend(generators::win_move_program().rules().iter().cloned());
        let program = Program::new(rules).expect("disjoint predicates");
        for i in 0..pockets {
            let (a, b) = (format!("m{i}a"), format!("m{i}b"));
            db.insert_texts("move", &[&a, &b]);
            db.insert_texts("move", &[&b, &a]);
        }
        assert_random_walks_match_core(&program, &db);
    }
}

/// Independent tie pockets — a forest of chains, and a braid whose hub
/// joins its chains — each take the next coin of the one stream.
#[test]
fn independent_pockets_random_walks_match_core() {
    let program = generators::win_move_program();
    for db in [
        generators::wide_tie_forest_db(8, 3),
        generators::braided_tie_chain_db(3, 2),
        generators::outcome_pocket_db(4, 6),
    ] {
        assert_random_walks_match_core(&program, &db);
    }
}

/// Another topological order of `engine`'s condensation of `closer`'s
/// residual: Kahn's algorithm over the edges the alive rules make
/// between components, always taking the ready component that comes
/// *last* in `engine.order()`. Components of rule nodes alone hold no
/// atom and constrain nothing.
fn latest_first_order(closer: &Closer<'_>, engine: &UnfoundedEngine) -> Vec<u32> {
    let order = engine.order();
    let slots = order.iter().max().map_or(0, |&c| c as usize + 1);
    let mut pos = vec![0usize; slots];
    for (i, &c) in order.iter().enumerate() {
        pos[c as usize] = i;
    }
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); slots];
    let mut indegree = vec![0usize; slots];
    for (i, rule) in closer.graph().rules().enumerate() {
        if !closer.rule_alive(RuleId(i as u32)) {
            continue;
        }
        let Some(to) = engine.component_of_atom(rule.head) else {
            continue;
        };
        for &(atom, _) in rule.body {
            if let Some(from) = engine.component_of_atom(atom) {
                if from != to && !succ[from as usize].contains(&to) {
                    succ[from as usize].push(to);
                    indegree[to as usize] += 1;
                }
            }
        }
    }
    let mut ready: BinaryHeap<(usize, u32)> = order
        .iter()
        .filter(|&&c| indegree[c as usize] == 0)
        .map(|&c| (pos[c as usize], c))
        .collect();
    let mut walk = Vec::with_capacity(order.len());
    while let Some((_, c)) = ready.pop() {
        walk.push(c);
        for &d in &succ[c as usize] {
            indegree[d as usize] -= 1;
            if indegree[d as usize] == 0 {
                ready.push((pos[d as usize], d));
            }
        }
    }
    assert_eq!(walk.len(), order.len(), "the condensation is acyclic");
    walk
}

/// One walk of `graph` from scratch: close, condense, then tie-breaking
/// with `policy` (pure, or well-founded with the unfounded-set priority)
/// over the condensation in `engine.order()` or in
/// [`latest_first_order`], with detailed stats.
struct Walk {
    model: PartialModel,
    stats: RunStats,
    order: Vec<u32>,
}

fn walk(
    graph: &GroundGraph,
    program: &Program,
    db: &Database,
    policy: &mut dyn TiePolicy,
    pure: bool,
    latest_first: bool,
) -> Walk {
    let mut model = PartialModel::initial(program, db, graph.atoms());
    let mut closer = Closer::new(graph);
    closer.bootstrap(&model);
    closer.run(&mut model).expect("closes");
    let mut engine = UnfoundedEngine::build(&closer);
    let order = if latest_first {
        latest_first_order(&closer, &engine)
    } else {
        engine.order().to_vec()
    };
    let mut pass = ComponentPass {
        use_unfounded: !pure,
        detailed: true,
        policy: Some(policy),
    };
    let mut stats = RunStats::default();
    process_components(
        &mut closer,
        &mut model,
        &mut engine,
        &order,
        &mut pass,
        &mut stats,
    )
    .expect("walks");
    Walk {
        model,
        stats,
        order,
    }
}

/// The session's model equals the walks in both topological orders, and
/// the orders differ.
fn assert_schedule_invariant(solver: &Solver, model: &PartialModel) {
    let (program, db) = (solver.program(), solver.database());
    let first = walk(
        solver.graph(),
        program,
        db,
        &mut RootTruePolicy,
        false,
        false,
    );
    let last = walk(
        solver.graph(),
        program,
        db,
        &mut RootTruePolicy,
        false,
        true,
    );
    assert_ne!(
        first.order, last.order,
        "the instance has one topological order"
    );
    assert!(first.model == *model, "engine order");
    assert!(last.model == *model, "latest-first order");
}

/// The deterministic wide-forest instance: twelve independent chains.
/// A stateless policy's model cannot depend on the schedule: walking the
/// condensation in another topological order, which interleaves the
/// chains differently, gives the session's model.
#[test]
fn wide_forest_is_schedule_invariant() {
    let program = generators::win_move_program();
    let chains = 12;
    let db = generators::wide_tie_forest_db(chains, 4);
    let solver = solver_for(&program, &db);
    let forest = solver
        .well_founded_tie_breaking_run(&mut RootTruePolicy)
        .expect("runs");
    assert!(forest.total);
    // At least the source pocket of every chain needs an actual
    // tie break (downstream pockets may resolve by propagation).
    assert!(forest.stats.ties_broken >= chains);
    assert_schedule_invariant(&solver, &forest.model);
}

/// Alternation-heavy chains (ties + unfounded rounds) stay exact through
/// the session path.
#[test]
fn chained_instances_agree_with_reference() {
    let tie_chain_db: String = {
        let mut s = String::new();
        for i in 0..10 {
            s.push_str(&format!("move(a{i}, b{i}).\nmove(b{i}, a{i}).\n"));
        }
        for i in 0..9 {
            s.push_str(&format!("move(a{i}, a{}).\n", i + 1));
        }
        s
    };
    let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
    let db = parse_database(&tie_chain_db).unwrap();
    assert_matches_reference(&program, &db);
    assert_random_walks_match_core(&program, &db);
}

/// The braid: one hub weakly connects every chain.
#[test]
fn braided_tie_chain_agrees() {
    let program = generators::win_move_program();
    let db = generators::braided_tie_chain_db(4, 3);
    assert_matches_reference(&program, &db);
    assert_random_walks_match_core(&program, &db);
}

/// The policy-free hot path over real per-component work: every pocket
/// runs an unfounded cascade, and the wf model is total (all false) —
/// in either topological order, and as the order-free global loop
/// computes it.
#[test]
fn braided_unfounded_chain_is_schedule_invariant() {
    let program = generators::braided_unfounded_chain_program(3, 2, 4);
    let db = Database::new();
    let solver = solver_for(&program, &db);
    let run = solver.well_founded_run().expect("wf runs");
    assert!(run.total, "braided unfounded chain is decided");
    assert_eq!(run.model.true_atoms(solver.graph().atoms()).len(), 0);
    assert_schedule_invariant(&solver, &run.model);
    assert_matches_reference(&program, &db);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random braid shapes, fresh solvers: the full reference check.
    #[test]
    fn random_braids_agree(chains in 1usize..4, pockets in 1usize..3) {
        let program = generators::win_move_program();
        let db = generators::braided_tie_chain_db(chains, pockets);
        assert_matches_reference(&program, &db);
    }

    /// Incremental churn: flip advance and hub edges of a braid through
    /// `patch_cone` splices (the braid splits and re-merges) and re-check
    /// the wf model, its stats and the outcome set against a from-scratch
    /// solver, and the wf model against the global loop on the `Full`
    /// grounding, after every mutation.
    #[test]
    fn churned_braids_agree(
        flips in proptest::collection::vec((0usize..3, 0usize..3, prop::bool::ANY), 1..5),
    ) {
        let program = generators::win_move_program();
        let chains = 3;
        let pockets = 3;
        let db = generators::braided_tie_chain_db(chains, pockets);
        let mut solver = solver_for(&program, &db);
        let mut current = db.clone();
        for &(c, i, hub_edge) in &flips {
            // Hub edges reconnect whole chains; advance edges split a
            // chain's tail off the braid. Both constants already
            // exist, so the mutation stays on the incremental path.
            let fact = if hub_edge {
                GroundAtom::from_texts("move", &["h", &format!("t{c}a0")])
            } else {
                GroundAtom::from_texts("move", &[&format!("t{c}a{i}"), &format!("t{c}a{}", i + 1)])
            };
            let mutation = if current.remove(&fact) {
                Mutation::Retract(fact)
            } else {
                current.insert(fact.clone()).expect("binary fact");
                Mutation::Insert(fact)
            };
            solver.apply(vec![mutation]).expect("mutation applies");
            let wf = solver.well_founded().expect("wf runs");
            // Ground truth: a from-scratch solver on the mutated db.
            let fresh = solver_for(&program, &current);
            let fresh_wf = fresh.well_founded().expect("fresh wf runs");
            prop_assert_eq!(decoded(&wf), decoded(&fresh_wf));
            prop_assert_eq!(&wf.stats, &fresh_wf.stats);
            prop_assert_eq!(outcome_set(&solver, false), outcome_set(&fresh, false));
            // And the paper-literal loop on the `Full` grounding.
            let full = full_graph(&program, &current);
            let global = well_founded(&full, &program, &current).expect("global wf runs");
            prop_assert_eq!(decoded(&wf), decode(&global.model, full.atoms()));
        }
    }
}

/// The run budget cuts the breadth-first walk and nothing else: for
/// every budget `n` up to one past the full walk, `n` scripts run (or
/// all of them), the set is truncated exactly when scripts were left,
/// and its models are the full walk's first ones, in order.
fn assert_truncation_is_a_prefix(program: &Program, db: &Database) {
    let solver = solver_for(program, db);
    for pure in [false, true] {
        let full = solver.all_outcomes(pure, 4096).expect("enumerates");
        assert!(!full.truncated, "instances are small");
        for n in 0..=full.runs + 1 {
            let set = solver.all_outcomes(pure, n).expect("enumerates");
            assert_eq!(set.runs, n.min(full.runs), "runs at n={n}");
            assert_eq!(set.truncated, n < full.runs, "truncated at n={n}");
            assert!(
                full.models.starts_with(&set.models),
                "models at n={n} are not a prefix of the full walk's"
            );
        }
    }
}
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn propositional_truncation_is_a_prefix(
        program in arb_program(5, 8),
        mask in any::<u32>(),
    ) {
        assert_truncation_is_a_prefix(&program, &db_from_mask(&program, mask));
    }

    #[test]
    fn first_order_truncation_is_a_prefix(seed in 0u64..5_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = generators::random_call_consistent(&mut rng, 4, 6, 2);
        let db = generators::random_database(&mut rng, &program, 2, 0.35, true);
        assert_truncation_is_a_prefix(&program, &db);
    }

    #[test]
    fn braid_truncation_is_a_prefix(chains in 1usize..4, pockets in 1usize..3) {
        let db = generators::braided_tie_chain_db(chains, pockets);
        assert_truncation_is_a_prefix(&generators::win_move_program(), &db);
    }
}
