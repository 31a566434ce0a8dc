//! The solver's read memo: every [`ReadBatch`] read after a state change
//! must equal a fresh [`Solver`] on the same database, whichever path the
//! change took (incremental splice, no-op batch, universe-moving rebuild,
//! or a failed batch rolled back to the same epoch number).
//!
//! The memo counters are process-global, so every test serializes on one
//! mutex: a test that counts lookups sees only its own.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use datalog_ast::{parse_database, parse_program, GroundAtom};
use datalog_ground::{AtomId, TruthValue};
use tiebreak_core::semantics::outcomes::DecodedOutcomes;
use tiebreak_core::{EngineConfig, GroundMode, Mutation};
use tiebreak_runtime::{ReadBatch, Solver};

const WIN: &str = "win(X) :- move(X, Y), not win(Y).";

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn solver_with(db: &str, config: EngineConfig) -> Solver {
    Solver::with_config(
        parse_program(WIN).unwrap(),
        parse_database(db).unwrap(),
        config,
    )
    .unwrap()
}

fn relevant() -> EngineConfig {
    EngineConfig::default().with_ground_mode(GroundMode::Relevant)
}

fn atoms_of(solver: &Solver) -> Vec<GroundAtom> {
    let atoms = solver.graph().atoms();
    (0..atoms.len() as u32)
        .map(|i| atoms.decode(AtomId(i)))
        .collect()
}

/// Fills the memo through a batch (so a stale memo would be served
/// next), without asserting anything.
fn warm(solver: &Solver) {
    let mut batch = ReadBatch::new();
    batch.model(solver).unwrap();
    batch.run(solver).unwrap();
}

/// A batch read of `solver` equals a fresh solver on its database: the
/// decoded model, and the verdict of every atom either side knows (an
/// atom outside the ground atom space reads as false; a mutated session
/// keeps atoms a fresh grounding would not create).
fn assert_reads_match_fresh(solver: &Solver) {
    let fresh = Solver::with_config(
        solver.program().clone(),
        solver.database().clone(),
        *solver.config(),
    )
    .unwrap();
    let expected = fresh.well_founded().unwrap();
    let mut batch = ReadBatch::new();
    let model = batch.model(solver).unwrap();
    assert_eq!(model.true_facts, expected.true_facts, "memo true facts");
    assert_eq!(model.undefined, expected.undefined, "memo undefined facts");
    assert_eq!(model.total, expected.total, "memo totality");
    let mut fresh_batch = ReadBatch::new();
    let false_outside = |v: Option<TruthValue>| v.unwrap_or(TruthValue::False);
    for fact in atoms_of(&fresh).iter().chain(&atoms_of(solver)) {
        assert_eq!(
            false_outside(batch.truth(solver, fact).unwrap()),
            false_outside(fresh_batch.truth(&fresh, fact).unwrap()),
            "verdict of {fact}"
        );
    }
}

#[test]
fn reads_follow_an_incremental_apply() {
    let _serial = serial();
    let mut s = solver_with("move(a, b). move(b, a). move(c, d).", relevant());
    warm(&s);
    let delta = s
        .apply(vec![Mutation::Retract(GroundAtom::from_texts(
            "move",
            &["b", "a"],
        ))])
        .unwrap();
    assert!(!delta.rebuilt, "an in-universe retract splices");
    assert_reads_match_fresh(&s);
}

#[test]
fn reads_follow_a_noop_batch() {
    let _serial = serial();
    let mut s = solver_with("move(a, b). move(b, a).", relevant());
    warm(&s);
    let run = ReadBatch::new().run(&s).unwrap();
    let present = GroundAtom::from_texts("move", &["a", "b"]);
    let delta = s.apply(vec![Mutation::Insert(present)]).unwrap();
    assert_eq!(delta.epoch, 0, "a no-op batch keeps the epoch");
    assert!(
        Arc::ptr_eq(&run, &ReadBatch::new().run(&s).unwrap()),
        "a no-op batch keeps the memo"
    );
    assert_reads_match_fresh(&s);
}

#[test]
fn reads_follow_a_universe_moving_rebuild() {
    let _serial = serial();
    let mut s = solver_with("move(a, b). move(b, a).", relevant());
    warm(&s);
    let delta = s
        .insert_fact(GroundAtom::from_texts("move", &["b", "memo_new"]))
        .unwrap();
    assert!(delta.rebuilt, "a new constant re-prepares");
    assert_reads_match_fresh(&s);
}

#[test]
fn reads_follow_a_failed_batch_rolled_back_to_the_same_epoch() {
    let _serial = serial();
    // Epoch 1 appends `move(b, c)` by delta grounding; a fresh prepare of
    // that database numbers its atoms differently. The failed batch then
    // re-prepares epoch 1's database and restores the epoch number 1
    // over the renumbered graph: a memo keyed by epoch would answer from
    // the old numbering.
    let db = "move(a, b). move(b, a). move(c, d). move(d, c).";
    let grown = format!("{db} move(b, c).");
    let budget = solver_with(&grown, relevant()).graph().rule_count() as u64;
    let mut config = relevant();
    config.ground.max_rule_instances = budget;
    let mut s = solver_with(db, config);
    let delta = s
        .insert_fact(GroundAtom::from_texts("move", &["b", "c"]))
        .unwrap();
    assert!(!delta.rebuilt, "epoch 1 is an incremental splice");
    assert_eq!(s.epoch(), 1);
    warm(&s);
    let before = atoms_of(&s);

    let err = s.insert_fact(GroundAtom::from_texts("move", &["memo_zz", "a"]));
    assert!(err.is_err(), "the grown universe busts the rule budget");
    assert_eq!(s.epoch(), 1, "the rollback restores the epoch number");
    assert_ne!(atoms_of(&s), before, "the re-prepare renumbered the atoms");
    assert_reads_match_fresh(&s);
}

#[test]
fn reads_share_one_run_and_one_model_per_state() {
    let _serial = serial();
    let mut s = solver_with("move(a, b). move(b, c).", relevant());
    let (run, model) = {
        let mut batch = ReadBatch::new();
        (batch.run(&s).unwrap(), batch.model(&s).unwrap())
    };
    let mut later = ReadBatch::new();
    assert!(Arc::ptr_eq(&run, &later.run(&s).unwrap()), "run memoized");
    assert!(
        Arc::ptr_eq(&model, &later.model(&s).unwrap()),
        "model memoized"
    );
    let metrics = tiebreak_trace::metrics();
    let hits = metrics.read_memo_hits.get();
    ReadBatch::new().truth(&s, &model.true_facts[0]).unwrap();
    assert!(
        metrics.read_memo_hits.get() > hits,
        "a memo read counts a hit"
    );

    let advances = metrics.wf_advances.get();
    let delta = s
        .insert_fact(GroundAtom::from_texts("move", &["c", "a"]))
        .unwrap();
    assert!(!delta.rebuilt, "an in-universe insert splices");
    assert!(
        metrics.wf_advances.get() > advances,
        "the write advances the served state"
    );
    assert_eq!(delta.components_reevaluated, delta.components_added);
    let hits = metrics.read_memo_hits.get();
    let after = ReadBatch::new().run(&s).unwrap();
    assert!(!Arc::ptr_eq(&run, &after), "a held run is not mutated");
    assert!(
        metrics.read_memo_hits.get() > hits,
        "the read after a write is served by the advanced state"
    );
    assert_reads_match_fresh(&s);
}

/// The decoded outcomes of a batch read, as text: runs, truncation, and
/// the models as a sorted list of (total, facts).
type RenderedOutcomes = (usize, bool, Vec<(bool, Vec<String>)>);

fn rendered(set: &DecodedOutcomes) -> RenderedOutcomes {
    let mut models: Vec<(bool, Vec<String>)> = set
        .models
        .iter()
        .map(|m| {
            let facts = m
                .facts
                .iter()
                .map(|&f| set.facts[f as usize].to_string())
                .collect();
            (m.total, facts)
        })
        .collect();
    models.sort();
    (set.runs, set.truncated, models)
}

/// A batch outcome read of `solver` equals a fresh solver's enumeration
/// on its database, for both flavours.
fn assert_outcomes_match_fresh(solver: &Solver) {
    let fresh = Solver::with_config(
        solver.program().clone(),
        solver.database().clone(),
        *solver.config(),
    )
    .unwrap();
    for pure in [false, true] {
        let expected = fresh
            .all_outcomes(pure, 64)
            .unwrap()
            .decode(fresh.graph().atoms());
        let served = ReadBatch::new().outcomes(solver, pure, 64).unwrap();
        assert_eq!(rendered(&served), rendered(&expected), "pure={pure}");
    }
}

#[test]
fn outcome_reads_share_one_set_per_key() {
    let _serial = serial();
    let s = solver_with(
        "move(a, b). move(b, a). move(c, d). move(d, c).",
        relevant(),
    );
    let mut batch = ReadBatch::new();
    let set = batch.outcomes(&s, false, 64).unwrap();
    assert_eq!(set.models.len(), 4);
    assert!(
        Arc::ptr_eq(&set, &ReadBatch::new().outcomes(&s, false, 64).unwrap()),
        "a repeat lookup is served by the memo"
    );
    let capped = batch.outcomes(&s, false, 2).unwrap();
    assert!(!Arc::ptr_eq(&set, &capped), "another budget misses");
    assert!(capped.truncated && capped.runs == 2);
    let pure = batch.outcomes(&s, true, 64).unwrap();
    assert!(!Arc::ptr_eq(&set, &pure), "another flavour misses");
    assert!(
        !Arc::ptr_eq(&set, &batch.outcomes(&s, false, 64).unwrap()),
        "the memo keeps one set: another key replaced the first"
    );
}

#[test]
fn outcome_reads_count_once_per_lookup() {
    let _serial = serial();
    let s = solver_with("move(a, b). move(b, a).", relevant());
    let metrics = tiebreak_trace::metrics();
    let counts = || (metrics.read_memo_hits.get(), metrics.read_memo_misses.get());
    let (hits, misses) = counts();
    ReadBatch::new().outcomes(&s, false, 8).unwrap();
    assert_eq!(counts(), (hits, misses + 1), "the first lookup misses");
    ReadBatch::new().outcomes(&s, false, 8).unwrap();
    assert_eq!(counts(), (hits + 1, misses + 1), "the repeat hits");
    ReadBatch::new().outcomes(&s, true, 8).unwrap();
    assert_eq!(counts(), (hits + 1, misses + 2), "another flavour misses");
}

#[test]
fn outcome_memo_survives_a_noop_batch() {
    let _serial = serial();
    let mut s = solver_with("move(a, b). move(b, a).", relevant());
    let set = ReadBatch::new().outcomes(&s, false, 64).unwrap();
    let present = GroundAtom::from_texts("move", &["a", "b"]);
    let delta = s.apply(vec![Mutation::Insert(present)]).unwrap();
    assert_eq!(delta.epoch, 0, "a no-op batch keeps the epoch");
    assert!(
        Arc::ptr_eq(&set, &ReadBatch::new().outcomes(&s, false, 64).unwrap()),
        "a no-op batch keeps the outcome sets"
    );
}

#[test]
fn outcome_memo_follows_an_incremental_write() {
    let _serial = serial();
    let mut s = solver_with("move(a, b). move(b, a). move(c, d).", relevant());
    let before = ReadBatch::new().outcomes(&s, false, 64).unwrap();
    let delta = s
        .insert_fact(GroundAtom::from_texts("move", &["d", "c"]))
        .unwrap();
    assert!(!delta.rebuilt, "an in-universe insert splices");
    let metrics = tiebreak_trace::metrics();
    let misses = metrics.read_memo_misses.get();
    let after = ReadBatch::new().outcomes(&s, false, 64).unwrap();
    assert_eq!(
        metrics.read_memo_misses.get(),
        misses + 1,
        "the write dropped the set"
    );
    assert_eq!((before.models.len(), after.models.len()), (2, 4));
    assert_outcomes_match_fresh(&s);
}

#[test]
fn outcome_memo_follows_a_failed_batch_rolled_back_to_the_same_epoch() {
    let _serial = serial();
    // As in `reads_follow_a_failed_batch_rolled_back_to_the_same_epoch`:
    // the rollback restores epoch 1 over a renumbered graph.
    let db = "move(a, b). move(b, a). move(c, d). move(d, c).";
    let grown = format!("{db} move(b, c).");
    let budget = solver_with(&grown, relevant()).graph().rule_count() as u64;
    let mut config = relevant();
    config.ground.max_rule_instances = budget;
    let mut s = solver_with(db, config);
    s.insert_fact(GroundAtom::from_texts("move", &["b", "c"]))
        .unwrap();
    let before = ReadBatch::new().outcomes(&s, false, 64).unwrap();

    let err = s.insert_fact(GroundAtom::from_texts("move", &["memo_zz", "a"]));
    assert!(err.is_err(), "the grown universe busts the rule budget");
    assert_eq!(s.epoch(), 1, "the rollback restores the epoch number");
    let after = ReadBatch::new().outcomes(&s, false, 64).unwrap();
    assert!(
        !Arc::ptr_eq(&before, &after),
        "the rollback dropped the set"
    );
    assert_outcomes_match_fresh(&s);
}
