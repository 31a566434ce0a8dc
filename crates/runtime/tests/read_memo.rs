//! The solver's read memo: every [`ReadBatch`] read after a state change
//! must equal a fresh [`Solver`] on the same database, whichever path the
//! change took (incremental splice, no-op batch, universe-moving rebuild,
//! or a failed batch rolled back to the same epoch number).
//!
//! The memo's `? wf` and `? outcomes N` bytes, and the renderers behind
//! them ([`reply::render_model`], [`reply::render_outcomes`]) on random
//! instances and reply caps, must equal the formatter they replaced
//! (decode, sort by [`GroundAtom::text_cmp`], `Display` per fact), kept
//! here as the oracle. `tests/reply_bytes.rs` pins the exact bytes of
//! one instance.
//!
//! The memo counters are process-global, so every test serializes on one
//! mutex: a test that counts lookups sees only its own.

use std::io::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use datalog_ast::{parse_database, parse_program, Database, GroundAtom, Program};
use datalog_ground::{AtomId, AtomTable, TruthValue};
use paper_constructions::generators;
use proptest::prelude::*;
use tiebreak_core::semantics::outcomes::OutcomeSet;
use tiebreak_core::{EngineConfig, InterpreterRun, Mutation, RandomPolicy};
use tiebreak_runtime::{reply, ReadBatch, ReplyTooLarge, Solver};

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

fn atoms_of(solver: &Solver) -> Vec<GroundAtom> {
    let atoms = solver.graph().atoms();
    (0..atoms.len() as u32)
        .map(|i| atoms.decode(AtomId(i)))
        .collect()
}

/// The `? wf` formatter the memo replaced: decode the true atoms, sort
/// them by text, print each fact through `Display`, then count the
/// undefined atoms.
fn oracle_model(atoms: &AtomTable, run: &InterpreterRun) -> Vec<u8> {
    let mut facts = run.model.true_atoms(atoms);
    facts.sort_by(GroundAtom::text_cmp);
    let mut out = Vec::new();
    for fact in &facts {
        writeln!(out, "{fact}.").unwrap();
    }
    if !run.total {
        let undefined = run.model.undefined_atoms().count();
        writeln!(out, "% partial model: {undefined} atoms left undefined").unwrap();
    }
    out
}

/// [`oracle_model`] of `solver`'s well-founded run.
fn oracle_wf(solver: &Solver) -> Vec<u8> {
    oracle_model(solver.graph().atoms(), &solver.well_founded_run().unwrap())
}

/// The `? outcomes` formatter the memo replaced: per model, decode its
/// true atoms, sort them by text, print each through `Display`.
fn oracle_outcomes(set: &OutcomeSet, atoms: &AtomTable) -> Vec<u8> {
    let mut out = Vec::new();
    writeln!(
        out,
        "% {} distinct outcome(s) over {} run(s){}",
        set.models.len(),
        set.runs,
        if set.truncated { " (truncated)" } else { "" }
    )
    .unwrap();
    for (i, model) in set.models.iter().enumerate() {
        let mut facts = model.true_atoms(atoms);
        facts.sort_by(GroundAtom::text_cmp);
        let facts: Vec<String> = facts.iter().map(ToString::to_string).collect();
        writeln!(
            out,
            "% outcome {} ({}): {{{}}}",
            i + 1,
            if model.is_total() { "total" } else { "partial" },
            facts.join(", ")
        )
        .unwrap();
    }
    out
}

fn memo_wf(solver: &Solver) -> Arc<[u8]> {
    ReadBatch::new().model(solver).unwrap().unwrap()
}

fn memo_outcomes(solver: &Solver, pure: bool, max_runs: usize) -> Arc<[u8]> {
    ReadBatch::new()
        .outcomes(solver, pure, max_runs)
        .unwrap()
        .unwrap()
}

/// The run budgets the byte-identity checks read: 1, 2, 4 and the
/// default `? outcomes` budget, which enumerates every outcome of the
/// example twins (at most 8) and truncates the braid's.
const BUDGETS: [usize; 4] = [1, 2, 4, 256];

/// The memo's `? wf` bytes and its `? outcomes N` bytes for every
/// budget and both flavours equal the oracle's on the same solver.
fn assert_memo_bytes_match_oracle(solver: &Solver, what: &str) {
    assert_eq!(
        String::from_utf8_lossy(&memo_wf(solver)),
        String::from_utf8_lossy(&oracle_wf(solver)),
        "{what}: ? wf"
    );
    for pure in [false, true] {
        for max_runs in BUDGETS {
            let set = solver.all_outcomes(pure, max_runs).unwrap();
            assert_eq!(
                String::from_utf8_lossy(&memo_outcomes(solver, pure, max_runs)),
                String::from_utf8_lossy(&oracle_outcomes(&set, solver.graph().atoms())),
                "{what}: ? outcomes {max_runs}, pure={pure}"
            );
        }
    }
}

/// Fills the memo through a batch (so a stale memo would be served
/// next), without asserting anything.
fn warm(solver: &Solver) {
    let mut batch = ReadBatch::new();
    batch.model(solver).unwrap().unwrap();
    batch.run(solver).unwrap();
}

/// A batch read of `solver` equals a fresh solver on its database: the
/// `? wf` bytes, and the verdict of every atom either side knows (an
/// atom outside the ground atom space reads as false; a mutated session
/// keeps atoms a fresh grounding would not create).
fn assert_reads_match_fresh(solver: &Solver) {
    let fresh = Solver::with_config(
        solver.program().clone(),
        solver.database().clone(),
        *solver.config(),
    )
    .unwrap();
    assert_eq!(
        String::from_utf8_lossy(&memo_wf(solver)),
        String::from_utf8_lossy(&oracle_wf(&fresh)),
        "memo ? wf bytes"
    );
    let mut batch = ReadBatch::new();
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
    let mut s = solver_with(
        "move(a, b). move(b, a). move(c, d).",
        EngineConfig::default(),
    );
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
    let mut s = solver_with("move(a, b). move(b, a).", EngineConfig::default());
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
    let mut s = solver_with("move(a, b). move(b, a).", EngineConfig::default());
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
    let budget = solver_with(&grown, EngineConfig::default())
        .graph()
        .rule_count() as u64;
    let mut config = EngineConfig::default();
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
    let mut s = solver_with("move(a, b). move(b, c).", EngineConfig::default());
    let (run, model) = {
        let mut batch = ReadBatch::new();
        (batch.run(&s).unwrap(), batch.model(&s).unwrap().unwrap())
    };
    let mut later = ReadBatch::new();
    assert!(Arc::ptr_eq(&run, &later.run(&s).unwrap()), "run memoized");
    assert!(
        Arc::ptr_eq(&model, &later.model(&s).unwrap().unwrap()),
        "? wf bytes memoized"
    );
    let metrics = tiebreak_trace::metrics();
    let hits = metrics.read_memo_hits.get();
    ReadBatch::new()
        .truth(&s, &GroundAtom::from_texts("win", &["b"]))
        .unwrap();
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
    assert!(
        !Arc::ptr_eq(&model, &memo_wf(&s)),
        "the write dropped the ? wf bytes"
    );
    assert_reads_match_fresh(&s);
}

/// An `? outcomes` body up to model order: its summary line and its
/// model lines without their ordinals, sorted.
fn model_set(bytes: &[u8]) -> (String, Vec<String>) {
    let text = String::from_utf8(bytes.to_vec()).unwrap();
    let mut lines = text.lines();
    let summary = lines.next().unwrap().to_owned();
    let mut models: Vec<String> = lines
        .map(|l| l.split_once(" (").unwrap().1.to_owned())
        .collect();
    models.sort();
    (summary, models)
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
        let expected = oracle_outcomes(
            &fresh.all_outcomes(pure, 64).unwrap(),
            fresh.graph().atoms(),
        );
        let served = memo_outcomes(solver, pure, 64);
        assert_eq!(model_set(&served), model_set(&expected), "pure={pure}");
    }
}

#[test]
fn outcome_reads_share_one_set_per_key() {
    let _serial = serial();
    let s = solver_with(
        "move(a, b). move(b, a). move(c, d). move(d, c).",
        EngineConfig::default(),
    );
    let set = memo_outcomes(&s, false, 64);
    assert!(set.starts_with(b"% 4 distinct outcome(s) over 4 run(s)\n"));
    assert!(
        Arc::ptr_eq(&set, &memo_outcomes(&s, false, 64)),
        "a repeat lookup is served by the memo"
    );
    let capped = memo_outcomes(&s, false, 2);
    assert!(!Arc::ptr_eq(&set, &capped), "another budget misses");
    assert!(capped.starts_with(b"% 2 distinct outcome(s) over 2 run(s) (truncated)\n"));
    let pure = memo_outcomes(&s, true, 64);
    assert!(!Arc::ptr_eq(&set, &pure), "another flavour misses");
    assert!(
        !Arc::ptr_eq(&set, &memo_outcomes(&s, false, 64)),
        "the memo keeps one body: another key replaced the first"
    );
}

#[test]
fn outcome_reads_count_once_per_lookup() {
    let _serial = serial();
    let s = solver_with("move(a, b). move(b, a).", EngineConfig::default());
    let metrics = tiebreak_trace::metrics();
    let counts = || (metrics.read_memo_hits.get(), metrics.read_memo_misses.get());
    let (hits, misses) = counts();
    ReadBatch::new().outcomes(&s, false, 8).unwrap().unwrap();
    assert_eq!(counts(), (hits, misses + 1), "the first lookup misses");
    ReadBatch::new().outcomes(&s, false, 8).unwrap().unwrap();
    assert_eq!(counts(), (hits + 1, misses + 1), "the repeat hits");
    ReadBatch::new().outcomes(&s, true, 8).unwrap().unwrap();
    assert_eq!(counts(), (hits + 1, misses + 2), "another flavour misses");
}

#[test]
fn outcome_memo_survives_a_noop_batch() {
    let _serial = serial();
    let mut s = solver_with("move(a, b). move(b, a).", EngineConfig::default());
    let set = memo_outcomes(&s, false, 64);
    let wf = memo_wf(&s);
    let present = GroundAtom::from_texts("move", &["a", "b"]);
    let delta = s.apply(vec![Mutation::Insert(present)]).unwrap();
    assert_eq!(delta.epoch, 0, "a no-op batch keeps the epoch");
    assert!(
        Arc::ptr_eq(&set, &memo_outcomes(&s, false, 64)),
        "a no-op batch keeps the outcome bytes"
    );
    assert!(
        Arc::ptr_eq(&wf, &memo_wf(&s)),
        "a no-op batch keeps the ? wf bytes"
    );
}

#[test]
fn outcome_memo_follows_an_incremental_write() {
    let _serial = serial();
    let mut s = solver_with(
        "move(a, b). move(b, a). move(c, d).",
        EngineConfig::default(),
    );
    let before = memo_outcomes(&s, false, 64);
    let delta = s
        .insert_fact(GroundAtom::from_texts("move", &["d", "c"]))
        .unwrap();
    assert!(!delta.rebuilt, "an in-universe insert splices");
    let metrics = tiebreak_trace::metrics();
    let misses = metrics.read_memo_misses.get();
    let after = memo_outcomes(&s, false, 64);
    assert_eq!(
        metrics.read_memo_misses.get(),
        misses + 1,
        "the write dropped the body"
    );
    assert!(before.starts_with(b"% 2 distinct"));
    assert!(after.starts_with(b"% 4 distinct"));
    assert_outcomes_match_fresh(&s);
}

#[test]
fn outcome_memo_follows_a_failed_batch_rolled_back_to_the_same_epoch() {
    let _serial = serial();
    // As in `reads_follow_a_failed_batch_rolled_back_to_the_same_epoch`:
    // the rollback restores epoch 1 over a renumbered graph.
    let db = "move(a, b). move(b, a). move(c, d). move(d, c).";
    let grown = format!("{db} move(b, c).");
    let budget = solver_with(&grown, EngineConfig::default())
        .graph()
        .rule_count() as u64;
    let mut config = EngineConfig::default();
    config.ground.max_rule_instances = budget;
    let mut s = solver_with(db, config);
    s.insert_fact(GroundAtom::from_texts("move", &["b", "c"]))
        .unwrap();
    let before = memo_outcomes(&s, false, 64);

    let err = s.insert_fact(GroundAtom::from_texts("move", &["memo_zz", "a"]));
    assert!(err.is_err(), "the grown universe busts the rule budget");
    assert_eq!(s.epoch(), 1, "the rollback restores the epoch number");
    let after = memo_outcomes(&s, false, 64);
    assert!(
        !Arc::ptr_eq(&before, &after),
        "the rollback dropped the body"
    );
    assert_outcomes_match_fresh(&s);
}

fn twin(program: &str, database: &str) -> Solver {
    Solver::with_config(
        parse_program(program).unwrap(),
        parse_database(database).unwrap(),
        EngineConfig::default(),
    )
    .unwrap()
}

#[test]
fn memo_bytes_match_the_oracle_on_the_example_twins_and_a_braid() {
    let _serial = serial();
    macro_rules! example {
        ($name:literal) => {
            (
                $name,
                include_str!(concat!("../../../examples/dl/", $name, ".dl")),
                include_str!(concat!("../../../examples/dl/", $name, "_db.dl")),
            )
        };
    }
    for (name, program, database) in [
        example!("quickstart"),
        example!("win_move"),
        example!("circuit_totality"),
        example!("two_counter"),
        example!("default_reasoning"),
        example!("nondeterministic_choice"),
    ] {
        assert_memo_bytes_match_oracle(&twin(program, database), name);
    }
    let braid = Solver::with_config(
        generators::win_move_program(),
        generators::braided_tie_chain_db(2, 16),
        EngineConfig::default(),
    )
    .unwrap();
    assert_memo_bytes_match_oracle(&braid, "braided_tie_chain_db(2, 16)");
}

#[test]
fn memo_bytes_match_the_oracle_after_batches_that_append_atoms() {
    let _serial = serial();
    let mut s = Solver::with_config(
        generators::win_move_program(),
        generators::braided_tie_chain_db(2, 4),
        EngineConfig::default(),
    )
    .unwrap();
    assert_memo_bytes_match_oracle(&s, "before the writes");
    let edge = |from: &str, to: &str| GroundAtom::from_texts("move", &[from, to]);
    for batch in [
        vec![Mutation::Insert(edge("t0b1", "t1a2"))],
        vec![
            Mutation::Insert(edge("t1b3", "t0b0")),
            Mutation::Retract(edge("t0a0", "t0b0")),
        ],
    ] {
        let delta = s.apply(batch).unwrap();
        assert!(!delta.rebuilt, "in-universe writes splice");
        assert!(delta.new_atoms > 0, "the batch appends atoms");
        assert_memo_bytes_match_oracle(&s, &format!("epoch {}", s.epoch()));
        assert_reads_match_fresh(&s);
        assert_outcomes_match_fresh(&s);
    }
}

#[test]
fn memo_bytes_match_the_oracle_with_constants_interned_against_text_order() {
    let _serial = serial();
    let names = ["rbo_z", "rbo_y", "rbo_m", "rbo_b", "rbo_a"];
    for name in names {
        datalog_ast::ConstSym::new(name);
    }
    assert!(
        datalog_ast::ConstSym::new("rbo_z") < datalog_ast::ConstSym::new("rbo_a"),
        "interner ids run opposite to text order"
    );
    let s = twin(
        WIN,
        "move(rbo_z, rbo_y). move(rbo_y, rbo_z). move(rbo_m, rbo_b). move(rbo_b, rbo_a). \
         move(rbo_a, rbo_b). move(rbo_z, rbo_a).",
    );
    assert_memo_bytes_match_oracle(&s, "interned against text order");
}

#[test]
fn an_over_cap_reply_keeps_only_the_verdict() {
    let _serial = serial();
    let program: Program = generators::win_move_program();
    let database: Database = generators::braided_tie_chain_db(2, 16);
    let mut s = Solver::with_config(program, database, EngineConfig::default()).unwrap();
    let wf = memo_wf(&s);
    let outcomes = memo_outcomes(&s, false, 4);

    let cap = 100;
    s.set_reply_cap(Some(cap));
    let verdict = ReadBatch::new().model(&s).unwrap().unwrap_err();
    assert_eq!(verdict.cap, cap);
    let line = wf.split(|&b| b == b'\n').map(<[u8]>::len).max().unwrap() + 1;
    assert!(
        verdict.bytes > cap && verdict.bytes <= cap + line,
        "rendering stops at the first line past the cap: {verdict:?}"
    );
    let ReplyTooLarge { bytes, .. } = ReadBatch::new()
        .outcomes(&s, false, 4)
        .unwrap()
        .unwrap_err();
    assert!(bytes > cap && bytes < outcomes.len(), "{bytes}");
    assert_eq!(
        ReadBatch::new().model(&s).unwrap(),
        Err(verdict),
        "the memo keeps the verdict"
    );

    s.set_reply_cap(Some(wf.len()));
    assert_eq!(memo_wf(&s), wf, "a reply at the cap fits");
    s.set_reply_cap(None);
    assert_eq!(memo_outcomes(&s, false, 4), outcomes);
}

#[test]
fn an_over_cap_enumeration_stops_before_running_every_script() {
    let _serial = serial();
    let mut s = Solver::with_config(
        generators::win_move_program(),
        generators::braided_tie_chain_db(8, 64),
        EngineConfig::default(),
    )
    .unwrap();
    let cap = 2048;
    s.set_reply_cap(Some(cap));
    let scripts = || tiebreak_trace::metrics().outcome_scripts.get();
    let before = scripts();
    let verdict = ReadBatch::new()
        .outcomes(&s, false, 64)
        .unwrap()
        .unwrap_err();
    let ran = scripts() - before;
    assert!(ran <= 2, "{ran} scripts ran for an over-cap reply");
    assert_eq!(verdict.cap, cap);

    // The verdict's size is a lower bound on the whole reply.
    s.set_reply_cap(None);
    let full = memo_outcomes(&s, false, 64);
    assert!(
        verdict.bytes > cap && verdict.bytes <= full.len(),
        "{verdict:?} for a {}-byte reply",
        full.len()
    );
}

/// Win–move with two- and three-argument consequences, a nullary tie
/// and a nullary consequence.
const RENDER_PROGRAM: &str = "\
pwin(X) :- pmove(X, Y), not pwin(Y).
phop(X, Z) :- pmove(X, Y), pmove(Y, Z).
pchain(X, Y, Z) :- pmove(X, Y), pmove(Y, Z), not pwin(Z).
pon :- not poff.
poff :- not pon.
pany :- pwin(X).
";

/// A name built from `seed`'s base-3 digits over `a`, `b`, `ab`, so
/// names share prefixes and one is often a prefix of another.
fn name(prefix: &str, seed: u32) -> String {
    let mut s = prefix.to_string();
    let mut n = seed;
    loop {
        s.push_str(["a", "b", "ab"][(n % 3) as usize]);
        n /= 3;
        if n == 0 {
            break s;
        }
    }
}

/// `rendered` is `oracle` when it fits `cap`, and otherwise a verdict
/// that the reply outgrew it.
fn assert_capped(rendered: &reply::Reply, oracle: &[u8], cap: Option<usize>) {
    match rendered {
        Ok(bytes) => {
            assert_eq!(
                String::from_utf8_lossy(bytes),
                String::from_utf8_lossy(oracle)
            );
            assert!(cap.is_none_or(|cap| oracle.len() <= cap));
        }
        Err(too_large) => {
            let cap = cap.expect("no cap, no verdict");
            assert_eq!(too_large.cap, cap);
            assert!(oracle.len() > cap && too_large.bytes > cap);
            assert!(too_large.bytes <= oracle.len(), "{too_large:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn renderers_match_the_text_order_oracle(
        names in proptest::collection::vec(0u32..60, 2..7),
        edges in proptest::collection::vec((0usize..7, 0usize..7), 1..12),
        flags in proptest::collection::vec(0u32..40, 0..3),
        seed in 0u64..1_000,
        cap in 0usize..600,
    ) {
        // 0 stands for no cap.
        let cap = (cap > 0).then_some(cap);
        // Each case interns its names in its own order, so the interner
        // ids follow no fixed relation to text order.
        let consts: Vec<String> = names.iter().map(|&n| name("rnd_", n)).collect();
        let mut db = String::new();
        for &(from, to) in &edges {
            let (from, to) = (&consts[from % consts.len()], &consts[to % consts.len()]);
            db.push_str(&format!("pmove({from}, {to}).\n"));
        }
        for &flag in &flags {
            db.push_str(&format!("{}.\n", name("flag_", flag)));
        }
        let mut program = RENDER_PROGRAM.to_string();
        for &flag in &flags {
            let flag = name("flag_", flag);
            program.push_str(&format!("{flag}_seen :- {flag}, not pon.\n"));
        }
        let _serial = serial();
        let solver = Solver::with_config(
            parse_program(&program).unwrap(),
            parse_database(&db).unwrap(),
            EngineConfig::default(),
        )
        .unwrap();
        let atoms = solver.graph().atoms();

        let mut runs = vec![solver.well_founded_run().unwrap()];
        runs.push(solver.well_founded_tie_breaking_run(&mut RandomPolicy::seeded(seed)).unwrap());
        runs.push(solver.pure_tie_breaking_run(&mut RandomPolicy::seeded(seed)).unwrap());
        for run in &runs {
            let oracle = oracle_model(atoms, run);
            assert_capped(&reply::render_model(atoms, run, None), &oracle, None);
            assert_capped(&reply::render_model(atoms, run, cap), &oracle, cap);
        }
        let mut oracles = Vec::new();
        for (pure, max_runs) in [(false, 3), (true, 8), (false, 64)] {
            let set = solver.all_outcomes(pure, max_runs).unwrap();
            let oracle = oracle_outcomes(&set, atoms);
            assert_capped(&reply::render_outcomes(atoms, &set, None), &oracle, None);
            assert_capped(&reply::render_outcomes(atoms, &set, cap), &oracle, cap);
            oracles.push((pure, max_runs, oracle));
        }

        // The memo under the same cap: an enumeration it stops early
        // reports a bound that never exceeds the whole reply.
        let mut solver = solver;
        solver.set_reply_cap(cap);
        for (pure, max_runs, oracle) in oracles {
            let served = ReadBatch::new().outcomes(&solver, pure, max_runs).unwrap();
            assert_capped(&served, &oracle, cap);
        }
    }
}
