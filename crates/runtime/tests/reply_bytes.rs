//! Pins the exact bytes of the `? wf` and `? outcomes N` replies on one
//! small instance: its names are interned in reverse text order before
//! it is parsed, it has a nullary predicate and atoms of one to three
//! arguments, and a write adds atoms over a constant new to the process.
//! `tests/read_memo.rs` checks the same renderers against a
//! text-order oracle on random instances.
//!
//! This file is its own test binary with one test: the model order of
//! `? outcomes` follows atom ids, which follow the process's interning
//! history, so no other test may intern names while this one runs.

use std::sync::Arc;

use datalog_ast::{parse_database, parse_program, ConstSym, GroundAtom, PredSym};
use tiebreak_core::Mutation;
use tiebreak_runtime::{ReadBatch, Solver};

const PROGRAM: &str = "\
pwin(X) :- pmove(X, Y), not pwin(Y).
phop(X, Z) :- pmove(X, Y), pmove(Y, Z).
pchain(X, Y, Z) :- pmove(X, Y), pmove(Y, Z), not pwin(Z).
pon :- not poff.
poff :- not pon.
pany :- pwin(X).
";

const DATABASE: &str = "\
pmove(pb_z, pb_y). pmove(pb_y, pb_z).
pmove(pb_m, pb_b). pmove(pb_b, pb_m).
pmove(pb_b, pb_a). pmove(pb_a, pb_k).
";

fn text(bytes: &Arc<[u8]>) -> &str {
    std::str::from_utf8(bytes).expect("replies are UTF-8")
}

fn wf(solver: &Solver) -> Arc<[u8]> {
    ReadBatch::new().model(solver).unwrap().unwrap()
}

fn outcomes(solver: &Solver, pure: bool, max_runs: usize) -> Arc<[u8]> {
    ReadBatch::new()
        .outcomes(solver, pure, max_runs)
        .unwrap()
        .unwrap()
}

const WF_BEFORE: &str = r#"pany.
pchain(pb_b, pb_a, pb_k).
phop(pb_b, pb_b).
phop(pb_b, pb_k).
phop(pb_m, pb_a).
phop(pb_m, pb_m).
phop(pb_y, pb_y).
phop(pb_z, pb_z).
pmove(pb_a, pb_k).
pmove(pb_b, pb_a).
pmove(pb_b, pb_m).
pmove(pb_m, pb_b).
pmove(pb_y, pb_z).
pmove(pb_z, pb_y).
pwin(pb_a).
% partial model: 10 atoms left undefined
"#;
const OUTCOMES_4: &str = r#"% 4 distinct outcome(s) over 4 run(s) (truncated)
% outcome 1 (total): {pany, pchain(pb_b, pb_a, pb_k), pchain(pb_b, pb_m, pb_b), pchain(pb_y, pb_z, pb_y), phop(pb_b, pb_b), phop(pb_b, pb_k), phop(pb_m, pb_a), phop(pb_m, pb_m), phop(pb_y, pb_y), phop(pb_z, pb_z), pmove(pb_a, pb_k), pmove(pb_b, pb_a), pmove(pb_b, pb_m), pmove(pb_m, pb_b), pmove(pb_y, pb_z), pmove(pb_z, pb_y), poff, pwin(pb_a), pwin(pb_m), pwin(pb_z)}
% outcome 2 (total): {pany, pchain(pb_b, pb_a, pb_k), pchain(pb_b, pb_m, pb_b), pchain(pb_y, pb_z, pb_y), phop(pb_b, pb_b), phop(pb_b, pb_k), phop(pb_m, pb_a), phop(pb_m, pb_m), phop(pb_y, pb_y), phop(pb_z, pb_z), pmove(pb_a, pb_k), pmove(pb_b, pb_a), pmove(pb_b, pb_m), pmove(pb_m, pb_b), pmove(pb_y, pb_z), pmove(pb_z, pb_y), pon, pwin(pb_a), pwin(pb_m), pwin(pb_z)}
% outcome 3 (total): {pany, pchain(pb_b, pb_a, pb_k), pchain(pb_b, pb_m, pb_b), pchain(pb_z, pb_y, pb_z), phop(pb_b, pb_b), phop(pb_b, pb_k), phop(pb_m, pb_a), phop(pb_m, pb_m), phop(pb_y, pb_y), phop(pb_z, pb_z), pmove(pb_a, pb_k), pmove(pb_b, pb_a), pmove(pb_b, pb_m), pmove(pb_m, pb_b), pmove(pb_y, pb_z), pmove(pb_z, pb_y), poff, pwin(pb_a), pwin(pb_m), pwin(pb_y)}
% outcome 4 (total): {pany, pchain(pb_b, pb_a, pb_k), pchain(pb_m, pb_b, pb_m), pchain(pb_y, pb_z, pb_y), phop(pb_b, pb_b), phop(pb_b, pb_k), phop(pb_m, pb_a), phop(pb_m, pb_m), phop(pb_y, pb_y), phop(pb_z, pb_z), pmove(pb_a, pb_k), pmove(pb_b, pb_a), pmove(pb_b, pb_m), pmove(pb_m, pb_b), pmove(pb_y, pb_z), pmove(pb_z, pb_y), poff, pwin(pb_a), pwin(pb_b), pwin(pb_z)}
"#;
const OUTCOMES_PURE_2: &str = r#"% 2 distinct outcome(s) over 2 run(s) (truncated)
% outcome 1 (total): {pany, pchain(pb_b, pb_a, pb_k), pchain(pb_b, pb_m, pb_b), pchain(pb_y, pb_z, pb_y), phop(pb_b, pb_b), phop(pb_b, pb_k), phop(pb_m, pb_a), phop(pb_m, pb_m), phop(pb_y, pb_y), phop(pb_z, pb_z), pmove(pb_a, pb_k), pmove(pb_b, pb_a), pmove(pb_b, pb_m), pmove(pb_m, pb_b), pmove(pb_y, pb_z), pmove(pb_z, pb_y), poff, pwin(pb_a), pwin(pb_m), pwin(pb_z)}
% outcome 2 (total): {pany, pchain(pb_b, pb_a, pb_k), pchain(pb_b, pb_m, pb_b), pchain(pb_y, pb_z, pb_y), phop(pb_b, pb_b), phop(pb_b, pb_k), phop(pb_m, pb_a), phop(pb_m, pb_m), phop(pb_y, pb_y), phop(pb_z, pb_z), pmove(pb_a, pb_k), pmove(pb_b, pb_a), pmove(pb_b, pb_m), pmove(pb_m, pb_b), pmove(pb_y, pb_z), pmove(pb_z, pb_y), pon, pwin(pb_a), pwin(pb_m), pwin(pb_z)}
"#;
const WF_AFTER: &str = r#"phop(pb_a, pb_c).
phop(pb_b, pb_b).
phop(pb_b, pb_k).
phop(pb_c, pb_y).
phop(pb_k, pb_z).
phop(pb_m, pb_a).
phop(pb_m, pb_m).
phop(pb_y, pb_y).
phop(pb_z, pb_z).
pmove(pb_a, pb_k).
pmove(pb_b, pb_a).
pmove(pb_b, pb_m).
pmove(pb_c, pb_z).
pmove(pb_k, pb_c).
pmove(pb_m, pb_b).
pmove(pb_y, pb_z).
pmove(pb_z, pb_y).
% partial model: 19 atoms left undefined
"#;
const OUTCOMES_AFTER_3: &str = r#"% 3 distinct outcome(s) over 3 run(s) (truncated)
% outcome 1 (total): {pany, pchain(pb_b, pb_a, pb_k), pchain(pb_b, pb_m, pb_b), pchain(pb_k, pb_c, pb_z), pchain(pb_z, pb_y, pb_z), phop(pb_a, pb_c), phop(pb_b, pb_b), phop(pb_b, pb_k), phop(pb_c, pb_y), phop(pb_k, pb_z), phop(pb_m, pb_a), phop(pb_m, pb_m), phop(pb_y, pb_y), phop(pb_z, pb_z), pmove(pb_a, pb_k), pmove(pb_b, pb_a), pmove(pb_b, pb_m), pmove(pb_c, pb_z), pmove(pb_k, pb_c), pmove(pb_m, pb_b), pmove(pb_y, pb_z), pmove(pb_z, pb_y), poff, pwin(pb_a), pwin(pb_c), pwin(pb_m), pwin(pb_y)}
% outcome 2 (total): {pany, pchain(pb_b, pb_a, pb_k), pchain(pb_b, pb_m, pb_b), pchain(pb_k, pb_c, pb_z), pchain(pb_z, pb_y, pb_z), phop(pb_a, pb_c), phop(pb_b, pb_b), phop(pb_b, pb_k), phop(pb_c, pb_y), phop(pb_k, pb_z), phop(pb_m, pb_a), phop(pb_m, pb_m), phop(pb_y, pb_y), phop(pb_z, pb_z), pmove(pb_a, pb_k), pmove(pb_b, pb_a), pmove(pb_b, pb_m), pmove(pb_c, pb_z), pmove(pb_k, pb_c), pmove(pb_m, pb_b), pmove(pb_y, pb_z), pmove(pb_z, pb_y), pon, pwin(pb_a), pwin(pb_c), pwin(pb_m), pwin(pb_y)}
% outcome 3 (total): {pany, pchain(pb_a, pb_k, pb_c), pchain(pb_c, pb_z, pb_y), pchain(pb_m, pb_b, pb_a), pchain(pb_m, pb_b, pb_m), pchain(pb_y, pb_z, pb_y), phop(pb_a, pb_c), phop(pb_b, pb_b), phop(pb_b, pb_k), phop(pb_c, pb_y), phop(pb_k, pb_z), phop(pb_m, pb_a), phop(pb_m, pb_m), phop(pb_y, pb_y), phop(pb_z, pb_z), pmove(pb_a, pb_k), pmove(pb_b, pb_a), pmove(pb_b, pb_m), pmove(pb_c, pb_z), pmove(pb_k, pb_c), pmove(pb_m, pb_b), pmove(pb_y, pb_z), pmove(pb_z, pb_y), poff, pwin(pb_b), pwin(pb_k), pwin(pb_z)}
"#;

#[test]
fn replies_keep_their_exact_bytes() {
    // Interner ids run opposite to text order, predicates and constants
    // alike.
    for name in ["pb_z", "pb_y", "pb_m", "pb_k", "pb_b", "pb_a"] {
        ConstSym::new(name);
    }
    for name in ["pwin", "pon", "poff", "pmove", "phop", "pchain", "pany"] {
        PredSym::new(name);
    }
    assert!(ConstSym::new("pb_z") < ConstSym::new("pb_a"));
    assert!(PredSym::new("pwin") < PredSym::new("pany"));

    let mut solver = Solver::new(
        parse_program(PROGRAM).unwrap(),
        parse_database(DATABASE).unwrap(),
    )
    .unwrap();
    let before = wf(&solver);
    assert_eq!(text(&before), WF_BEFORE, "{}", text(&before));
    let four = outcomes(&solver, false, 4);
    assert_eq!(text(&four), OUTCOMES_4, "{}", text(&four));
    let pure = outcomes(&solver, true, 2);
    assert_eq!(text(&pure), OUTCOMES_PURE_2, "{}", text(&pure));

    // `pb_c` is new to the process and sorts between `pb_b` and `pb_k`.
    solver
        .apply(vec![
            Mutation::Insert(GroundAtom::from_texts("pmove", &["pb_k", "pb_c"])),
            Mutation::Insert(GroundAtom::from_texts("pmove", &["pb_c", "pb_z"])),
        ])
        .unwrap();
    let after = wf(&solver);
    assert_eq!(text(&after), WF_AFTER, "{}", text(&after));
    let three = outcomes(&solver, false, 3);
    assert_eq!(text(&three), OUTCOMES_AFTER_3, "{}", text(&three));
}
