//! A literature corpus: small programs with well-known semantics, pinned
//! as regression tests. Each case records the expected well-founded
//! verdict, the fixpoint and stable-model counts, and whether the
//! tie-breaking interpreter totalizes.

use tie_breaking_datalog::core::semantics::enumerate::{
    enumerate_fixpoints, enumerate_stable, EnumerateConfig,
};
use tie_breaking_datalog::core::semantics::outcomes::all_outcomes;
use tie_breaking_datalog::core::semantics::reduct::is_stable_via_reduct;
use tie_breaking_datalog::core::semantics::stable::is_stable;
use tie_breaking_datalog::core::semantics::tie_breaking::well_founded_tie_breaking;
use tie_breaking_datalog::core::semantics::well_founded::well_founded;
use tie_breaking_datalog::prelude::*;

struct Case {
    name: &'static str,
    program: &'static str,
    database: &'static str,
    wf_total: bool,
    fixpoints: usize,
    stable: usize,
    tb_totalizes: bool,
}

const CORPUS: &[Case] = &[
    Case {
        name: "barber (odd loop guarded by fact)",
        // shaves(barber, X) ← ¬shaves(X, X) over one villager = barber.
        program: "shaves(b, X) :- person(X), not shaves(X, X).",
        database: "person(b).",
        wf_total: false,
        fixpoints: 0,
        stable: 0,
        tb_totalizes: false,
    },
    Case {
        name: "barber with ordinary villager",
        program: "shaves(b, X) :- person(X), not shaves(X, X).",
        database: "person(v).",
        wf_total: true,
        fixpoints: 1,
        stable: 1,
        tb_totalizes: true,
    },
    Case {
        name: "van Gelder win-move: decided chain",
        program: "win(X) :- move(X, Y), not win(Y).",
        database: "move(a, b). move(b, c). move(c, d).",
        wf_total: true,
        fixpoints: 1,
        stable: 1,
        tb_totalizes: true,
    },
    Case {
        name: "win-move: drawn 2-cycle",
        program: "win(X) :- move(X, Y), not win(Y).",
        database: "move(a, b). move(b, a).",
        wf_total: false,
        fixpoints: 2,
        stable: 2,
        tb_totalizes: true,
    },
    Case {
        name: "win-move: 2-cycle with escape",
        // The cycle has an escape move to a lost position: a wins by
        // escaping; classic example where WF decides a cycle.
        program: "win(X) :- move(X, Y), not win(Y).",
        database: "move(a, b). move(b, a). move(a, c).",
        wf_total: true,
        fixpoints: 1,
        stable: 1,
        tb_totalizes: true,
    },
    Case {
        name: "even/odd on a chain",
        program:
            "even(X) :- zero(X).\neven(Y) :- succ(X, Y), odd(X).\nodd(Y) :- succ(X, Y), even(X).",
        database: "zero(0). succ(0, 1). succ(1, 2). succ(2, 3).",
        wf_total: true,
        fixpoints: 1,
        stable: 1,
        tb_totalizes: true,
    },
    Case {
        name: "choice pair + dependent chain",
        program: "a :- not b.\nb :- not a.\nc :- a.\nd :- b, not c.",
        database: "",
        wf_total: false,
        fixpoints: 2,
        stable: 2,
        tb_totalizes: true,
    },
    Case {
        name: "constraint-style odd loop eliminates a branch",
        // choosing b triggers the odd loop; only the a-branch survives.
        program: "a :- not b.\nb :- not a.\np :- b, not p.",
        database: "",
        wf_total: false,
        fixpoints: 1,
        stable: 1,
        tb_totalizes: false, // the interpreter may pick b and get stuck
    },
    Case {
        name: "positive loop is falsified by WF",
        program: "p :- p.\nq :- not p.",
        database: "",
        wf_total: true,
        fixpoints: 2, // {q} and {p} — p self-supported
        stable: 1,    // only {q}
        tb_totalizes: true,
    },
    Case {
        name: "three-cycle through double negation",
        // a ← ¬b, b ← ¬c, c ← ¬a: odd, no fixpoint.
        program: "a :- not b.\nb :- not c.\nc :- not a.",
        database: "",
        wf_total: false,
        fixpoints: 0,
        stable: 0,
        tb_totalizes: false,
    },
];

fn cfg() -> EnumerateConfig {
    EnumerateConfig {
        limit: 0,
        max_branch_atoms: 30,
    }
}

#[test]
fn corpus_semantics_are_pinned() {
    for case in CORPUS {
        let program = parse_program(case.program).unwrap_or_else(|e| {
            panic!("{}: parse error {e}", case.name);
        });
        let db = parse_database(case.database).unwrap();
        let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();

        let wf = well_founded(&graph, &program, &db).unwrap();
        assert_eq!(wf.total, case.wf_total, "{}: wf_total", case.name);

        let fixpoints = enumerate_fixpoints(&graph, &program, &db, &cfg()).unwrap();
        assert_eq!(fixpoints.len(), case.fixpoints, "{}: fixpoints", case.name);

        let stables = enumerate_stable(&graph, &program, &db, &cfg()).unwrap();
        assert_eq!(stables.len(), case.stable, "{}: stable", case.name);

        // The two stable checkers agree on every fixpoint.
        for m in &fixpoints {
            assert_eq!(
                is_stable(&graph, &program, &db, m),
                is_stable_via_reduct(&graph, &program, &db, m),
                "{}: stable checkers disagree",
                case.name
            );
        }

        // Tie-breaking totalization: check over ALL choice scripts.
        let outcomes = all_outcomes(&graph, &program, &db, false, 64).unwrap();
        let any_total = outcomes
            .models
            .iter()
            .any(tie_breaking_datalog::prelude::PartialModel::is_total);
        if case.tb_totalizes {
            assert!(any_total, "{}: tie-breaking should totalize", case.name);
            // And every total outcome is stable (Lemma 3).
            for m in outcomes.models.iter().filter(|m| m.is_total()) {
                assert!(is_stable(&graph, &program, &db, m), "{}", case.name);
            }
        } else if case.stable == 0 {
            assert!(!any_total, "{}: nothing to totalize into", case.name);
        }

        // Every stable model extends the WF model (VRS).
        for m in &stables {
            assert!(m.extends(&wf.model), "{}: stable extends WF", case.name);
        }
    }
}

#[test]
fn tie_breaking_respects_escape_cycles() {
    // "2-cycle with escape": the WF semantics decides everything, so the
    // tie-breaking interpreter must agree exactly (no ties remain).
    let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
    let db = parse_database("move(a, b). move(b, a). move(a, c).").unwrap();
    let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
    let wf = well_founded(&graph, &program, &db).unwrap();
    let mut policy = RootTruePolicy;
    let tb = well_founded_tie_breaking(&graph, &program, &db, &mut policy).unwrap();
    assert_eq!(wf.model, tb.model);
    assert_eq!(tb.stats.ties_broken, 0);
}
