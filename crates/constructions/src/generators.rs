//! Reproducible workload generators for tests, examples, and benchmarks.

use datalog_ast::{
    Atom, Database, GroundAtom, Literal, PredSym, Program, ProgramBuilder, Rule, Sign, Skeleton,
    Term,
};
use rand::Rng;

/// The win–move game program `win(X) ← move(X, Y), ¬win(Y)` — the
/// motivating example of the well-founded semantics literature.
pub fn win_move_program() -> Program {
    ProgramBuilder::new()
        .rule("win", &["X"], |b| {
            b.pos("move", &["X", "Y"]).neg("win", &["Y"]);
        })
        .build()
        .expect("valid")
}

/// A random `move` relation over `nodes` constants with `edges` random
/// edges (duplicates collapse).
pub fn random_move_db<R: Rng>(rng: &mut R, nodes: usize, edges: usize) -> Database {
    let mut db = Database::new();
    let name = |i: usize| format!("n{i}");
    for _ in 0..edges {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        db.insert(GroundAtom::from_texts("move", &[&name(a), &name(b)]))
            .expect("binary facts");
    }
    db
}

/// An acyclic `move` relation (edges only from lower to higher ids): the
/// win–move game is then fully decided by the well-founded semantics.
pub fn dag_move_db<R: Rng>(rng: &mut R, nodes: usize, edges: usize) -> Database {
    let mut db = Database::new();
    let name = |i: usize| format!("n{i}");
    for _ in 0..edges {
        let a = rng.gen_range(0..nodes.saturating_sub(1));
        let b = rng.gen_range(a + 1..nodes);
        db.insert(GroundAtom::from_texts("move", &[&name(a), &name(b)]))
            .expect("binary facts");
    }
    db
}

/// The propositional negation cycle C(n, k): rules
/// `p_i ← [¬] p_{(i+1) mod n}` where the first `k` dependencies are
/// negative. Structurally total iff `k` is even (Theorem 2's family).
pub fn negation_cycle(n: usize, k: usize) -> Program {
    assert!(n > 0 && k <= n);
    let mut b = ProgramBuilder::new();
    for i in 0..n {
        let head = format!("p{i}");
        let dep = format!("p{}", (i + 1) % n);
        let negative = i < k;
        b = b.rule(&head, &[], move |body| {
            if negative {
                body.neg(&dep, &[]);
            } else {
                body.pos(&dep, &[]);
            }
        });
    }
    b.build().expect("valid")
}

/// `pairs` independent 2-cycles `aᵢ ← ¬bᵢ ; bᵢ ← ¬aᵢ`: a program with
/// exactly `2^pairs` fixpoints, all reachable by tie-breaking. Stress
/// workload for the tie-breaking interpreters.
pub fn independent_ties(pairs: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for i in 0..pairs {
        let (a, bb) = (format!("a{i}"), format!("b{i}"));
        b = b
            .rule(&a, &[], |body| {
                body.neg(&bb, &[]);
            })
            .rule(&bb, &[], |body| {
                body.neg(&a, &[]);
            });
    }
    b.build().expect("valid")
}

/// A `move` relation forming a **chain of `n` draw pockets** for the
/// win–move game: positions `a_i` and `b_i` move to each other (an even
/// cycle the well-founded semantics leaves drawn) and `a_i` can also
/// advance to `a_{i+1}`. The residual graph is a chain of `n` tie
/// components, each resolvable only after its successor — the canonical
/// alternation-heavy workload: the global tie-breaking loop re-scans the
/// whole graph per tie (Θ(n²) end-to-end) while the SCC-stratified mode
/// walks the condensation once (Θ(n)).
pub fn tie_chain_move_db(n: usize) -> Database {
    let mut db = Database::new();
    let mut insert = |from: &str, to: &str| {
        db.insert(GroundAtom::from_texts("move", &[from, to]))
            .expect("binary facts");
    };
    for i in 0..n {
        insert(&format!("a{i}"), &format!("b{i}"));
        insert(&format!("b{i}"), &format!("a{i}"));
        if i + 1 < n {
            insert(&format!("a{i}"), &format!("a{}", i + 1));
        }
    }
    db
}

/// A **wide tie forest** for the win–move game: `chains` independent
/// copies of [`tie_chain_move_db`]-style pocket chains, `pockets` draw
/// pockets each, with no moves between copies. The residual condensation
/// is a forest of `chains` weakly-connected branches — the canonical
/// *wide* workload for the parallel session runtime: branches are
/// causally independent, so the scheduler's speedup is bounded only by
/// `min(threads, chains)`.
pub fn wide_tie_forest_db(chains: usize, pockets: usize) -> Database {
    let mut db = Database::new();
    let mut insert = |from: &str, to: &str| {
        db.insert(GroundAtom::from_texts("move", &[from, to]))
            .expect("binary facts");
    };
    for c in 0..chains {
        for i in 0..pockets {
            insert(&format!("t{c}a{i}"), &format!("t{c}b{i}"));
            insert(&format!("t{c}b{i}"), &format!("t{c}a{i}"));
            if i + 1 < pockets {
                insert(&format!("t{c}a{i}"), &format!("t{c}a{}", i + 1));
            }
        }
    }
    db
}

/// A **braided tie chain** for the win–move game: `chains` parallel
/// pocket chains of `pockets` draw pockets each, plus one hub position
/// `h` that can advance into every chain's first pocket. The hub moves
/// weakly connect everything, so the residual condensation is a *single*
/// branch — the shape branch-level scheduling cannot split — while the
/// pockets at equal chain offset share no path and form waves of width
/// `chains` ([`datalog_ground::UnfoundedEngine::widest_wave`]).
pub fn braided_tie_chain_db(chains: usize, pockets: usize) -> Database {
    let mut db = Database::new();
    let mut insert = |from: &str, to: &str| {
        db.insert(GroundAtom::from_texts("move", &[from, to]))
            .expect("binary facts");
    };
    for c in 0..chains {
        for i in 0..pockets {
            insert(&format!("t{c}a{i}"), &format!("t{c}b{i}"));
            insert(&format!("t{c}b{i}"), &format!("t{c}a{i}"));
            if i + 1 < pockets {
                insert(&format!("t{c}a{i}"), &format!("t{c}a{}", i + 1));
            }
        }
        insert("h", &format!("t{c}a0"));
    }
    db
}

/// A **braided unfounded chain**: `chains` parallel chains of `pockets`
/// positive loops of `loop_size` atoms each (`p_i ← p_{i+1 mod m}`), a
/// link rule handing each pocket support from its predecessor pocket,
/// and a guarded hub atom supported by every chain's last pocket. Like
/// [`braided_tie_chain_db`] the hub makes the residual one
/// weakly-connected branch with waves of width `chains`, but here every
/// component does real well-founded work — a `loop_size`-long unfounded
/// cascade plus the `close` that retires it — so the instance measures
/// the policy-free hot path rather than tie bookkeeping. The well-founded model is total (everything false).
pub fn braided_unfounded_chain_program(chains: usize, pockets: usize, loop_size: usize) -> Program {
    assert!(loop_size >= 2, "a link rule needs a second loop atom");
    let mut b = ProgramBuilder::new();
    let name = |c: usize, j: usize, i: usize| format!("u{c}p{j}n{i}");
    for c in 0..chains {
        for j in 0..pockets {
            for i in 0..loop_size {
                let head = name(c, j, i);
                let next = name(c, j, (i + 1) % loop_size);
                b = b.rule(&head, &[], |body| {
                    body.pos(&next, &[]);
                });
            }
            if j > 0 {
                // In-pocket second literal pulls the link rule into the
                // pocket's SCC, keeping one component per pocket.
                let head = name(c, j, 0);
                let prev = name(c, j - 1, 0);
                let sibling = name(c, j, 1);
                b = b.rule(&head, &[], |body| {
                    body.pos(&prev, &[]).pos(&sibling, &[]);
                });
            }
        }
        let last = name(c, pockets - 1, 0);
        b = b.rule("hub", &[], |body| {
            body.pos(&last, &[]).pos("hub", &[]);
        });
    }
    b.build().expect("valid")
}

/// An **outcome-enumeration workload** for the win–move game: a decided
/// move chain of `decided` edges (the well-founded core resolves it in
/// the first `close`) plus `pockets` independent draw pockets. With `k`
/// pockets the tie-breaking choice tree has `2^k` scripts; the per-script
/// cost of re-running `close` is Θ(`decided`), while a copy-on-write fork
/// off the shared post-close state pays only the (constant-size) pocket
/// work plus a state `memcpy` — the instance behind the session runtime's
/// enumeration speedup gate.
pub fn outcome_pocket_db(decided: usize, pockets: usize) -> Database {
    let mut db = Database::new();
    let mut insert = |from: &str, to: &str| {
        db.insert(GroundAtom::from_texts("move", &[from, to]))
            .expect("binary facts");
    };
    for i in 0..decided {
        insert(&format!("d{i}"), &format!("d{}", i + 1));
    }
    for p in 0..pockets {
        insert(&format!("pa{p}"), &format!("pb{p}"));
        insert(&format!("pb{p}"), &format!("pa{p}"));
    }
    db
}

/// The **unfounded chain** U(n): `a_i ← a_i` (guard loops),
/// `a_i ← b_{i-1}` (chain support), `b_i ← ¬a_i`. Algorithm Well-Founded
/// resolves it one loop at a time — falsifying `a_i` closes `b_i` true
/// and `a_{i+1}` true, exposing `a_{i+2}` as the next unfounded set — so
/// the global interpreter pays Θ(n) unfounded rounds of Θ(n) state
/// cloning each. The stratified mode handles each loop inside its own
/// component in one topological pass.
pub fn unfounded_chain_program(n: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for i in 0..n {
        let a = format!("a{i}");
        let bb = format!("b{i}");
        b = b.rule(&a, &[], |body| {
            body.pos(&a, &[]);
        });
        if i > 0 {
            let prev = format!("b{}", i - 1);
            b = b.rule(&a, &[], |body| {
                body.pos(&prev, &[]);
            });
        }
        b = b.rule(&bb, &[], |body| {
            body.neg(&a, &[]);
        });
    }
    b.build().expect("valid")
}

/// A random **call-consistent** (structurally total) program with a
/// planted tie partition: each predicate gets a side bit; positive
/// dependencies stay within a side, negative ones cross — so every cycle
/// of the program graph has an even number of negative edges.
///
/// All predicates are unary; bodies mix variables and the constant pool.
pub fn random_call_consistent<R: Rng>(
    rng: &mut R,
    preds: usize,
    rules: usize,
    max_body: usize,
) -> Program {
    assert!(preds >= 2);
    let sides: Vec<bool> = (0..preds).map(|_| rng.gen()).collect();
    let name = |i: usize| format!("p{i}");
    let mut out: Vec<Rule> = Vec::with_capacity(rules);
    for _ in 0..rules {
        let head_pred = rng.gen_range(0..preds);
        let body_len = rng.gen_range(1..=max_body);
        let head_arg = if rng.gen::<bool>() {
            Term::var("X")
        } else {
            Term::constant("c0")
        };
        let head = Atom::new(name(head_pred).as_str(), [head_arg]);
        let body: Vec<Literal> = (0..body_len)
            .map(|_| {
                let dep = rng.gen_range(0..preds);
                let sign = if sides[dep] == sides[head_pred] {
                    Sign::Pos
                } else {
                    Sign::Neg
                };
                let arg = match rng.gen_range(0..3) {
                    0 => Term::var("X"),
                    1 => Term::var("Y"),
                    _ => Term::constant(&format!("c{}", rng.gen_range(0..2))),
                };
                Literal {
                    sign,
                    atom: Atom::new(name(dep).as_str(), [arg]),
                }
            })
            .collect();
        out.push(Rule::new(head, body));
    }
    // Ensure at least one EDB predicate exists so databases can matter.
    out.push(Rule::new(
        Atom::new("seed", [Term::constant("c0")]),
        vec![Literal::pos(Atom::new("base", [Term::constant("c0")]))],
    ));
    Program::new(out).expect("unary rules are arity-consistent")
}

/// A random database for the predicates of `program` over `pool_size`
/// constants, inserting each candidate fact with probability `density`.
pub fn random_database<R: Rng>(
    rng: &mut R,
    program: &Program,
    pool_size: usize,
    density: f64,
    idb_too: bool,
) -> Database {
    let mut db = Database::new();
    let consts: Vec<String> = (0..pool_size).map(|i| format!("c{i}")).collect();
    for &pred in program.predicates() {
        if !idb_too && program.is_idb(pred) {
            continue;
        }
        let arity = program.arity(pred).expect("known");
        let mut tuple = vec![0usize; arity];
        loop {
            if rng.gen_bool(density) {
                let args: Vec<&str> = tuple.iter().map(|&i| consts[i].as_str()).collect();
                db.insert(GroundAtom::from_texts(pred.as_str(), &args))
                    .expect("consistent arities");
            }
            // Advance mixed-radix; arity-0 predicates have one candidate.
            let mut i = 0;
            loop {
                if i == arity {
                    tuple.clear();
                    break;
                }
                tuple[i] += 1;
                if tuple[i] < consts.len() {
                    break;
                }
                tuple[i] = 0;
                i += 1;
            }
            if tuple.is_empty() {
                break;
            }
        }
    }
    db
}

/// Realizes `skeleton` as a random alphabetic variant: each predicate
/// gets a random arity in `0..=max_arity`, and every occurrence gets
/// random argument terms over two variables and a small constant pool.
pub fn random_variant<R: Rng>(rng: &mut R, skeleton: &Skeleton, max_arity: usize) -> Program {
    let preds = skeleton.predicates();
    let arity: std::collections::HashMap<PredSym, usize> = preds
        .iter()
        .map(|&p| (p, rng.gen_range(0..=max_arity)))
        .collect();
    let term = |rng: &mut R| -> Term {
        match rng.gen_range(0..4) {
            0 => Term::var("X"),
            1 => Term::var("Y"),
            2 => Term::constant("k0"),
            _ => Term::constant("k1"),
        }
    };
    let rules: Vec<Rule> = skeleton
        .rules
        .iter()
        .map(|sr| {
            let head_args: Vec<Term> = (0..arity[&sr.head]).map(|_| term(rng)).collect();
            let body: Vec<Literal> = sr
                .body
                .iter()
                .map(|&(sign, pred)| Literal {
                    sign,
                    atom: Atom::new(pred, (0..arity[&pred]).map(|_| term(rng))),
                })
                .collect();
            Rule::new(Atom::new(sr.head, head_args), body)
        })
        .collect();
    Program::new(rules).expect("consistent arities by construction")
}

/// A layered stratified program: `layers` strata, each defining
/// `preds_per_layer` unary predicates from the previous layer, with
/// negation only across layers. Layer 0 reads the EDB predicate `e`.
pub fn layered_stratified(layers: usize, preds_per_layer: usize) -> Program {
    assert!(layers >= 1 && preds_per_layer >= 1);
    let mut b = ProgramBuilder::new();
    for layer in 0..layers {
        for i in 0..preds_per_layer {
            let head = format!("l{layer}_{i}");
            if layer == 0 {
                b = b.rule(&head, &["X"], |body| {
                    body.pos("e", &["X"]);
                });
            } else {
                let below_pos = format!("l{}_{}", layer - 1, i % preds_per_layer);
                let below_neg = format!("l{}_{}", layer - 1, (i + 1) % preds_per_layer);
                b = b.rule(&head, &["X"], |body| {
                    body.pos(&below_pos, &["X"]).neg(&below_neg, &["X"]);
                });
            }
        }
    }
    b.build().expect("valid")
}

/// A chain database `e(c0, c1), …, e(c_{n-1}, c_n)` for transitive-closure
/// style workloads.
pub fn chain_db(n: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.insert(GroundAtom::from_texts(
            "e",
            &[&format!("c{i}"), &format!("c{}", i + 1)],
        ))
        .expect("binary facts");
    }
    db
}

/// Unary facts `e(c0) … e(c_{n-1})`.
pub fn unary_db(n: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.insert(GroundAtom::from_texts("e", &[&format!("c{i}")]))
            .expect("unary facts");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tiebreak_core::analysis::{stratify, structural_totality};

    #[test]
    fn negation_cycle_parity_matches_theorem2() {
        for n in 1..6 {
            for k in 0..=n {
                let p = negation_cycle(n, k);
                let st = structural_totality(&p);
                assert_eq!(st.total, k % 2 == 0, "C({n}, {k})");
            }
        }
    }

    #[test]
    fn planted_tie_programs_are_structurally_total() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            let p = random_call_consistent(&mut rng, 5, 12, 3);
            assert!(structural_totality(&p).total);
        }
    }

    #[test]
    fn layered_programs_are_stratified() {
        let p = layered_stratified(4, 3);
        let s = stratify(&p);
        assert!(s.stratified);
        assert_eq!(s.stratum_count, 4);
    }

    #[test]
    fn random_variants_preserve_the_skeleton() {
        let mut rng = SmallRng::seed_from_u64(11);
        let base = win_move_program();
        let skel = base.skeleton();
        for _ in 0..10 {
            let v = random_variant(&mut rng, &skel, 3);
            assert!(v.is_alphabetic_variant_of(&base));
        }
    }

    #[test]
    fn independent_ties_structure() {
        let p = independent_ties(3);
        assert_eq!(p.len(), 6);
        assert!(structural_totality(&p).total);
        assert!(!stratify(&p).stratified);
    }

    #[test]
    fn dag_db_is_acyclic() {
        let mut rng = SmallRng::seed_from_u64(5);
        let db = dag_move_db(&mut rng, 10, 30);
        for fact in db.facts() {
            let a: usize = fact.args[0].as_str()[1..].parse().unwrap();
            let b: usize = fact.args[1].as_str()[1..].parse().unwrap();
            assert!(a < b);
        }
    }

    #[test]
    fn chain_db_shape() {
        let db = chain_db(3);
        assert_eq!(db.len(), 3);
        assert!(db.contains(&GroundAtom::from_texts("e", &["c2", "c3"])));
    }
}
