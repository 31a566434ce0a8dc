//! The Theorem 6 reduction: halting of 2-counter machines → totality.
//!
//! Given a machine M, [`machine_to_program`] builds the paper's program
//! with IDB predicates `state(T, S)`, `count1(T, C)`, `count2(T, C)`, the
//! proposition `p`, and EDB predicates `zero`, `succ`, `less`:
//!
//! * initialization rules put M in state 0 with zero counters at time 0;
//! * each machine transition contributes three rules (one per IDB
//!   predicate) guarded by the zero-status literals and the `[S = s]`
//!   chain abbreviation `zero(A₀), succ(A₀, A₁), …, succ(A_{s-1}, S)`;
//! * the **troublesome rule** `p ← ¬p, state(T, S), [S = h]`;
//! * repair rules that derive `p` outright on databases where `zero` /
//!   `succ` / `less` do not have their natural meaning.
//!
//! M halts ⟺ the program is **not** nonuniformly total: on the natural
//! database of a halting run the troublesome rule reduces to `p ← ¬p`; on
//! every database, a non-halting M admits a fixpoint. [`uniformize`]
//! applies the proof's `q`-transformation for the uniform case.

use datalog_ast::{Atom, Database, GroundAtom, Literal, Program, Rule, Term};

use crate::counter_machine::CounterMachine;

/// Fresh-variable factory for one rule under construction.
struct RuleVars {
    counter: usize,
}

impl RuleVars {
    fn new() -> Self {
        RuleVars { counter: 0 }
    }

    fn fresh(&mut self, prefix: &str) -> Term {
        self.counter += 1;
        Term::var(&format!("{}{}", prefix, self.counter))
    }
}

/// Appends the `[var = n]` chain: `zero(A0), succ(A0, A1), …,
/// succ(A_{n-1}, var)`; for n = 0 this is just `zero(var)`.
fn eq_chain(body: &mut Vec<Literal>, vars: &mut RuleVars, var: Term, n: usize) {
    if n == 0 {
        body.push(Literal::pos(Atom::new("zero", [var])));
        return;
    }
    let mut prev = vars.fresh("A");
    body.push(Literal::pos(Atom::new("zero", [prev])));
    for _ in 0..n - 1 {
        let next = vars.fresh("A");
        body.push(Literal::pos(Atom::new("succ", [prev, next])));
        prev = next;
    }
    body.push(Literal::pos(Atom::new("succ", [prev, var])));
}

/// Builds the Theorem 6 program for machine `m`.
pub fn machine_to_program(m: &CounterMachine) -> Program {
    let mut rules: Vec<Rule> = Vec::new();
    let t = Term::var("T");
    let s = Term::var("S");
    let c1 = Term::var("C1");
    let c2 = Term::var("C2");
    let t2 = Term::var("T2");

    // Initialization.
    rules.push(Rule::new(
        Atom::new("state", [t, s]),
        vec![
            Literal::pos(Atom::new("zero", [t])),
            Literal::pos(Atom::new("zero", [s])),
        ],
    ));
    rules.push(Rule::new(
        Atom::new("count1", [t, c1]),
        vec![
            Literal::pos(Atom::new("zero", [t])),
            Literal::pos(Atom::new("zero", [c1])),
        ],
    ));
    rules.push(Rule::new(
        Atom::new("count2", [t, c2]),
        vec![
            Literal::pos(Atom::new("zero", [t])),
            Literal::pos(Atom::new("zero", [c2])),
        ],
    ));

    // Transition rules.
    for (state, by_z1) in m.rules.iter().enumerate() {
        for (z1, by_z2) in by_z1.iter().enumerate() {
            for (z2, transition) in by_z2.iter().enumerate() {
                let Some(tr) = transition else { continue };
                let z1 = z1 == 1;
                let z2 = z2 == 1;

                // The common body shared by the three rules.
                let common = |vars: &mut RuleVars| -> Vec<Literal> {
                    let mut body = vec![
                        Literal::pos(Atom::new("state", [t, s])),
                        Literal::pos(Atom::new("count1", [t, c1])),
                        Literal::pos(Atom::new("count2", [t, c2])),
                        Literal::pos(Atom::new("succ", [t, t2])),
                    ];
                    let zero_lit = |v: Term, is_zero: bool| {
                        let atom = Atom::new("zero", [v]);
                        if is_zero {
                            Literal::pos(atom)
                        } else {
                            Literal::neg(atom)
                        }
                    };
                    body.push(zero_lit(c1, z1));
                    body.push(zero_lit(c2, z2));
                    eq_chain(&mut body, vars, s, state);
                    body
                };

                // STATE rule: state(T2, S2) with [S2 = next].
                {
                    let mut vars = RuleVars::new();
                    let mut body = common(&mut vars);
                    let s2 = Term::var("SN");
                    eq_chain(&mut body, &mut vars, s2, tr.next);
                    rules.push(Rule::new(Atom::new("state", [t2, s2]), body));
                }
                // COUNT1 rule.
                {
                    let mut vars = RuleVars::new();
                    let mut body = common(&mut vars);
                    let head_arg = match tr.d1 {
                        0 => c1,
                        1 => {
                            let d = Term::var("D1");
                            body.push(Literal::pos(Atom::new("succ", [c1, d])));
                            d
                        }
                        -1 => {
                            let d = Term::var("D1");
                            body.push(Literal::pos(Atom::new("succ", [d, c1])));
                            d
                        }
                        _ => unreachable!("validated delta"),
                    };
                    rules.push(Rule::new(Atom::new("count1", [t2, head_arg]), body));
                }
                // COUNT2 rule.
                {
                    let mut vars = RuleVars::new();
                    let mut body = common(&mut vars);
                    let head_arg = match tr.d2 {
                        0 => c2,
                        1 => {
                            let d = Term::var("D2");
                            body.push(Literal::pos(Atom::new("succ", [c2, d])));
                            d
                        }
                        -1 => {
                            let d = Term::var("D2");
                            body.push(Literal::pos(Atom::new("succ", [d, c2])));
                            d
                        }
                        _ => unreachable!("validated delta"),
                    };
                    rules.push(Rule::new(Atom::new("count2", [t2, head_arg]), body));
                }
            }
        }
    }

    // The troublesome rule: p ← ¬p, state(T, S), [S = h].
    {
        let mut vars = RuleVars::new();
        let mut body = vec![
            Literal::neg(Atom::new("p", [])),
            Literal::pos(Atom::new("state", [t, s])),
        ];
        eq_chain(&mut body, &mut vars, s, m.halt);
        rules.push(Rule::new(Atom::new("p", []), body));
    }

    // Repair rules for unnatural databases.
    let x = Term::var("X");
    let y = Term::var("Y");
    let z = Term::var("Z");
    // (1a) p ← succ(X, Y), ¬less(X, Y).
    rules.push(Rule::new(
        Atom::new("p", []),
        vec![
            Literal::pos(Atom::new("succ", [x, y])),
            Literal::neg(Atom::new("less", [x, y])),
        ],
    ));
    // (1b) p ← succ(X, Y), less(Y, Z), ¬less(X, Z).
    rules.push(Rule::new(
        Atom::new("p", []),
        vec![
            Literal::pos(Atom::new("succ", [x, y])),
            Literal::pos(Atom::new("less", [y, z])),
            Literal::neg(Atom::new("less", [x, z])),
        ],
    ));
    // (2) p ← state(T, S), state(T, S2), [S2 = h], less(S, S2).
    {
        let mut vars = RuleVars::new();
        let s2 = Term::var("SH");
        let mut body = vec![
            Literal::pos(Atom::new("state", [t, s])),
            Literal::pos(Atom::new("state", [t, s2])),
        ];
        eq_chain(&mut body, &mut vars, s2, m.halt);
        body.push(Literal::pos(Atom::new("less", [s, s2])));
        rules.push(Rule::new(Atom::new("p", []), body));
    }

    Program::new(rules).expect("reduction is arity-consistent")
}

/// The natural database over constants `0..=t_max`: `zero(0)`,
/// `succ(i, i+1)`, and `less(i, j)` for i < j. IDB relations empty.
pub fn natural_database(t_max: usize) -> Database {
    let mut db = Database::new();
    let name = |i: usize| i.to_string();
    db.insert(GroundAtom::from_texts("zero", &[&name(0)]))
        .expect("facts");
    for i in 0..t_max {
        db.insert(GroundAtom::from_texts("succ", &[&name(i), &name(i + 1)]))
            .expect("facts");
    }
    for i in 0..=t_max {
        for j in i + 1..=t_max {
            db.insert(GroundAtom::from_texts("less", &[&name(i), &name(j)]))
                .expect("facts");
        }
    }
    db
}

/// The proof's uniform-case transformation: every rule gets the extra
/// body literal `¬q`, and for every IDB predicate Q of the input a rule
/// `q ← Q(Z₁, …, Z_k), q` is added.
pub fn uniformize(program: &Program) -> Program {
    let q = Atom::new("q", []);
    let mut rules: Vec<Rule> = program
        .rules()
        .iter()
        .map(|r| {
            let mut body = r.body.clone();
            body.push(Literal::neg(q.clone()));
            Rule::new(r.head.clone(), body)
        })
        .collect();
    for pred in program.idb_predicates() {
        let arity = program.arity(pred).expect("known predicate");
        let args: Vec<Term> = (0..arity)
            .map(|i| Term::var(&format!("Z{}", i + 1)))
            .collect();
        rules.push(Rule::new(
            q.clone(),
            vec![Literal::pos(Atom::new(pred, args)), Literal::pos(q.clone())],
        ));
    }
    Program::new(rules).expect("uniformization is arity-consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter_machine::{CounterMachine, MachineOutcome};
    use datalog_ground::{ground, GroundConfig, GroundMode, TruthValue};
    use tiebreak_core::semantics::enumerate::{enumerate_fixpoints, EnumerateConfig};
    use tiebreak_core::semantics::well_founded::well_founded;

    fn has_fixpoint(program: &Program, db: &Database) -> bool {
        let g = ground(program, db, GroundMode::Full, &GroundConfig::default()).unwrap();
        !enumerate_fixpoints(
            &g,
            program,
            db,
            &EnumerateConfig {
                limit: 1,
                max_branch_atoms: 25,
            },
        )
        .unwrap()
        .is_empty()
    }

    #[test]
    fn simulation_rules_reproduce_the_trace() {
        // Pump-and-drain exercises increments, decrements, zero tests.
        let m = CounterMachine::pump_and_drain(1);
        let MachineOutcome::Halted(steps) = m.simulate(100) else {
            panic!("halts")
        };
        let program = machine_to_program(&m);
        let db = natural_database(steps);
        let g = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
        let run = well_founded(&g, &program, &db).unwrap();
        // The machine reaches the halt state, so the troublesome rule
        // reduces to p ← ¬p and the WF model cannot be total — but all
        // state/count atoms are decided. Check the trace is reproduced.
        for (time, cfg) in m.trace(steps).iter().enumerate() {
            let atom =
                GroundAtom::from_texts("state", &[&time.to_string(), &cfg.state.to_string()]);
            let id = g.atoms().id_of(&atom).unwrap();
            assert_eq!(run.model.get(id), TruthValue::True, "missing {atom}");
            let c1 = GroundAtom::from_texts("count1", &[&time.to_string(), &cfg.c1.to_string()]);
            assert_eq!(
                run.model.get(g.atoms().id_of(&c1).unwrap()),
                TruthValue::True,
                "missing {c1}"
            );
        }
    }

    #[test]
    fn halting_machine_has_no_fixpoint_on_the_natural_database() {
        let m = CounterMachine::count_up_and_halt(1); // halts in 2 steps
        let MachineOutcome::Halted(steps) = m.simulate(10) else {
            panic!("halts")
        };
        let program = machine_to_program(&m);
        let db = natural_database(steps);
        assert!(!has_fixpoint(&program, &db));
    }

    #[test]
    fn nonhalting_machine_has_fixpoints() {
        let m = CounterMachine::run_forever();
        let program = machine_to_program(&m);
        for t in 1..=3 {
            let db = natural_database(t);
            assert!(has_fixpoint(&program, &db), "t_max = {t}");
        }
    }

    #[test]
    fn repair_rules_fire_on_unnatural_databases() {
        // succ present but less empty: rule (1a) derives p, so the
        // troublesome rule is disabled and a fixpoint exists.
        let m = CounterMachine::count_up_and_halt(1);
        let program = machine_to_program(&m);
        let mut db = Database::new();
        db.insert_texts("zero", &["0"]);
        db.insert_texts("succ", &["0", "1"]);
        db.insert_texts("succ", &["1", "2"]);
        // no less facts at all
        let g = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
        let run = well_founded(&g, &program, &db).unwrap();
        assert!(run.total, "repair rule must fire and settle everything");
        let p = g.atoms().atom_id("p".into(), &[]).unwrap();
        assert_eq!(run.model.get(p), TruthValue::True);
        assert!(has_fixpoint(&program, &db));
    }

    #[test]
    fn uniformized_program_mirrors_nonuniform_behaviour() {
        let m = CounterMachine::count_up_and_halt(0); // halts in 1 step
        let MachineOutcome::Halted(steps) = m.simulate(10) else {
            panic!("halts")
        };
        let base = machine_to_program(&m);
        let uni = uniformize(&base);

        // (a) IDB-empty Δ: still no fixpoint (q must be false).
        let db = natural_database(steps);
        assert!(!has_fixpoint(&uni, &db));

        // (b) Δ ∋ q: fixpoint exists (q true disables every rule).
        let mut db_q = natural_database(steps);
        db_q.insert_texts("q", &[]);
        assert!(has_fixpoint(&uni, &db_q));

        // (c) Δ contains an IDB fact: fixpoint exists (q supported via
        // the new q ← Q(z), q rule).
        let mut db_idb = natural_database(steps);
        db_idb.insert_texts("state", &["0", "0"]);
        assert!(has_fixpoint(&uni, &db_idb));
    }

    #[test]
    fn natural_database_shape() {
        let db = natural_database(3);
        assert!(db.contains(&GroundAtom::from_texts("zero", &["0"])));
        assert!(db.contains(&GroundAtom::from_texts("succ", &["2", "3"])));
        assert!(db.contains(&GroundAtom::from_texts("less", &["0", "3"])));
        assert!(!db.contains(&GroundAtom::from_texts("less", &["3", "0"])));
        // 1 zero + 3 succ + 6 less.
        assert_eq!(db.len(), 10);
    }
}
