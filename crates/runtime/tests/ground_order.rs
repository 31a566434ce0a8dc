//! Pins the atom ids and the rule order of the session grounder on a
//! small first-order instance, after the build and after one delta
//! insert. Ids and rule positions follow the order in which grounding
//! walks its relations, so a storage change that reorders that walk
//! shows here as a diff.
//!
//! This file is its own test binary with one test, so the process
//! interns its names in a fixed order and every symbol id, hash and
//! walk is the same on every run.

use std::fmt::Write as _;

use datalog_ast::GroundAtom;
use datalog_ground::{GroundConfig, GroundGraph, GroundMode, SessionGrounder};
use paper_constructions::generators::{braided_tie_chain_db, win_move_program};

/// The atoms with ids from `atoms` on, then the rule nodes from
/// `rules` on, each rule as `(rule_index, head, body, subst)`.
fn dump(graph: &GroundGraph, atoms: usize, rules: usize) -> String {
    let mut out = String::new();
    for id in graph.atoms().ids().skip(atoms) {
        writeln!(out, "a{} {}", id.0, graph.atoms().decode(id)).unwrap();
    }
    for rule in &graph.rules()[rules..] {
        let body: Vec<String> = rule
            .body
            .iter()
            .map(|&(a, s)| format!("{}{}", if s.is_neg() { "-" } else { "+" }, a.0))
            .collect();
        let subst: Vec<&str> = rule.subst.iter().map(|c| c.as_str()).collect();
        writeln!(
            out,
            "r{} h{} [{}] [{}]",
            rule.rule_index,
            rule.head.0,
            body.join(" "),
            subst.join(" ")
        )
        .unwrap();
    }
    out
}

#[test]
fn session_grounder_keeps_atom_ids_and_rule_order() {
    let program = win_move_program();
    let database = braided_tie_chain_db(2, 4);
    let config = GroundConfig {
        mode: GroundMode::Relevant,
        ..GroundConfig::default()
    };
    let (mut graph, mut grounder) =
        SessionGrounder::build(&program, &database, &config).expect("grounds");
    let built = dump(&graph, 0, 0);
    assert_eq!(built, BUILT, "{built}");

    let edge = GroundAtom::from_texts("move", &["t0b3", "t1a0"]);
    let delta = grounder
        .delta_insert(&mut graph, &program, &config, &[edge])
        .expect("delta grounds");
    assert_eq!((delta.new_atoms, delta.new_rules), (1, 1));
    let appended = dump(&graph, delta.first_new_atom, delta.first_new_rule);
    assert_eq!(appended, APPENDED, "{appended}");
    // The prepared ids and rules are untouched.
    let ids: Vec<String> = graph
        .atoms()
        .ids()
        .take(delta.first_new_atom)
        .map(|id| format!("a{} {}", id.0, graph.atoms().decode(id)))
        .collect();
    assert!(BUILT.starts_with(&(ids.join("\n") + "\n")));
    assert_eq!(graph.rules()[..delta.first_new_rule].len(), 24);
}

const BUILT: &str = "\
a0 move(t0a0, t0b0)\n\
a1 move(t0a0, t0a1)\n\
a2 move(t0b0, t0a0)\n\
a3 move(t0a1, t0b1)\n\
a4 move(t0a1, t0a2)\n\
a5 move(t0b1, t0a1)\n\
a6 move(t0a2, t0b2)\n\
a7 move(t0a2, t0a3)\n\
a8 move(t0b2, t0a2)\n\
a9 move(t0a3, t0b3)\n\
a10 move(t0b3, t0a3)\n\
a11 move(h, t0a0)\n\
a12 move(h, t1a0)\n\
a13 move(t1a0, t1b0)\n\
a14 move(t1a0, t1a1)\n\
a15 move(t1b0, t1a0)\n\
a16 move(t1a1, t1b1)\n\
a17 move(t1a1, t1a2)\n\
a18 move(t1b1, t1a1)\n\
a19 move(t1a2, t1b2)\n\
a20 move(t1a2, t1a3)\n\
a21 move(t1b2, t1a2)\n\
a22 move(t1a3, t1b3)\n\
a23 move(t1b3, t1a3)\n\
a24 win(t0b0)\n\
a25 win(t0a0)\n\
a26 win(t0a2)\n\
a27 win(t0b2)\n\
a28 win(t1a1)\n\
a29 win(t1b1)\n\
a30 win(h)\n\
a31 win(t1b2)\n\
a32 win(t1a2)\n\
a33 win(t0a3)\n\
a34 win(t0b3)\n\
a35 win(t0a1)\n\
a36 win(t0b1)\n\
a37 win(t1a0)\n\
a38 win(t1b0)\n\
a39 win(t1a3)\n\
a40 win(t1b3)\n\
r0 h24 [+2 -25] [t0b0 t0a0]\n\
r0 h26 [+6 -27] [t0a2 t0b2]\n\
r0 h28 [+16 -29] [t1a1 t1b1]\n\
r0 h30 [+11 -25] [h t0a0]\n\
r0 h31 [+21 -32] [t1b2 t1a2]\n\
r0 h33 [+9 -34] [t0a3 t0b3]\n\
r0 h25 [+0 -24] [t0a0 t0b0]\n\
r0 h25 [+1 -35] [t0a0 t0a1]\n\
r0 h34 [+10 -33] [t0b3 t0a3]\n\
r0 h27 [+8 -26] [t0b2 t0a2]\n\
r0 h36 [+5 -35] [t0b1 t0a1]\n\
r0 h37 [+14 -28] [t1a0 t1a1]\n\
r0 h38 [+15 -37] [t1b0 t1a0]\n\
r0 h32 [+20 -39] [t1a2 t1a3]\n\
r0 h39 [+22 -40] [t1a3 t1b3]\n\
r0 h40 [+23 -39] [t1b3 t1a3]\n\
r0 h30 [+12 -37] [h t1a0]\n\
r0 h26 [+7 -33] [t0a2 t0a3]\n\
r0 h28 [+17 -32] [t1a1 t1a2]\n\
r0 h37 [+13 -38] [t1a0 t1b0]\n\
r0 h32 [+19 -31] [t1a2 t1b2]\n\
r0 h29 [+18 -28] [t1b1 t1a1]\n\
r0 h35 [+3 -36] [t0a1 t0b1]\n\
r0 h35 [+4 -26] [t0a1 t0a2]\n\
";

const APPENDED: &str = "\
a41 move(t0b3, t1a0)\n\
r0 h34 [+41 -37] [t0b3 t1a0]\n\
";
