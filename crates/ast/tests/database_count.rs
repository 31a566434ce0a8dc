//! Property test: the running fact count of [`Database`] stays equal to
//! the per-relation sum under any mix of inserts, duplicate inserts,
//! removes of present and absent facts, and arity-mismatch rejections.

use proptest::prelude::*;

use datalog_ast::{Database, GroundAtom, Relation};

/// Predicate `q{pred % 6}` over constants `c0..c3`: predicates 0–2 have
/// arity 1, 3–5 arity 2, and `wrong_arity` picks the other one.
fn fact(pred: u8, wrong_arity: bool, a: u8, b: u8) -> GroundAtom {
    let pred = pred % 6;
    let arity = usize::from(pred >= 3) + 1;
    let arity = if wrong_arity { 3 - arity } else { arity };
    let args = [format!("c{}", a % 4), format!("c{}", b % 4)];
    let args: Vec<&str> = args[..arity].iter().map(String::as_str).collect();
    GroundAtom::from_texts(&format!("q{pred}"), &args)
}

fn per_relation_sum(db: &Database) -> usize {
    db.predicates()
        .into_iter()
        .map(|p| db.relation(p).map_or(0, Relation::len))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn len_tracks_the_per_relation_sum(
        ops in proptest::collection::vec((0u8..4, 0u8..6, 0u8..4, 0u8..4), 0..64)
    ) {
        let mut db = Database::new();
        for (op, pred, a, b) in ops {
            let before = db.len();
            match op {
                // Insert, new or duplicate: counts only when new.
                0 | 1 => {
                    let f = fact(pred, false, a, b);
                    let present = db.contains(&f);
                    let new = db.insert(f).expect("canonical arity");
                    prop_assert_eq!(new, !present);
                    prop_assert_eq!(db.len(), before + usize::from(new));
                }
                // Remove, present or absent: counts only when present.
                2 => {
                    let f = fact(pred, false, a, b);
                    let present = db.contains(&f);
                    prop_assert_eq!(db.remove(&f), present);
                    prop_assert_eq!(db.len() + usize::from(present), before);
                }
                // Arity mismatch against an existing relation: rejected,
                // and the count does not move.
                _ => {
                    let f = fact(pred, true, a, b);
                    if db.relation(f.pred).is_some() {
                        prop_assert!(db.insert(f).is_err());
                        prop_assert_eq!(db.len(), before);
                    }
                }
            }
            prop_assert_eq!(db.len(), per_relation_sum(&db));
            prop_assert_eq!(db.len(), db.facts().count());
            prop_assert_eq!(db.is_empty(), per_relation_sum(&db) == 0);
            let copy = db.clone();
            prop_assert_eq!(copy.len(), db.len());
            prop_assert!(copy == db);
        }
    }
}
