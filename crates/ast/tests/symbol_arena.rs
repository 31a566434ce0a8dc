//! The interner's text arena: names that straddle a chunk boundary, and a
//! name longer than a whole chunk, round-trip through `as_str`, and the
//! `tiebreak_interned_bytes` gauge rises by exactly `4 + len` per new
//! name. This file is its own test binary with one test, so no other
//! test interns names while the gauge is read.

use datalog_ast::Symbol;

#[test]
fn names_round_trip_across_chunk_boundaries() {
    const CHUNK: usize = 64 << 10;
    let gauge = &tiebreak_trace::metrics().interned_bytes;
    Symbol::intern("arena_warm_up");
    let before = gauge.get();
    // 3,000-byte names: 21 fill a chunk, the 22nd opens the next one.
    let mut names: Vec<String> = (0..50)
        .map(|i| format!("arena{i:04}_{}", "x".repeat(3_000 - 10)))
        .collect();
    names.push(format!("arena_long_{}", "y".repeat(CHUNK + 100)));
    names.push("arena_after_long".to_owned());
    let symbols: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
    for (symbol, name) in symbols.iter().zip(&names) {
        assert_eq!(symbol.as_str(), name);
        assert_eq!(Symbol::intern(name), *symbol);
    }
    let expected: u64 = names.iter().map(|n| 4 + n.len() as u64).sum();
    assert_eq!(gauge.get() - before, expected);
    assert!(names.iter().map(|n| 4 + n.len()).sum::<usize>() > 3 * CHUNK);
}
