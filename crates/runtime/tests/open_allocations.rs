//! Allocation gate for a cold open: parsing and preparing a program
//! whose names are all new to the process allocates a constant number
//! of times per clause. An allocation count is exact on any hardware,
//! where a timing gate is not.
//!
//! This file is its own test binary because it installs a counting
//! global allocator; the count is kept per thread, so the harness's
//! own threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datalog_ast::{parse_program, Database};
use paper_constructions::generators::braided_unfounded_chain_program;
use tiebreak_runtime::Solver;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`, which neither allocates nor
// has a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc_zeroed` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `realloc` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` carry over.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made by `f` on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_cold_open_allocates_a_few_times_per_clause() {
    // The cold-open benchmark instance, every name prefixed so that
    // parsing interns it for the first time (the generator interned the
    // unprefixed names).
    let source = braided_unfounded_chain_program(8, 32, 16)
        .to_string()
        .replace("hub", "coldgate_h")
        .replace('u', "coldgate_u");
    let ((clauses, solver), allocations) = allocations_of(|| {
        let program = parse_program(&source).expect("parses");
        let clauses = program.len();
        let solver = Solver::new(program, Database::new()).expect("prepares");
        (clauses, solver)
    });
    assert_eq!(clauses, 4352);
    assert_eq!(solver.footprint().atoms, 4097);
    let per_clause = allocations as f64 / clauses as f64;
    assert!(
        per_clause <= 8.0,
        "{allocations} allocations for {clauses} clauses ({per_clause:.2} per clause)"
    );
}
