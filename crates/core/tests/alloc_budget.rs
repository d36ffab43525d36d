//! Allocation budget of a cold analysis.
//!
//! A long script runs every statement over many live worlds, so what
//! the engine allocates per world per statement is most of its cost.
//! A thread-local counting allocator makes that count a test: each
//! ceiling sits 25% above the count it guards, so a change that
//! brings back per-world work the engine now does once per command
//! fails here before it shows up in a timing.
//!
//! The relang memo is flushed before each measured analysis, as in a
//! fresh `shoal analyze` process, and the same analysis runs once
//! unmeasured to build the per-process tables it reaches; the counts
//! are then exact and repeatable.

use shoal_core::{analyze_source_with, AnalysisOptions};
use shoal_corpus::{generate_corpus, scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations (and reallocations) of one cold analysis of `src`
/// on this thread.
fn allocations(src: &str) -> u64 {
    shoal_relang::memo_flush();
    let before = ALLOCATIONS.with(Cell::get);
    let report = analyze_source_with(src, AnalysisOptions::default()).expect("script parses");
    let after = ALLOCATIONS.with(Cell::get);
    drop(report);
    after - before
}

/// The first 15 scripts of the seed-1 labeled corpus as one script, the
/// shape of the benchmark's shortest concatenations.
fn concatenation() -> String {
    let mut src = String::from("#!/bin/sh\n");
    for s in generate_corpus(40, 1).iter().take(15) {
        for line in s.script.lines().filter(|l| !l.starts_with("#!")) {
            src.push_str(line);
            src.push('\n');
        }
    }
    src
}

fn assert_budget(name: &str, src: &str, ceiling: u64) {
    allocations(src);
    let n = allocations(src);
    assert_eq!(
        n,
        allocations(src),
        "{name}: allocation count is not repeatable"
    );
    eprintln!("{name}: {n} allocations (ceiling {ceiling})");
    assert!(
        n <= ceiling,
        "{name}: {n} allocations, over the budget of {ceiling}"
    );
}

#[test]
fn cold_analyses_stay_within_their_allocation_budgets() {
    // Each ceiling is the count when simple commands first ran once per
    // live-world set, plus 25%. Before that change, with file-system
    // keys that owned their component strings, the counts were 88,598
    // and 289,007.
    assert_budget("straight_line(200)", &scale::straight_line(200), 40_764);
    assert_budget("concatenation of 15", &concatenation(), 179_157);
}
