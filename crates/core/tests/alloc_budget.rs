//! Allocation budget of a cold analysis.
//!
//! A long script runs every statement over many live worlds, so what
//! the engine allocates per world per statement is most of its cost.
//! A thread-local counting allocator makes that count a test: each
//! ceiling sits 25% above the count it guards, so a change that
//! brings back per-world work the engine now does once per command
//! fails here before it shows up in a timing.
//!
//! A work test next to them pins what the relang memo saves: an affix
//! removal on a symbol is decided once per analysis, however many
//! worlds reach it (`pipeline_checks.rs` pins the same for a pipeline's
//! stream check).
//!
//! The relang memo is flushed before each measured analysis, as in a
//! fresh `shoal analyze` process, and the same analysis runs once
//! unmeasured to build the per-process tables it reaches; the counts
//! are then exact and repeatable.

use shoal_core::engine::Engine;
use shoal_core::{analyze_source_with, AnalysisOptions, World};
use shoal_corpus::scale;
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

/// Five independent existence tests fork 32 live worlds, and each of
/// them then runs two Fig. 5-style pipelines inside `$(…)`.
fn pipelines_on_forked_worlds() -> String {
    let mut src = String::from("#!/bin/sh\n");
    for d in ["a", "b", "c", "d", "e"] {
        src.push_str(&format!("test -e /srv/{d} && echo {d}\n"));
    }
    src.push_str("release=\"$(lsb_release -a | grep '^desc' | cut -f 2)\"\n");
    src.push_str("codename=\"$(lsb_release -a | grep '^Codename' | cut -f 2)\"\n");
    src.push_str("echo \"$release\" \"$codename\"\n");
    src
}

/// The same 32 live worlds, each of which then strips `$0`'s last
/// path component, as Fig. 1 does.
fn dirname_on_forked_worlds() -> String {
    let mut src = String::from("#!/bin/sh\n");
    for d in ["a", "b", "c", "d", "e"] {
        src.push_str(&format!("test -e /srv/{d} && echo {d}\n"));
    }
    src.push_str("d=\"${0%/*}\"\n");
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
    // Each ceiling is the count when affix removals on a symbol came
    // to be decided once per analysis in the relang memo, plus 25%.
    // Before that change the counts were 28,787, 87,824 and 11,940;
    // before symbolic strings came to share their segments, 30,867,
    // 107,115 and 14,227; before commands and pipelines were planned
    // once per analysis, 32,611, 143,315 and 23,980; before simple
    // commands ran once per live-world set, with file-system keys that
    // owned their component strings, the first two were 88,598 and
    // 289,007.
    assert_budget("straight_line(200)", &scale::straight_line(200), 35_908);
    assert_budget("concatenation of 15", &scale::concatenation(15), 96_902);
    assert_budget(
        "pipelines on forked worlds",
        &pipelines_on_forked_worlds(),
        14_849,
    );
}

#[test]
fn each_distinct_affix_removal_is_decided_once() {
    use shoal_relang::memo::affix_splits_computed;
    let src = dirname_on_forked_worlds();
    let script = shoal_shparse::parse_script(&src).expect("script parses");
    let run = || {
        shoal_relang::memo_flush();
        let before = affix_splits_computed();
        let engine = Engine::for_script(AnalysisOptions::default(), &script);
        let worlds = engine.exec_items(vec![World::initial()], &script.items);
        let dirs: Vec<String> = worlds
            .iter()
            .map(|w| w.get_var("d").expect("d is set").describe())
            .collect();
        (dirs, affix_splits_computed() - before)
    };
    let (dirs, splits) = run();
    // Every world forks on whether `$0` has a slash.
    assert_eq!(dirs.len(), 2 * 32);
    assert_eq!(splits, 1);
    // Without the memo every world computes the split, and ends with
    // the same values.
    shoal_relang::set_memo_enabled(false);
    let (again, unmemoized) = run();
    shoal_relang::set_memo_enabled(true);
    assert_eq!(unmemoized, 32);
    assert_eq!(again, dirs);
}
