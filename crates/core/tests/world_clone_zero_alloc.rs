//! A fork is `World::clone()`, and the incremental engine clones every
//! live world again at each statement boundary. Every field of a world
//! is shared — the COW containers, the symbolic file system, and the
//! segments of each symbolic string — so a clone must not allocate,
//! however much state the world holds.
//!
//! A counting global allocator makes "does not allocate" testable. This
//! file must stay a single-test binary: the allocator is process-global.

use shoal_core::{SymStr, World};
use shoal_relang::Regex;
use shoal_symfs::{FsKey, NodeState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) made while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn cloning_a_world_allocates_nothing() {
    let mut w = World::initial();
    assert!(w.script_name.as_literal().is_none(), "`$0` is symbolic");
    assert!(w.cwd.as_literal().is_none(), "the cwd is symbolic");
    let dir = w.fresh_sym(Regex::parse_must("[a-z]+"), "$DIR");
    w.set_var("DIR", dir.clone());
    w.set_var("TARGET", w.cwd.concat(&SymStr::lit("/")).concat(&dir));
    w.positional = vec![SymStr::lit("-f"), dir].into();
    w.capture = Some(w.script_name.concat(&SymStr::lit(" ran\n")));
    w.assume("DIR is set");
    w.fs.set(&FsKey::absolute("/srv/data").unwrap(), NodeState::Dir);
    let _ = w.param("3");

    let mut forks: Vec<World> = Vec::with_capacity(8);
    let n = allocations(|| forks.extend((0..8).map(|_| w.clone())));
    assert_eq!(n, 0, "8 world clones allocated {n} time(s)");
    assert_eq!(allocations(|| drop(SymStr::empty())), 0, "the empty string is shared");
    // The counter does see this thread's allocations.
    assert_eq!(allocations(|| drop(SymStr::lit("x"))), 2);
}
