//! With recording on, an update to a metric that already exists must
//! not allocate: the key is looked up by `&str`, and only its first
//! use copies the name. Per-node counters such as `engine.forks` are
//! bumped tens of thousands of times in one traced analysis.
//!
//! A counting global allocator makes "does not allocate" testable. This
//! file must stay a single-test binary: the allocator and the recorder
//! are both process-global.

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
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn updates_to_existing_metrics_do_not_allocate() {
    shoal_obs::install();
    assert!(shoal_obs::enabled());
    // First use inserts each key: these may allocate.
    shoal_obs::counter_add("test.counter", 1);
    shoal_obs::gauge_max("test.gauge", 1);
    shoal_obs::hist_record("test.hist", 1);

    let n = allocations(|| {
        for i in 0..1000u64 {
            shoal_obs::counter_add("test.counter", 1);
            shoal_obs::gauge_max("test.gauge", i);
            shoal_obs::hist_record("test.hist", i);
        }
    });
    assert_eq!(n, 0, "updates to existing metrics allocated {n} time(s)");

    shoal_obs::set_enabled(false);
    let snap = shoal_obs::snapshot();
    assert_eq!(snap.counter("test.counter"), Some(1001));
    assert_eq!(snap.gauge("test.gauge"), Some(999));
    assert_eq!(snap.histogram("test.hist").map(|h| h.count), Some(1001));
}
