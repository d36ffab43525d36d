//! With recording on, an update to a metric that already exists must
//! not allocate: the key is looked up by `&str`, and only its first
//! use copies the name. Per-node counters such as `engine.forks` are
//! bumped tens of thousands of times in one traced analysis. A charge
//! to a phase that was charged before allocates only its `span` event's
//! field vector: the `phase.NAME.us` key is built once and the event
//! borrows the phase name.
//!
//! A counting global allocator makes "does not allocate" testable. This
//! file must stay a single-test binary: the allocator and the recorder
//! are both process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Growths of an existing allocation, counted apart: the recorder's
/// event log grows geometrically as spans are appended.
static REALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// (allocations, reallocations) made while `f` runs.
fn allocations(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.load(Ordering::Relaxed), REALLOCATIONS.load(Ordering::Relaxed));
    f();
    (
        ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        REALLOCATIONS.load(Ordering::Relaxed) - before.1,
    )
}

#[test]
fn updates_to_existing_metrics_and_phases_do_not_allocate_their_keys() {
    shoal_obs::install();
    assert!(shoal_obs::enabled());
    // First use inserts each key: these may allocate.
    shoal_obs::counter_add("test.counter", 1);
    shoal_obs::gauge_max("test.gauge", 1);
    shoal_obs::hist_record("test.hist", 1);

    let (n, grown) = allocations(|| {
        for i in 0..1000u64 {
            shoal_obs::counter_add("test.counter", 1);
            shoal_obs::gauge_max("test.gauge", i);
            shoal_obs::hist_record("test.hist", i);
        }
    });
    assert_eq!(n, 0, "updates to existing metrics allocated {n} time(s)");
    assert_eq!(grown, 0, "updates to existing metrics reallocated {grown} time(s)");

    // A phase's first charge builds its histogram key.
    shoal_obs::trace::phase_add("test_phase", 1);
    let (n, grown) = allocations(|| {
        for i in 0..1000u64 {
            shoal_obs::trace::phase_add("test_phase", i);
        }
    });
    assert!(n <= 1000, "1000 charges of an existing phase allocated {n} time(s)");
    assert!(grown <= 16, "the event log grew {grown} time(s) for 1000 spans");

    shoal_obs::set_enabled(false);
    let snap = shoal_obs::snapshot();
    assert_eq!(snap.counter("test.counter"), Some(1001));
    assert_eq!(snap.gauge("test.gauge"), Some(999));
    assert_eq!(snap.histogram("test.hist").map(|h| h.count), Some(1001));
    assert_eq!(snap.histogram("phase.test_phase.us").map(|h| h.count), Some(1001));
    let spans = shoal_obs::take_events();
    assert_eq!(spans.len(), 1001, "one span event per charge");
    assert_eq!(spans[1000].field("name"), Some(&shoal_obs::Value::Str("test_phase".into())));
}
