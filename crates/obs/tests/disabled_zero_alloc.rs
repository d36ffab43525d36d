//! The whole point of the recorder design: when recording is disabled
//! (the default), instrumentation must cost one relaxed atomic load —
//! in particular it must never allocate, or the engine's hot loops
//! would pay for observability nobody asked for.
//!
//! A counting global allocator makes "never allocates" testable. This
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
fn disabled_instrumentation_does_not_allocate() {
    assert!(!shoal_obs::enabled(), "recording must start disabled");

    // Events: field expressions must not even be evaluated — building
    // the String here would allocate, so the count proves the macro
    // short-circuits.
    let n = allocations(|| {
        for i in 0..100u64 {
            shoal_obs::event!(
                "fork",
                site = "test",
                line = i,
                label = format!("world {i}")
            );
        }
    });
    assert_eq!(n, 0, "disabled event! allocated {n} time(s)");

    // Metrics.
    let n = allocations(|| {
        for i in 0..100u64 {
            shoal_obs::counter_add("test.counter", i);
            shoal_obs::gauge_max("test.gauge", i);
            shoal_obs::hist_record("test.hist", i);
        }
    });
    assert_eq!(n, 0, "disabled metrics allocated {n} time(s)");

    // Phases: no request trace open and the recorder off.
    let n = allocations(|| {
        for i in 0..100u64 {
            shoal_obs::trace::phase_add("test_phase", i);
            let _t = shoal_obs::trace::phase_timer("test_phase");
        }
    });
    assert_eq!(n, 0, "disabled phase_add/phase_timer allocated {n} time(s)");

    // And once enabled, the same calls DO record (sanity check that the
    // zero above measured the disabled path, not broken plumbing).
    shoal_obs::install();
    shoal_obs::counter_add("test.counter", 7);
    shoal_obs::event!("fork", site = "test", line = 1u64);
    shoal_obs::set_enabled(false);
    let snap = shoal_obs::snapshot();
    assert_eq!(snap.counter("test.counter"), Some(7));
    assert_eq!(shoal_obs::take_events().len(), 1);
}
