//! Named counters, high-watermark gauges, and log-bucketed histograms
//! ([`LogHistogram`], whose percentiles never exceed the recorded max).
//!
//! All helpers early-return on the recorder's disabled flag, so the
//! instrumented hot paths (regex operations, monitor lines, fixpoint
//! iterations) cost one relaxed atomic load when observability is off.
//! When on, each update takes the global mutex — acceptable for
//! profiling runs, which are explicitly opt-in — and allocates only
//! the first time a name is used.

use crate::hist::LogHistogram;
use crate::recorder::enabled;
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Default)]
struct Store {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, LogHistogram>,
}

static STORE: Mutex<Option<Store>> = Mutex::new(None);

fn with_store(f: impl FnOnce(&mut Store)) {
    let mut guard = STORE.lock().unwrap();
    f(guard.get_or_insert_with(Store::default));
}

/// Clears all metrics (called by [`crate::install`]).
pub fn reset() {
    *STORE.lock().unwrap() = None;
}

/// The value under `name`, inserted (the only allocation) on first use.
fn slot<'a, V: Default>(map: &'a mut BTreeMap<String, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("inserted above")
}

/// Adds to a named counter. No-op while recording is disabled.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if enabled() {
        with_store(|s| *slot(&mut s.counters, name) += n);
    }
}

/// Raises a named high-watermark gauge. No-op while disabled.
#[inline]
pub fn gauge_max(name: &'static str, v: u64) {
    if enabled() {
        with_store(|s| {
            let g = slot(&mut s.gauges, name);
            *g = (*g).max(v);
        });
    }
}

/// Records a histogram sample. No-op while disabled.
#[inline]
pub fn hist_record(name: &'static str, v: u64) {
    if enabled() {
        hist_record_name(name, v);
    }
}

/// Like [`hist_record`] for dynamically-built names (callers must have
/// checked `enabled()`).
pub(crate) fn hist_record_name(name: &str, v: u64) {
    with_store(|s| slot(&mut s.histograms, name).record(v));
}

/// A point-in-time copy of every metric.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The value of a named counter, if it was ever touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of a named high-watermark gauge, if it was ever raised.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The histogram recorded under `name`, if any samples exist.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }
}

/// Snapshots all metrics without clearing them.
pub fn snapshot() -> MetricsSnapshot {
    let guard = STORE.lock().unwrap();
    match guard.as_ref() {
        None => MetricsSnapshot::default(),
        Some(s) => MetricsSnapshot {
            counters: s.counters.clone(),
            gauges: s.gauges.clone(),
            histograms: s.histograms.clone(),
        },
    }
}
