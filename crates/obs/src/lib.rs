//! Zero-dependency observability for the shoal analysis pipeline.
//!
//! The paper's engine explores many symbolic executions; this crate makes
//! that exploration *visible* without making it slower. Its layers:
//!
//! * **events and phases** ([`recorder`], [`trace`]) — structured
//!   records (`fork`, `prune`, `cap_hit`, …) collected into a
//!   process-global recorder, and named phases (`parse`, `setup`,
//!   `symexec`, `report`, `relang`, …) timed one way only, by
//!   [`trace::phase_add`]/[`trace::phase_timer`]. One phase charge
//!   feeds every consumer that is on: the active request trace, and,
//!   while recording, a `phase.NAME.us` histogram and a `span` event.
//!   When recording is disabled (the default) an event site costs one
//!   relaxed atomic load and a phase site one thread-local read more;
//!   neither constructs anything.
//! * **metrics** ([`metrics`]) — named counters, high-watermark gauges,
//!   and log-bucketed histograms ([`hist::LogHistogram`]), snapshotted
//!   for the `--stats` table or JSONL export.
//! * **request tracing** ([`trace`], [`hist`]) — client-minted trace
//!   IDs, per-request phase breakdowns, a bounded ring of
//!   completed request traces, and log-bucketed latency histograms
//!   with exact percentile extraction — the daemon's telemetry plane.
//! * **audit** ([`audit`]) — mergeable, byte-deterministic coverage
//!   maps and a typed precision-loss taxonomy: which commands lack
//!   specs, which checkers fired, and where the analysis degraded to ⊤
//!   and why — the fleet precision-health plane.
//! * **export** ([`json`], [`stats`]) — a hand-rolled JSON writer/parser
//!   (the build environment has no registry access, so no `serde`) and a
//!   human-readable table renderer.
//!
//! The crate also hosts the tiny in-repo stand-ins for the external dev
//! tools the offline build cannot fetch: [`rng`] (xorshift64* instead of
//! `rand`), [`prop`] (a seeded property-test harness instead of
//! `proptest`), and [`bench`] (a ns/iter micro-benchmark harness instead
//! of `criterion`) — plus the shared performance infrastructure the
//! pipeline crates build on: [`share`] (copy-on-write and persistent
//! containers for O(1) symbolic-state forks, instead of `im`) and
//! [`pool`] (a work-stealing scoped thread pool for the parallel scan
//! driver, instead of `rayon`).

pub mod audit;
pub mod bench;
pub mod failpoint;
pub mod frame;
pub mod hash;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod prop;
pub mod recorder;
pub mod rng;
pub mod share;
pub mod stats;
pub mod trace;

pub use audit::{CheckerCov, CommandCov, CoverageMap, LossCause};
pub use hist::LogHistogram;
pub use metrics::{counter_add, gauge_max, hist_record, snapshot, MetricsSnapshot};
pub use trace::{Trace, TraceRing};
pub use recorder::{
    enabled, install, parse_jsonl, record_event, set_enabled, take_events, trace_to_jsonl, Event,
    Value,
};
pub use rng::XorShift64;
pub use share::{CowList, CowMap, CowVec, Pmap};

/// Records a structured event iff recording is enabled.
///
/// ```
/// shoal_obs::event!("fork", site = "exec_if", live = 3u64);
/// ```
///
/// Field values are converted with [`Value::from`]; when the recorder is
/// disabled the field expressions are **not evaluated**, so call sites
/// may format freely.
#[macro_export]
macro_rules! event {
    ($kind:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::record_event(
                $kind,
                vec![$((stringify!($key), $crate::Value::from($val))),*],
            );
        }
    };
}

/// Fires a failpoint iff one is armed for this site (fault injection for
/// robustness tests; see [`failpoint`]). Disarmed cost: one relaxed
/// atomic load.
///
/// ```
/// shoal_obs::failpoint!("engine::fork");
/// ```
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {
        if $crate::failpoint::active() {
            $crate::failpoint::hit($name);
        }
    };
}
