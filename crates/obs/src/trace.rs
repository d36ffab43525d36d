//! Request-scoped tracing: trace IDs, per-phase breakdowns, and a
//! bounded ring of completed traces.
//!
//! The JIT daemon turns the analyzer into a service, and a service
//! without per-request attribution is a black box: a frame enters the
//! socket, an answer leaves, and nobody can say whether the time went
//! to decoding, the cache, the parser, or symbolic execution. This
//! module is the measurement substrate:
//!
//! * **trace IDs** ([`mint_trace_id`]) — minted by the *client*,
//!   propagated in `shoal-jit/v1` frames, echoed back in the response,
//!   so one ID names the request on both sides of the socket.
//! * **phase accumulation** ([`begin`]/[`phase_add`]/[`phase_timer`]/
//!   [`end`]) — the one way to time a phase. Instrumentation sites
//!   (the engine's parse / setup / symexec / report phases, relang's
//!   decision procedures, scan and verify) charge time to named
//!   phases. A charge reaches the thread-local accumulator of the
//!   request being served, and, while the recorder is on, the
//!   `--stats` histograms and the `--trace` event stream. With
//!   neither on, a site costs one thread-local read plus one relaxed
//!   atomic load, and a [`phase_timer`] reads **no clock**.
//! * **[`Trace`]** — one completed request: ID, endpoint, outcome,
//!   total duration, and the phase breakdown, with a deterministic
//!   text rendering (stable field order, no wall-clock timestamps —
//!   only the measured durations) and a JSON form for the JSONL
//!   export.
//! * **[`TraceRing`]** — a bounded in-memory ring of recent traces
//!   plus a retained worst-by-duration list (the slow-request log), so
//!   `shoal daemon top` can show *which* requests were slow and where
//!   their time went without unbounded memory.

use crate::json::Json;
use crate::recorder::Value;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Trace IDs

static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Mints a 16-hex-digit trace ID: unique per process (atomic sequence)
/// and across processes (pid + startup nanos folded in). Minting never
/// reads the clock after the first call.
pub fn mint_trace_id() -> String {
    use std::sync::OnceLock;
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
        crate::hash::fnv1a64_seeded(std::process::id() as u64, &nanos.to_le_bytes())
    });
    let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{:016x}", seed.rotate_left(17) ^ seq.wrapping_mul(0x9e3779b97f4a7c15))
}

// ---------------------------------------------------------------------------
// Thread-local phase accumulation

thread_local! {
    static TRACE_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TIMER_DEPTH: Cell<u32> = const { Cell::new(0) };
    static PHASES: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
    /// Each phase's `phase.NAME.us` histogram key, built at its first
    /// recorded charge on this thread.
    static PHASE_KEYS: RefCell<Vec<(&'static str, String)>> = const { RefCell::new(Vec::new()) };
}

/// Is a trace active on this thread? One thread-local read.
#[inline]
pub fn active() -> bool {
    TRACE_ACTIVE.with(|a| a.get())
}

/// Starts accumulating phases on this thread (clears any stale state).
pub fn begin() {
    PHASES.with(|p| p.borrow_mut().clear());
    TRACE_ACTIVE.with(|a| a.set(true));
}

/// Stops accumulating and returns the phases charged since [`begin`],
/// in first-charge order with repeated charges to one name summed.
pub fn end() -> Vec<(&'static str, u64)> {
    TRACE_ACTIVE.with(|a| a.set(false));
    PHASES.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// Charges `us` microseconds to the phase `name`, in every consumer
/// that is on: the active request trace, and, while the recorder is
/// enabled, a `phase.NAME.us` histogram sample plus a `span` event
/// (`name`, `duration_us`) for `--stats` and `--trace`. With neither
/// on, the cost is one thread-local read and one relaxed atomic load.
#[inline]
pub fn phase_add(name: &'static str, us: u64) {
    if active() {
        trace_add(name, us);
    }
    if crate::recorder::enabled() {
        record_phase(name, us);
    }
}

fn trace_add(name: &'static str, us: u64) {
    PHASES.with(|p| {
        let mut phases = p.borrow_mut();
        if let Some(entry) = phases.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = entry.1.saturating_add(us);
        } else {
            phases.push((name, us));
        }
    });
}

fn record_phase(name: &'static str, us: u64) {
    PHASE_KEYS.with(|keys| {
        let mut keys = keys.borrow_mut();
        let at = match keys.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                keys.push((name, format!("phase.{name}.us")));
                keys.len() - 1
            }
        };
        crate::metrics::hist_record_name(&keys[at].1, us);
    });
    crate::recorder::record_event(
        "span",
        vec![("name", Value::Str(name.into())), ("duration_us", Value::U64(us))],
    );
}

/// A guard charging its scope's duration to a phase on drop (see
/// [`phase_add`]). Inert (no clock read) when no consumer is on, and
/// inert when *nested* inside another live timer — relang's decision
/// procedures call one another, and only the outermost call should
/// charge the "relang" phase.
#[must_use = "a phase timer charges on drop; binding it to _ drops immediately"]
pub struct PhaseTimer {
    /// Whether this timer entered the nesting depth, so its drop
    /// leaves it exactly as it found it even if a consumer was
    /// switched on or off in between.
    entered: bool,
    inner: Option<(&'static str, Instant)>,
}

/// Opens a phase timer; see [`PhaseTimer`].
#[inline]
pub fn phase_timer(name: &'static str) -> PhaseTimer {
    if !active() && !crate::recorder::enabled() {
        return PhaseTimer { entered: false, inner: None };
    }
    let outermost = TIMER_DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth == 0
    });
    PhaseTimer { entered: true, inner: outermost.then(|| (name, Instant::now())) }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if self.entered {
            TIMER_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        }
        if let Some((name, start)) = self.inner.take() {
            phase_add(name, start.elapsed().as_micros() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Completed traces

/// One completed, measured request.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The client-minted (or server-assigned) trace ID.
    pub trace_id: String,
    /// Protocol endpoint served (`analyze`, `status`, `stats`, …).
    pub endpoint: String,
    /// Outcome within the endpoint's taxonomy (`hit`, `miss`,
    /// `parse-error`, `panic`, `bad-request`, `ok`).
    pub outcome: String,
    /// End-to-end server-side duration, microseconds.
    pub total_us: u64,
    /// Phase breakdown, in first-charge order. Phases measure distinct
    /// wall-time slices except where documented (relang time is a
    /// sub-slice of symexec).
    pub phases: Vec<(String, u64)>,
}

impl Trace {
    /// The JSONL-export object. Field order is stable; the only
    /// temporal fields are the measured durations.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::Str("trace".into())),
            ("trace_id".into(), Json::Str(self.trace_id.clone())),
            ("endpoint".into(), Json::Str(self.endpoint.clone())),
            ("outcome".into(), Json::Str(self.outcome.clone())),
            ("total_us".into(), Json::Num(self.total_us as f64)),
            (
                "phases".into(),
                Json::Obj(
                    self.phases
                        .iter()
                        .map(|(n, us)| (n.clone(), Json::Num(*us as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a trace from its [`Trace::to_json`] form (`None` on
    /// shape mismatch).
    pub fn from_json(json: &Json) -> Option<Trace> {
        if json.get("kind").and_then(Json::as_str) != Some("trace") {
            return None;
        }
        let phases = match json.get("phases")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(n, v)| v.as_u64().map(|us| (n.clone(), us)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(Trace {
            trace_id: json.get("trace_id")?.as_str()?.to_string(),
            endpoint: json.get("endpoint")?.as_str()?.to_string(),
            outcome: json.get("outcome")?.as_str()?.to_string(),
            total_us: json.get("total_us")?.as_u64()?,
            phases,
        })
    }

    /// Deterministic human rendering: one header line, one aligned row
    /// per phase with its share of the total. No wall-clock timestamps
    /// — byte-stable for a given trace (golden-file pinned).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {} {} outcome={} total={}µs",
            self.trace_id, self.endpoint, self.outcome, self.total_us
        );
        let width = self
            .phases
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max(5);
        for (name, us) in &self.phases {
            let share = if self.total_us == 0 {
                0.0
            } else {
                *us as f64 * 100.0 / self.total_us as f64
            };
            let _ = writeln!(out, "  {name:<width$}  {us:>9}µs  {share:>5.1}%");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The trace ring

/// How many worst-by-duration traces the ring retains regardless of
/// age.
pub const SLOW_RETAIN: usize = 8;

/// A bounded ring of recent traces plus a retained slow-request log.
#[derive(Debug, Default)]
pub struct TraceRing {
    recent: VecDeque<Trace>,
    capacity: usize,
    slow: Vec<Trace>,
    /// Lifetime count of traces pushed (survives ring eviction).
    pushed: u64,
}

impl TraceRing {
    /// A ring keeping the last `capacity` traces (and the
    /// [`SLOW_RETAIN`] slowest ever, separately).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            recent: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            slow: Vec::with_capacity(SLOW_RETAIN),
            pushed: 0,
        }
    }

    /// Appends a completed trace, evicting the oldest past capacity
    /// and updating the slow log. O(capacity) worst case, O(1)
    /// amortized for fast requests.
    pub fn push(&mut self, trace: Trace) {
        self.pushed += 1;
        // Slow log: keep the SLOW_RETAIN largest by (total_us, then
        // earlier-wins on ties, for determinism).
        let slower_than_floor = self.slow.len() < SLOW_RETAIN
            || trace.total_us > self.slow.last().map(|t| t.total_us).unwrap_or(0);
        if slower_than_floor {
            let at = self
                .slow
                .iter()
                .position(|t| t.total_us < trace.total_us)
                .unwrap_or(self.slow.len());
            self.slow.insert(at, trace.clone());
            self.slow.truncate(SLOW_RETAIN);
        }
        if self.recent.len() == self.capacity {
            self.recent.pop_front();
        }
        self.recent.push_back(trace);
    }

    /// Lifetime number of traces pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &Trace> {
        self.recent.iter()
    }

    /// The up-to-`k` slowest traces seen, slowest first.
    pub fn slowest(&self, k: usize) -> &[Trace] {
        &self.slow[..k.min(self.slow.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = mint_trace_id();
            assert_eq!(id.len(), 16);
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
            assert!(seen.insert(id), "trace IDs must not repeat");
        }
    }

    #[test]
    fn phases_accumulate_only_while_active() {
        phase_add("ignored", 99); // no trace begun → dropped
        begin();
        phase_add("parse", 10);
        phase_add("symexec", 30);
        phase_add("parse", 5); // summed into the existing entry
        let phases = end();
        assert_eq!(phases, vec![("parse", 15), ("symexec", 30)]);
        // After end() the thread is inactive again.
        phase_add("late", 1);
        begin();
        assert_eq!(end(), vec![], "stale phases must not leak across begins");
    }

    #[test]
    fn nested_phase_timers_charge_only_the_outermost() {
        begin();
        {
            let _outer = phase_timer("relang");
            {
                let _inner = phase_timer("relang");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let phases = end();
        assert_eq!(phases.len(), 1, "one merged relang charge: {phases:?}");
        assert_eq!(phases[0].0, "relang");
        assert!(phases[0].1 >= 1_000, "outer timer spans the sleep");
        // Disabled path: no trace active → timer is inert.
        let _t = phase_timer("relang");
    }

    #[test]
    fn toggling_a_consumer_mid_timer_leaks_no_depth() {
        // Opened while only the recorder is on, the timer enters the
        // nesting depth; it must leave it on drop even though nothing
        // measures by then, or every later outermost timer on this
        // thread would be inert.
        crate::recorder::set_enabled(true);
        let live = phase_timer("relang");
        crate::recorder::set_enabled(false);
        drop(live);
        // The same for a trace that ends while the timer is live.
        begin();
        let live = phase_timer("relang");
        end();
        drop(live);
        begin();
        {
            let _t = phase_timer("relang");
        }
        let phases = end();
        assert_eq!(phases.len(), 1, "the later outermost timer charges: {phases:?}");
    }

    #[test]
    fn trace_json_round_trips() {
        let t = Trace {
            trace_id: "00f1e2d3c4b5a697".into(),
            endpoint: "analyze".into(),
            outcome: "miss".into(),
            total_us: 1234,
            phases: vec![("decode".into(), 12), ("parse".into(), 200)],
        };
        let json = Json::parse(&t.to_json().to_text()).unwrap();
        assert_eq!(Trace::from_json(&json), Some(t));
        assert_eq!(Trace::from_json(&Json::Obj(vec![])), None);
    }

    #[test]
    fn ring_bounds_memory_and_retains_slowest() {
        let mk = |id: u64, us: u64| Trace {
            trace_id: format!("{id:016x}"),
            endpoint: "analyze".into(),
            outcome: "miss".into(),
            total_us: us,
            phases: vec![],
        };
        let mut ring = TraceRing::new(4);
        // One early, very slow request, then a flood of fast ones.
        ring.push(mk(0, 900_000));
        for i in 1..100u64 {
            ring.push(mk(i, i));
        }
        assert_eq!(ring.recent().count(), 4, "ring stays bounded");
        assert_eq!(ring.pushed(), 100);
        let slow = ring.slowest(3);
        assert_eq!(slow.len(), 3);
        assert_eq!(
            slow[0].total_us, 900_000,
            "the early slow request survives ring eviction"
        );
        assert!(slow[0].total_us >= slow[1].total_us);
        assert!(slow[1].total_us >= slow[2].total_us);
    }

    #[test]
    fn render_is_deterministic_and_clock_free() {
        let t = Trace {
            trace_id: "deadbeef00000001".into(),
            endpoint: "analyze".into(),
            outcome: "miss".into(),
            total_us: 1000,
            phases: vec![("decode".into(), 10), ("symexec".into(), 700)],
        };
        let a = t.render_text();
        let b = t.render_text();
        assert_eq!(a, b);
        assert!(a.contains("total=1000µs"));
        assert!(a.contains("70.0%"));
    }
}
