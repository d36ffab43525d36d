//! The process-global event recorder.
//!
//! Instrumentation sites call [`crate::event!`] (and phase charges,
//! [`crate::trace::phase_add`], record `span` events here); each checks
//! one relaxed atomic load and does nothing further while recording is
//! disabled, which keeps the engine's hot loops at their uninstrumented
//! speed by default. A CLI run with `--trace`/`--stats`/`--profile` calls
//! [`install`] up front and [`take_events`]/[`crate::snapshot`] at the
//! end.

use crate::json::Json;
use crate::metrics;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    /// Borrowed when the text is `'static` (phase names), so recording
    /// it copies nothing.
    Str(Cow<'static, str>),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Cow::Owned(v.to_string()))
    }
}

impl Value {
    fn to_json(&self) -> Json {
        match self {
            Value::U64(v) => Json::Num(*v as f64),
            Value::I64(v) => Json::Num(*v as f64),
            Value::F64(v) => Json::Num(*v),
            Value::Bool(v) => Json::Bool(*v),
            Value::Str(v) => Json::Str(v.to_string()),
        }
    }
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since [`install`].
    pub t_us: u64,
    /// Event kind: `fork`, `prune`, `cap_hit`, `span`, ….
    pub kind: &'static str,
    /// Arbitrary structured fields, in call-site order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Renders the event as one JSON object (one JSONL line).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("t_us".to_string(), Json::Num(self.t_us as f64)),
            ("kind".to_string(), Json::Str(self.kind.to_string())),
        ];
        for (k, v) in &self.fields {
            obj.push((k.to_string(), v.to_json()));
        }
        Json::Obj(obj)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<RecorderState> = Mutex::new(RecorderState {
    epoch: None,
    events: Vec::new(),
});

struct RecorderState {
    epoch: Option<Instant>,
    events: Vec<Event>,
}

/// Is recording enabled? One relaxed atomic load — this is the entire
/// disabled-path cost of every instrumentation site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables recording, clearing any previous events and metrics.
pub fn install() {
    let mut st = STATE.lock().unwrap();
    st.epoch = Some(Instant::now());
    st.events.clear();
    metrics::reset();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Flips recording without clearing collected data.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Appends an event (called by the [`crate::event!`] macro after the
/// enabled check; callers may also use it directly).
pub fn record_event(kind: &'static str, fields: Vec<(&'static str, Value)>) {
    let mut st = STATE.lock().unwrap();
    let t_us = st
        .epoch
        .map(|e| e.elapsed().as_micros() as u64)
        .unwrap_or(0);
    st.events.push(Event { t_us, kind, fields });
}

/// Drains and returns all recorded events.
pub fn take_events() -> Vec<Event> {
    std::mem::take(&mut STATE.lock().unwrap().events)
}

/// Serializes events as JSON Lines: one object per line.
pub fn trace_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        e.to_json().write(&mut out);
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace back into loosely-typed JSON objects (used by
/// round-trip tests and trace tooling).
pub fn parse_jsonl(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("bad JSONL line {l:?}: {e}")))
        .collect()
}
