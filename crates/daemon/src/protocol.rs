//! The `shoal-jit/v1` wire protocol.
//!
//! One request frame, one response frame, both length-prefixed JSON
//! ([`shoal_obs::frame`]). The protocol is deliberately boring — a
//! stable surface outlives the engine behind it (the maintenance
//! lesson this subsystem exists to apply): every message carries a
//! `schema` tag, unknown fields are ignored, and a malformed request
//! gets a structured error response, never a dropped connection.
//!
//! Requests:
//!
//! ```json
//! {"schema":"shoal-jit/v1","op":"analyze","source":"…",
//!  "options":{"loop_bound":2,"max_worlds":64,"stream_types":true,
//!             "pruning":true,"fuel":null,"deadline_ms":null},
//!  "trace_id":"00f1e2d3c4b5a697"}
//! {"schema":"shoal-jit/v1","op":"status"}
//! {"schema":"shoal-jit/v1","op":"stats"}
//! {"schema":"shoal-jit/v1","op":"stop"}
//! ```
//!
//! Responses: see [`crate::server`] (`ok`, `cache` =
//! `hit`/`miss`/`coalesced`, `key`, `body`, `text`, `findings` for
//! analyze; counters for status; `ok` for stop; `error` + `message` on
//! failure). An overloaded daemon sheds with a structured refusal
//! instead of queueing unboundedly:
//!
//! ```json
//! {"schema":"shoal-jit/v1","ok":false,"error":"shed",
//!  "reason":"queue-full","message":"daemon overloaded (queue-full); analyze locally"}
//! ```
//!
//! `reason` is machine-readable (`queue-full` | `queue-timeout`); a
//! shed is authoritative, so clients fall back locally rather than
//! retry. `cache:"coalesced"` marks a verdict fanned out from another
//! request's in-flight analysis — the payload fields are byte-
//! identical to a hit or miss for the same key.

use shoal_core::AnalysisOptions;
use shoal_obs::json::Json;
use std::time::Duration;

/// Protocol schema tag; requests and responses both carry it.
pub const SCHEMA: &str = "shoal-jit/v1";

/// Schema tag of the telemetry snapshot served by the `stats` verb
/// (and `shoal daemon status --format json`).
pub const STATS_SCHEMA: &str = "shoal-stats/v1";

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Analyze `source` under `options` with the strict parser.
    /// `trace_id` is minted by the client and echoed back in the
    /// response, linking the client's `served=` marker to the
    /// server-side trace. Optional on the wire (unknown fields are
    /// ignored), so old clients and servers interoperate: an old
    /// server drops the field, an old client never sends it.
    Analyze {
        source: String,
        options: AnalysisOptions,
        trace_id: Option<String>,
    },
    /// Report daemon liveness, uptime, and cache statistics.
    Status,
    /// Report the full telemetry snapshot: per-endpoint/per-outcome
    /// request counts, latency percentiles, cache counters, and the
    /// slow-request log ([`STATS_SCHEMA`]).
    Stats,
    /// Drain in-flight requests and shut down.
    Stop,
}

/// Serializes [`AnalysisOptions`] for the wire. `profile` is not
/// carried: profiled runs are meaningless served remotely, so the
/// client analyzes those in-process (see
/// [`AnalysisOptions::canonical`]).
pub fn options_json(o: &AnalysisOptions) -> Json {
    Json::Obj(vec![
        ("loop_bound".into(), Json::Num(o.loop_bound as f64)),
        ("max_worlds".into(), Json::Num(o.max_worlds as f64)),
        ("stream_types".into(), Json::Bool(o.enable_stream_types)),
        ("pruning".into(), Json::Bool(o.enable_pruning)),
        (
            "fuel".into(),
            match o.fuel {
                Some(f) => Json::Num(f as f64),
                None => Json::Null,
            },
        ),
        (
            "deadline_ms".into(),
            match o.deadline {
                Some(d) => Json::Num(d.as_millis() as f64),
                None => Json::Null,
            },
        ),
    ])
}

/// Parses wire options; absent fields take the defaults, so older
/// clients keep working against newer daemons.
pub fn options_from_json(json: &Json) -> AnalysisOptions {
    let mut o = AnalysisOptions::default();
    if let Some(n) = json.get("loop_bound").and_then(Json::as_u64) {
        o.loop_bound = n as usize;
    }
    if let Some(n) = json.get("max_worlds").and_then(Json::as_u64) {
        o.max_worlds = n as usize;
    }
    if let Some(Json::Bool(b)) = json.get("stream_types") {
        o.enable_stream_types = *b;
    }
    if let Some(Json::Bool(b)) = json.get("pruning") {
        o.enable_pruning = *b;
    }
    o.fuel = json.get("fuel").and_then(Json::as_u64);
    o.deadline = json
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .map(Duration::from_millis);
    o
}

impl Request {
    /// Serializes for the wire.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("schema".into(), Json::Str(SCHEMA.into()))];
        match self {
            Request::Analyze {
                source,
                options,
                trace_id,
            } => {
                fields.push(("op".into(), Json::Str("analyze".into())));
                fields.push(("source".into(), Json::Str(source.clone())));
                fields.push(("options".into(), options_json(options)));
                if let Some(id) = trace_id {
                    fields.push(("trace_id".into(), Json::Str(id.clone())));
                }
            }
            Request::Status => fields.push(("op".into(), Json::Str("status".into()))),
            Request::Stats => fields.push(("op".into(), Json::Str("stats".into()))),
            Request::Stop => fields.push(("op".into(), Json::Str("stop".into()))),
        }
        Json::Obj(fields)
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the frame is not valid
    /// `shoal-jit/v1` (wrong schema, unknown op, missing fields); the
    /// server turns it into a `bad-request` response.
    pub fn from_json(json: &Json) -> Result<Request, String> {
        match json.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("unsupported schema {other:?} (want {SCHEMA:?})")),
        }
        match json.get("op").and_then(Json::as_str) {
            Some("analyze") => {
                let source = json
                    .get("source")
                    .and_then(Json::as_str)
                    .ok_or("analyze request needs a string `source`")?
                    .to_string();
                let options = json
                    .get("options")
                    .map(options_from_json)
                    .unwrap_or_default();
                let trace_id = json
                    .get("trace_id")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                Ok(Request::Analyze {
                    source,
                    options,
                    trace_id,
                })
            }
            Some("status") => Ok(Request::Status),
            Some("stats") => Ok(Request::Stats),
            Some("stop") => Ok(Request::Stop),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Analyze {
                source: "echo \"hi\"\n".into(),
                options: AnalysisOptions {
                    fuel: Some(500),
                    deadline: Some(Duration::from_millis(250)),
                    max_worlds: 32,
                    ..AnalysisOptions::default()
                },
                trace_id: Some("00f1e2d3c4b5a697".into()),
            },
            Request::Analyze {
                source: "true\n".into(),
                options: AnalysisOptions::default(),
                trace_id: None,
            },
            Request::Status,
            Request::Stats,
            Request::Stop,
        ];
        for req in reqs {
            let json = req.to_json();
            let text = json.to_text();
            let back = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn options_round_trip_preserves_canonical_key() {
        let o = AnalysisOptions {
            loop_bound: 5,
            max_worlds: 7,
            enable_stream_types: false,
            enable_pruning: false,
            fuel: Some(123),
            deadline: Some(Duration::from_millis(42)),
            ..AnalysisOptions::default()
        };
        let back = options_from_json(&options_json(&o));
        assert_eq!(back.canonical(), o.canonical());
    }

    #[test]
    fn unknown_fields_are_tolerated_for_interop() {
        // A frame from a *newer* client (extra fields this version has
        // never heard of) must still parse — the trace_id rollout
        // depends on exactly this property holding in both directions.
        let futuristic = r#"{"schema":"shoal-jit/v1","op":"analyze","source":"true\n",
            "trace_id":"aa00bb11cc22dd33","shard_hint":7,"tenant":"t1"}"#;
        let req = Request::from_json(&Json::parse(futuristic).unwrap()).unwrap();
        match req {
            Request::Analyze {
                source, trace_id, ..
            } => {
                assert_eq!(source, "true\n");
                assert_eq!(trace_id.as_deref(), Some("aa00bb11cc22dd33"));
            }
            other => panic!("expected analyze, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        for bad in [
            r#"{"op":"analyze"}"#,                                    // no schema
            r#"{"schema":"shoal-jit/v1","op":"explode"}"#,            // unknown op
            r#"{"schema":"shoal-jit/v1","op":"analyze"}"#,            // no source
            r#"{"schema":"shoal-jit/v9","op":"status"}"#,             // future schema
        ] {
            let json = Json::parse(bad).unwrap();
            assert!(Request::from_json(&json).is_err(), "{bad}");
        }
    }
}
