//! The resident analysis server.
//!
//! One blocking accept loop on a unix domain socket; each accepted
//! connection gets its own thread, and *admission* to the expensive
//! part — running the engine — is governed by the
//! [`crate::shield::Shield`]: a bounded concurrency gate with a
//! bounded, deadline-budgeted waiting queue. Reading frames is always
//! immediate (a connection thread is cheap and mostly blocked on I/O),
//! so an overloaded daemon still *answers* every request — with a
//! structured `shed{reason}` response when it cannot afford to compute
//! — instead of letting connections starve unread in an accept
//! backlog. Cache hits and control verbs (`status`, `stats`, `stop`)
//! bypass the gate entirely; only engine runs are rationed.
//!
//! Concurrent misses for the same cache key collapse onto one engine
//! run via the [`crate::shield::FlightTable`]: the first arrival leads
//! and computes, later arrivals wait for the published outcome and are
//! answered with `cache:"coalesced"` (thundering-herd collapse).
//! All state a connection thread needs lives in one shared
//! [`ServerState`]: the two-tier result cache behind a mutex (lookups
//! are microseconds; analysis itself runs *outside* the lock), the
//! spec-library fingerprint sampled once at startup, plain atomic
//! request counters for `status`, and the [`Telemetry`] plane for
//! `stats`.
//!
//! **Telemetry.** Every request is traced: a span opens when the frame
//! arrives, per-phase durations (`decode`, `cache`, `parse`, `setup`,
//! `symexec`, `relang`, `report`, `serialize`) accumulate in a
//! thread-local while the request is serviced, and on completion the
//! assembled [`shoal_obs::Trace`] is recorded — a log-bucketed latency
//! histogram per `endpoint.outcome` (whose count is the request
//! count), a bounded in-memory ring of recent traces (plus the
//! retained worst-N slow log), and optionally one JSONL line per
//! request when [`ServerConfig::trace_log`] is set. The `stats` verb
//! snapshots all of it as a `shoal-stats/v1` document. None of this
//! touches response *content*: daemon-served output stays
//! byte-identical to local `shoal analyze`.
//!
//! Shutdown is cooperative: the `stop` handler answers the client,
//! flips the shutdown flag, then makes a throwaway connection to its
//! own socket so the blocked `accept` wakes up and observes the flag.
//! Every connection thread is joined before the socket file is
//! removed, so a `stop` never strands a concurrent `analyze` — and
//! only after that drain is the telemetry flushed (final `daemon_stats`
//! summary line + buffered trace lines), so the JSONL log is complete
//! when `stop` returns.
//!
//! Startup recovers from stale sockets (a previous daemon that died
//! without unlinking): if binding fails with `AddrInUse`, we probe the
//! socket — a refused connection means nobody is home, so the stale
//! file is removed and the bind retried; a successful probe means a
//! live daemon owns the path and startup fails loudly instead of
//! stealing it.

use crate::cache::{cache_key, CacheStats, Entry, KeyParts, ResultCache};
use crate::protocol::{Request, SCHEMA, STATS_SCHEMA};
use crate::shield::{Boarding, FlightOutcome, FlightTable, Shield, ShieldStats};
use shoal_core::{analyze_source_with, AnalysisOptions};
use shoal_obs::audit::CoverageMap;
use shoal_obs::failpoint;
use shoal_obs::frame::{read_frame, write_frame};
use shoal_obs::json::Json;
use shoal_obs::trace::{self, Trace, TraceRing, SLOW_RETAIN};
use shoal_obs::LogHistogram;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server configuration; see [`run`]. [`ServerConfig::default`] is the
/// one place the daemon's defaults are written down: `shoal daemon`
/// starts from it and overrides only the flags it was given.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Socket path to bind.
    pub socket: PathBuf,
    /// On-disk cache directory (`None` disables the disk tier).
    pub cache_dir: Option<PathBuf>,
    /// In-memory LRU capacity (entries).
    pub cache_capacity: usize,
    /// On-disk cache size cap in bytes (`None` = unbounded); excess
    /// entries are GC'd oldest-mtime-first.
    pub cache_disk_bytes: Option<u64>,
    /// Concurrent analyses admitted (0 = available parallelism).
    pub jobs: usize,
    /// Requests allowed to queue for an analysis slot before arrivals
    /// are shed `queue-full`.
    pub queue_depth: usize,
    /// Ceiling on how long one request may queue before being shed
    /// `queue-timeout` (a request's own deadline budget caps it lower).
    pub queue_wait: Duration,
    /// When set, every completed request appends one JSONL trace line
    /// here, and shutdown appends a final `daemon_stats` summary line.
    pub trace_log: Option<PathBuf>,
    /// Capacity of the in-memory recent-trace ring.
    pub trace_ring: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            socket: crate::default_socket_path(),
            cache_dir: Some(crate::default_cache_dir()),
            cache_capacity: 512,
            cache_disk_bytes: None,
            jobs: 0,
            queue_depth: 256,
            queue_wait: Duration::from_secs(2),
            trace_log: None,
            trace_ring: 256,
        }
    }
}

/// The daemon's always-on observability plane. One mutex guards all of
/// it: recording happens once per *request* (not per event), after the
/// response is already serialized, so the critical section is a few
/// map operations — contention here never delays an answer.
struct Telemetry {
    /// `endpoint.outcome` (e.g. `analyze.hit`) → end-to-end latency
    /// histogram (µs); its `count` is the request count.
    hists: BTreeMap<String, LogHistogram>,
    /// Recent traces + retained worst-by-duration slow log.
    ring: TraceRing,
    /// JSONL export (one `kind:"trace"` line per request).
    log: Option<BufWriter<std::fs::File>>,
    /// Fleet precision health: per-request coverage maps folded in as
    /// they are computed (misses only — a cache hit replays a script
    /// whose coverage was already folded when it was first analyzed).
    audit: CoverageMap,
}

impl Telemetry {
    fn new(trace_ring: usize, trace_log: &Option<PathBuf>) -> Telemetry {
        let log = trace_log.as_ref().and_then(|path| {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(parent);
                }
            }
            std::fs::File::create(path).ok().map(BufWriter::new)
        });
        Telemetry {
            hists: BTreeMap::new(),
            ring: TraceRing::new(trace_ring.max(1)),
            log,
            audit: CoverageMap::default(),
        }
    }

    /// Records one completed request (and folds its coverage map, when
    /// the request computed one).
    fn record(&mut self, trace: Trace, coverage: Option<&CoverageMap>) {
        let key = format!("{}.{}", trace.endpoint, trace.outcome);
        self.hists.entry(key).or_default().record(trace.total_us);
        if let Some(cov) = coverage {
            self.audit.merge(cov);
        }
        if let Some(log) = &mut self.log {
            let _ = writeln!(log, "{}", trace.to_json().to_text());
        }
        self.ring.push(trace);
    }

    /// Shutdown drain: append the final `daemon_stats` summary line and
    /// flush every buffered trace line to disk.
    fn flush(&mut self, summary: &Json) {
        if let Some(log) = &mut self.log {
            let _ = writeln!(log, "{}", summary.to_text());
            let _ = log.flush();
        }
    }
}

/// Shared server state, one per daemon process.
struct ServerState {
    cache: Mutex<ResultCache>,
    telemetry: Mutex<Telemetry>,
    /// Admission gate + shed/coalesce counters.
    shield: Shield,
    /// In-flight dedup: same-key misses collapse onto one engine run.
    flights: FlightTable,
    spec_fingerprint: u64,
    started: Instant,
    shutdown: AtomicBool,
    socket: PathBuf,
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Binds the socket and serves until a `stop` request arrives.
///
/// # Errors
///
/// Propagates bind failures (including a live daemon already owning
/// the socket) and fatal accept errors.
pub fn run(config: ServerConfig) -> io::Result<()> {
    let listener = bind_recovering(&config.socket)?;
    let spec_fingerprint = shoal_spec::SpecLibrary::builtin().fingerprint();
    let concurrency = match config.jobs {
        0 => shoal_obs::pool::available_parallelism(),
        n => n,
    };
    let state = Arc::new(ServerState {
        cache: Mutex::new(ResultCache::new(
            config.cache_capacity,
            config.cache_dir.clone(),
            config.cache_disk_bytes,
        )),
        telemetry: Mutex::new(Telemetry::new(config.trace_ring, &config.trace_log)),
        shield: Shield::new(concurrency, config.queue_depth, config.queue_wait),
        flights: FlightTable::new(),
        spec_fingerprint,
        started: Instant::now(),
        shutdown: AtomicBool::new(false),
        socket: config.socket.clone(),
        requests: AtomicU64::new(0),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    });

    // One thread per connection: frame reads are never starved by
    // analyses (the shield rations those), so an overloaded daemon
    // still answers — with a shed — instead of leaving clients unread.
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let state = Arc::clone(&state);
                let spawned = std::thread::Builder::new()
                    .name("shoal-conn".into())
                    .spawn(move || {
                        // A panicking connection must not take the
                        // daemon down (engine panics are caught deeper;
                        // this guards the serving loop itself).
                        if catch_unwind(AssertUnwindSafe(|| serve_connection(stream, &state)))
                            .is_err()
                        {
                            shoal_obs::counter_add("daemon.connection_panics", 1);
                        }
                    });
                match spawned {
                    Ok(handle) => connections.push(handle),
                    Err(_) => {
                        // Thread exhaustion: drop the connection (the
                        // client sees EOF and falls back locally).
                        shoal_obs::counter_add("daemon.conn_spawn_failures", 1);
                    }
                }
                connections.retain(|h| !h.is_finished());
            }
            Err(err) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                return Err(err);
            }
        }
    }
    // Drain in-flight connections before unlinking the socket.
    for handle in connections {
        let _ = handle.join();
    }
    // Only now is the telemetry complete: every in-flight request has
    // recorded its trace. Drain it before the socket disappears.
    let summary = handle_stats(&state);
    state.telemetry.lock().unwrap().flush(&summary);
    let _ = std::fs::remove_file(&config.socket);
    Ok(())
}

/// Binds `socket`, removing a stale file left by a dead daemon.
fn bind_recovering(socket: &PathBuf) -> io::Result<UnixListener> {
    if let Some(parent) = socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    match UnixListener::bind(socket) {
        Ok(l) => Ok(l),
        Err(err) if err.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(socket).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving {}", socket.display()),
                ));
            }
            std::fs::remove_file(socket)?;
            UnixListener::bind(socket)
        }
        Err(err) => Err(err),
    }
}

/// What `dispatch` learned about one request, for the trace record.
struct Served {
    response: Json,
    /// `analyze` / `status` / `stats` / `stop` / `unknown`.
    endpoint: &'static str,
    /// `hit` / `miss` / `parse-error` / `panic` / `bad-request` / `ok`.
    outcome: &'static str,
    /// Client-minted ID, echoed in the response; server-minted when
    /// the client sent none, so every trace is addressable.
    trace_id: Option<String>,
    /// Coverage map from a freshly-computed analysis (miss path only),
    /// folded into the telemetry plane alongside the trace.
    coverage: Option<CoverageMap>,
}

/// Handles one client connection: frames in, frames out, until EOF.
fn serve_connection(mut stream: UnixStream, state: &ServerState) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return, // clean EOF or a client that vanished
        };
        // Chaos hook: kill this connection's worker mid-request (after
        // the frame is read, before any response) — the client must
        // classify the resulting EOF as transient and retry/fall back.
        failpoint::hit("daemon::serve");
        let t0 = Instant::now();
        state.requests.fetch_add(1, Ordering::Relaxed);
        shoal_obs::counter_add("daemon.requests", 1);

        // Open the request span: phase charges from here to `end`
        // accumulate in this worker's thread-local.
        trace::begin();
        let served = dispatch(&payload, state);
        let ser_t = Instant::now();
        let text = served.response.to_text();
        trace::phase_add("serialize", ser_t.elapsed().as_micros() as u64);
        let phases = trace::end();
        let total_us = t0.elapsed().as_micros() as u64;
        shoal_obs::hist_record("daemon.request_us", total_us);

        let trace = Trace {
            trace_id: served.trace_id.unwrap_or_else(trace::mint_trace_id),
            endpoint: served.endpoint.to_string(),
            outcome: served.outcome.to_string(),
            total_us,
            phases: phases.into_iter().map(|(n, us)| (n.to_string(), us)).collect(),
        };
        state
            .telemetry
            .lock()
            .unwrap()
            .record(trace, served.coverage.as_ref());

        // Chaos hook: drop the connection mid-frame — write a length
        // prefix and only half the payload, then hang up. The client
        // must treat the torn frame as transient and retry/fall back.
        if failpoint::armed("daemon::truncate-response") {
            let bytes = text.as_bytes();
            let _ = stream.write_all(&(bytes.len() as u32).to_be_bytes());
            let _ = stream.write_all(&bytes[..bytes.len() / 2]);
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        if write_frame(&mut stream, text.as_bytes()).is_err() {
            return;
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Parses and executes one request, always producing a response.
fn dispatch(payload: &[u8], state: &ServerState) -> Served {
    let decode_t = Instant::now();
    let request = std::str::from_utf8(payload)
        .map_err(|_| "frame is not utf-8".to_string())
        .and_then(|text| Json::parse(text).map_err(|e| format!("frame is not json: {e}")))
        .and_then(|json| Request::from_json(&json));
    trace::phase_add("decode", decode_t.elapsed().as_micros() as u64);
    let request = match request {
        Ok(r) => r,
        Err(e) => {
            return Served {
                response: error_response("bad-request", &e),
                endpoint: "unknown",
                outcome: "bad-request",
                trace_id: None,
                coverage: None,
            }
        }
    };
    match request {
        Request::Analyze {
            source,
            options,
            trace_id,
        } => handle_analyze(&source, &options, trace_id, state),
        Request::Status => Served {
            response: handle_status(state),
            endpoint: "status",
            outcome: "ok",
            trace_id: None,
            coverage: None,
        },
        Request::Stats => Served {
            response: handle_stats(state),
            endpoint: "stats",
            outcome: "ok",
            trace_id: None,
            coverage: None,
        },
        Request::Stop => Served {
            response: handle_stop(state),
            endpoint: "stop",
            outcome: "ok",
            trace_id: None,
            coverage: None,
        },
    }
}

/// Serves one analyze request: cache lookup, else run the engine and
/// populate both tiers. Parse errors (strict mode) and panics are
/// reported, never cached.
fn handle_analyze(
    source: &str,
    options: &AnalysisOptions,
    trace_id: Option<String>,
    state: &ServerState,
) -> Served {
    let key = cache_key(&KeyParts::strict(source, options, state.spec_fingerprint));

    let cached = {
        let _t = trace::phase_timer("cache");
        state.cache.lock().unwrap().get(&key)
    };
    if let Some(entry) = cached {
        state.hits.fetch_add(1, Ordering::Relaxed);
        return Served {
            response: analyze_response(&key, "hit", &entry, trace_id.as_deref()),
            endpoint: "analyze",
            outcome: "hit",
            trace_id,
            coverage: None,
        };
    }
    state.misses.fetch_add(1, Ordering::Relaxed);

    // Thundering-herd collapse: a miss boards the flight for its key.
    // A waiter blocks until the leader publishes, then fans the
    // outcome out without an engine run or an admission slot.
    let board_t = Instant::now();
    let lease = match state.flights.board(&key) {
        Boarding::Waiter(outcome) => {
            trace::phase_add("coalesce", board_t.elapsed().as_micros() as u64);
            return serve_flight_outcome(&key, outcome, trace_id, state);
        }
        Boarding::Leader(lease) => lease,
    };

    // Admission control: the leader asks the shield for an engine
    // slot, waiting at most the configured queue wait — capped lower
    // by the request's own deadline budget when it carries one. A shed
    // is published to any waiters too: they fall back locally just
    // like the leader's client, and nothing queues unboundedly.
    let admit_t = Instant::now();
    let slot = state.shield.admit(options.deadline);
    trace::phase_add("admission", admit_t.elapsed().as_micros() as u64);
    let _slot = match slot {
        Ok(slot) => slot,
        Err(reason) => {
            lease.publish(FlightOutcome::Shed(reason.label()));
            shoal_obs::counter_add("daemon.sheds", 1);
            return Served {
                response: shed_response(reason.label()),
                endpoint: "analyze",
                outcome: "shed",
                trace_id,
                coverage: None,
            };
        }
    };

    // Chaos hook: stall the admitted engine run (exercises client
    // request timeouts without touching admission).
    failpoint::hit("daemon::analyze");

    // Run the engine outside the cache lock; shield the worker from
    // engine panics so one poisonous script can't take the daemon down.
    // The engine's own phase hooks (`parse`, `symexec`, `relang`,
    // `report`) charge the open trace from inside this call.
    //
    // Every miss is audited: `audit` is excluded from the canonical
    // cache key (like `profile`, it is a side channel that never
    // enters the serialized report body), so flipping it here changes
    // neither the key nor the response bytes — it only feeds the
    // fleet-precision plane in `stats`.
    let mut opts = options.clone();
    opts.audit = true;
    let src = source.to_string();
    let outcome = catch_unwind(AssertUnwindSafe(move || analyze_source_with(&src, opts)));
    match outcome {
        Ok(Ok(mut report)) => {
            let coverage = report.coverage.take();
            let entry = crate::entry_from_report(&report);
            {
                let _t = trace::phase_timer("cache");
                state.cache.lock().unwrap().put(key.clone(), entry.clone());
            }
            // Publish only after the cache holds the entry: a request
            // arriving between publication and its own cache lookup
            // must find the verdict, not start a redundant flight.
            lease.publish(FlightOutcome::Verdict(entry.clone()));
            Served {
                response: analyze_response(&key, "miss", &entry, trace_id.as_deref()),
                endpoint: "analyze",
                outcome: "miss",
                trace_id,
                coverage,
            }
        }
        Ok(Err(parse_err)) => {
            let msg = parse_err.to_string();
            lease.publish(FlightOutcome::ParseError(msg.clone()));
            Served {
                response: error_response("parse", &msg),
                endpoint: "analyze",
                outcome: "parse-error",
                trace_id,
                coverage: None,
            }
        }
        Err(panic) => {
            let msg = panic_message(&panic);
            shoal_obs::counter_add("daemon.panics", 1);
            lease.publish(FlightOutcome::Panic(msg.clone()));
            Served {
                response: error_response("panic", &msg),
                endpoint: "analyze",
                outcome: "panic",
                trace_id,
                coverage: None,
            }
        }
    }
}

/// Answers a coalesced waiter from its flight's published outcome.
/// A fanned-out verdict is marked `cache:"coalesced"` (the bytes of
/// `findings`/`text`/`body` are identical to any other serving path);
/// a shed leader sheds its waiters too; errors mirror the leader's.
fn serve_flight_outcome(
    key: &str,
    outcome: FlightOutcome,
    trace_id: Option<String>,
    state: &ServerState,
) -> Served {
    match outcome {
        FlightOutcome::Verdict(entry) => {
            state.shield.note_coalesced();
            shoal_obs::counter_add("daemon.coalesced", 1);
            Served {
                response: analyze_response(key, "coalesced", &entry, trace_id.as_deref()),
                endpoint: "analyze",
                outcome: "coalesced",
                trace_id,
                coverage: None,
            }
        }
        FlightOutcome::Shed(reason) => {
            shoal_obs::counter_add("daemon.sheds", 1);
            Served {
                response: shed_response(reason),
                endpoint: "analyze",
                outcome: "shed",
                trace_id,
                coverage: None,
            }
        }
        FlightOutcome::ParseError(msg) => Served {
            response: error_response("parse", &msg),
            endpoint: "analyze",
            outcome: "parse-error",
            trace_id,
            coverage: None,
        },
        FlightOutcome::Panic(msg) => Served {
            response: error_response("panic", &msg),
            endpoint: "analyze",
            outcome: "panic",
            trace_id,
            coverage: None,
        },
    }
}

fn handle_status(state: &ServerState) -> Json {
    let CacheStats {
        hot_entries,
        disk_entries,
        evictions,
        ..
    } = state.cache.lock().unwrap().stats();
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::Str("status".into())),
        ("version".into(), Json::Str(crate::version().into())),
        ("pid".into(), Json::Num(std::process::id() as f64)),
        (
            "uptime_ms".into(),
            Json::Num(state.started.elapsed().as_millis() as f64),
        ),
        (
            "spec_fingerprint".into(),
            Json::Str(format!("{:016x}", state.spec_fingerprint)),
        ),
        (
            "requests".into(),
            Json::Num(state.requests.load(Ordering::Relaxed) as f64),
        ),
        (
            "hits".into(),
            Json::Num(state.hits.load(Ordering::Relaxed) as f64),
        ),
        (
            "misses".into(),
            Json::Num(state.misses.load(Ordering::Relaxed) as f64),
        ),
        ("evictions".into(), Json::Num(evictions as f64)),
        ("hot_entries".into(), Json::Num(hot_entries as f64)),
        ("disk_entries".into(), Json::Num(disk_entries as f64)),
    ])
}

/// The full telemetry snapshot: `shoal-stats/v1`.
///
/// Field order is part of the schema (stable across releases):
/// `schema`, `ok`, `op`, `version`, `pid`, `uptime_ms`, `workers`,
/// `requests` (`total` + `by` endpoint.outcome), `cache`, `latency_us`
/// (per endpoint.outcome histogram summaries), `slow_requests`,
/// `audit`, `shield`. New fields are appended, never inserted —
/// consumers may index by position.
fn handle_stats(state: &ServerState) -> Json {
    let cache = state.cache.lock().unwrap().stats();
    let telemetry = state.telemetry.lock().unwrap();

    let by = telemetry
        .hists
        .iter()
        .map(|(k, h)| (k.clone(), Json::Num(h.count as f64)))
        .collect();
    let latency = telemetry
        .hists
        .iter()
        .map(|(k, h)| (k.clone(), h.to_json()))
        .collect();
    let slow = telemetry
        .ring
        .slowest(SLOW_RETAIN)
        .iter()
        .map(Trace::to_json)
        .collect();

    Json::Obj(vec![
        ("schema".into(), Json::Str(STATS_SCHEMA.into())),
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::Str("stats".into())),
        ("version".into(), Json::Str(crate::version().into())),
        ("pid".into(), Json::Num(std::process::id() as f64)),
        (
            "uptime_ms".into(),
            Json::Num(state.started.elapsed().as_millis() as f64),
        ),
        (
            "workers".into(),
            Json::Num(state.shield.concurrency() as f64),
        ),
        (
            "requests".into(),
            Json::Obj(vec![
                (
                    "total".into(),
                    Json::Num(state.requests.load(Ordering::Relaxed) as f64),
                ),
                ("traced".into(), Json::Num(telemetry.ring.pushed() as f64)),
                ("by".into(), Json::Obj(by)),
            ]),
        ),
        ("cache".into(), cache_stats_json(&cache)),
        ("latency_us".into(), Json::Obj(latency)),
        ("slow_requests".into(), Json::Arr(slow)),
        ("audit".into(), telemetry.audit.summary_json(5)),
        ("shield".into(), shield_stats_json(&state.shield.stats())),
    ])
}

/// Serializes the overload plane: admission-gate configuration, shed
/// taxonomy, coalesced fan-outs, and live queue occupancy.
fn shield_stats_json(s: &ShieldStats) -> Json {
    Json::Obj(vec![
        ("concurrency".into(), Json::Num(s.concurrency as f64)),
        ("queue_depth".into(), Json::Num(s.queue_depth as f64)),
        ("queue_wait_ms".into(), Json::Num(s.queue_wait_ms as f64)),
        ("admitted".into(), Json::Num(s.admitted as f64)),
        ("sheds".into(), Json::Num(s.sheds() as f64)),
        (
            "sheds_by".into(),
            Json::Obj(vec![
                (
                    "queue-full".into(),
                    Json::Num(s.shed_queue_full as f64),
                ),
                (
                    "queue-timeout".into(),
                    Json::Num(s.shed_queue_timeout as f64),
                ),
            ]),
        ),
        ("coalesced".into(), Json::Num(s.coalesced as f64)),
        (
            "queue_highwater".into(),
            Json::Num(s.queue_highwater as f64),
        ),
        ("running".into(), Json::Num(s.running as f64)),
        ("queued".into(), Json::Num(s.queued as f64)),
    ])
}

/// Serializes [`CacheStats`] (occupancy + the full outcome taxonomy).
fn cache_stats_json(cache: &CacheStats) -> Json {
    let o = cache.outcomes;
    Json::Obj(vec![
        ("hot_entries".into(), Json::Num(cache.hot_entries as f64)),
        ("disk_entries".into(), Json::Num(cache.disk_entries as f64)),
        ("capacity".into(), Json::Num(cache.capacity as f64)),
        ("lookups".into(), Json::Num(o.lookups as f64)),
        ("hot_hits".into(), Json::Num(o.hot_hits as f64)),
        ("disk_hits".into(), Json::Num(o.disk_hits as f64)),
        ("misses".into(), Json::Num(o.misses as f64)),
        ("corrupt_misses".into(), Json::Num(o.corrupt_misses as f64)),
        ("write_failures".into(), Json::Num(o.write_failures as f64)),
        ("evictions".into(), Json::Num(o.evictions as f64)),
        ("disk_evictions".into(), Json::Num(o.disk_evictions as f64)),
    ])
}

fn handle_stop(state: &ServerState) -> Json {
    state.shutdown.store(true, Ordering::SeqCst);
    // Wake the accept loop: it is blocked in `accept`, and will check
    // the flag as soon as any connection (this throwaway one) lands.
    let _ = UnixStream::connect(&state.socket);
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::Str("stop".into())),
    ])
}

fn analyze_response(key: &str, cache: &str, entry: &Entry, trace_id: Option<&str>) -> Json {
    let mut fields = vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("ok".into(), Json::Bool(true)),
        ("op".into(), Json::Str("analyze".into())),
        ("cache".into(), Json::Str(cache.into())),
        ("key".into(), Json::Str(key.into())),
    ];
    if let Some(id) = trace_id {
        // Echo the client's ID so it can stitch its `served=` marker to
        // the server-side trace.
        fields.push(("trace_id".into(), Json::Str(id.into())));
    }
    fields.push(("findings".into(), Json::Num(entry.findings as f64)));
    fields.push((
        "text".into(),
        Json::Arr(entry.text.iter().map(|l| Json::Str(l.clone())).collect()),
    ));
    fields.push(("body".into(), entry.body.clone()));
    Json::Obj(fields)
}

/// The structured overload answer: `ok:false, error:"shed"` plus the
/// machine-readable reason. A shed is authoritative — the client falls
/// back locally at once rather than retrying into the same overload.
fn shed_response(reason: &str) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str("shed".into())),
        ("reason".into(), Json::Str(reason.into())),
        (
            "message".into(),
            Json::Str(format!("daemon overloaded ({reason}); analyze locally")),
        ),
    ])
}

fn error_response(kind: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(kind.into())),
        ("message".into(), Json::Str(message.into())),
    ])
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked".to_string()
    }
}
