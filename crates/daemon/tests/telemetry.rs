//! End-to-end tests for the daemon's telemetry plane: trace-ID
//! round-trips over the real socket, `stats` reconciliation against
//! the requests actually made, counter monotonicity under concurrent
//! load, the shutdown JSONL flush, and the pinned slow-request
//! rendering.

use shoal_core::provenance::report_body_fields;
use shoal_core::{analyze_source_with, AnalysisOptions};
use shoal_daemon::client::{self, ClientConfig, Served};
use shoal_daemon::protocol::{Request, STATS_SCHEMA};
use shoal_daemon::server::{run, ServerConfig};
use shoal_obs::json::Json;
use shoal_obs::Trace;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A daemon running in a background thread, torn down via `stop`.
struct TestDaemon {
    socket: PathBuf,
    base: PathBuf,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestDaemon {
    fn start(tag: &str, trace_log: Option<&str>) -> TestDaemon {
        let base = std::env::temp_dir().join(format!(
            "shoal-telemetry-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let socket = base.join("daemon.sock");
        let config = ServerConfig {
            socket: socket.clone(),
            cache_dir: Some(base.join("cache")),
            cache_capacity: 64,
            jobs: 2,
            trace_log: trace_log.map(|name| base.join(name)),
            ..ServerConfig::default()
        };
        let thread = std::thread::spawn(move || run(config));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            if std::os::unix::net::UnixStream::connect(&socket).is_ok() {
                return TestDaemon {
                    socket,
                    base,
                    thread: Some(thread),
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon did not come up on {}", socket.display());
    }

    fn client(&self) -> ClientConfig {
        ClientConfig {
            socket: self.socket.clone(),
            auto_spawn: false,
            spawn_wait: Duration::from_millis(100),
            ..ClientConfig::default()
        }
    }

    /// Stops the daemon and waits for the server thread (so post-stop
    /// assertions — socket gone, trace log flushed — are race-free).
    fn stop_and_join(&mut self) {
        let _ = client::stop(&self.socket);
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread").expect("clean shutdown");
        }
    }
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        self.stop_and_join();
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

fn num(json: &Json, field: &str) -> u64 {
    json.get(field).and_then(Json::as_u64).unwrap_or(0)
}

/// Every latency histogram in a stats snapshot must be well-formed:
/// count > 0 and min ≤ p50 ≤ p95 ≤ p99 ≤ max.
fn assert_latency_well_formed(stats: &Json) {
    let Some(Json::Obj(hists)) = stats.get("latency_us") else {
        panic!("stats carries no latency_us object");
    };
    for (key, h) in hists {
        let (p50, p95, p99) = (num(h, "p50"), num(h, "p95"), num(h, "p99"));
        assert!(num(h, "count") > 0, "{key}: empty histogram was exported");
        assert!(
            num(h, "min") <= p50 && p50 <= p95 && p95 <= p99 && p99 <= num(h, "max"),
            "{key}: percentiles out of order: {}",
            h.to_text()
        );
    }
}

#[test]
fn trace_ids_round_trip_client_to_server_and_back() {
    let daemon = TestDaemon::start("roundtrip", None);
    let cfg = daemon.client();
    let opts = AnalysisOptions::default();

    // Through the high-level client: the minted ID comes back.
    let r = client::analyze(&cfg, "echo hi\n", &opts);
    assert!(matches!(r.served, Served::Daemon { .. }));
    let id = r.trace_id.expect("daemon echoes the client-minted ID");
    assert_eq!(id.len(), 16, "trace IDs are 16 hex digits: {id}");
    assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id}");

    // Through a raw frame with a chosen ID: echoed verbatim, and the
    // server-side trace in `stats` carries the same ID.
    let chosen = "feedc0de12345678";
    let resp = client::request(
        &daemon.socket,
        &Request::Analyze {
            source: "echo raw\n".into(),
            options: opts.clone(),
            trace_id: Some(chosen.into()),
        },
    )
    .expect("daemon answers");
    assert_eq!(
        resp.get("trace_id").and_then(Json::as_str),
        Some(chosen),
        "response must echo the request's trace_id"
    );
    let stats = client::stats(&daemon.socket).expect("stats verb answers");
    let slow = stats.to_text();
    assert!(
        slow.contains(chosen),
        "the server-side trace ring must hold trace {chosen}: {slow}"
    );
}

#[test]
fn stats_reconcile_with_the_requests_made() {
    let daemon = TestDaemon::start("reconcile", None);
    let cfg = daemon.client();
    let opts = AnalysisOptions::default();

    // 3 distinct scripts, each analyzed twice: 3 misses + 3 hits.
    let scripts = ["echo a\n", "echo b\n", "echo c\n"];
    for script in scripts {
        for _ in 0..2 {
            let r = client::analyze(&cfg, script, &opts);
            assert!(matches!(r.served, Served::Daemon { .. }));
        }
    }

    let stats = client::stats(&daemon.socket).expect("stats verb answers");
    assert_eq!(
        stats.get("schema").and_then(Json::as_str),
        Some(STATS_SCHEMA)
    );
    let by = stats.get("requests").and_then(|r| r.get("by")).cloned();
    let by = by.expect("stats carries requests.by");
    assert_eq!(num(&by, "analyze.miss"), 3, "{}", by.to_text());
    assert_eq!(num(&by, "analyze.hit"), 3, "{}", by.to_text());

    // The cache taxonomy is total and consistent with the endpoint
    // counters: every analyze request did exactly one lookup.
    let cache = stats.get("cache").cloned().expect("stats carries cache");
    assert_eq!(num(&cache, "lookups"), 6);
    assert_eq!(
        num(&cache, "hot_hits") + num(&cache, "disk_hits") + num(&cache, "misses"),
        num(&cache, "lookups"),
        "cache outcome taxonomy must sum: {}",
        cache.to_text()
    );
    assert_eq!(num(&cache, "misses"), 3);
    assert_eq!(num(&cache, "hot_entries"), 3);

    assert_latency_well_formed(&stats);

    // Workers and slow-request log are present and sane.
    assert!(num(&stats, "workers") >= 1);
    match stats.get("slow_requests") {
        Some(Json::Arr(slow)) => {
            assert!(!slow.is_empty(), "6 requests must leave slow-log entries");
            for t in slow {
                Trace::from_json(t).expect("slow-log entries are traces");
            }
        }
        other => panic!("slow_requests missing or not an array: {other:?}"),
    }
}

#[test]
fn concurrent_clients_and_stats_readers_stay_consistent() {
    let daemon = TestDaemon::start("concurrent", None);
    let opts = AnalysisOptions::default();
    let scripts = ["echo x\n", "echo y\n", "true\n", "echo z | wc -l\n"];

    // Local references, computed up front: served output must stay
    // byte-identical under concurrency.
    let references: Vec<String> = scripts
        .iter()
        .map(|s| {
            let report = analyze_source_with(s, opts.clone()).expect("scripts parse");
            Json::Obj(report_body_fields(&report)).to_text()
        })
        .collect();
    let references = Arc::new(references);

    let done = Arc::new(AtomicBool::new(false));
    // A stats poller races the workers: counters must be monotonic and
    // percentiles well-formed in every snapshot it takes.
    let poller = {
        let socket = daemon.socket.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut last_analyze = 0u64;
            let mut polls = 0u32;
            while !done.load(Ordering::Relaxed) {
                let stats = client::stats(&socket).expect("stats answers during load");
                let by = stats
                    .get("requests")
                    .and_then(|r| r.get("by"))
                    .cloned()
                    .unwrap_or(Json::Obj(vec![]));
                let analyze = num(&by, "analyze.hit")
                    + num(&by, "analyze.miss")
                    + num(&by, "analyze.coalesced");
                assert!(
                    analyze >= last_analyze,
                    "analyze counter went backwards: {last_analyze} -> {analyze}"
                );
                last_analyze = analyze;
                assert_latency_well_formed(&stats);
                polls += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            polls
        })
    };

    let workers: Vec<_> = (0..8)
        .map(|w| {
            let cfg = daemon.client();
            let opts = opts.clone();
            let references = Arc::clone(&references);
            std::thread::spawn(move || {
                for i in 0..6 {
                    let idx = (w + i) % scripts.len();
                    let r = client::analyze(&cfg, scripts[idx], &opts);
                    assert!(matches!(r.served, Served::Daemon { .. }));
                    let entry = r.result.expect("scripts parse");
                    assert_eq!(
                        entry.body.to_text(),
                        references[idx],
                        "served verdict diverged under concurrency"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }
    done.store(true, Ordering::Relaxed);
    let polls = poller.join().expect("poller thread");
    assert!(polls > 0, "the poller never got a snapshot in");

    // Final reconciliation: 8 workers x 6 requests. Concurrent
    // same-key requests may coalesce onto one in-flight analysis, so
    // every analyze lands in exactly one of three outcome buckets —
    // and the shield's own coalesced counter must agree with the
    // per-outcome request counter, or the dedup plane is lying.
    let stats = client::stats(&daemon.socket).expect("stats answers");
    let by = stats
        .get("requests")
        .and_then(|r| r.get("by"))
        .cloned()
        .unwrap();
    assert_eq!(
        num(&by, "analyze.hit") + num(&by, "analyze.miss") + num(&by, "analyze.coalesced"),
        48
    );
    let shield = stats.get("shield").expect("stats carries shield");
    assert_eq!(num(shield, "coalesced"), num(&by, "analyze.coalesced"));
    assert_eq!(num(shield, "sheds"), num(&by, "analyze.shed"));
    assert_eq!(num(shield, "sheds"), 0, "no overload in this shape");
}

#[test]
fn stats_field_order_is_frozen_and_audit_reconciles_with_misses() {
    let daemon = TestDaemon::start("audit", None);
    let cfg = daemon.client();
    let opts = AnalysisOptions::default();

    // Two distinct scripts, the first analyzed twice: 2 misses + 1
    // hit. Coverage folds on the miss path only (a hit replays a
    // script already folded when first computed), so the audit plane
    // must count exactly 2 scripts.
    for script in ["echo a\n", "frobnicate --all\n", "echo a\n"] {
        let r = client::analyze(&cfg, script, &opts);
        assert!(matches!(r.served, Served::Daemon { .. }));
    }

    let stats = client::stats(&daemon.socket).expect("stats verb answers");
    let Json::Obj(fields) = &stats else {
        panic!("stats must be a JSON object: {}", stats.to_text());
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema",
            "ok",
            "op",
            "version",
            "pid",
            "uptime_ms",
            "workers",
            "requests",
            "cache",
            "latency_us",
            "slow_requests",
            "audit",
            "shield",
        ],
        "shoal-stats/v1 field order is frozen; new fields append, never insert"
    );

    let audit = stats.get("audit").expect("stats carries audit");
    assert_eq!(
        num(audit, "analyzed_scripts"),
        2,
        "misses only — the cache hit must not refold coverage: {}",
        audit.to_text()
    );
    let by = stats
        .get("requests")
        .and_then(|r| r.get("by"))
        .cloned()
        .unwrap();
    assert_eq!(num(audit, "analyzed_scripts"), num(&by, "analyze.miss"));

    // `frobnicate` has no spec: it must surface in the ranking, and
    // the unspecced call site must be attributed as a no-spec loss.
    assert_eq!(num(audit, "missing_spec_commands"), 1, "{}", audit.to_text());
    let top = audit.get("top_missing_specs").cloned().unwrap();
    assert!(top.to_text().contains("frobnicate"), "{}", top.to_text());
    let losses = audit.get("losses").cloned().unwrap();
    assert_eq!(num(&losses, "no-spec"), 1, "{}", losses.to_text());
    assert_eq!(num(audit, "degraded_scripts"), 1, "{}", audit.to_text());
}

#[test]
fn stop_flushes_the_trace_log_completely() {
    let mut daemon = TestDaemon::start("flush", Some("traces.jsonl"));
    let log_path = daemon.base.join("traces.jsonl");
    let cfg = daemon.client();
    let opts = AnalysisOptions::default();

    for _ in 0..3 {
        let r = client::analyze(&cfg, "echo flush\n", &opts);
        assert!(matches!(r.served, Served::Daemon { .. }));
    }
    daemon.stop_and_join();

    // After stop returns and the server thread has joined, the log
    // must be complete: one trace line per request (3 analyze + 1
    // stop), then the final daemon_stats summary — nothing buffered,
    // nothing torn.
    let text = std::fs::read_to_string(&log_path).expect("trace log exists after stop");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() >= 5,
        "expected >= 4 trace lines + 1 summary, got {}: {text}",
        lines.len()
    );
    let (summary, traces) = lines.split_last().unwrap();
    let mut analyzes = 0;
    let mut stops = 0;
    for line in traces {
        let json = Json::parse(line).expect("every trace line parses");
        let trace = Trace::from_json(&json).expect("every line is a trace");
        match trace.endpoint.as_str() {
            "analyze" => analyzes += 1,
            "stop" => stops += 1,
            _ => {}
        }
    }
    assert_eq!(analyzes, 3, "{text}");
    assert_eq!(stops, 1, "{text}");
    let summary = Json::parse(summary).expect("summary line parses");
    assert_eq!(
        summary.get("schema").and_then(Json::as_str),
        Some(STATS_SCHEMA),
        "the last line is the daemon_stats summary"
    );
    // The summary was taken after the pool drained, so it has seen
    // every request the log has.
    let by = summary
        .get("requests")
        .and_then(|r| r.get("by"))
        .cloned()
        .unwrap();
    assert_eq!(num(&by, "analyze.miss") + num(&by, "analyze.hit"), 3);
}

#[test]
fn slow_request_rendering_matches_the_golden_file() {
    // A fixed trace must render byte-identically forever: stable field
    // order, no wall-clock leakage beyond the measured durations.
    let trace = Trace {
        trace_id: "00f1e2d3c4b5a697".into(),
        endpoint: "analyze".into(),
        outcome: "miss".into(),
        total_us: 1480,
        phases: vec![
            ("decode".into(), 12),
            ("cache".into(), 31),
            ("parse".into(), 240),
            ("symexec".into(), 995),
            ("relang".into(), 410),
            ("report".into(), 88),
            ("serialize".into(), 19),
        ],
    };
    let golden = include_str!("golden/trace_render.txt");
    assert_eq!(
        trace.render_text(),
        golden,
        "trace rendering drifted from tests/golden/trace_render.txt"
    );
    // And the JSONL form round-trips to the same rendering.
    let back = Trace::from_json(&Json::parse(&trace.to_json().to_text()).unwrap()).unwrap();
    assert_eq!(back.render_text(), golden);
}
