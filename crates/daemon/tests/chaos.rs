//! Chaos suite for the JIT daemon: failpoint-driven fault injection
//! proving the PR 5 degradation contract survives overload and
//! infrastructure failure. Every scenario asserts two things at once —
//! the client still produces the *correct* verdict (byte-identical to
//! an in-process `shoal analyze` of the same source), and the serving
//! marker (`Served::Daemon` / `Served::Fallback { reason }`) tells the
//! truth about which path produced it.
//!
//! Failpoint state is process-global, so every test takes `CHAOS_LOCK`
//! and arms its faults through [`Armed`], a guard that disarms on drop
//! even when an assertion panics — a leaked failpoint would wedge the
//! next test's daemon teardown.

use shoal_core::provenance::report_body_fields;
use shoal_core::{analyze_source_with, AnalysisOptions};
use shoal_daemon::client::{self, ClientConfig, Served};
use shoal_daemon::server::{run, ServerConfig};
use shoal_obs::failpoint;
use shoal_obs::json::Json;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes the chaos tests: failpoints are process-global.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Arms a failpoint spec; disarms on drop (panic-safe).
struct Armed;

impl Armed {
    fn new(spec: &str) -> Armed {
        failpoint::configure(spec).expect("valid failpoint spec");
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

/// A daemon in a background thread, with shield knobs exposed.
struct ChaosDaemon {
    socket: PathBuf,
    base: PathBuf,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

struct Shape {
    jobs: usize,
    queue_depth: usize,
    queue_wait: Duration,
}

impl Default for Shape {
    fn default() -> Shape {
        Shape {
            jobs: 2,
            queue_depth: 256,
            queue_wait: Duration::from_secs(2),
        }
    }
}

impl ChaosDaemon {
    fn start(tag: &str, shape: Shape) -> ChaosDaemon {
        let base =
            std::env::temp_dir().join(format!("shoal-chaos-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        ChaosDaemon::start_at(base, shape)
    }

    /// Starts over an existing base dir without wiping it — the
    /// corrupt-cache scenario restarts a daemon over a cache directory
    /// it sabotaged between runs.
    fn start_at(base: PathBuf, shape: Shape) -> ChaosDaemon {
        std::fs::create_dir_all(&base).unwrap();
        let socket = base.join("daemon.sock");
        let _ = std::fs::remove_file(&socket);
        let config = ServerConfig {
            socket: socket.clone(),
            cache_dir: Some(base.join("cache")),
            cache_capacity: 64,
            jobs: shape.jobs,
            queue_depth: shape.queue_depth,
            queue_wait: shape.queue_wait,
            ..ServerConfig::default()
        };
        let thread = std::thread::spawn(move || run(config));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            if std::os::unix::net::UnixStream::connect(&socket).is_ok() {
                return ChaosDaemon {
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

    /// Snapshot of the stats verb (must not be called while a
    /// `daemon::serve` panic failpoint is armed — stats frames hit it
    /// too).
    fn stats(&self) -> Json {
        client::stats(&self.socket).expect("stats verb answers")
    }

    /// Polls until the shield reports at least `n` running analyses —
    /// how the overload tests know a slot-holder is actually inside
    /// the engine (parked on its sleep failpoint) before they pile on.
    fn wait_for_running(&self, n: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            let stats = self.stats();
            if num(&stats.get("shield").cloned().unwrap_or(Json::Null), "running") >= n {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("shield never reported {n} running analyses");
    }

    fn stop_and_join(&mut self) {
        let _ = client::stop(&self.socket);
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread").expect("clean shutdown");
        }
    }
}

impl Drop for ChaosDaemon {
    fn drop(&mut self) {
        self.stop_and_join();
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

fn num(json: &Json, field: &str) -> u64 {
    json.get(field).and_then(Json::as_u64).unwrap_or(0)
}

/// The in-process reference verdict: what `shoal analyze` would print.
fn reference(source: &str) -> String {
    let report = analyze_source_with(source, AnalysisOptions::default()).expect("script parses");
    Json::Obj(report_body_fields(&report)).to_text()
}

/// Asserts a response carries the byte-identical reference verdict.
fn assert_verdict(r: &client::JitResponse, source: &str) {
    let entry = r.result.as_ref().expect("script parses");
    assert_eq!(
        entry.body.to_text(),
        reference(source),
        "verdict diverged from in-process analysis"
    );
}

#[test]
fn server_killed_mid_request_falls_back_with_the_correct_verdict() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = ChaosDaemon::start("kill", Shape::default());
    let mut cfg = daemon.client();
    cfg.retries = 1;
    cfg.retry_backoff = Duration::from_millis(5);
    let opts = AnalysisOptions::default();
    let source = "echo kill\n";

    {
        // Every frame the daemon reads now panics its connection
        // thread: the client sees the connection drop mid-request,
        // retries, exhausts, and must fall back — with the verdict
        // still byte-identical to a local run.
        let _armed = Armed::new("daemon::serve=panic");
        let r = client::analyze(&cfg, source, &opts);
        match &r.served {
            Served::Fallback { reason } => {
                assert!(
                    reason.contains("closed connection") || reason.contains("daemon"),
                    "fallback reason should explain the drop: {reason}"
                );
            }
            other => panic!("expected fallback, daemon answered: {other:?}"),
        }
        assert_verdict(&r, source);
    }

    // Connection panics are isolated per thread: with the failpoint
    // disarmed the same daemon serves again, and the stats verb shows
    // it counted the carnage instead of dying from it.
    let r = client::analyze(&cfg, source, &opts);
    assert!(
        matches!(r.served, Served::Daemon { .. }),
        "daemon must survive its own connection panics: {:?}",
        r.served
    );
    assert_verdict(&r, source);
}

#[test]
fn corrupt_disk_cache_entry_is_a_counted_miss_not_a_wrong_verdict() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let source = "echo corrupt | wc -l\n";
    let opts = AnalysisOptions::default();

    let mut daemon = ChaosDaemon::start("corrupt", Shape::default());
    let base = daemon.base.clone();
    let cfg = daemon.client();
    let r = client::analyze(&cfg, source, &opts);
    assert_eq!(r.served, Served::Daemon { cache_hit: false });
    assert_verdict(&r, source);
    daemon.stop_and_join();

    // Sabotage every persisted entry, then restart a daemon (fresh
    // in-memory cache) over the same directory: the disk tier is now
    // actively lying to it.
    let mut corrupted = 0;
    for shard in std::fs::read_dir(base.join("cache")).expect("cache dir exists") {
        let shard = shard.unwrap().path();
        if !shard.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&shard).unwrap() {
            let path = entry.unwrap().path();
            std::fs::write(&path, b"{\"schema\":\"shoal-cache/v1\",\"body\":tru").unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "the first run must have persisted an entry");

    let daemon = ChaosDaemon::start_at(base, Shape::default());
    let cfg = daemon.client();
    let r = client::analyze(&cfg, source, &opts);
    assert_eq!(
        r.served,
        Served::Daemon { cache_hit: false },
        "a corrupt disk entry must degrade to a recomputing miss"
    );
    assert_verdict(&r, source);
    let stats = daemon.stats();
    let cache = stats.get("cache").cloned().expect("stats carries cache");
    assert_eq!(num(&cache, "corrupt_misses"), 1, "{}", cache.to_text());
}

#[test]
fn slow_daemon_past_client_timeout_falls_back_and_the_verdict_is_correct() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = ChaosDaemon::start("slow", Shape::default());
    let mut cfg = daemon.client();
    cfg.request_timeout = Duration::from_millis(100);
    cfg.retries = 1;
    cfg.retry_backoff = Duration::from_millis(5);
    let opts = AnalysisOptions::default();
    let source = "echo slow\n";

    {
        // The analysis stalls for 400ms against a 100ms client budget:
        // both the first attempt and the retry time out, and the
        // client must answer locally rather than hang.
        let _armed = Armed::new("daemon::analyze=sleep(400)");
        let start = std::time::Instant::now();
        let r = client::analyze(&cfg, source, &opts);
        assert!(
            matches!(r.served, Served::Fallback { .. }),
            "a daemon slower than the request timeout must not be waited on: {:?}",
            r.served
        );
        assert_verdict(&r, source);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "client waited out the slow daemon instead of cutting losses: {:?}",
            start.elapsed()
        );
    }

    // The abandoned leader finishes its sleep and still publishes to
    // the cache: once the stall is disarmed the same key is a warm
    // hit, not a recompute.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let r = client::analyze(&cfg, source, &opts);
        if r.served == (Served::Daemon { cache_hit: true }) {
            assert_verdict(&r, source);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned analysis never landed in the cache: {:?}",
            r.served
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn truncated_response_frame_falls_back_then_hits_the_cache_once_healed() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = ChaosDaemon::start("truncate", Shape::default());
    let mut cfg = daemon.client();
    cfg.request_timeout = Duration::from_millis(250);
    cfg.retries = 1;
    cfg.retry_backoff = Duration::from_millis(5);
    let opts = AnalysisOptions::default();
    let source = "echo torn | tr a-z A-Z\n";

    {
        // The server advertises a full frame, sends half of it, and
        // drops the connection: a torn read must classify as
        // transient, retry, exhaust, and fall back — never parse a
        // partial payload into a verdict.
        let _armed = Armed::new("daemon::truncate-response=panic");
        let r = client::analyze(&cfg, source, &opts);
        assert!(
            matches!(r.served, Served::Fallback { .. }),
            "a torn frame must never be served as an answer: {:?}",
            r.served
        );
        assert_verdict(&r, source);
    }

    // The handler ran to completion before the write was sabotaged,
    // so the verdict was cached: the healed daemon serves the same
    // key warm and byte-identical.
    let r = client::analyze(&cfg, source, &opts);
    assert_eq!(
        r.served,
        Served::Daemon { cache_hit: true },
        "the truncated run should still have populated the cache"
    );
    assert_verdict(&r, source);
}

#[test]
fn overloaded_daemon_sheds_and_the_client_answers_locally_at_once() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // One slot, zero queue: any request arriving while the slot is
    // held must be shed `queue-full` immediately.
    let daemon = ChaosDaemon::start(
        "shed",
        Shape {
            jobs: 1,
            queue_depth: 0,
            queue_wait: Duration::from_millis(50),
        },
    );
    let cfg = daemon.client();
    let opts = AnalysisOptions::default();
    let hog_source = "echo hog\n";
    let shed_source = "echo shed-me\n";

    let _armed = Armed::new("daemon::analyze=sleep(600)");
    let hog = {
        let cfg = daemon.client();
        let opts = opts.clone();
        std::thread::spawn(move || client::analyze(&cfg, hog_source, &opts))
    };
    daemon.wait_for_running(1);

    // A distinct key cannot coalesce onto the hog's flight, so it
    // needs a slot of its own — and there is neither a free slot nor
    // queue room. The shed must be immediate (no 600ms wait) and the
    // local answer correct.
    let start = std::time::Instant::now();
    let r = client::analyze(&cfg, shed_source, &opts);
    match &r.served {
        Served::Fallback { reason } => assert!(
            reason.contains("daemon shed (queue-full)"),
            "shed fallback must carry the machine-readable reason: {reason}"
        ),
        other => panic!("expected a shed fallback, got {other:?}"),
    }
    assert_verdict(&r, shed_source);
    assert!(
        start.elapsed() < Duration::from_millis(500),
        "a shed must not wait out the hog: {:?}",
        start.elapsed()
    );

    let hogged = hog.join().expect("hog thread");
    assert_eq!(hogged.served, Served::Daemon { cache_hit: false });
    assert_verdict(&hogged, hog_source);

    let stats = daemon.stats();
    let shield = stats.get("shield").cloned().expect("stats carries shield");
    assert_eq!(num(&shield, "sheds"), 1, "{}", shield.to_text());
    let by_reason = shield.get("sheds_by").cloned().unwrap();
    assert_eq!(num(&by_reason, "queue-full"), 1, "{}", shield.to_text());
    let by = stats.get("requests").and_then(|r| r.get("by")).cloned().unwrap();
    assert_eq!(
        num(&by, "analyze.shed"),
        1,
        "the shed must land in the per-outcome request counters too"
    );
}

#[test]
fn duplicate_keys_coalesce_and_every_request_reconciles_exactly() {
    let _lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = ChaosDaemon::start(
        "coalesce",
        Shape {
            jobs: 1,
            queue_depth: 0,
            queue_wait: Duration::from_millis(50),
        },
    );
    let opts = AnalysisOptions::default();
    let shared = "echo shared | sort\n";
    let loner = "echo loner\n";

    let _armed = Armed::new("daemon::analyze=sleep(400)");
    // Leader takes the only slot and parks on the sleep failpoint.
    let leader = {
        let cfg = daemon.client();
        let opts = opts.clone();
        std::thread::spawn(move || client::analyze(&cfg, shared, &opts))
    };
    daemon.wait_for_running(1);

    // Three more requests for the *same* key board the leader's flight
    // — no slot needed, so the zero-depth queue does not shed them —
    // while a distinct key has nowhere to go and is shed.
    let waiters: Vec<_> = (0..3)
        .map(|_| {
            let cfg = daemon.client();
            let opts = opts.clone();
            std::thread::spawn(move || client::analyze(&cfg, shared, &opts))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let shed = client::analyze(&daemon.client(), loner, &opts);
    match &shed.served {
        Served::Fallback { reason } => {
            assert!(reason.contains("daemon shed"), "{reason}")
        }
        other => panic!("distinct key under overload must shed, got {other:?}"),
    }
    assert_verdict(&shed, loner);

    let led = leader.join().expect("leader thread");
    assert_eq!(led.served, Served::Daemon { cache_hit: false });
    assert_verdict(&led, shared);
    for w in waiters {
        let r = w.join().expect("waiter thread");
        assert!(
            matches!(r.served, Served::Daemon { .. }),
            "coalesced waiters are served by the daemon: {:?}",
            r.served
        );
        assert_verdict(&r, shared);
    }

    // Exact reconciliation: 1 miss (leader) + 3 coalesced (waiters) +
    // 1 shed (loner) = 5 analyze requests, every one accounted for in
    // exactly one outcome bucket, and the shield's own counters agree
    // with the request plane.
    let stats = daemon.stats();
    let by = stats.get("requests").and_then(|r| r.get("by")).cloned().unwrap();
    let shield = stats.get("shield").cloned().expect("stats carries shield");
    assert_eq!(num(&by, "analyze.miss"), 1, "{}", by.to_text());
    assert_eq!(num(&by, "analyze.coalesced"), 3, "{}", by.to_text());
    assert_eq!(num(&by, "analyze.shed"), 1, "{}", by.to_text());
    assert_eq!(num(&by, "analyze.hit"), 0, "{}", by.to_text());
    assert_eq!(
        num(&by, "analyze.miss") + num(&by, "analyze.coalesced") + num(&by, "analyze.shed"),
        5,
        "requests = served + coalesced + shed, nothing lost"
    );
    assert_eq!(num(&shield, "coalesced"), num(&by, "analyze.coalesced"));
    assert_eq!(num(&shield, "sheds"), num(&by, "analyze.shed"));
}
