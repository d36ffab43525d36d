//! End-to-end tests for the JIT daemon: a real server on a real unix
//! socket, exercised by the real client.
//!
//! The two properties the subsystem lives or dies by:
//!
//! 1. **Byte equality** — a daemon-served verdict (cold or warm) is
//!    byte-identical to what `analyze_source_with` + the provenance
//!    serializer produce in-process, across the paper's figure corpus.
//! 2. **Content addressing** — editing the script, the options, the
//!    spec fingerprint, or the version re-addresses the verdict; a
//!    warm hit can never serve a stale one.

use shoal_core::provenance::report_body_fields;
use shoal_core::{analyze_source_with, AnalysisOptions};
use shoal_daemon::cache::{cache_key, KeyParts};
use shoal_daemon::client::{self, ClientConfig, Served};
use shoal_daemon::protocol::Request;
use shoal_daemon::server::{run, ServerConfig};
use shoal_obs::json::Json;
use std::path::PathBuf;
use std::time::Duration;

/// A daemon running in a background thread, torn down via `stop`;
/// dropping it also removes its socket and cache directory.
struct TestDaemon {
    socket: PathBuf,
    base: PathBuf,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestDaemon {
    fn start(tag: &str) -> TestDaemon {
        let base = std::env::temp_dir().join(format!(
            "shoal-jit-test-{}-{tag}",
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
            ..ServerConfig::default()
        };
        let thread = std::thread::spawn(move || run(config));
        // Wait for the socket to answer.
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
}

impl Drop for TestDaemon {
    fn drop(&mut self) {
        let _ = client::stop(&self.socket);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

fn figures() -> Vec<(&'static str, &'static str)> {
    shoal_corpus::figures::all()
}

/// The in-process reference rendering: what `analyze --format json`
/// would embed for this script.
fn reference_body(source: &str, opts: &AnalysisOptions) -> String {
    let report = analyze_source_with(source, opts.clone()).expect("figure scripts parse");
    Json::Obj(report_body_fields(&report)).to_text()
}

#[test]
fn warm_hits_are_byte_identical_to_direct_analysis_across_figures() {
    let daemon = TestDaemon::start("bytes");
    let cfg = daemon.client();
    let opts = AnalysisOptions::default();
    for (name, source) in figures() {
        let reference = reference_body(source, &opts);

        let cold = client::analyze(&cfg, source, &opts);
        assert_eq!(
            cold.served,
            Served::Daemon { cache_hit: false },
            "{name}: first request must be a served miss"
        );
        let cold_entry = cold.result.expect("figure scripts parse");
        assert_eq!(
            cold_entry.body.to_text(),
            reference,
            "{name}: cold daemon verdict must match in-process bytes"
        );

        let warm = client::analyze(&cfg, source, &opts);
        assert_eq!(
            warm.served,
            Served::Daemon { cache_hit: true },
            "{name}: second request must be a warm hit"
        );
        let warm_entry = warm.result.expect("figure scripts parse");
        assert_eq!(
            warm_entry.body.to_text(),
            reference,
            "{name}: warm verdict must be byte-identical"
        );
        assert_eq!(warm_entry.text, cold_entry.text);
        assert_eq!(warm_entry.findings, cold_entry.findings);
    }
}

#[test]
fn every_key_component_invalidates_independently() {
    let daemon = TestDaemon::start("invalidate");
    let cfg = daemon.client();
    let opts = AnalysisOptions::default();
    let script = shoal_corpus::figures::FIG1;

    // Prime the cache.
    let first = client::analyze(&cfg, script, &opts);
    assert_eq!(first.served, Served::Daemon { cache_hit: false });
    let warm = client::analyze(&cfg, script, &opts);
    assert_eq!(warm.served, Served::Daemon { cache_hit: true });

    // 1. Script edit: even a trailing comment re-addresses the verdict.
    let edited = format!("{script}# touched\n");
    let r = client::analyze(&cfg, &edited, &opts);
    assert_eq!(
        r.served,
        Served::Daemon { cache_hit: false },
        "an edited script must miss"
    );

    // 2. Options change: a different world cap is a different verdict.
    let capped = AnalysisOptions {
        max_worlds: 3,
        ..AnalysisOptions::default()
    };
    let r = client::analyze(&cfg, script, &capped);
    assert_eq!(
        r.served,
        Served::Daemon { cache_hit: false },
        "changed options must miss"
    );
    // ...and that narrower request is itself cached under its own key.
    let r = client::analyze(&cfg, script, &capped);
    assert_eq!(r.served, Served::Daemon { cache_hit: true });

    // 3/4. Spec fingerprint and version live in the key itself: prove
    // re-addressing at the key level (the daemon pins both per
    // process, so the server-side test is the key function).
    let base = KeyParts {
        source: script,
        options: &opts,
        resilient: false,
        spec_fingerprint: shoal_spec::SpecLibrary::builtin().fingerprint(),
        version: "0.1.0",
    };
    let k0 = cache_key(&base);
    let k_spec = cache_key(&KeyParts {
        spec_fingerprint: base.spec_fingerprint ^ 1,
        ..base
    });
    let k_ver = cache_key(&KeyParts {
        version: "0.1.1",
        ..base
    });
    assert_ne!(k0, k_spec, "a spec-db change must re-address");
    assert_ne!(k0, k_ver, "a version bump must re-address");
}

#[test]
fn unreachable_daemon_falls_back_in_process_with_marker() {
    let cfg = ClientConfig {
        socket: std::env::temp_dir().join(format!(
            "shoal-jit-test-{}-nobody-home.sock",
            std::process::id()
        )),
        auto_spawn: false,
        spawn_wait: Duration::from_millis(50),
        ..ClientConfig::default()
    };
    let opts = AnalysisOptions::default();
    let script = shoal_corpus::figures::FIG3;
    let r = client::analyze(&cfg, script, &opts);
    match &r.served {
        Served::Fallback { reason } => {
            assert!(!reason.is_empty(), "fallback must say why");
        }
        other => panic!("expected fallback, got {other:?}"),
    }
    assert!(matches!(r.served, Served::Fallback { .. }));
    // The verdict itself is never lost — and it is the same bytes the
    // daemon would have served.
    let entry = r.result.expect("figure scripts parse");
    assert_eq!(entry.body.to_text(), reference_body(script, &opts));
}

#[test]
fn profiled_requests_bypass_the_daemon() {
    let daemon = TestDaemon::start("profile");
    let cfg = daemon.client();
    let opts = AnalysisOptions {
        profile: true,
        ..AnalysisOptions::default()
    };
    let r = client::analyze(&cfg, "echo hi\n", &opts);
    assert_eq!(
        r.served,
        Served::Fallback {
            reason: "profile-requested".into()
        }
    );
    assert!(r.result.is_ok());
}

#[test]
fn strict_parse_errors_are_verdicts_not_fallbacks() {
    let daemon = TestDaemon::start("parse");
    let cfg = daemon.client();
    let r = client::analyze(&cfg, "if then fi done", &AnalysisOptions::default());
    assert_eq!(r.served, Served::Daemon { cache_hit: false });
    assert!(r.result.is_err(), "an unparsable script is a parse verdict");
    // And it is not cached: asking again re-parses (still a miss).
    let r2 = client::analyze(&cfg, "if then fi done", &AnalysisOptions::default());
    assert_eq!(r2.served, Served::Daemon { cache_hit: false });
}

#[test]
fn status_and_stop_control_path() {
    let daemon = TestDaemon::start("control");
    let cfg = daemon.client();
    let opts = AnalysisOptions::default();
    client::analyze(&cfg, "echo one\n", &opts);
    client::analyze(&cfg, "echo one\n", &opts);

    let status = client::status(&daemon.socket).expect("status answers");
    assert_eq!(status.get("ok"), Some(&Json::Bool(true)));
    let requests = status.get("requests").and_then(Json::as_u64).unwrap();
    assert!(requests >= 2, "status must count requests, saw {requests}");
    let hits = status.get("hits").and_then(Json::as_u64).unwrap();
    assert!(hits >= 1, "the repeat request must be a hit");
    assert!(status.get("version").and_then(Json::as_str).is_some());
    assert!(status.get("hot_entries").and_then(Json::as_u64).unwrap() >= 1);

    let stop = client::stop(&daemon.socket).expect("stop answers");
    assert_eq!(stop.get("ok"), Some(&Json::Bool(true)));
    // The accept loop exits and removes its socket file.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while daemon.socket.exists() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!daemon.socket.exists(), "stop must unlink the socket");
}

#[test]
fn concurrent_clients_all_get_correct_verdicts() {
    let daemon = TestDaemon::start("concurrent");
    let opts = AnalysisOptions::default();
    let mut expected = Vec::new();
    for (_, source) in figures() {
        expected.push((source, reference_body(source, &opts)));
    }
    let socket = daemon.socket.clone();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let expected = expected.clone();
            let socket = socket.clone();
            std::thread::spawn(move || {
                let cfg = ClientConfig {
                    socket,
                    auto_spawn: false,
                    spawn_wait: Duration::from_millis(100),
                    ..ClientConfig::default()
                };
                let (source, want) = &expected[i % expected.len()];
                for _ in 0..4 {
                    let r = client::analyze(&cfg, source, &AnalysisOptions::default());
                    assert!(matches!(r.served, Served::Daemon { .. }));
                    assert_eq!(r.result.unwrap().body.to_text(), *want);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn malformed_frames_get_structured_errors() {
    let daemon = TestDaemon::start("badreq");
    // Hand-roll a connection with a junk payload.
    let mut stream = std::os::unix::net::UnixStream::connect(&daemon.socket).unwrap();
    shoal_obs::frame::write_frame(&mut stream, b"{\"op\":\"analyze\"}").unwrap();
    let payload = shoal_obs::frame::read_frame(&mut stream).unwrap().unwrap();
    let json = Json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(json.get("error").and_then(Json::as_str), Some("bad-request"));

    // The connection survives: a well-formed request on the same
    // stream still answers.
    let ok = Request::Status.to_json().to_text();
    shoal_obs::frame::write_frame(&mut stream, ok.as_bytes()).unwrap();
    let payload = shoal_obs::frame::read_frame(&mut stream).unwrap().unwrap();
    let json = Json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert_eq!(json.get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn disk_tier_survives_daemon_restart() {
    let base = std::env::temp_dir().join(format!("shoal-jit-test-{}-restart", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let cache_dir = base.join("cache");
    let script = shoal_corpus::figures::FIG2;
    let opts = AnalysisOptions::default();

    let start = |sock: PathBuf| {
        let config = ServerConfig {
            socket: sock.clone(),
            cache_dir: Some(cache_dir.clone()),
            cache_capacity: 64,
            jobs: 1,
            ..ServerConfig::default()
        };
        let t = std::thread::spawn(move || run(config));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            if std::os::unix::net::UnixStream::connect(&sock).is_ok() {
                return t;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon did not come up");
    };
    let cfg_for = |sock: &PathBuf| ClientConfig {
        socket: sock.clone(),
        auto_spawn: false,
        spawn_wait: Duration::from_millis(100),
        ..ClientConfig::default()
    };

    let sock1 = base.join("d1.sock");
    let t1 = start(sock1.clone());
    let first = client::analyze(&cfg_for(&sock1), script, &opts);
    assert_eq!(first.served, Served::Daemon { cache_hit: false });
    client::stop(&sock1).unwrap();
    t1.join().unwrap().unwrap();

    // A brand-new daemon process (fresh hot tier) over the same cache
    // dir serves the verdict warm, from disk.
    let sock2 = base.join("d2.sock");
    let t2 = start(sock2.clone());
    let second = client::analyze(&cfg_for(&sock2), script, &opts);
    assert_eq!(
        second.served,
        Served::Daemon { cache_hit: true },
        "restart must not lose the disk tier"
    );
    assert_eq!(
        second.result.unwrap().body.to_text(),
        first.result.unwrap().body.to_text()
    );
    client::stop(&sock2).unwrap();
    t2.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&base);
}
