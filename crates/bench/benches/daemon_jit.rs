//! JIT daemon latency: what a client pays per verdict on each serving
//! path. `jit/warm_*` is the subsystem's reason to exist — a warm
//! content-addressed hit over the unix socket, which skips parsing and
//! symbolic execution entirely and should sit orders of magnitude
//! below the in-process analysis (`jit/local_*`, the cost a cold miss
//! or a fallback pays on top of the round-trip). `jit/roundtrip_status`
//! isolates the wire floor: connect + frame + dispatch with no
//! analysis and no cache behind it.

use shoal_core::{analyze_source_with, AnalysisOptions};
use shoal_daemon::client::{self, ClientConfig, Served};
use shoal_daemon::server::{run, ServerConfig};
use shoal_obs::bench::{bench, black_box, header};
use shoal_obs::LogHistogram;
use std::time::{Duration, Instant};

fn main() {
    header("daemon_jit");

    let base = std::env::temp_dir().join(format!("shoal-jit-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create bench dir");
    let socket = base.join("daemon.sock");
    let config = ServerConfig {
        socket: socket.clone(),
        cache_dir: Some(base.join("cache")),
        cache_capacity: 64,
        jobs: 2,
        ..ServerConfig::default()
    };
    let server = std::thread::spawn(move || run(config));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::os::unix::net::UnixStream::connect(&socket).is_err() {
        assert!(
            std::time::Instant::now() < deadline,
            "bench daemon did not come up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let cfg = ClientConfig {
        socket: socket.clone(),
        auto_spawn: false,
        spawn_wait: Duration::from_millis(100),
        ..ClientConfig::default()
    };
    let opts = AnalysisOptions::default();

    for (name, source) in [
        ("fig1", shoal_corpus::figures::FIG1),
        ("fig3", shoal_corpus::figures::FIG3),
    ] {
        // Prime the cache, and assert the paths we are about to time
        // are the paths we think they are.
        let primed = client::analyze(&cfg, source, &opts);
        assert!(matches!(primed.served, Served::Daemon { .. }));
        let warmed = client::analyze(&cfg, source, &opts);
        assert_eq!(warmed.served, Served::Daemon { cache_hit: true });

        bench(&format!("jit/warm_{name}"), || {
            black_box(client::analyze(&cfg, source, &opts));
        });
        bench(&format!("jit/local_{name}"), || {
            black_box(analyze_source_with(source, opts.clone()).expect("figures parse"));
        });
    }

    bench("jit/roundtrip_status", || {
        black_box(client::status(&socket).expect("daemon answers"));
    });

    // Service-level percentiles under concurrent closed-loop load:
    // 4 client threads, each issuing 25 requests over the figures and
    // waiting for every answer before sending the next. Every figure
    // is primed into the cache first, so the recorded tail measures
    // steady-state serving (wire + lookup + contention), not the
    // analysis cost of cold misses, which `jit/local_*` already
    // tracks. Printed in the same `ns/iter` line format, so
    // bench_trajectory.sh folds them into BENCH_daemon.json next to
    // the single-client cases.
    let figures: Vec<&'static str> = shoal_corpus::figures::all()
        .into_iter()
        .map(|(_, source)| source)
        .collect();
    for source in &figures {
        client::analyze(&cfg, source, &opts);
    }
    let (clients, requests) = (4, 25);
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let (cfg, opts, figures) = (cfg.clone(), opts.clone(), figures.clone());
            std::thread::spawn(move || {
                let mut samples = Vec::with_capacity(requests);
                for i in 0..requests {
                    let source = figures[(c * requests + i) % figures.len()];
                    let t0 = Instant::now();
                    let r = client::analyze(&cfg, source, &opts);
                    samples.push(t0.elapsed().as_nanos() as u64);
                    assert_eq!(
                        r.served,
                        Served::Daemon { cache_hit: true },
                        "primed figures serve warm"
                    );
                }
                samples
            })
        })
        .collect();
    let mut latency_ns = LogHistogram::default();
    for t in threads {
        for ns in t.join().expect("load client thread") {
            latency_ns.record(ns);
        }
    }
    for (name, ns) in [
        ("service/analyze_p50", latency_ns.p50()),
        ("service/analyze_p95", latency_ns.p95()),
        ("service/analyze_p99", latency_ns.p99()),
    ] {
        println!(
            "{name:<44} {:>12.1} ns/iter (service percentile)",
            ns as f64
        );
    }

    client::stop(&socket).expect("daemon stops");
    server.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&base);
}
