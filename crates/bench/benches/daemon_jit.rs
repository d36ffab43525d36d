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
use std::time::Duration;

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

    // Service-level percentiles under concurrent closed-loop load —
    // the multi-tenant numbers (p50/p95/p99 per request, 4 clients)
    // the roadmap asks to keep on record. The first run primes the
    // cache and is discarded: the recorded tail then measures
    // steady-state serving (wire + lookup + contention), not the
    // analysis cost of cold misses, which `jit/local_*` already
    // tracks and which would make p99 too noisy to gate. Printed in
    // the same `ns/iter` line format, so bench_trajectory.sh folds
    // them into BENCH_daemon.json next to the single-client cases.
    let shape = shoal_daemon::bench_service::BenchConfig {
        clients: 4,
        requests: 25,
        socket: Some(socket.clone()),
        overload: false,
    };
    shoal_daemon::bench_service::run_bench(&shape).expect("bench-service priming run");
    let report = shoal_daemon::bench_service::run_bench(&shape).expect("bench-service load run");
    assert_eq!(report.fallbacks, 0, "bench daemon must stay reachable");
    assert_eq!(report.mismatches, 0, "served verdicts must match local");
    assert_eq!(report.misses, 0, "primed corpus must serve warm");
    print!("{}", report.render_bench_lines());

    client::stop(&socket).expect("daemon stops");
    server.join().expect("server thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&base);

    // Overload shape: a private tiny daemon (1 slot, 2-deep queue)
    // under 8 closed-loop clients. Only the shed/coalesced *rate*
    // keys are printed — the percentile keys under a deliberately
    // starved daemon would poison the min-keeping harvest of the
    // steady-state numbers above. Rates are informational (skipped by
    // the regression cap), but their presence is gated so the
    // overload plane cannot silently disappear.
    let overload = shoal_daemon::bench_service::BenchConfig {
        clients: 8,
        requests: 10,
        socket: None,
        overload: true,
    };
    let report =
        shoal_daemon::bench_service::run_bench(&overload).expect("bench-service overload run");
    assert_eq!(
        report.mismatches, 0,
        "every overload verdict (served, coalesced, or shed-then-local) must match local"
    );
    print!("{}", report.render_overload_bench_lines());
}
