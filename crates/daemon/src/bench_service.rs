//! `shoal bench-service`: a closed-loop load generator for the daemon.
//!
//! K client threads issue analyze requests over the real unix socket
//! (the same frames, the same client code path `shoal jit` uses), each
//! thread waiting for its response before sending the next — closed
//! loop, so the offered load adapts to what the service sustains
//! instead of overrunning it. The workload is deterministic: every
//! request is drawn from the figure corpus by
//! `(client * requests + i) % corpus`, so two runs of the same shape
//! issue byte-identical request sequences.
//!
//! Per-request wall latency (connect + frame + serve + read) lands in
//! a [`LogHistogram`]; the report carries p50/p95/p99 in nanoseconds,
//! ready for `BENCH_daemon.json` via the `shoal-bench/v1` `ns/iter`
//! line format ([`BenchReport::render_bench_lines`]). Every served
//! verdict is also compared against a locally computed reference, so a
//! load run doubles as a byte-identity check under concurrency.

use crate::cache::Entry;
use crate::client::{self, ClientConfig, Served};
use crate::server::{run, ServerConfig};
use shoal_core::AnalysisOptions;
use shoal_obs::json::Json;
use shoal_obs::LogHistogram;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator shape.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client issues (closed loop).
    pub requests: usize,
    /// Socket of a running daemon; `None` spawns a private in-process
    /// daemon on a temp socket (cold cache) and stops it afterwards.
    pub socket: Option<PathBuf>,
    /// Overload mode: the private daemon is started deliberately tiny
    /// (one analysis slot, a two-deep queue, a short queue wait) so the
    /// run exercises the shield — sheds and coalesced fan-outs are
    /// counted and reported as rates. Requires a private daemon
    /// (`socket: None`); with an external socket the flag only changes
    /// the report shape.
    pub overload: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            clients: 4,
            requests: 25,
            socket: None,
            overload: false,
        }
    }
}

/// What a load run observed.
pub struct BenchReport {
    pub clients: usize,
    /// Completed requests (clients × per-client requests).
    pub total: u64,
    pub hits: u64,
    pub misses: u64,
    pub fallbacks: u64,
    /// Requests the daemon shed (client fell back locally with a
    /// `daemon shed (…)` reason). A subset of `fallbacks`.
    pub sheds: u64,
    /// Coalesced fan-outs the daemon reported over the run (from its
    /// shield stats; 0 when benching an external socket, whose
    /// lifetime counters are not this run's).
    pub coalesced: u64,
    /// Responses whose verdict differed from the local reference
    /// analysis (must be 0: the byte-identity invariant under load).
    pub mismatches: u64,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// Per-request latency in **nanoseconds** (bench convention).
    pub latency_ns: LogHistogram,
}

impl BenchReport {
    /// Closed-loop throughput (requests per second).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.total as f64 / secs
        } else {
            0.0
        }
    }

    /// Human summary.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench-service: {} client(s) x {} request(s) in {:.2}s ({:.0} req/s)",
            self.clients,
            if self.clients > 0 {
                self.total / self.clients as u64
            } else {
                0
            },
            self.elapsed.as_secs_f64(),
            self.throughput(),
        );
        let _ = writeln!(
            out,
            "  served: {} hit(s), {} miss(es), {} fallback(s), {} mismatch(es)",
            self.hits, self.misses, self.fallbacks, self.mismatches
        );
        if self.sheds > 0 || self.coalesced > 0 {
            let _ = writeln!(
                out,
                "  shield: {} shed(s), {} coalesced fan-out(s)",
                self.sheds, self.coalesced
            );
        }
        let _ = writeln!(
            out,
            "  latency: p50 {}µs  p95 {}µs  p99 {}µs  max {}µs",
            self.latency_ns.p50() / 1_000,
            self.latency_ns.p95() / 1_000,
            self.latency_ns.p99() / 1_000,
            self.latency_ns.max / 1_000,
        );
        out
    }

    /// Machine-readable report (`shoal-bench-service/v1`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "schema".into(),
                Json::Str("shoal-bench-service/v1".into()),
            ),
            ("clients".into(), Json::Num(self.clients as f64)),
            ("total".into(), Json::Num(self.total as f64)),
            ("hits".into(), Json::Num(self.hits as f64)),
            ("misses".into(), Json::Num(self.misses as f64)),
            ("fallbacks".into(), Json::Num(self.fallbacks as f64)),
            ("sheds".into(), Json::Num(self.sheds as f64)),
            ("coalesced".into(), Json::Num(self.coalesced as f64)),
            ("mismatches".into(), Json::Num(self.mismatches as f64)),
            (
                "elapsed_ms".into(),
                Json::Num(self.elapsed.as_millis() as f64),
            ),
            ("throughput_rps".into(), Json::Num(self.throughput())),
            ("latency_ns".into(), self.latency_ns.to_json()),
        ])
    }

    /// `shoal-bench/v1` `ns/iter` lines, named so they land next to the
    /// `jit/*` cases in `BENCH_daemon.json` (same awk-able format as
    /// [`shoal_obs::bench::bench`]).
    pub fn render_bench_lines(&self) -> String {
        [
            ("service/analyze_p50", self.latency_ns.p50()),
            ("service/analyze_p95", self.latency_ns.p95()),
            ("service/analyze_p99", self.latency_ns.p99()),
        ]
        .iter()
        .map(|(name, ns)| format!("{name:<44} {:>12.1} ns/iter (service percentile)\n", *ns as f64))
        .collect()
    }

    /// Overload-mode keys: shed and coalesced counts per 1000 requests.
    /// The literal `ns/iter` token keeps the lines harvestable by the
    /// same awk pass as every other bench case; the keys end in
    /// `_rate`, which the regression gate treats as informational (load
    /// shedding is timing-dependent, not a perf regression signal).
    pub fn render_overload_bench_lines(&self) -> String {
        let per_k = |n: u64| {
            if self.total > 0 {
                (n as f64) * 1000.0 / (self.total as f64)
            } else {
                0.0
            }
        };
        [
            ("service/overload_shed_rate", per_k(self.sheds)),
            ("service/overload_coalesced_rate", per_k(self.coalesced)),
        ]
        .iter()
        .map(|(name, rate)| format!("{name:<44} {rate:>12.1} ns/iter (per 1000 requests)\n"))
        .collect()
    }
}

/// Runs the load. With [`BenchConfig::socket`] unset, a private daemon
/// is spawned in-process (own temp socket and cache dir, removed
/// afterwards), so the numbers include genuinely cold misses.
///
/// # Errors
///
/// Socket/daemon startup failures; the load phase itself never errors
/// (a dead daemon mid-run shows up as `fallbacks`, not a crash).
pub fn run_bench(config: &BenchConfig) -> io::Result<BenchReport> {
    let clients = config.clients.max(1);
    let requests = config.requests.max(1);

    // A private daemon when no socket was given.
    let mut private: Option<(PathBuf, std::thread::JoinHandle<io::Result<()>>, PathBuf)> = None;
    let socket = match &config.socket {
        Some(s) => s.clone(),
        None => {
            let base = std::env::temp_dir().join(format!(
                "shoal-bench-service-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&base);
            std::fs::create_dir_all(&base)?;
            let sock = base.join("daemon.sock");
            let server_config = if config.overload {
                // Deliberately tiny: one engine slot, a two-deep
                // queue, a short wait — so clients >> concurrency
                // actually exercises shed + coalesce paths.
                ServerConfig {
                    socket: sock.clone(),
                    cache_dir: Some(base.join("cache")),
                    cache_capacity: 512,
                    jobs: 1,
                    queue_depth: 2,
                    queue_wait: Duration::from_millis(50),
                    ..ServerConfig::default()
                }
            } else {
                ServerConfig {
                    socket: sock.clone(),
                    cache_dir: Some(base.join("cache")),
                    cache_capacity: 512,
                    ..ServerConfig::default()
                }
            };
            let handle = std::thread::spawn(move || run(server_config));
            let deadline = Instant::now() + Duration::from_secs(5);
            while std::os::unix::net::UnixStream::connect(&sock).is_err() {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "bench-service daemon did not come up",
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            private = Some((sock.clone(), handle, base));
            sock
        }
    };

    // The deterministic workload, with one locally computed reference
    // verdict per distinct script (strict mode, default options —
    // exactly what the service runs).
    let opts = AnalysisOptions::default();
    let corpus: Vec<(&str, Result<Entry, String>)> = shoal_corpus::figures::all()
        .into_iter()
        .map(|(_, source)| {
            let reference = match shoal_core::analyze_source_with(source, opts.clone()) {
                Ok(report) => Ok(crate::entry_from_report(&report)),
                Err(e) => Err(e.to_string()),
            };
            (source, reference)
        })
        .collect();
    let corpus = Arc::new(corpus);

    let hits = Arc::new(AtomicU64::new(0));
    let misses = Arc::new(AtomicU64::new(0));
    let fallbacks = Arc::new(AtomicU64::new(0));
    let sheds = Arc::new(AtomicU64::new(0));
    let mismatches = Arc::new(AtomicU64::new(0));

    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let corpus = Arc::clone(&corpus);
            let (hits, misses) = (Arc::clone(&hits), Arc::clone(&misses));
            let (fallbacks, mismatches) = (Arc::clone(&fallbacks), Arc::clone(&mismatches));
            let sheds = Arc::clone(&sheds);
            let cfg = ClientConfig {
                socket: socket.clone(),
                auto_spawn: false,
                spawn_wait: Duration::from_millis(100),
                ..ClientConfig::default()
            };
            std::thread::spawn(move || {
                let opts = AnalysisOptions::default();
                let mut samples = Vec::with_capacity(requests);
                for i in 0..requests {
                    let (source, reference) = &corpus[(c * requests + i) % corpus.len()];
                    let t0 = Instant::now();
                    let r = client::analyze(&cfg, source, &opts);
                    samples.push(t0.elapsed().as_nanos() as u64);
                    match &r.served {
                        Served::Daemon { cache_hit: true } => hits.fetch_add(1, Ordering::Relaxed),
                        Served::Daemon { cache_hit: false } => {
                            misses.fetch_add(1, Ordering::Relaxed)
                        }
                        Served::Fallback { reason } => {
                            if reason.starts_with("daemon shed") {
                                sheds.fetch_add(1, Ordering::Relaxed);
                            }
                            fallbacks.fetch_add(1, Ordering::Relaxed)
                        }
                    };
                    let matches = match (&r.result, reference) {
                        (Ok(got), Ok(want)) => got == want,
                        (Err(got), Err(want)) => got == want,
                        _ => false,
                    };
                    if !matches {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
                samples
            })
        })
        .collect();

    let mut latency_ns = LogHistogram::default();
    for t in threads {
        for ns in t.join().expect("bench client thread") {
            latency_ns.record(ns);
        }
    }
    let elapsed = started.elapsed();

    // The coalesced count lives in the daemon's shield stats; read it
    // before stopping a private daemon (its counters are this run's —
    // an external daemon's lifetime counters are not).
    let coalesced = if private.is_some() {
        client::stats(&socket)
            .ok()
            .and_then(|j| {
                j.get("shield")
                    .and_then(|s| s.get("coalesced"))
                    .and_then(Json::as_u64)
            })
            .unwrap_or(0)
    } else {
        0
    };

    if let Some((sock, handle, base)) = private {
        let _ = client::stop(&sock);
        let _ = handle.join();
        let _ = std::fs::remove_dir_all(&base);
    }

    Ok(BenchReport {
        clients,
        total: (clients * requests) as u64,
        hits: hits.load(Ordering::Relaxed),
        misses: misses.load(Ordering::Relaxed),
        fallbacks: fallbacks.load(Ordering::Relaxed),
        sheds: sheds.load(Ordering::Relaxed),
        coalesced,
        mismatches: mismatches.load(Ordering::Relaxed),
        elapsed,
        latency_ns,
    })
}
