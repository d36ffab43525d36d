//! shoalbench: the end-to-end benchmark of the shoal analyzer.
//!
//! ```text
//! cargo run --release --offline --manifest-path shoalbench/Cargo.toml -- \
//!     --workload fleet|long_scripts|edit_session --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is a closed loop with one client in one thread. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Every time is
//! corrected for host drift by the reference kernel (see `kernel.rs`);
//! RATIONALE.md says why each workload and metric exists.

mod common;
mod edit_session;
mod editor;
mod fleet;
mod kernel;
mod long_scripts;
mod trace;

use kernel::Meter;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("complete_share", "ratio"),
    ("scripts_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("analysis_ms_geomean", "ms"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// never reaches reads 0 there.
const PER_LAYER: [(&str, &str); 29] = [
    ("core.forks", "count"),
    ("core.pruned", "count"),
    ("core.cap_dropped", "count"),
    ("core.cap_hits", "count"),
    ("core.peak_live_worlds", "count"),
    ("core.exec_ms", "ms"),
    ("core.report_ms", "ms"),
    ("core.scan_overhead_ms", "ms"),
    ("shparse.parse_ms", "ms"),
    ("relang.memo_hits", "count"),
    ("relang.memo_misses", "count"),
    ("relang.memo_hit_ratio", "ratio"),
    ("relang.lazy_pairs_explored", "count"),
    ("incr.replayed", "count"),
    ("incr.executed", "count"),
    ("incr.replay_ratio", "ratio"),
    ("incr.full_fallbacks", "count"),
    ("incr.relocations", "count"),
    ("incr.summaries", "count"),
    ("incr.analyze_ms", "ms"),
    ("lsp.resilient_edits", "count"),
    ("lsp.resilient_ms", "ms"),
    ("lsp.frame_ms", "ms"),
    ("daemon.cache.hits", "count"),
    ("daemon.cache.misses", "count"),
    ("daemon.cache_ms", "ms"),
    ("bench.ref_kernel_ms", "ms"),
    ("bench.wall_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// Every end-to-end metric of an untraced run, beside the three the
/// workload measured itself, all from corrected samples. Throughput
/// and the latency percentiles are taken per pass (every pass is the
/// same work) and reported as their median over the passes, so a burst
/// of contention moves one pass, not the figure.
/// `analysis_ms_geomean` is the geometric mean over inputs of each
/// input's median.
fn end_to_end(
    meter: &Meter,
    setup_s: f64,
    peak_rss_mb: f64,
    complete_share: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let ms = |us: f32| f64::from(us) / 1e3;
    let mut by_input: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
    for s in &meter.samples {
        by_input.entry(s.tag).or_default().push(ms(s.corrected_us));
    }
    let medians: Vec<f64> = by_input.values().map(|v| kernel::median(v)).collect();
    let passes = meter.passes();
    let per_pass = |time: &dyn Fn(&kernel::Sample) -> f64, stat: &dyn Fn(&[f64]) -> f64| {
        let v: Vec<f64> = passes
            .iter()
            .map(|p| stat(&p.iter().map(time).collect::<Vec<f64>>()))
            .collect();
        kernel::median(&v)
    };
    let corrected = |s: &kernel::Sample| ms(s.corrected_us);
    let raw = |s: &kernel::Sample| ms(s.raw_us);
    let p90 = |v: &[f64]| kernel::quantile(v, 0.9);
    eprintln!(
        "raw (uncorrected): latency_p50_ms={} latency_p90_ms={} ref_kernel_ms={} samples={}",
        per_pass(&raw, &kernel::median),
        per_pass(&raw, &p90),
        meter.kernel_median_us() / 1e3,
        meter.samples.len()
    );
    vec![
        (
            "scripts_per_s",
            per_pass(&corrected, &|v| {
                v.len() as f64 / (v.iter().sum::<f64>() / 1e3)
            }),
            "1/s",
        ),
        (
            "latency_p50_ms",
            per_pass(&corrected, &kernel::median),
            "ms",
        ),
        ("latency_p90_ms", per_pass(&corrected, &p90), "ms"),
        (
            "latency_p99_ms",
            per_pass(&corrected, &|v| kernel::quantile(v, 0.99)),
            "ms",
        ),
        ("analysis_ms_geomean", kernel::geomean(&medians), "ms"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("complete_share", complete_share, "ratio"),
    ]
}

/// Mean corrected time of the samples, in µs.
fn mean_corrected_us(samples: &[kernel::Sample]) -> f64 {
    samples
        .iter()
        .map(|s| f64::from(s.corrected_us))
        .sum::<f64>()
        / samples.len() as f64
}

/// The raw kernel, raw wall and tracing-overhead diagnostics of a
/// traced run (`plain` measured the untraced phase).
fn push_bench_metrics(
    m: &mut Vec<(&'static str, f64, &'static str)>,
    traced: &Meter,
    plain: &Meter,
    overhead_pct: f64,
) {
    let kernel: Vec<f64> = traced
        .kernel_us
        .iter()
        .chain(&plain.kernel_us)
        .map(|&k| f64::from(k))
        .collect();
    m.push(("bench.ref_kernel_ms", kernel::median(&kernel) / 1e3, "ms"));
    m.push((
        "bench.wall_s",
        plain
            .samples
            .iter()
            .map(|s| f64::from(s.raw_us))
            .sum::<f64>()
            / 1e6,
        "s",
    ));
    m.push(("bench.trace_overhead_pct", overhead_pct, "%"));
}

/// Writes the traced run's spans to `.bench_out/`.
fn write_trace(tracer: &trace::Tracer, workload: &str, seed: u64) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{workload}-{seed}.jsonl"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| tracer.write_jsonl(&path)) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: shoalbench --workload fleet|long_scripts|edit_session --seed N --seconds S --trace 0|1\n{e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "fleet" => fleet::run(args.seed, args.seconds, args.trace),
        "long_scripts" => long_scripts::run(args.seed, args.seconds, args.trace),
        "edit_session" => edit_session::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir(".bench_tmp");
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = result
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1);
        metrics.push((name, value, unit));
    }
    for m in &result.metrics {
        assert!(
            wanted.iter().any(|w| w.0 == m.0 && w.1 == m.2),
            "metric {} ({}) is not declared",
            m.0,
            m.2
        );
    }
    let correct = result.correct;
    println!("{}", common::RunResult { metrics, ..result }.to_json());
    if !correct {
        eprintln!("work counts did not repeat on identical inputs");
        std::process::exit(1);
    }
}
