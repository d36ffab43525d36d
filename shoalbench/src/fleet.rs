//! `fleet`: a CI-style batch scan of many short scripts.
//!
//! `scan_source` (default budgets, one job) over a seeded draw of the
//! labeled corpus plus the paper's figures. Scripts are ~10 lines, so
//! parsing, relang decisions, the checkers and scan's per-script shield
//! dominate; the engine forks little and never reaches the world cap.

use shoal_core::{
    analyze::analyze_script_annotated, parse_annotations, scan_source, AnalysisOptions, CapReason,
    Outcome, ScanOptions, ScriptResult,
};
use shoal_corpus::generate_corpus;

use crate::common::{self, RunResult, Tally, Verdict};
use crate::kernel::{self, Meter};
use crate::trace::Tracer;

/// Scripts per bug class (and as many benign twins) in one draw: 2,160
/// corpus scripts plus the nine figures. The slowest scripts are rare
/// variants, so a smaller draw makes `latency_p99_ms` depend on how
/// many of them the seed happens to draw.
const PER_CLASS: usize = 360;
/// Scripts per bug class in the disjoint draw that warms the memo.
const WARM_PER_CLASS: usize = 40;
/// Salt for the seed of the disjoint draw that warms the relang memo.
const WARM_SALT: u64 = 0x5EED_F1EE_7000_0001;

struct Script {
    name: String,
    src: String,
    expect: Verdict,
}

fn inputs(seed: u64) -> Vec<Script> {
    let mut out: Vec<Script> = generate_corpus(PER_CLASS, seed)
        .into_iter()
        .map(|s| Script {
            expect: common::label_verdict(&s),
            name: s.name,
            src: s.script,
        })
        .collect();
    out.extend(
        common::figures()
            .into_iter()
            .map(|(name, src, expect)| Script { name, src, expect }),
    );
    out
}

fn options() -> ScanOptions {
    ScanOptions {
        jobs: 1,
        ..ScanOptions::default()
    }
}

/// Flushes the relang memo and warms it on a disjoint draw, as a long
/// scan process would be warm.
fn warm(seed: u64) {
    shoal_relang::memo_flush();
    let opts = options();
    for s in generate_corpus(WARM_PER_CLASS, seed ^ WARM_SALT) {
        std::hint::black_box(scan_source(&s.name, &s.script, &opts));
    }
}

fn setup(seed: u64) -> Vec<Script> {
    let scripts = inputs(seed);
    warm(seed);
    scripts
}

/// Checks one scan against its known answer: (passed, complete).
fn check(s: &Script, r: &ScriptResult) -> (bool, bool) {
    let Some(report) = r.report.as_ref() else {
        return (false, false);
    };
    let budget = report
        .cap_hits
        .iter()
        .any(|h| matches!(h.reason, CapReason::Fuel | CapReason::Deadline));
    let ok = r.outcome != Outcome::Panicked
        && !r.retried
        && !budget
        && common::report_verdict(report) == s.expect;
    if !ok {
        eprintln!(
            "fleet: {} failed its check (outcome {})",
            s.name,
            r.outcome.as_str()
        );
    }
    (ok, common::is_complete(report))
}

/// Scans round-robin until the deadline, timing each script; returns
/// the number of scans.
fn timed_loop(scripts: &[Script], secs: f64, meter: &mut Meter, tally: &mut Tally) -> usize {
    let opts = options();
    common::round_robin(scripts.len(), secs, meter, tally, |i, meter| {
        let s = &scripts[i];
        let r = meter.time(i, || scan_source(&s.name, &s.src, &opts));
        check(s, &r)
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    if trace {
        return run_traced(seed, seconds);
    }
    let (scripts, setup_s) = common::setup_repeated(5, || setup(seed));
    let mut meter = Meter::default();
    let mut tally = Tally::default();
    timed_loop(&scripts, seconds, &mut meter, &mut tally);
    meter.finish();
    let peak_rss_mb = common::peak_rss_mb();
    RunResult {
        correct: true,
        attempted: tally.attempted(),
        failed: tally.failed(),
        metrics: crate::end_to_end(&meter, setup_s, peak_rss_mb, tally.complete_share()),
    }
}

fn run_traced(seed: u64, seconds: f64) -> RunResult {
    let scripts = setup(seed);
    let opts = options();
    let mut tally = Tally::default();
    let (counts, repeated) = common::counted_twice(
        || warm(seed),
        || {
            for s in &scripts {
                std::hint::black_box(scan_source(&s.name, &s.src, &opts));
            }
        },
    );

    let mut plain = Meter::default();
    let n = timed_loop(&scripts, seconds * 0.4, &mut plain, &mut tally);
    let untraced_us = crate::mean_corrected_us(plain.finish());

    // Traced, over the same scans: spans around scan_source, and beside
    // it a separate parse and a profiled engine run of the same script,
    // so scan's own cost is what remains once those are taken out.
    let mut meter = Meter::default();
    let mut tracer = Tracer::default();
    let (mut exec_us, mut report_us) = (0u64, 0u64);
    let profiled = AnalysisOptions {
        profile: true,
        ..AnalysisOptions::default()
    };
    for i in (0..scripts.len()).cycle().take(n) {
        meter.tick();
        let s = &scripts[i];
        let r = tracer.span("fleet.script", |t| {
            let r = t.span("core.scan", |_| scan_source(&s.name, &s.src, &opts));
            let script = t.span("shparse", |_| {
                shoal_shparse::parse_script(&s.src).expect("corpus scripts parse")
            });
            let ann = parse_annotations(&s.src).unwrap_or_default();
            let report = t.span("core.engine", |_| {
                analyze_script_annotated(&script, profiled.clone(), ann)
            });
            let p = report.profile.expect("profiled run has a profile");
            exec_us += p.exec_us;
            report_us += p.report_us;
            r
        });
        tally.add(i, check(s, &r));
    }
    meter.finish();
    let factor = kernel::NOMINAL_US / meter.kernel_median_us();
    let per = |(ms, _): (f64, usize)| ms / n as f64;
    let scan_ms = per(tracer.total_ms("core.scan", factor));
    let parse_ms = per(tracer.total_ms("shparse", factor));
    let engine_ms = per(tracer.total_ms("core.engine", factor));

    let mut m = Vec::new();
    common::core_counts(&counts, &mut m);
    m.push((
        "core.exec_ms",
        exec_us as f64 * factor / 1e3 / n as f64,
        "ms",
    ));
    m.push((
        "core.report_ms",
        report_us as f64 * factor / 1e3 / n as f64,
        "ms",
    ));
    m.push((
        "core.scan_overhead_ms",
        scan_ms - parse_ms - engine_ms,
        "ms",
    ));
    m.push(("shparse.parse_ms", parse_ms, "ms"));
    common::relang_counts(&counts, &mut m);
    crate::push_bench_metrics(
        &mut m,
        &meter,
        &plain,
        common::overhead_pct(scan_ms * 1e3, untraced_us),
    );
    crate::write_trace(&tracer, "fleet", seed);
    RunResult {
        correct: repeated,
        attempted: tally.attempted(),
        failed: tally.failed(),
        metrics: m,
    }
}
