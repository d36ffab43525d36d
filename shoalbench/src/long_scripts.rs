//! `long_scripts`: cold analysis of long scripts.
//!
//! `analyze_source_with` (default options, relang memo flushed before
//! each analysis, as in a fresh `shoal analyze` process) over seeded
//! concatenations of labeled-corpus scripts, `straight_line(50)`,
//! `straight_line(200)` and `loopy(200)`. World management dominates and
//! parsing is negligible; `loopy(200)` is long but never forks, so a
//! change that speeds branching but slows straight execution shows.

use std::panic::{catch_unwind, AssertUnwindSafe};

use shoal_core::analyze::analyze_script_annotated;
use shoal_core::{analyze_source_with, parse_annotations, AnalysisOptions, AnalysisReport};
use shoal_corpus::{generate_corpus, scale};
use shoal_obs::XorShift64;

use crate::common::{self, RunResult, Tally, Verdict};
use crate::kernel::{self, Meter};
use crate::trace::Tracer;

/// Scripts per concatenation. All are past the length (~15 scripts)
/// beyond which the engine at this writing always reaches its world
/// cap, so which scripts a seed draws does not decide whether an
/// analysis completes.
const CONCAT_LENGTHS: [usize; 6] = [15, 20, 25, 30, 35, 40];
/// Concatenations of each length. The cost of a concatenation depends
/// on the rare slow variants the seed draws into it; with two of each
/// length, `latency_p50_ms` differed by 10% between seeds.
const CONCATS_PER_LENGTH: usize = 4;

/// Seed of the concatenation offsets, which do not vary with `--seed`.
const PLAN_SEED: u64 = 0xC0CA_7E4A_7E00_0001;

struct Script {
    name: String,
    src: String,
    expect: Verdict,
}

/// Each concatenation is a run of consecutive corpus scripts. The corpus
/// cycles through its six generators, so every concatenation has the
/// same mix of bug classes and twins; the offsets are fixed, so the seed
/// varies the scripts themselves (their filler lines and variants), not
/// the shape of the inputs. The known answer is the union of the
/// segments' labels.
fn inputs(seed: u64) -> Vec<Script> {
    let corpus = generate_corpus(40, seed);
    let mut rng = XorShift64::seed_from_u64(PLAN_SEED);
    let mut out = Vec::new();
    for len in CONCAT_LENGTHS.iter().flat_map(|&l| [l; CONCATS_PER_LENGTH]) {
        let start = rng.random_range(0..corpus.len());
        let mut src = String::from("#!/bin/sh\n");
        let mut expect = 0;
        for s in corpus.iter().cycle().skip(start).take(len) {
            expect |= common::label_verdict(s);
            for line in s.script.lines().filter(|l| !l.starts_with("#!")) {
                src.push_str(line);
                src.push('\n');
            }
        }
        out.push(Script {
            name: format!("concat/{len}/{}", out.len()),
            src,
            expect,
        });
    }
    // Generated without any bug: the known answer is no finding.
    for (name, src) in [
        ("straight_line/50", scale::straight_line(50)),
        ("straight_line/200", scale::straight_line(200)),
        ("loopy/200", scale::loopy(200)),
    ] {
        out.push(Script {
            name: name.to_string(),
            src,
            expect: 0,
        });
    }
    out
}

/// One cold analysis; `None` when it panicked.
fn analyze(s: &Script) -> Option<AnalysisReport> {
    catch_unwind(AssertUnwindSafe(|| {
        analyze_source_with(&s.src, AnalysisOptions::default()).ok()
    }))
    .ok()
    .flatten()
}

/// Checks one analysis against its known answer: (passed, complete).
fn check(s: &Script, report: Option<&AnalysisReport>) -> (bool, bool) {
    let Some(report) = report else {
        eprintln!("long_scripts: {} panicked or did not parse", s.name);
        return (false, false);
    };
    let ok = common::report_verdict(report) == s.expect;
    if !ok {
        eprintln!(
            "long_scripts: {} verdict {:03b}, known answer {:03b}",
            s.name,
            common::report_verdict(report),
            s.expect
        );
    }
    (ok, common::is_complete(report))
}

/// Analyzes round-robin until the deadline, timing each analysis;
/// returns the number of analyses.
fn timed_loop(scripts: &[Script], secs: f64, meter: &mut Meter, tally: &mut Tally) -> usize {
    common::round_robin(scripts.len(), secs, meter, tally, |i, meter| {
        shoal_relang::memo_flush();
        let r = meter.time(i, || analyze(&scripts[i]));
        check(&scripts[i], r.as_ref())
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    if trace {
        return run_traced(seed, seconds);
    }
    let (scripts, setup_s) = common::setup_repeated(15, || inputs(seed));
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
    let scripts = inputs(seed);
    let mut tally = Tally::default();
    let (counts, repeated) = common::counted_twice(
        || {},
        || {
            for s in &scripts {
                shoal_relang::memo_flush();
                std::hint::black_box(analyze(s));
            }
        },
    );

    let mut plain = Meter::default();
    let n = timed_loop(&scripts, seconds * 0.4, &mut plain, &mut tally);
    let untraced_us = crate::mean_corrected_us(plain.finish());

    // Traced, over the same analyses: parse and engine as two spans.
    let mut meter = Meter::default();
    let mut tracer = Tracer::default();
    let (mut exec_us, mut report_us) = (0u64, 0u64);
    let profiled = AnalysisOptions {
        profile: true,
        ..AnalysisOptions::default()
    };
    for i in (0..scripts.len()).cycle().take(n) {
        shoal_relang::memo_flush();
        meter.tick();
        let s = &scripts[i];
        let report = tracer.span("long.script", |t| {
            let script = t.span("shparse", |_| {
                shoal_shparse::parse_script(&s.src).expect("generated scripts parse")
            });
            let ann = parse_annotations(&s.src).unwrap_or_default();
            t.span("core.engine", |_| {
                analyze_script_annotated(&script, profiled.clone(), ann)
            })
        });
        let p = report.profile.as_ref().expect("profiled run has a profile");
        exec_us += p.exec_us;
        report_us += p.report_us;
        tally.add(i, check(s, Some(&report)));
    }
    meter.finish();
    let factor = kernel::NOMINAL_US / meter.kernel_median_us();
    let per_ms = |ms: f64| ms / n as f64;
    let traced_us = per_ms(tracer.total_ms("long.script", factor).0) * 1e3;

    let mut m = Vec::new();
    common::core_counts(&counts, &mut m);
    m.push(("core.exec_ms", per_ms(exec_us as f64 * factor / 1e3), "ms"));
    m.push((
        "core.report_ms",
        per_ms(report_us as f64 * factor / 1e3),
        "ms",
    ));
    m.push((
        "shparse.parse_ms",
        per_ms(tracer.total_ms("shparse", factor).0),
        "ms",
    ));
    common::relang_counts(&counts, &mut m);
    crate::push_bench_metrics(
        &mut m,
        &meter,
        &plain,
        common::overhead_pct(traced_us, untraced_us),
    );
    crate::write_trace(&tracer, "long_scripts", seed);
    RunResult {
        correct: repeated,
        attempted: tally.attempted(),
        failed: tally.failed(),
        metrics: m,
    }
}
