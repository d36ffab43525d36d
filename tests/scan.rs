//! The hardened batch driver (`shoal scan`): byte-deterministic output
//! and panic isolation via fault injection.
//!
//! Failpoint configuration is process-global, so every test here takes
//! `SCAN_LOCK` — an armed failpoint must never leak into a concurrent
//! determinism run.

use shoal::core::{analyze_source, scan_paths, scan_source, DiagCode, Outcome, ScanOptions};
use std::path::PathBuf;
use std::sync::Mutex;

static SCAN_LOCK: Mutex<()> = Mutex::new(());

fn examples_dir() -> Vec<PathBuf> {
    vec![PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples"
    ))]
}

#[test]
fn examples_scan_is_byte_deterministic() {
    let _g = SCAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let roots = examples_dir();
    let a = scan_paths(&roots, &ScanOptions::default());
    let b = scan_paths(&roots, &ScanOptions::default());
    assert_eq!(
        a.render_text(),
        b.render_text(),
        "text output must be byte-identical across runs"
    );
    assert_eq!(
        a.to_json().to_text(),
        b.to_json().to_text(),
        "JSON output must be byte-identical across runs"
    );
    // The figure scripts contain real findings (Fig. 1, 3, 5), no
    // parse errors, and no budget exhaustion at default budgets.
    assert_eq!(a.exit_code(), 1);
    assert_eq!(a.count(Outcome::Panicked), 0);
    assert_eq!(a.count(Outcome::ParsePartial), 0);
    assert_eq!(a.count(Outcome::BudgetExhausted), 0);
    assert!(a.count(Outcome::Findings) >= 2);
}

#[test]
fn scan_walks_only_shell_files() {
    let _g = SCAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let summary = scan_paths(&examples_dir(), &ScanOptions::default());
    assert!(!summary.results.is_empty());
    for r in &summary.results {
        assert!(
            r.path.ends_with(".sh"),
            "examples/ holds .rs files too; only shell scripts may be scanned, got {}",
            r.path
        );
    }
}

#[test]
fn injected_engine_panic_is_isolated_to_one_script() {
    let _g = SCAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    shoal_obs::failpoint::configure("engine::fork=panic@fig1").expect("valid failpoint spec");
    let summary = scan_paths(&examples_dir(), &ScanOptions::default());
    shoal_obs::failpoint::clear();
    let fig1 = summary
        .results
        .iter()
        .find(|r| r.path.ends_with("fig1.sh"))
        .expect("fig1.sh is in examples/");
    assert_eq!(fig1.outcome, Outcome::Panicked);
    assert!(fig1.retried, "a panicked script must be retried once");
    assert!(
        fig1.panic_message
            .as_deref()
            .unwrap_or("")
            .contains("failpoint"),
        "panic payload must be preserved: {:?}",
        fig1.panic_message
    );
    for r in summary.results.iter().filter(|r| !r.path.ends_with("fig1.sh")) {
        assert_ne!(
            r.outcome,
            Outcome::Panicked,
            "{} must be unaffected by fig1's panic",
            r.path
        );
        assert!(r.report.is_some(), "{} must still be analyzed", r.path);
    }
    assert_eq!(summary.exit_code(), 4, "a panic dominates the exit code");
}

#[test]
fn unfiltered_failpoint_panics_every_script_but_never_the_batch() {
    let _g = SCAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    shoal_obs::failpoint::configure("engine::fork=panic").expect("valid failpoint spec");
    let summary = scan_paths(&examples_dir(), &ScanOptions::default());
    shoal_obs::failpoint::clear();
    for r in &summary.results {
        // Every figure script forks at least once, so all panic.
        assert_eq!(r.outcome, Outcome::Panicked, "{}", r.path);
        assert!(r.retried);
        assert!(r.report.is_none());
    }
    assert_eq!(summary.exit_code(), 4);
}

#[test]
fn scan_json_reports_taxonomy_per_script() {
    let _g = SCAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let summary = scan_paths(&examples_dir(), &ScanOptions::default());
    let json = summary.to_json().to_text();
    assert!(json.contains("\"schema\":\"shoal-report/v1\""));
    assert!(json.contains("\"outcome\":\"findings\""));
    assert!(json.contains("\"outcome\":\"ok\""));
    assert!(json.contains("\"exit_code\":1"));
}

/// Renders a summary both ways for byte-comparison.
fn rendered(roots: &[PathBuf], opts: &ScanOptions) -> (String, String, i32) {
    let s = scan_paths(roots, opts);
    (s.render_text(), s.to_json().to_text(), s.exit_code())
}

#[test]
fn parallel_scan_is_byte_identical_to_sequential() {
    let _g = SCAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // examples/ plus the repo's own tests/ tree (shell fixtures only
    // get picked up; the .rs files are filtered out by the walker).
    let roots = vec![
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/examples")),
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests")),
    ];
    let seq = rendered(&roots, &ScanOptions { jobs: 1, ..ScanOptions::default() });
    let par = rendered(&roots, &ScanOptions { jobs: 8, ..ScanOptions::default() });
    assert_eq!(seq.0, par.0, "--jobs 8 text must match --jobs 1 byte-for-byte");
    assert_eq!(seq.1, par.1, "--jobs 8 JSON must match --jobs 1 byte-for-byte");
    assert_eq!(seq.2, par.2, "exit-code taxonomy must not depend on --jobs");
    let auto = rendered(&roots, &ScanOptions { jobs: 0, ..ScanOptions::default() });
    assert_eq!(seq.0, auto.0, "--jobs 0 (auto) must match too");
}

#[test]
fn parallel_scan_is_deterministic_under_injected_worker_panic() {
    let _g = SCAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Arm a failpoint that panics inside exactly one script's worker:
    // the panic shield and retry policy are per-thread, so the parallel
    // batch must classify fig1 as panicked and stay byte-identical to
    // the sequential run under the same fault.
    let roots = examples_dir();
    shoal_obs::failpoint::configure("engine::fork=panic@fig1").expect("valid failpoint spec");
    let seq = rendered(&roots, &ScanOptions { jobs: 1, ..ScanOptions::default() });
    let par = rendered(&roots, &ScanOptions { jobs: 8, ..ScanOptions::default() });
    shoal_obs::failpoint::clear();
    assert_eq!(seq.0, par.0, "panic-under-parallel text must match sequential");
    assert_eq!(seq.1, par.1, "panic-under-parallel JSON must match sequential");
    assert_eq!(seq.2, 4, "one panicked script dominates the exit code");
    assert_eq!(par.2, 4);
    assert!(
        seq.0.contains("panicked"),
        "the injected panic must be visible in the report"
    );
}

#[test]
fn scan_keeps_the_malformed_annotation_note_analyze_reports() {
    let _g = SCAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The annotation is malformed, so the script runs un-annotated; the
    // note saying so must survive the resilient front end `shoal scan`
    // uses, exactly as `shoal analyze` reports it.
    let src = "#@ var X : [unclosed\nrm -rf \"$X/\"*\n";
    let scanned = scan_source("bad-annotation.sh", src, &ScanOptions::default())
        .report
        .expect("analyzed locally");
    let strict = analyze_source(src).expect("valid shell");
    assert!(
        scanned
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::AnalysisIncomplete && d.message.contains("bad annotation")),
        "scan dropped the note: {:?}",
        scanned.diagnostics
    );
    assert_eq!(scanned.diagnostics, strict.diagnostics);
}
