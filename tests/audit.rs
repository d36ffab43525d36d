//! The precision/coverage audit plane end to end: call-site dedupe
//! under world forking, taxonomy completeness, `--jobs` byte-parity of
//! the fleet report, the dark-path contract (audit off = no coverage
//! map, identical verdicts, no clock reads), the recorded overhead
//! bound, and no `dfa-cap` loss over the figure corpus.

use shoal::core::{analyze_source_with, scan_paths, AnalysisOptions, AuditReport, ScanOptions};
use shoal_obs::audit::LossCause;
use shoal_obs::json::Json;
use std::path::PathBuf;

fn audited() -> AnalysisOptions {
    AnalysisOptions {
        audit: true,
        ..AnalysisOptions::default()
    }
}

fn examples_dir() -> Vec<PathBuf> {
    vec![PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples"
    ))]
}

/// Regression for the fork-explosion accounting bug: an unknown
/// command reached by many live worlds is ONE call site, not one per
/// world. Three two-way forks put 8 worlds on the `frobnicate` line;
/// the map must still say sites=1 and a single no-spec loss.
#[test]
fn unknown_command_is_counted_per_call_site_not_per_world() {
    let src = "\
if [ -f /tmp/a ]; then x=1; else x=2; fi
if [ -f /tmp/b ]; then y=1; else y=2; fi
if [ -f /tmp/c ]; then z=1; else z=2; fi
frobnicate \"$x\" \"$y\" \"$z\"
";
    let report = analyze_source_with(src, audited()).expect("script parses");
    let cov = report.coverage.expect("audit on yields a coverage map");

    let frob = cov.commands.get("frobnicate").expect("command recorded");
    assert!(!frob.has_spec);
    assert_eq!(frob.sites, 1, "8 live worlds, one call site");
    assert_eq!(frob.scripts, 1);
    assert_eq!(
        cov.loss_totals().get(&LossCause::NoSpec).copied(),
        Some(1),
        "one no-spec loss for one site, not one per world: {:?}",
        cov.losses
    );

    // The same command on a second line is a second site.
    let twice = format!("{src}frobnicate --again\n");
    let report = analyze_source_with(&twice, audited()).expect("script parses");
    let cov = report.coverage.expect("coverage map");
    assert_eq!(cov.commands.get("frobnicate").unwrap().sites, 2);
    assert_eq!(cov.loss_totals().get(&LossCause::NoSpec).copied(), Some(2));
}

/// Every recorded cause contributes to the degradation totals: the
/// taxonomy is closed, so per-cause counts sum to `total_losses` and
/// any loss marks the script degraded.
#[test]
fn loss_taxonomy_sums_and_marks_degradation() {
    let src = "\
while read -r line; do
  munge \"$line\"
done < /tmp/input
frobnicate --all
";
    let report = analyze_source_with(src, audited()).expect("script parses");
    let cov = report.coverage.expect("coverage map");

    let totals = cov.loss_totals();
    let sum: u64 = totals.values().sum();
    assert_eq!(sum, cov.total_losses(), "per-cause counts must sum");
    assert!(sum > 0, "unknown commands + loop widening must record losses");
    assert!(
        totals.contains_key(&LossCause::NoSpec),
        "munge/frobnicate have no specs: {totals:?}"
    );
    assert!(
        totals.contains_key(&LossCause::LoopWiden),
        "the while body is widened: {totals:?}"
    );
    assert_eq!(cov.degraded_scripts, 1, "any loss degrades the script");

    // Degraded + zero-fired checkers ⇒ flagged as possibly suppressed.
    for (id, c) in &cov.checkers {
        assert_eq!(
            c.suppressed,
            u64::from(c.fired == 0),
            "checker {id}: fired={} suppressed={}",
            c.fired,
            c.suppressed
        );
    }
}

/// A clean script records coverage but no losses and no degradation.
#[test]
fn clean_script_is_fully_covered() {
    let report = analyze_source_with("echo hello\n", audited()).expect("parses");
    let cov = report.coverage.expect("coverage map");
    assert_eq!(cov.scripts, 1);
    assert_eq!(cov.degraded_scripts, 0);
    assert_eq!(cov.total_losses(), 0);
    assert!(cov.commands.get("echo").unwrap().has_spec);
    for (id, c) in &cov.checkers {
        assert_eq!(c.suppressed, 0, "nothing may be suppressed in {id}");
    }
}

/// The dark path: audit off produces no coverage map, and flipping
/// audit changes neither diagnostics nor the serialized report body.
#[test]
fn audit_off_is_dark_and_changes_no_verdicts() {
    let src = "\
if [ -f /tmp/a ]; then x=1; fi
frobnicate \"$x\"
rm -rf \"$UNSET/\"*
";
    let off = analyze_source_with(src, AnalysisOptions::default()).expect("parses");
    assert!(off.coverage.is_none(), "audit off must construct nothing");

    let on = analyze_source_with(src, audited()).expect("parses");
    assert!(on.coverage.is_some());
    assert_eq!(
        off.diagnostics, on.diagnostics,
        "the audit plane observes; it must never change verdicts"
    );
}

/// The fleet report (`shoal audit`) is byte-identical across `--jobs`
/// levels and across runs, in both text and JSON forms — the fleet
/// fold must not leak scheduling order.
#[test]
fn audited_scan_is_byte_identical_at_any_jobs_level() {
    let roots = examples_dir();
    let report = |jobs| {
        let opts = ScanOptions {
            audit: true,
            jobs,
            ..ScanOptions::default()
        };
        AuditReport::build(&scan_paths(&roots, &opts))
    };
    let (seq, par, again) = (report(1), report(4), report(4));

    assert_eq!(
        seq.to_json().to_text(),
        par.to_json().to_text(),
        "audit JSON must not depend on --jobs"
    );
    assert_eq!(
        seq.render_text(),
        par.render_text(),
        "audit text must not depend on --jobs"
    );
    assert_eq!(
        par.to_json().to_text(),
        again.to_json().to_text(),
        "audit JSON must be stable across runs"
    );
    assert_eq!(
        par.render_text(),
        again.render_text(),
        "audit text must be stable across runs"
    );

    let doc = seq.to_json().to_text();
    assert!(doc.contains("shoal-audit/v1"), "{doc}");
    let plain = scan_paths(&roots, &ScanOptions::default());
    assert!(
        !plain.to_json().to_text().contains("\"audit\""),
        "audit off: no audit key in scan output"
    );
}

/// The audit plane adds no clock reads: neither audit source calls
/// `Instant::now` or names `SystemTime`.
#[test]
fn audit_sources_read_no_clock() {
    for (path, src) in [
        ("crates/obs/src/audit.rs", include_str!("../crates/obs/src/audit.rs")),
        ("crates/core/src/audit.rs", include_str!("../crates/core/src/audit.rs")),
    ] {
        for clock in ["Instant::now", "SystemTime"] {
            assert!(!src.contains(clock), "{path} reads a clock ({clock})");
        }
    }
}

/// The recorded scan benchmark keeps audit-on within 1.05x of
/// audit-off (`BENCH_scan.json`, `scan/audit_on` vs `scan/audit_off`).
#[test]
fn recorded_audit_overhead_is_within_five_percent() {
    let bench = Json::parse(include_str!("../BENCH_scan.json")).expect("BENCH_scan.json parses");
    let ns = |key: &str| {
        bench
            .get("benchmarks")
            .and_then(|b| b.get(key))
            .and_then(Json::as_f64)
            .filter(|ns| *ns > 0.0)
            .unwrap_or_else(|| panic!("BENCH_scan.json has no positive {key}"))
    };
    let (off, on) = (ns("scan/audit_off"), ns("scan/audit_on"));
    assert!(
        on <= 1.05 * off,
        "audit-on {on} ns/iter exceeds 1.05x audit-off {off} ns/iter"
    );
}

/// The lazy decision engine must not widen coverage loss: the audit of
/// the figure corpus (examples/ and tests/) reports no `dfa-cap` loss.
/// A lazy search that charges explored pairs too eagerly, or a quotient
/// that caps a product the eager pipeline could build, shows up here.
#[test]
fn figure_corpus_has_no_dfa_cap_losses() {
    let mut roots = examples_dir();
    roots.push(PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests")));
    let opts = ScanOptions {
        audit: true,
        ..ScanOptions::default()
    };
    let report = AuditReport::build(&scan_paths(&roots, &opts));
    assert!(report.total > 0, "the corpus has scripts");
    let dfa_cap = report.fleet.loss_totals().get(&LossCause::DfaCap).copied();
    assert_eq!(dfa_cap.unwrap_or(0), 0, "dfa-cap losses over the figure corpus");
}
