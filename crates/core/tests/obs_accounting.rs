//! The exploration accounting must balance exactly: every terminal
//! world is explained by the initial world plus forks minus pruned
//! branches minus cap-dropped worlds minus worlds merged into a
//! same-state sibling. These tests use only per-engine
//! counters (via `ProfileReport`), no global recorder state, so they
//! can run in parallel with everything else.

use shoal_core::{analyze_source_with, AnalysisOptions, CapReason, ProfileReport};
use shoal_corpus::{figures, scale};

fn profiled(src: &str) -> (shoal_core::AnalysisReport, ProfileReport) {
    let report = analyze_source_with(
        src,
        AnalysisOptions {
            profile: true,
            ..AnalysisOptions::default()
        },
    )
    .expect("corpus script parses");
    let profile = report.profile.clone().expect("profile requested");
    (report, profile)
}

fn assert_balanced(name: &str, src: &str) {
    let (report, p) = profiled(src);
    let expected =
        1 + p.forks as i64 - p.worlds_pruned as i64 - p.cap_dropped as i64 - p.merged as i64;
    assert_eq!(
        report.terminal_worlds as i64, expected,
        "{name}: terminal worlds ≠ 1 + forks − pruned − cap_dropped − merged \
         (terminal={}, forks={}, pruned={}, cap_dropped={}, merged={})",
        report.terminal_worlds, p.forks, p.worlds_pruned, p.cap_dropped, p.merged
    );
    assert_eq!(
        report.world_tree.merged_leaves() as u64,
        p.merged,
        "{name}: merged tree leaves disagree with the merged counter"
    );
    assert_eq!(
        report.worlds_explored, p.peak_live_worlds,
        "{name}: report peak disagrees with profile peak"
    );
    assert!(
        report.worlds_explored >= report.terminal_worlds,
        "{name}: peak live ({}) below terminal count ({})",
        report.worlds_explored,
        report.terminal_worlds
    );
    assert_eq!(report.paths_completed, report.terminal_worlds);
}

#[test]
fn figures_balance() {
    assert_balanced("fig1", figures::FIG1);
    assert_balanced("fig2", figures::FIG2);
    assert_balanced("fig3", figures::FIG3);
    assert_balanced("fig5", figures::FIG5);
}

#[test]
fn figures_balance_without_pruning() {
    for (name, src) in [
        ("fig1", figures::FIG1),
        ("fig2", figures::FIG2),
        ("fig3", figures::FIG3),
    ] {
        let report = analyze_source_with(
            src,
            AnalysisOptions {
                enable_pruning: false,
                profile: true,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        let p = report.profile.unwrap();
        assert_eq!(
            report.terminal_worlds as i64,
            1 + p.forks as i64 - p.worlds_pruned as i64 - p.cap_dropped as i64 - p.merged as i64,
            "{name} (pruning off) out of balance"
        );
    }
}

#[test]
fn scaling_scripts_balance() {
    assert_balanced("straight_line_20", &scale::straight_line(20));
    assert_balanced("branchy_4", &scale::branchy(4));
    assert_balanced("branchy_independent_5", &scale::branchy_independent(5));
    assert_balanced("wide_pipeline_8", &scale::wide_pipeline(8));
}

#[test]
fn branchy_overflow_records_max_worlds_cap() {
    // 2^8 = 256 genuinely independent paths against the default
    // 64-world cap: exploration must truncate, say so machine-readably,
    // and still balance.
    let (report, p) = profiled(&scale::branchy_independent(8));
    assert!(report.incomplete);
    assert!(p.cap_dropped > 0, "expected dropped worlds, got none");
    let hit = report
        .cap_hits
        .iter()
        .find(|h| h.reason == CapReason::MaxWorlds)
        .expect("a max_worlds cap hit is recorded");
    assert!(hit.dropped > 0);
    assert!(hit.hits >= 1);
    // The triggering diagnostic carries the same machine-readable reason.
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.cap_reason == Some(CapReason::MaxWorlds)));
}

#[test]
fn symbolic_while_records_loop_bound_cap() {
    // A loop on a symbolic condition survives past the unrolling bound:
    // the widening is recorded as a cap hit — but not as dropped worlds
    // (widening keeps the worlds), so the balance is unaffected.
    let src = "#!/bin/sh\nwhile [ \"$1\" != done ]; do\n    shift\ndone\necho ok\n";
    assert_balanced("symbolic_while", src);
    let (report, _) = profiled(src);
    let hit = report
        .cap_hits
        .iter()
        .find(|h| h.reason == CapReason::LoopBound)
        .expect("loop widening is recorded as a cap hit");
    assert_eq!(hit.dropped, 0);
}

#[test]
fn exhaustive_exploration_has_no_cap_hits() {
    let (report, p) = profiled("true\nfalse\necho done\n");
    assert!(report.cap_hits.is_empty());
    assert_eq!(p.cap_dropped, 0);
    assert_eq!(report.terminal_worlds, 1);
    assert_eq!(report.worlds_explored, 1);
}

#[test]
fn peak_exceeds_terminal_when_paths_merge_or_prune() {
    // Fig. 1 forks during expansion (`${0%/*}`, `cd … && echo`) and
    // prunes; the peak must be visible and exact, not the old
    // terminal-count lower bound.
    let (report, p) = profiled(figures::FIG1);
    assert!(p.forks > 0, "fig1 must fork");
    assert!(report.worlds_explored > 1);
    assert_eq!(p.peak_live_worlds, report.worlds_explored);
}

#[test]
fn profile_is_opt_in_and_timed() {
    let plain = analyze_source_with(figures::FIG1, AnalysisOptions::default()).unwrap();
    assert!(plain.profile.is_none());
    let (_, p) = profiled(figures::FIG1);
    // Timings come from a monotonic clock and phases sum below total
    // (total additionally includes parsing).
    assert!(p.total_us >= p.exec_us);
    assert!(p.total_us >= p.parse_us);
}

#[test]
fn profile_phases_fit_in_total_on_every_path() {
    // Setup (annotations, engine, initial world) is charged, so the
    // phases account for the whole run instead of leaving the prologue
    // outside every clock — on the cold, resilient and incremental
    // paths alike.
    let opts = AnalysisOptions {
        profile: true,
        ..AnalysisOptions::default()
    };
    let reports = [
        ("cold", analyze_source_with(figures::FIG1, opts.clone()).unwrap()),
        ("resilient", shoal_core::analyze_source_resilient(figures::FIG1, opts.clone())),
        (
            "incremental",
            shoal_core::IncrSession::new(opts).analyze(figures::FIG1).unwrap(),
        ),
    ];
    for (path, report) in reports {
        let p = report.profile.expect("profile requested");
        let phases = p.parse_us + p.setup_us + p.exec_us + p.idempotence_us + p.report_us;
        assert!(
            phases <= p.total_us,
            "{path}: phases {phases} µs > total {} µs ({p:?})",
            p.total_us
        );
    }
}
