//! The world tree is the only record of exploration: `ProfileReport`
//! reads its fork, prune, cap-drop and merge counts off the tree, so
//! `terminal = 1 + forks − pruned − cap_dropped − merged` holds by
//! construction. What the tree can still get wrong is a world the
//! engine dropped without closing; these tests check that every leaf is
//! closed and that the terminal leaves are the terminal worlds. They
//! use only per-engine state (via `ProfileReport` and the tree), no
//! global recorder state, so they can run in parallel with everything
//! else.

use shoal_core::{
    analyze_source_with, AnalysisOptions, CapReason, ProfileReport, WorldOutcome,
};
use shoal_corpus::{figures, generate_corpus, scale};

fn profiled(src: &str) -> (shoal_core::AnalysisReport, ProfileReport) {
    profiled_with(src, AnalysisOptions::default())
}

fn profiled_with(src: &str, opts: AnalysisOptions) -> (shoal_core::AnalysisReport, ProfileReport) {
    let report = analyze_source_with(
        src,
        AnalysisOptions {
            profile: true,
            ..opts
        },
    )
    .expect("corpus script parses");
    let profile = report.profile.clone().expect("profile requested");
    (report, profile)
}

fn assert_closed(name: &str, report: &shoal_core::AnalysisReport, p: &ProfileReport) {
    let tree = &report.world_tree;
    let open = tree
        .nodes
        .iter()
        .filter(|n| n.children.is_empty() && n.outcome == WorldOutcome::Open)
        .count();
    assert_eq!(open, 0, "{name}: {open} leaf/leaves left open");
    assert_eq!(
        tree.terminal_leaves(),
        report.terminal_worlds,
        "{name}: terminal leaves ≠ terminal worlds"
    );
    assert_eq!(
        (p.forks, p.worlds_pruned, p.cap_dropped, p.merged),
        (
            tree.forks() as u64,
            tree.pruned_leaves() as u64,
            tree.cap_dropped_leaves() as u64,
            tree.merged_leaves() as u64,
        ),
        "{name}: profile counts are not the tree's"
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
}

fn assert_balanced(name: &str, src: &str) {
    let (report, p) = profiled(src);
    assert_closed(name, &report, &p);
}

#[test]
fn figures_balance() {
    for (name, src) in figures::all() {
        assert_balanced(name, src);
    }
}

#[test]
fn figures_balance_without_pruning() {
    for (name, src) in figures::all() {
        let (report, p) = profiled_with(
            src,
            AnalysisOptions {
                enable_pruning: false,
                ..AnalysisOptions::default()
            },
        );
        assert_closed(&format!("{name} (pruning off)"), &report, &p);
    }
}

#[test]
fn scaling_scripts_balance() {
    for (name, src) in [
        ("straight_line/50", scale::straight_line(50)),
        ("straight_line/200", scale::straight_line(200)),
        ("branchy/6", scale::branchy(6)),
        ("branchy_independent/8", scale::branchy_independent(8)),
        ("wide_pipeline/8", scale::wide_pipeline(8)),
        ("loopy/200", scale::loopy(200)),
    ] {
        assert_balanced(name, &src);
    }
}

#[test]
fn labeled_corpus_balances() {
    // E8's draw of the labeled bug corpus.
    for s in generate_corpus(10, 2026) {
        assert_balanced(&s.name, &s.script);
    }
}

#[test]
fn rm_of_a_directory_counts_its_pruned_candidates_once() {
    // `rm d` without `-r` on a known directory: both the "exists as a
    // file" and the "is absent" candidates are pruned, and the world
    // carries on with a failing `rm`. The profile once counted one fork
    // and one prune here while the tree held two of each.
    let (report, p) = profiled("mkdir -p d/e\nrm d\necho after\n");
    let tree = &report.world_tree;
    assert_eq!(tree.pruned_leaves(), 2);
    assert_eq!(p.forks, tree.forks() as u64);
    assert_eq!(p.worlds_pruned, tree.pruned_leaves() as u64);
    assert_closed("rm d", &report, &p);
}

#[test]
fn branchy_overflow_records_max_worlds_cap() {
    // 2^8 = 256 genuinely independent paths against the default
    // 64-world cap: exploration must truncate and say so
    // machine-readably.
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
    // (widening keeps the worlds), so no leaf is cap-dropped.
    let src = "#!/bin/sh\nwhile [ \"$1\" != done ]; do\n    shift\ndone\necho ok\n";
    let (report, p) = profiled(src);
    assert_closed("symbolic_while", &report, &p);
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
