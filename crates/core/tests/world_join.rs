//! Joining same-state worlds at statement boundaries.
//!
//! Straight-line scripts must stay at one path instead of churning
//! against the world cap; every folded world closes its leaf of the
//! world tree as `merged`; and the SymFs origin bit keeps the
//! always-fails checker honest across a join.

use shoal_core::{analyze_source_with, AnalysisOptions, AnalysisReport, DiagCode, WorldOutcome};
use shoal_corpus::{figures, scale};
use shoal_obs::audit::LossCause;
use shoal_shparse::{parse_script, Command, Script};
use std::sync::Arc;

fn analyze(src: &str) -> AnalysisReport {
    analyze_source_with(
        src,
        AnalysisOptions {
            profile: true,
            audit: true,
            ..AnalysisOptions::default()
        },
    )
    .expect("script parses")
}

/// Every world the engine dropped was closed in the tree, and the
/// terminal leaves are the terminal worlds.
fn assert_closed(name: &str, src: &str) {
    let report = analyze(src);
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
        "{name}: terminal leaves"
    );
}

#[test]
fn straight_line_scripts_never_reach_the_world_cap() {
    for n in [50, 200] {
        let report = analyze(&scale::straight_line(n));
        assert!(
            report.cap_hits.is_empty(),
            "straight_line/{n}: cap hits {:?}",
            report.cap_hits
        );
        assert!(
            !report.incomplete,
            "straight_line/{n} must be analyzed completely"
        );
        let coverage = report.coverage.as_ref().expect("audit requested");
        let world_cap = coverage
            .loss_totals()
            .get(&LossCause::WorldCap)
            .copied()
            .unwrap_or(0);
        assert_eq!(world_cap, 0, "straight_line/{n}: world-cap audit losses");
        assert_eq!(report.terminal_worlds, 1, "straight_line/{n} has one path");
        assert!(
            report.diagnostics.is_empty(),
            "straight_line/{n}: {:?}",
            report.diagnostics
        );
    }
}

#[test]
fn merged_worlds_close_their_leaves() {
    for (name, src) in figures::all() {
        assert_closed(name, src);
    }
    for (name, src) in [
        ("straight_line/50", scale::straight_line(50)),
        ("straight_line/200", scale::straight_line(200)),
        ("branchy/6", scale::branchy(6)),
        ("branchy_independent/8", scale::branchy_independent(8)),
        ("wide_pipeline/8", scale::wide_pipeline(8)),
        ("loopy/50", scale::loopy(50)),
    ] {
        assert_closed(name, &src);
    }
}

#[test]
fn merges_happen_where_paths_reconverge() {
    let report = analyze(&scale::straight_line(50));
    let p = report.profile.as_ref().expect("profile requested");
    assert!(
        p.merged > 0,
        "straight_line/50 re-converges after every existence fork"
    );
    assert!(
        p.peak_live_worlds <= 4,
        "peak {} live worlds",
        p.peak_live_worlds
    );
}

#[test]
fn refined_assumption_is_not_blamed_on_the_script() {
    // `touch` forks on whether the file existed; `cat`'s failure case
    // narrows the assumed `Exists` to `Dir`. That narrowing is an
    // assumption about the initial world, so `cp` failing on it is not
    // the script's doing.
    let src = "mkdir -p /data/d\ntouch /data/d/f\ncat /data/d/f\ncp /data/d/f /data/copy\n";
    let report = analyze(src);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn directory_implied_by_an_assumed_child_is_an_assumption() {
    // On the path where `cat /a/b/c` succeeds, `/a` is a directory
    // because the initial world had `/a/b/c`; the script did nothing to
    // `/a`, so `cat /a` failing there is no always-fails finding. The
    // deletion of `/a/b` does not make `/a` unknown either, so no path
    // has `/a` a file next to an existing `/a/b`.
    let report = analyze("cat /a/b/c\ncat /a\n");
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    let report = analyze("cat /a/b/c\nrm -rf /a/b\ncat /a\n");
    assert!(!report.has(DiagCode::AlwaysFails), "{:?}", report.diagnostics);
    assert_eq!(report.terminal_worlds, 4);
}

#[test]
fn paths_that_learn_directories_in_different_orders_join() {
    // `wc` forks on whether the log exists. Where it does, `/tmp/work`
    // became a directory before `mkdir -p`; where it does not, `mkdir
    // -p` made it one. After the append both paths know the same
    // facts and must be one path, whatever order they learned them in.
    let src = "wc -l /tmp/work/log\nmkdir -p /tmp/work\necho done >> /tmp/work/log\n";
    let report = analyze(src);
    assert_eq!(report.terminal_worlds, 1, "{:?}", report.world_tree);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

#[test]
fn always_fails_survives_the_join_of_its_two_worlds() {
    // One world deletes `$1`, the other assumed it never existed; after
    // the `if` both have `$1` absent and join. The deletion is an
    // effect on one side, so the joined fact is an effect and `cat`
    // still always fails because of the script.
    let src = "if [ -e \"$1\" ]; then rm -rf \"$1\"; fi; cat \"$1\"\n";
    let report = analyze(src);
    assert!(
        report.has(DiagCode::AlwaysFails),
        "{:?}",
        report.diagnostics
    );
    let p = report.profile.as_ref().expect("profile requested");
    assert!(p.merged >= 1, "the two branches of the if must join");
    assert_eq!(report.terminal_worlds, 1);
}

#[test]
fn defining_a_function_does_not_block_the_join() {
    // Both paths of the `if` define `f` after it. The definition must
    // not give each path its own copy of the body: the paths are the
    // same state and join, exactly as they do without the `f()` line.
    let without = analyze("if [ -e /a ]; then echo yes; fi\nrm -rf /a\n");
    let with = analyze("if [ -e /a ]; then echo yes; fi\nf() { echo hi; }\nrm -rf /a\n");
    for report in [&without, &with] {
        let p = report.profile.as_ref().expect("profile requested");
        assert_eq!(report.terminal_worlds, 1, "{:?}", report.world_tree);
        assert_eq!(p.merged, 1);
    }
}

#[test]
fn a_function_body_equal_by_value_joins() {
    // Two worlds define `f` from separate parses of the same text (as
    // incremental replay restores bodies from an older parse): the
    // bodies are different allocations but the same program, so the
    // worlds join.
    let body = |s: &Script| match &s.items[0].and_or.first.commands[0] {
        Command::FunctionDef { body, .. } => Arc::clone(body),
        other => panic!("not a function definition: {other:?}"),
    };
    let a = parse_script("f() { echo hi; }\n").expect("parses");
    let b = parse_script("f() { echo hi; }\n").expect("parses");
    let (ba, bb) = (body(&a), body(&b));
    assert!(!Arc::ptr_eq(&ba, &bb));
    let mut wa = shoal_core::World::initial();
    let mut wb = wa.clone();
    wa.functions.insert("f".into(), ba);
    wb.functions.insert("f".into(), bb);
    assert!(wa.joinable(&wb));
}
