//! Golden-file tests for the provenance layer: world-tree DOT/JSON,
//! SARIF, and the `explain` witness narrative on the paper's figures.
//!
//! Regenerate the goldens after an intentional output change with
//! `UPDATE_GOLDEN=1 cargo test --test provenance`.

use shoal::core::provenance::{explain_diag, reports_json, sarif_json};
use shoal::core::{analyze_source, AnalysisReport};
use shoal::corpus::figures;
use std::path::Path;

fn report(src: &str) -> AnalysisReport {
    analyze_source(src).expect("figure parses")
}

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (run with UPDATE_GOLDEN=1)", name));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The four figure scripts the goldens and determinism tests cover.
fn figure_set() -> Vec<(&'static str, &'static str)> {
    vec![
        ("fig1", figures::FIG1),
        ("fig2", figures::FIG2),
        ("fig3", figures::FIG3),
        ("fig5", figures::FIG5),
    ]
}

#[test]
fn world_tree_dot_golden() {
    check_golden("fig1.tree.dot", &report(figures::FIG1).world_tree.to_dot());
}

#[test]
fn world_tree_json_golden() {
    check_golden(
        "fig1.tree.json",
        &report(figures::FIG1).world_tree.to_json().to_text(),
    );
}

/// Two tests fork six live worlds that differ in what exists, and
/// static commands (`touch`, `mkdir -p`, a redirect) then run over all
/// of them before `rm -rf "$1"; cat "$1"/config` always fails. The
/// tree pins the ids, fork sites and order that a simple command run
/// over a whole live-world set must reproduce.
const STATIC_OVER_WORLDS: &str = r#"#!/bin/sh
[ -e "$2" ]
[ -d "$3" ]
touch /srv/app/stamp
mkdir -p /srv/app/logs
echo started > /srv/app/logs/run.log
rm -rf "$1"
cat "$1"/config
"#;

#[test]
fn static_commands_over_live_worlds_golden() {
    let r = report(STATIC_OVER_WORLDS);
    assert!(r.worlds_explored >= 4, "peak {}", r.worlds_explored);
    assert!(r.has(shoal::core::DiagCode::AlwaysFails));
    check_golden("static_worlds.tree.dot", &r.world_tree.to_dot());
    check_golden("static_worlds.tree.json", &r.world_tree.to_json().to_text());
}

#[test]
fn sarif_golden() {
    let entries = vec![("examples/fig1.sh".to_string(), report(figures::FIG1))];
    check_golden("fig1.sarif.json", &sarif_json(&entries).to_text());
}

#[test]
fn sarif_names_the_steamroot_empty_expansion_path() {
    let entries = vec![("examples/fig1.sh".to_string(), report(figures::FIG1))];
    let text = sarif_json(&entries).to_text();
    assert!(text.contains("\"codeFlows\""));
    assert!(
        text.contains("$STEAMROOT expands to the empty string"),
        "the dangerous-delete codeFlow must narrate the empty-STEAMROOT path"
    );
    assert!(text.contains("https://json.schemastore.org/sarif-2.1.0.json"));
}

#[test]
fn explain_golden_reproduces_fig1_narrative() {
    let r = report(figures::FIG1);
    // Finding #1 is the dangerous-delete (sorted after the line-2 note).
    let text = explain_diag("examples/fig1.sh", figures::FIG1, &r, 1).expect("finding exists");
    assert!(text.contains("STEAMROOT"));
    assert!(text.contains("fails"));
    check_golden("fig1.explain.txt", &text);
}

/// Two independent analyses of the same script serialize to the same
/// bytes — IDs, ordering, and trees are all deterministic.
#[test]
fn serialization_is_deterministic_across_runs() {
    for (name, src) in figure_set() {
        let a = report(src);
        let b = report(src);
        assert_eq!(
            a.world_tree.to_dot(),
            b.world_tree.to_dot(),
            "{name}: DOT differs across runs"
        );
        assert_eq!(
            a.world_tree.to_json().to_text(),
            b.world_tree.to_json().to_text(),
            "{name}: world-tree JSON differs across runs"
        );
        let ja = reports_json(&[(format!("{name}.sh"), a)]).to_text();
        let jb = reports_json(&[(format!("{name}.sh"), b)]).to_text();
        assert_eq!(ja, jb, "{name}: report JSON differs across runs");
    }
}

/// The tree's accounting reconciles exactly: one terminal leaf per
/// world that reached the end of the script.
#[test]
fn world_tree_leaves_reconcile_with_terminal_worlds() {
    for (name, src) in figures::all() {
        let r = report(src);
        assert_eq!(
            r.world_tree.terminal_leaves(),
            r.terminal_worlds,
            "{name}: tree terminal leaves != terminal_worlds"
        );
    }
}

/// Every diagnostic produced on the corpus carries provenance, and its
/// witness world exists in the tree.
#[test]
fn every_diagnostic_carries_provenance() {
    for (name, src) in figures::all() {
        let r = report(src);
        for d in &r.diagnostics {
            let p = d
                .provenance
                .as_ref()
                .unwrap_or_else(|| panic!("{name}: {d} lacks provenance"));
            assert!(
                (p.world as usize) < r.world_tree.len(),
                "{name}: witness world {} not in tree",
                p.world
            );
        }
    }
}
