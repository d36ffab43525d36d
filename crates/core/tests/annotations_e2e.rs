//! End-to-end tests of inline `#@` annotations (§4 "Ergonomic
//! annotations"): the same script is unsafe without annotations and
//! provably safe with them — with zero impact on how any real shell
//! executes it.

use shoal_core::{analyze_source, parse_annotations, DiagCode};

#[test]
fn var_annotation_discharges_danger() {
    // Without the annotation, $INSTALL_ROOT is just an environment
    // variable that may be empty.
    let unannotated = "rm -rf \"$INSTALL_ROOT\"/*\n";
    let report = analyze_source(unannotated).unwrap();
    assert!(
        report.has(DiagCode::DangerousDelete),
        "an unconstrained env var followed by /* is the Fig. 1 shape"
    );
    // With the annotation, the variable is a non-root absolute path.
    let annotated = "#@ var INSTALL_ROOT : /opt/[^/]+\nrm -rf \"$INSTALL_ROOT\"/*\n";
    let report = analyze_source(annotated).unwrap();
    assert!(
        !report.has(DiagCode::DangerousDelete),
        "the annotation rules out the empty/root expansion: {:#?}",
        report.with_code(DiagCode::DangerousDelete)
    );
}

#[test]
fn var_annotation_admitting_one_string_is_that_string() {
    // The value is pinned where it is made, not at the first refinement
    // of some other symbol: the case labels of the first command that
    // reads it name the path.
    let report = analyze_source("#@ var X : /opt\ncat \"$X/a\"\n").unwrap();
    let labels: Vec<&str> = report
        .world_tree
        .nodes
        .iter()
        .map(|n| n.constraint.as_str())
        .collect();
    assert!(labels.contains(&"`cat /opt/a` succeeds"), "{labels:?}");
}

#[test]
fn cmd_annotation_types_unknown_pipeline_stage() {
    // `mystery-gen` has no spec; without an annotation the pipeline is
    // untypable and no dead pipe can be found.
    let unannotated = "mystery-gen | grep '^desc'\n";
    let report = analyze_source(unannotated).unwrap();
    assert!(!report.has(DiagCode::DeadPipe));
    // The annotation supplies its output type; now the dead filter shows.
    let annotated = "\
#@ cmd mystery-gen :: any -> (Distributor ID|Description):\\t.*
mystery-gen | grep '^desc'
";
    let report = analyze_source(annotated).unwrap();
    assert!(
        report.has(DiagCode::DeadPipe),
        "the annotated producer type exposes the impossible filter: {:#?}",
        report.diagnostics
    );
}

#[test]
fn type_definitions_are_reusable() {
    let src = "\
#@ type distro-line = (Distributor ID|Description|Release|Codename):\\t.*
#@ cmd my-lsb :: any -> distro-line
my-lsb | grep '^desc'
";
    let report = analyze_source(src).unwrap();
    assert!(report.has(DiagCode::DeadPipe));
    // And the corrected filter passes.
    let fixed = src.replace("'^desc'", "'^Desc'");
    let report = analyze_source(&fixed).unwrap();
    assert!(!report.has(DiagCode::DeadPipe));
}

#[test]
fn malformed_annotation_is_a_note_not_a_failure() {
    let src = "#@ var broken\necho ok\n";
    let report = analyze_source(src).unwrap();
    assert!(report.has(DiagCode::AnalysisIncomplete));
    // The analysis itself still ran.
    assert!(report.terminal_worlds >= 1);
}

#[test]
fn annotations_do_not_change_executability() {
    // The annotated script parses identically for the shell: the
    // annotation is in a comment.
    let src = "#@ var X : hex\necho \"$X\"\n";
    let ast = shoal_shparse::parse_script(src).unwrap();
    assert_eq!(ast.items.len(), 1);
}

#[test]
fn type_definitions_stay_with_their_script() {
    // The alias table is shared between analyses until a script
    // defines a type; that definition must not leak into the next
    // script's table.
    let first = parse_annotations("#@ type version = [0-9]+\\.[0-9]+\\.[0-9]+\n").unwrap();
    assert!(first.aliases.names().contains(&"version"));
    assert!(first.aliases.resolve("version").unwrap().matches(b"1.2.3"));

    let second = parse_annotations("#!/bin/sh\necho hi\n").unwrap();
    assert!(!second.aliases.names().contains(&"version"));
    // Not an alias, so `version` is read as a literal pattern.
    let literal = second.aliases.resolve("version").unwrap();
    assert!(literal.matches(b"version"));
    assert!(!literal.matches(b"1.2.3"));
    assert_eq!(
        second.aliases.names(),
        shoal_streamty::TypeAliases::builtin().names()
    );
}
