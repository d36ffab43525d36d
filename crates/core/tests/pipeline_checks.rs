//! A multi-stage pipeline is stream-checked once per analysis, however
//! many live worlds reach it: the plan table stores the check's
//! findings and each world reports them.
//!
//! The check count is read from the `engine.pipeline_checks` counter,
//! and the recorder behind it is process-global, so this file contains
//! exactly ONE test function (see `obs_trace.rs`).

use shoal_core::engine::Engine;
use shoal_core::{AnalysisOptions, World};

fn pipeline_checks() -> u64 {
    shoal_obs::snapshot()
        .counter("engine.pipeline_checks")
        .unwrap_or(0)
}

#[test]
fn each_distinct_pipeline_is_stream_checked_once() {
    // Five independent existence tests fork 32 live worlds, and each
    // of them then runs two Fig. 5-style pipelines inside `$(…)`.
    let mut src = String::from("#!/bin/sh\n");
    for d in ["a", "b", "c", "d", "e"] {
        src.push_str(&format!("test -e /srv/{d} && echo {d}\n"));
    }
    src.push_str("release=\"$(lsb_release -a | grep '^desc' | cut -f 2)\"\n");
    src.push_str("codename=\"$(lsb_release -a | grep '^Codename' | cut -f 2)\"\n");
    src.push_str("echo \"$release\" \"$codename\"\n");
    let script = shoal_shparse::parse_script(&src).expect("script parses");

    shoal_obs::install();
    let planned = Engine::for_script(AnalysisOptions::default(), &script);
    let worlds = planned.exec_items(vec![World::initial()], &script.items);
    assert_eq!(worlds.len(), 32);
    let checks = pipeline_checks();
    assert_eq!(checks, 2);
    // Without the plan table every world checks both pipelines, and
    // reports the same findings.
    let unplanned = Engine::new(AnalysisOptions::default());
    let again = unplanned.exec_items(vec![World::initial()], &script.items);
    assert_eq!(pipeline_checks() - checks, 2 * 32);
    shoal_obs::set_enabled(false);
    let findings = |ws: &[World]| -> Vec<String> {
        ws.iter()
            .flat_map(|w| w.diags.iter().map(|d| d.to_string()))
            .collect()
    };
    assert_eq!(findings(&worlds), findings(&again));
    assert!(findings(&worlds).iter().any(|d| d.contains("[dead-pipe]")));
}
