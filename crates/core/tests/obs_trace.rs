//! End-to-end trace reconciliation: the per-node fork/prune events and
//! the aggregate cap/merge events the engine emits into the global
//! recorder must tell the same story as the counters and the world
//! tree, replaying a checkpointed tree must emit nothing, and the JSONL
//! export must parse back losslessly.
//!
//! The recorder is process-global, so this file contains exactly ONE
//! test function: cargo runs test *binaries* sequentially, but tests
//! *within* a binary in parallel threads, and a second test here would
//! race on `install`/`take_events`.

use shoal_core::{analyze_source_with, AnalysisOptions, IncrSession};
use shoal_corpus::figures;
use shoal_obs::{install, parse_jsonl, set_enabled, take_events, trace_to_jsonl, Value};

fn field_u64(ev: &shoal_obs::Event, key: &str) -> u64 {
    match ev.field(key) {
        Some(Value::U64(n)) => *n,
        other => panic!("event {:?} field {key}: expected u64, got {other:?}", ev.kind),
    }
}

#[test]
fn events_reconcile_with_report_and_round_trip_jsonl() {
    for (name, src) in [
        ("fig1", figures::FIG1),
        ("fig2", figures::FIG2),
        ("fig3", figures::FIG3),
        ("fig5", figures::FIG5),
    ] {
        install();
        let report = analyze_source_with(
            src,
            AnalysisOptions {
                profile: true,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        let events = take_events();
        set_enabled(false);
        let p = report.profile.as_ref().unwrap();

        // Count the per-node fork/prune events and sum the aggregate
        // cap/merge events, then check them against the world tree the
        // profile reads, and against the terminal world count.
        let tree = &report.world_tree;
        let mut forks = 0u64;
        let mut pruned = 0u64;
        let mut cap_dropped = 0u64;
        let mut merged = 0u64;
        let mut joins = 0u64;
        for ev in &events {
            match ev.kind {
                "fork" => forks += 1,
                "prune" => pruned += 1,
                "cap_hit" => cap_dropped += field_u64(ev, "dropped"),
                "merge" => merged += field_u64(ev, "merged"),
                "join" => joins += 1,
                _ => {}
            }
        }
        assert_eq!(forks, tree.forks() as u64, "{name}: fork events ≠ tree forks");
        assert_eq!(pruned, tree.pruned_leaves() as u64, "{name}: prune events ≠ pruned leaves");
        assert_eq!(
            cap_dropped,
            tree.cap_dropped_leaves() as u64,
            "{name}: cap_hit events ≠ cap-dropped leaves"
        );
        assert_eq!(merged, tree.merged_leaves() as u64, "{name}: merge events ≠ merged leaves");
        assert_eq!(
            (p.forks, p.worlds_pruned, p.cap_dropped, p.merged),
            (forks, pruned, cap_dropped, merged),
            "{name}: profile ≠ events"
        );
        assert_eq!(joins, 1, "{name}: exactly one join event per analysis");
        assert_eq!(
            report.terminal_worlds as i64,
            1 + forks as i64 - pruned as i64 - cap_dropped as i64 - merged as i64,
            "{name}: event stream does not explain the terminal world count"
        );

        // A span event for every front-end phase made it into the trace.
        let spans: Vec<&shoal_obs::Event> = events.iter().filter(|e| e.kind == "span").collect();
        for phase in ["parse", "setup", "symexec", "report"] {
            assert!(
                spans
                    .iter()
                    .any(|e| matches!(e.field("name"), Some(Value::Str(s)) if s == phase)),
                "{name}: missing span event for {phase}"
            );
        }

        // JSONL round trip: one valid JSON object per event, kinds and
        // counts preserved.
        let jsonl = trace_to_jsonl(&events);
        let parsed = parse_jsonl(&jsonl).expect("exported trace is valid JSONL");
        assert_eq!(parsed.len(), events.len(), "{name}: JSONL line count");
        let fork_lines = jsonl.lines().filter(|l| l.contains("\"fork\"")).count() as u64;
        assert!(
            fork_lines >= 1,
            "{name}: fork events survive export (forks={forks})"
        );

        // The metrics side saw the same traffic.
        let snap = shoal_obs::snapshot();
        assert_eq!(snap.counter("engine.forks").unwrap_or(0), forks);
        assert_eq!(snap.counter("engine.pruned").unwrap_or(0), pruned);
        assert_eq!(snap.counter("engine.cap_dropped").unwrap_or(0), cap_dropped);
        assert_eq!(snap.counter("engine.merged").unwrap_or(0), merged);
        assert_eq!(
            snap.gauge("engine.peak_live_worlds"),
            Some(p.peak_live_worlds as u64),
            "{name}: peak gauge"
        );

        // One number per phase: the `--stats` histograms hold exactly
        // the `--profile` rows.
        let phase_sum = |phase: &str| snap.histograms.get(&format!("phase.{phase}.us")).map(|h| h.sum);
        assert_eq!(phase_sum("parse"), Some(p.parse_us), "{name}: parse");
        assert_eq!(phase_sum("setup"), Some(p.setup_us), "{name}: setup");
        assert_eq!(phase_sum("symexec"), Some(p.exec_us), "{name}: symexec");
        assert_eq!(
            phase_sum("report"),
            Some(p.idempotence_us + p.report_us),
            "{name}: report"
        );
    }

    // Counters count executed work only: a fully replayed incremental
    // analysis restores the checkpointed tree, so its profile carries
    // the same counts while the recorder sees no fork or prune.
    let mut session = IncrSession::new(AnalysisOptions {
        profile: true,
        ..AnalysisOptions::default()
    });
    let cold = session.analyze(figures::FIG1).unwrap();
    install();
    let warm = session.analyze(figures::FIG1).unwrap();
    let events = take_events();
    set_enabled(false);
    assert_eq!(session.stats.last_executed, 0, "fig1 replays fully");
    let counts = |r: &shoal_core::AnalysisReport| {
        let p = r.profile.as_ref().expect("profile requested");
        (p.forks, p.worlds_pruned, p.cap_dropped, p.merged)
    };
    assert_eq!(counts(&warm), counts(&cold), "replay changed the counts");
    assert!(counts(&cold).0 > 0, "fig1 forks");
    assert!(
        !events.iter().any(|e| e.kind == "fork" || e.kind == "prune"),
        "replay emitted fork/prune events"
    );
    let snap = shoal_obs::snapshot();
    assert_eq!(snap.counter("engine.forks"), None);
}
