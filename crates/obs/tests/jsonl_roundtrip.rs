//! Events of every value shape must survive the JSONL export: one
//! valid JSON object per line, fields and types preserved, including
//! strings that need escaping.
//!
//! Single-test binary: the recorder is process-global.

use shoal_obs::{install, parse_jsonl, set_enabled, take_events, trace_to_jsonl};

#[test]
fn every_value_shape_survives_the_jsonl_round_trip() {
    install();
    shoal_obs::event!(
        "kitchen_sink",
        unsigned = 42u64,
        signed = -7i64,
        float = 2.5f64,
        truth = true,
        text = "quote \" backslash \\ newline \n tab \t unicode ✓",
        empty = ""
    );
    shoal_obs::event!("fork", site = "if", line = 3u64, new_worlds = 1u64);
    {
        let _t = shoal_obs::trace::phase_timer("phase");
    }
    let events = take_events();
    set_enabled(false);
    assert_eq!(events.len(), 3);

    let jsonl = trace_to_jsonl(&events);
    let parsed = parse_jsonl(&jsonl).expect("exported trace parses");
    assert_eq!(parsed.len(), 3);

    let sink = &parsed[0];
    assert_eq!(sink.get("kind").and_then(|v| v.as_str()), Some("kitchen_sink"));
    assert_eq!(sink.get("unsigned").and_then(|v| v.as_u64()), Some(42));
    assert_eq!(sink.get("signed").and_then(|v| v.as_f64()), Some(-7.0));
    assert_eq!(sink.get("float").and_then(|v| v.as_f64()), Some(2.5));
    assert_eq!(
        sink.get("text").and_then(|v| v.as_str()),
        Some("quote \" backslash \\ newline \n tab \t unicode ✓")
    );
    assert_eq!(sink.get("empty").and_then(|v| v.as_str()), Some(""));

    let fork = &parsed[1];
    assert_eq!(fork.get("kind").and_then(|v| v.as_str()), Some("fork"));
    assert_eq!(fork.get("line").and_then(|v| v.as_u64()), Some(3));

    let span = &parsed[2];
    assert_eq!(span.get("kind").and_then(|v| v.as_str()), Some("span"));
    assert_eq!(span.get("name").and_then(|v| v.as_str()), Some("phase"));
    assert!(span.get("duration_us").and_then(|v| v.as_u64()).is_some());

    // Timestamps are monotone non-decreasing across the trace.
    let stamps: Vec<u64> = parsed
        .iter()
        .map(|e| e.get("t_us").and_then(|v| v.as_u64()).unwrap())
        .collect();
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
}
