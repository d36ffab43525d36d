//! Regression: a statement shifted, then unshifted, across runs while
//! its successor is edited must never replay stale positions.

use shoal::core::provenance::reports_json;
use shoal::core::{analyze_source_with, AnalysisOptions, AnalysisReport, IncrSession};

fn rendered(report: &AnalysisReport) -> String {
    reports_json(&[("doc".to_string(), report.clone())]).to_text()
}

#[test]
fn indent_edit_unindent_stays_byte_identical() {
    // stmt1 carries interior spans (trail entries from the `if` test,
    // diag inside the branch). stmt2 is edited while stmt1 is shifted,
    // then the shift is undone.
    let src1 = "if [ -n \"$x\" ]; then rm -rf \"$d/\"*; fi\necho a\n";
    let src2 = "  if [ -n \"$x\" ]; then rm -rf \"$d/\"*; fi\necho b\n";
    let src3 = "if [ -n \"$x\" ]; then rm -rf \"$d/\"*; fi\necho b\n";
    let mut session = IncrSession::new(AnalysisOptions::default());
    for (i, src) in [src1, src2, src3].iter().enumerate() {
        let inc = session.analyze(src).expect("parse");
        let cold = analyze_source_with(src, AnalysisOptions::default()).expect("parse");
        assert_eq!(
            rendered(&inc),
            rendered(&cold),
            "run {} diverged (replayed {}, executed {})",
            i + 1,
            session.stats.last_replayed,
            session.stats.last_executed
        );
    }
}
