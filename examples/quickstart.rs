//! Quickstart: analyze the paper's Steam-updater bug and its two fixes.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use shoal::core::{analyze_source, DiagCode};
use shoal::corpus::figures;

fn main() {
    println!("=== shoal quickstart: the Steam-for-Linux updater bug ===\n");
    for (name, src, expectation) in [
        ("Fig. 1 (the bug)", figures::FIG1, "must be flagged"),
        ("Fig. 2 (safe fix)", figures::FIG2, "must be clean"),
        ("Fig. 3 (unsafe fix)", figures::FIG3, "must be flagged"),
    ] {
        println!("--- {name} — {expectation} ---");
        println!("{src}");
        let report = analyze_source(src).expect("figure parses");
        let dangers = report.with_code(DiagCode::DangerousDelete);
        if dangers.is_empty() {
            println!(
                "verdict: SAFE across all {} explored executions\n",
                report.terminal_worlds
            );
        } else {
            for d in dangers {
                println!("verdict: {d}");
            }
            println!();
        }
    }
    println!("Compare with the syntactic baseline (fires identically on all three):");
    for (name, src) in [
        ("Fig. 1", figures::FIG1),
        ("Fig. 2", figures::FIG2),
        ("Fig. 3", figures::FIG3),
    ] {
        let lints = shoal::lint::lint_source(src).expect("parses");
        let sc2115 = lints.iter().filter(|l| l.code == "SC2115").count();
        println!("  {name}: {} SC2115 warning(s)", sc2115);
    }
}
