//! Symbolic-execution cost (E9's bench counterpart, on the in-repo
//! harness): figures, scaling scripts, and the pruning ablation. Also
//! measures the acceptance criterion for the observability layer: with
//! recording disabled, `analyze_source_with` must stay within noise of
//! its uninstrumented speed.

use shoal_core::{analyze_source_with, AnalysisOptions, IncrSession};
use shoal_corpus::{figures, scale};
use shoal_obs::bench::{bench, black_box, header};

/// Cold-vs-edit pair for the incremental engine: `cold` is a full
/// `analyze_source_with` of the script; `edit` analyzes the same
/// script plus a fresh one-line trailing statement through a warm
/// [`IncrSession`], so every iteration replays the whole prefix from
/// the previous version's checkpoints and executes exactly one
/// statement. The `cold / edit` ratio is the headline incremental
/// speedup (acceptance: >= 5x on the 200-statement scripts).
fn bench_incr_pair(tag: &str, base: &str) {
    bench(&format!("incr/{tag}_cold"), || {
        black_box(analyze_source_with(black_box(base), AnalysisOptions::default()).unwrap());
    });
    let mut session = IncrSession::new(AnalysisOptions::default());
    session.analyze(base).unwrap();
    let mut edit = 0u64;
    bench(&format!("incr/{tag}_edit"), || {
        edit += 1;
        let src = format!("{base}echo edit_{edit}\n");
        black_box(session.analyze(black_box(&src)).unwrap());
    });
}

fn main() {
    header("symexec");
    for (name, src) in [
        ("fig1", figures::FIG1),
        ("fig2", figures::FIG2),
        ("fig5", figures::FIG5),
    ] {
        bench(&format!("figures/{name}"), || {
            black_box(analyze_source_with(black_box(src), AnalysisOptions::default()).unwrap());
        });
    }

    // N=200 pins down the asymptotics: with O(1) copy-on-write forks
    // and worlds joined at statement boundaries the live set stays at
    // a few worlds, so the curve must stay near-linear through 200.
    for n in [10usize, 50, 200] {
        let src = scale::straight_line(n);
        bench(&format!("straight_line/{n}"), || {
            black_box(analyze_source_with(black_box(&src), AnalysisOptions::default()).unwrap());
        });
    }

    // A long real-world shape: command substitutions, multi-stage
    // pipelines and function bodies on many live worlds (the input of
    // the `concatenation of 15` allocation budget).
    let src = scale::concatenation(15);
    bench("concat/15", || {
        black_box(analyze_source_with(black_box(&src), AnalysisOptions::default()).unwrap());
    });

    // The incremental engine's acceptance pair: a trailing one-line
    // edit on a 200-statement script must beat a cold analysis by 5x+
    // (the prefix replays from per-statement checkpoints).
    bench_incr_pair("straight_line_200", &scale::straight_line(200));
    bench_incr_pair("loopy_200", &scale::loopy(200));

    let src = scale::branchy(6);
    bench("branchy6/with_pruning", || {
        black_box(analyze_source_with(black_box(&src), AnalysisOptions::default()).unwrap());
    });
    bench("branchy6/without_pruning", || {
        black_box(
            analyze_source_with(
                black_box(&src),
                AnalysisOptions {
                    enable_pruning: false,
                    ..AnalysisOptions::default()
                },
            )
            .unwrap(),
        );
    });

    // Observability overhead when *enabled* (the disabled path is the
    // default for every bench above).
    shoal_obs::install();
    bench("fig1/with_recording", || {
        black_box(
            analyze_source_with(black_box(figures::FIG1), AnalysisOptions::default()).unwrap(),
        );
        // Keep the trace from growing without bound across iterations.
        shoal_obs::take_events();
    });
    shoal_obs::set_enabled(false);
}
