//! The incremental engine's two contracts, end to end:
//!
//! 1. **Byte-identity** — for any edit history, an [`IncrSession`]'s
//!    report renders byte-for-byte identical to a cold
//!    `analyze_source_with` of the same text (the full provenance
//!    JSON, spans and world tree included).
//! 2. **Dirty-suffix bound** — after a single-statement edit, the
//!    number of statements actually re-executed is at most the dirty
//!    suffix (every statement from the first changed one to the end);
//!    everything before it replays from the last version's checkpoints,
//!    and the session holds no more checkpoints than the script has
//!    statements.

use shoal::core::provenance::reports_json;
use shoal::core::{analyze_source_with, AnalysisOptions, AnalysisReport, IncrSession};
use shoal::corpus::{figures, scale};

/// The full rendered report — diagnostics, provenance trails, world
/// tree, counters — as one string; byte-identity means equality here.
fn rendered(report: &AnalysisReport) -> String {
    reports_json(&[("doc".to_string(), report.clone())]).to_text()
}

/// Analyzes `src` through the session and asserts byte-identity with a
/// cold run; returns the number of statements the session executed
/// (as opposed to replayed).
fn check(session: &mut IncrSession, src: &str) -> usize {
    let inc = session.analyze(src).expect("incremental parse");
    let cold = analyze_source_with(src, AnalysisOptions::default()).expect("cold parse");
    assert_eq!(
        rendered(&inc),
        rendered(&cold),
        "incremental output diverged from cold analysis"
    );
    session.stats.last_executed
}

#[test]
fn every_figure_replays_byte_identically() {
    for (name, src) in figures::all() {
        let mut session = IncrSession::new(AnalysisOptions::default());
        check(&mut session, src);
        // Unchanged source: the whole script replays from cache.
        let executed = check(&mut session, src);
        assert_eq!(executed, 0, "{name}: unchanged source re-executed {executed} stmt(s)");
    }
}

#[test]
fn trailing_edits_execute_only_the_new_statement() {
    let base = scale::straight_line(60);
    let mut session = IncrSession::new(AnalysisOptions::default());
    check(&mut session, &base);
    let mut src = base;
    for k in 0..5 {
        src.push_str(&format!("echo edit_{k}\n"));
        let executed = check(&mut session, &src);
        assert!(
            executed <= 1,
            "trailing append re-executed {executed} stmt(s), want <= 1"
        );
    }
}

#[test]
fn random_single_statement_edits_stay_within_the_dirty_suffix() {
    const N: usize = 40;
    const ROUNDS: usize = 12;
    // One statement per line after the shebang, so line index li
    // (1-based into `lines`) is statement index li - 1.
    let base = scale::straight_line(N);
    let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), N + 1, "shebang + N statements");

    let mut session = IncrSession::new(AnalysisOptions::default());
    check(&mut session, &base);

    let mut lcg: u64 = 0x5eed_1234_abcd_9876;
    for round in 0..ROUNDS {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let li = 1 + ((lcg >> 33) as usize) % N;
        lines[li] = format!("echo patched_{round}_{li}");
        let src = format!("{}\n", lines.join("\n"));
        let executed = check(&mut session, &src);
        let dirty_suffix = N - (li - 1);
        assert!(
            executed <= dirty_suffix,
            "round {round}: edited stmt {} of {N}, executed {executed} > dirty suffix {dirty_suffix}",
            li - 1
        );
        assert!(
            session.summary_count() <= N,
            "round {round}: {} checkpoints held for a {N}-statement script",
            session.summary_count()
        );
    }
}

#[test]
fn loop_heavy_scripts_replay_their_prefix() {
    let base = scale::loopy(12);
    let mut session = IncrSession::new(AnalysisOptions::default());
    check(&mut session, &base);
    let src = format!("{base}echo tail\n");
    let executed = check(&mut session, &src);
    assert!(executed <= 1, "loopy trailing edit executed {executed} stmt(s)");
}

#[test]
fn comment_and_blank_line_edits_execute_only_the_statements_below() {
    let base = figures::FIG2;
    let mut session = IncrSession::new(AnalysisOptions::default());
    check(&mut session, base);
    // Insert a comment + blank line after the first statement: the
    // statement above the edit replays, every statement below it moved
    // and re-executes — and the published spans still match a cold
    // analysis of the shifted text.
    let first_end = base.match_indices('\n').nth(1).expect("shebang + first statement").0 + 1;
    let shifted = format!("{}# reviewed 2026-08\n\n{}", &base[..first_end], &base[first_end..]);
    let executed = check(&mut session, &shifted);
    assert_eq!(session.stats.last_replayed, 1, "the statement above the edit must replay");
    assert_eq!(executed, 1, "the `if` below the edit moved and must re-execute");
}

#[test]
fn whitespace_inside_a_statement_reexecutes_it() {
    // `rm  -rf` at the same offset: canonical text is unchanged, raw
    // text is not, and the spans inside the statement moved.
    let base = "rm -rf \"$d/\"*\necho done\n";
    let mut session = IncrSession::new(AnalysisOptions::default());
    check(&mut session, base);
    let executed = check(&mut session, &base.replacen("rm -rf", "rm  -rf", 1));
    assert_eq!(session.stats.last_replayed, 0, "a statement whose raw text changed must not replay");
    assert_eq!(executed, 2);
}

#[test]
fn a_statement_replays_only_under_the_prefix_layout_it_was_recorded_with() {
    // `echo b` is recorded after `rm` on line 1, and the later summary
    // for `rm` on line 2 does not replace it. In the last version
    // `echo b` sits at its recorded offset and line again, but its
    // checkpoint still holds the `rm` finding at line 1: it must
    // re-execute.
    let rm = "rm -rf \"$d/\"*";
    let mut session = IncrSession::new(AnalysisOptions::default());
    check(&mut session, &format!("{rm}\n\necho b\n"));
    check(&mut session, &format!("\n{rm}\n"));
    let executed = check(&mut session, &format!("\n{rm}\necho b\n"));
    assert_eq!(session.stats.last_replayed, 1);
    assert_eq!(executed, 1);
}

#[test]
fn an_annotation_edit_reexecutes_every_statement() {
    // The annotation sits below every statement, so no statement moves:
    // only the starting state changes, and nothing may replay.
    let body = "cd /srv\nrm -rf \"$DIR/\"*\necho done\n";
    let narrow = format!("{body}#@ var DIR : [a-z]+\n");
    let wide = format!("{body}#@ var DIR : any\n");
    let mut session = IncrSession::new(AnalysisOptions::default());
    check(&mut session, &narrow);
    let executed = check(&mut session, &wide);
    assert_eq!(session.stats.last_replayed, 0, "an annotation edit must not replay");
    assert_eq!(executed, 3);
    let cold = |src: &str| analyze_source_with(src, AnalysisOptions::default()).unwrap();
    assert_ne!(
        cold(&narrow).diagnostics,
        cold(&wide).diagnostics,
        "the annotation decides the verdict"
    );
}

#[test]
fn every_example_replays_byte_identically() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut scripts: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sh"))
        .collect();
    scripts.sort();
    assert!(!scripts.is_empty(), "no examples/*.sh found");
    for path in scripts {
        let src = std::fs::read_to_string(&path).expect("readable example");
        let mut session = IncrSession::new(AnalysisOptions::default());
        check(&mut session, &src);
        let executed = check(&mut session, &src);
        assert_eq!(executed, 0, "{}: second pass re-executed {executed} stmt(s)", path.display());
    }
}

#[test]
fn sessions_survive_parse_errors_between_edits() {
    let mut session = IncrSession::new(AnalysisOptions::default());
    check(&mut session, figures::FIG1);
    // A mid-edit snapshot that does not parse must error without
    // poisoning the session...
    assert!(session.analyze("if then\ndo done (").is_err());
    // ...and the repaired document still replays cleanly.
    let executed = check(&mut session, figures::FIG1);
    assert_eq!(executed, 0);
}

#[test]
fn editing_each_statement_in_turn_restores_the_checkpoint_above_it() {
    // A checkpoint keeps only the lengths of the world tree and of the
    // cap-hit and approximation logs; restoring one cuts the session's
    // copies back. Edit each statement of forking, cap-hitting scripts
    // in turn, so every checkpoint is restored, and compare the world
    // tree too, which the report format leaves out. Under a cap of 4
    // worlds the last script hits the cap on line 1 from two
    // statements, so one cap-hit record spans two checkpoints.
    let capped = "test -e /a && echo a; test -e /b && echo b; test -e /c && echo c; \
                  test -e /d && echo d\ntest -e /e && echo e\nrm -rf \"$d/\"*\n";
    let concatenation = scale::concatenation(4);
    let scripts = [
        ("fig1", figures::FIG1),
        ("concatenation", concatenation.as_str()),
        ("same-line caps", capped),
    ];
    let full = |report: &AnalysisReport| {
        format!("{}\n{}", rendered(report), report.world_tree.to_json().to_text())
    };
    let mut site_capped_twice = false;
    let cap_of_4 = AnalysisOptions { max_worlds: 4, ..AnalysisOptions::default() };
    for opts in [AnalysisOptions::default(), cap_of_4] {
        for (name, src) in scripts {
            let mut session = IncrSession::new(opts.clone());
            let mut check = |text: &str| {
                let inc = session.analyze(text).expect("incremental parse");
                let cold = analyze_source_with(text, opts.clone()).expect("cold parse");
                assert_eq!(full(&inc), full(&cold), "{name}: incremental output diverged");
                site_capped_twice |= cold.cap_hits.iter().any(|h| h.hits > 1);
                session.stats.last_replayed
            };
            check(src);
            let script = shoal::shparse::parse_script(src).expect("script parses");
            for (k, item) in script.items.iter().enumerate().skip(1) {
                let span = item.and_or.span();
                let edited = format!("{}echo edited_{k}{}", &src[..span.start], &src[span.end..]);
                assert_eq!(check(&edited), k, "{name}: statement {k} edited");
                assert_eq!(check(src), k, "{name}: statement {k} restored");
            }
        }
    }
    assert!(site_capped_twice, "no site hit the world cap twice");
}
