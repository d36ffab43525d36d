//! Cross-crate integration tests: the full pipeline from source text
//! through parsing, symbolic execution, stream typing, linting, mining,
//! and policy verification — exercised together through the umbrella
//! crate, the way a downstream user would.

use shoal::core::{analyze_source, AnalysisOptions, DiagCode};
use shoal::corpus::{figures, variants, BugClass};
use shoal::lint::lint_source;
use shoal::miner::{evaluate_mined, mine_command};
use shoal::monitor::{verify_source, Policy};
use shoal::spec::SpecLibrary;
use shoal_daemon::cache::KeyParts;
use shoal_obs::json::Json;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

/// E1 in miniature: the analyzer separates the three figures; the
/// baseline cannot.
#[test]
fn analyzer_separates_figures_linter_does_not() {
    let analyzer_flags = |src: &str| analyze_source(src).unwrap().has(DiagCode::DangerousDelete);
    let lint_flags = |src: &str| lint_source(src).unwrap().iter().any(|l| l.code == "SC2115");
    assert!(analyzer_flags(figures::FIG1));
    assert!(!analyzer_flags(figures::FIG2));
    assert!(analyzer_flags(figures::FIG3));
    // The syntactic baseline fires on all three alike.
    assert!(lint_flags(figures::FIG1));
    assert!(lint_flags(figures::FIG2));
    assert!(lint_flags(figures::FIG3));
}

/// E3 in miniature: every dangerous variant is caught; every safe
/// look-alike is proven clean.
#[test]
fn variant_robustness() {
    for v in variants::dangerous_variants() {
        let report = analyze_source(&v.script).unwrap();
        assert!(
            report.has(DiagCode::DangerousDelete),
            "dangerous variant {:?} missed:\n{}",
            v.name,
            v.script
        );
    }
    for v in variants::safe_lookalikes() {
        let report = analyze_source(&v.script).unwrap();
        assert!(
            !report.has(DiagCode::DangerousDelete),
            "safe look-alike {:?} wrongly flagged: {:#?}",
            v.name,
            report.with_code(DiagCode::DangerousDelete)
        );
    }
}

/// E8 in miniature: on a small labeled corpus the analyzer's per-class
/// detection maps to the injected ground truth.
#[test]
fn labeled_corpus_detection() {
    let corpus = shoal::corpus::generate_corpus(3, 7);
    for s in &corpus {
        let report =
            analyze_source(&s.script).unwrap_or_else(|e| panic!("{} failed to parse: {e}", s.name));
        let expected_code = match s.class {
            BugClass::DangerousDelete => Some(DiagCode::DangerousDelete),
            BugClass::DeadPipe => Some(DiagCode::DeadPipe),
            BugClass::AlwaysFails => Some(DiagCode::AlwaysFails),
            BugClass::Benign => None,
        };
        match expected_code {
            Some(code) => assert!(
                report.has(code),
                "{}: expected {code} in {:#?}\n{}",
                s.name,
                report.diagnostics,
                s.script
            ),
            None => {
                for code in [
                    DiagCode::DangerousDelete,
                    DiagCode::DeadPipe,
                    DiagCode::AlwaysFails,
                ] {
                    assert!(
                        !report.has(code),
                        "{}: benign script flagged with {code}: {:#?}\n{}",
                        s.name,
                        report.with_code(code),
                        s.script
                    );
                }
            }
        }
    }
}

/// Mined specifications slot into the engine in place of hand-written
/// ones and reproduce the rm/cat verdict.
#[test]
fn mined_specs_drive_the_engine() {
    use shoal::core::engine::Engine;
    use shoal::core::World;
    use shoal::shparse::parse_script;

    let mut engine = Engine::new(AnalysisOptions::default());
    // Replace the ground-truth `cat` spec with the mined one.
    let mined_cat = mine_command("cat").expect("cat is documented");
    engine.specs.insert(mined_cat);
    let script = parse_script("rm -r \"$1\"\ncat \"$1\"/config\n").unwrap();
    let worlds = engine.exec_items(vec![World::initial()], &script.items);
    let found = worlds
        .iter()
        .flat_map(|w| &w.diags)
        .any(|d| d.code == DiagCode::AlwaysFails);
    assert!(found, "mined cat spec must still expose the contradiction");
}

/// Swapping a mined spec into one engine customizes that engine only:
/// the shared built-in library, and every engine built after the swap,
/// keep the hand-written spec.
#[test]
fn mined_spec_swap_stays_in_its_engine() {
    use shoal::core::engine::Engine;
    use shoal::spec::text::render_spec;

    let ground = render_spec(SpecLibrary::builtin().get("cat").expect("cat has a spec"));
    let builtin_fp = SpecLibrary::builtin().fingerprint();
    let mined_cat = mine_command("cat").expect("cat is documented");
    let mined = render_spec(&mined_cat);
    assert_ne!(mined, ground, "the swap must be observable");

    let mut engine = Engine::new(AnalysisOptions::default());
    engine.specs.insert(mined_cat);
    assert_eq!(render_spec(engine.specs.get("cat").unwrap()), mined);
    assert_ne!(engine.specs.fingerprint(), builtin_fp);

    let fresh = Engine::new(AnalysisOptions::default());
    assert_eq!(render_spec(fresh.specs.get("cat").unwrap()), ground);
    assert_eq!(render_spec(SpecLibrary::builtin().get("cat").unwrap()), ground);
    assert_eq!(SpecLibrary::builtin().fingerprint(), builtin_fp);
}

/// Mining quality holds across the whole documented corpus.
#[test]
fn mining_accuracy_across_corpus() {
    let lib = SpecLibrary::builtin();
    let mut total = 0.0;
    let mut n = 0;
    for name in shoal::miner::manpages::all_documented() {
        let mined = mine_command(name).unwrap();
        let score = evaluate_mined(&mined, lib.get(name));
        total += score.accuracy;
        n += 1;
    }
    let mean = total / n as f64;
    assert!(mean > 0.97, "mean mining accuracy {mean}");
}

/// The §5 scenario end to end: verify an installer against `--no-RW`.
#[test]
fn curl_to_sh_policy_check() {
    let specs = SpecLibrary::builtin();
    let policy = Policy::no_rw("/home/me/mine");
    let bad = "cat /home/me/mine/wallet.dat\n";
    let report = verify_source(bad, &policy, &specs).unwrap();
    assert_eq!(report.definite().len(), 1);
    let good = "mkdir -p /opt/x\ntouch /opt/x/done\n";
    let report = verify_source(good, &policy, &specs).unwrap();
    assert!(report.conclusively_safe());
}

/// The ablation switch: without concrete pruning, Fig. 2's guard cannot
/// discharge the warning (the infeasible world survives).
#[test]
fn pruning_ablation_changes_fig2_verdict() {
    use shoal::core::analyze_source_with;
    let with_pruning = analyze_source_with(figures::FIG2, AnalysisOptions::default()).unwrap();
    assert!(!with_pruning.has(DiagCode::DangerousDelete));
    let no_pruning = analyze_source_with(
        figures::FIG2,
        AnalysisOptions {
            enable_pruning: false,
            ..AnalysisOptions::default()
        },
    )
    .unwrap();
    assert!(
        no_pruning.has(DiagCode::DangerousDelete),
        "without pruning the guard cannot protect the rm"
    );
}

/// Stream types can be disabled (isolating the symbolic-execution cost
/// in E9); dead pipes are then not reported.
#[test]
fn stream_type_switch() {
    use shoal::core::analyze_source_with;
    let on = analyze_source_with(figures::FIG5, AnalysisOptions::default()).unwrap();
    assert!(on.has(DiagCode::DeadPipe));
    let off = analyze_source_with(
        figures::FIG5,
        AnalysisOptions {
            enable_stream_types: false,
            ..AnalysisOptions::default()
        },
    )
    .unwrap();
    assert!(!off.has(DiagCode::DeadPipe));
}

/// Parser → printer → analyzer: analyzing the pretty-printed form gives
/// the same headline verdicts as the original.
#[test]
fn verdicts_stable_under_reprinting() {
    for (name, src) in figures::all() {
        let ast = shoal::shparse::parse_script(src).unwrap();
        let printed = ast.to_source();
        let orig = analyze_source(src).unwrap();
        let re = analyze_source(&printed)
            .unwrap_or_else(|e| panic!("{name} reprinted form failed: {e}\n{printed}"));
        for code in [
            DiagCode::DangerousDelete,
            DiagCode::DeadPipe,
            DiagCode::AlwaysFails,
        ] {
            assert_eq!(
                orig.has(code),
                re.has(code),
                "{name}: verdict for {code} changed after reprinting\n{printed}"
            );
        }
    }
}

/// Scaling scripts stay within the world cap and terminate quickly.
#[test]
fn scaling_scripts_analyze() {
    use shoal::corpus::scale;
    for n in [10, 50] {
        let report = analyze_source(&scale::straight_line(n)).unwrap();
        assert!(report.terminal_worlds >= 1);
    }
    let branchy = analyze_source(&scale::branchy(8)).unwrap();
    assert!(branchy.terminal_worlds >= 1);
    let pipes = analyze_source(&scale::wide_pipeline(12)).unwrap();
    assert!(pipes.terminal_worlds >= 1);
    let loops = analyze_source(&scale::loopy(5)).unwrap();
    assert!(loops.terminal_worlds >= 1);
}

/// Runs the `shoal` binary with `args`, feeding it `stdin`.
fn run_shoal(args: &[&str], env: &[(&str, &Path)], stdin: &[u8]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_shoal"))
        .args(args)
        .envs(env.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns shoal");
    child.stdin.take().unwrap().write_all(stdin).expect("writes stdin");
    child.wait_with_output().expect("shoal exits")
}

/// `--help` after a subcommand prints the usage and exits 0, rather
/// than being read as a script path or an unknown option.
#[test]
fn subcommand_help_prints_the_usage() {
    for cmd in ["analyze", "check", "scan", "lsp", "jit"] {
        for flag in ["--help", "-h"] {
            let out = run_shoal(&[cmd, flag], &[], b"");
            assert_eq!(out.status.code(), Some(0), "shoal {cmd} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains("USAGE:"), "shoal {cmd} {flag} printed {stdout:?}");
        }
    }
}

/// Every subcommand that takes scripts or paths rejects an unknown
/// option instead of reading it as one: `--daemon` on `analyze` and
/// `scan` (they run in-process only), `--audit` on `scan` (`shoal
/// audit` is the one route to the fleet report), and `--bogus`
/// anywhere.
#[test]
fn analyze_and_scan_reject_unknown_options() {
    let bogus =
        ["analyze", "scan", "lint", "coach", "audit", "jit", "verify"].map(|cmd| (cmd, "--bogus"));
    let cases = [("analyze", "--daemon"), ("scan", "--daemon"), ("scan", "--audit")];
    for (cmd, flag) in cases.into_iter().chain(bogus) {
        let out = run_shoal(&[cmd, flag, "examples/fig1.sh"], &[], b"");
        assert_eq!(out.status.code(), Some(2), "shoal {cmd} {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("shoal {cmd}: unknown option \"{flag}\"")),
            "shoal {cmd} {flag} printed {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "shoal {cmd} {flag} printed a report");
    }
}

/// `shoal audit` prints the fleet `shoal-audit/v1` report and exits 0
/// (it is a report, not a gate); `shoal scan` JSON carries no audit
/// key.
#[test]
fn audit_prints_the_fleet_report_and_scan_stays_dark() {
    let audit = run_shoal(&["audit", "--format", "json", "examples/"], &[], b"");
    assert_eq!(audit.status.code(), Some(0), "shoal audit exit code");
    let doc = String::from_utf8_lossy(&audit.stdout);
    for key in [r#""schema":"shoal-audit/v1""#, r#""missing_specs""#, r#""by_cause""#] {
        assert!(doc.contains(key), "audit report carries no {key}: {doc}");
    }
    let scan = run_shoal(&["scan", "--jobs", "1", "--format", "json", "examples/"], &[], b"");
    let doc = String::from_utf8_lossy(&scan.stdout);
    assert!(doc.contains("shoal-report/v1"), "scan printed {doc:?}");
    assert!(!doc.contains(r#""audit""#), "scan JSON grew an audit key: {doc}");
}

/// `analyze` and `jit` share one text renderer: with no daemon to
/// reach, `shoal jit --no-spawn` falls back in-process and prints the
/// text, and exits with the code, that `shoal analyze` does, over
/// examples/*.sh and a script whose loop hits the unrolling cap.
#[test]
fn jit_fallback_prints_the_text_analyze_prints() {
    let dir = std::env::temp_dir().join(format!("shoal-no-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let capped = dir.join("capped.sh");
    std::fs::write(&capped, "while [ -f /tmp/go ]; do echo x; done\n").unwrap();
    let mut scripts: Vec<String> = std::fs::read_dir("examples")
        .expect("examples/ is readable")
        .flatten()
        .map(|e| e.path().to_string_lossy().into_owned())
        .filter(|p| p.ends_with(".sh"))
        .collect();
    scripts.sort();
    assert!(!scripts.is_empty(), "examples/ has scripts");
    scripts.push(capped.to_string_lossy().into_owned());
    let socket = dir.join("daemon.sock");
    let mut jit = vec!["jit", "--no-spawn", "--socket", socket.to_str().unwrap()];
    let mut analyze = vec!["analyze"];
    jit.extend(scripts.iter().map(String::as_str));
    analyze.extend(scripts.iter().map(String::as_str));

    let (jit, direct) = (run_shoal(&jit, &[], b""), run_shoal(&analyze, &[], b""));
    assert_eq!(
        String::from_utf8_lossy(&jit.stdout),
        String::from_utf8_lossy(&direct.stdout),
        "jit fallback text differs from analyze"
    );
    assert_eq!(jit.status.code(), direct.status.code(), "exit code");
    let stderr = String::from_utf8_lossy(&jit.stderr);
    assert_eq!(
        stderr.matches("served=local-fallback").count(),
        scripts.len(),
        "every script falls back: {stderr:?}"
    );
    let text = String::from_utf8_lossy(&direct.stdout);
    assert!(text.contains("capped.sh: cap hit: loop_bound"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `shoal lsp` over stdio: initialize, didOpen Fig. 1, a didChange
/// appending a comment, then a clean shutdown/exit. The server exits 0,
/// publishes once per didOpen and per didChange, reports the
/// dangerous-delete error with provenance-backed relatedInformation,
/// and leaves in the cache the opened text's entry and, written at
/// shutdown, the edited text's.
#[test]
fn lsp_session_over_stdio() {
    let dir = std::env::temp_dir().join(format!("shoal-lsp-stdio-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.join("cache");
    let fig1 = figures::FIG1;
    let edited = format!("{fig1}#edit\n");
    let (opened, changed) = (Json::Str(fig1.into()).to_text(), Json::Str(edited.clone()).to_text());
    let doc = r#""uri":"file:///fig1.sh""#;
    let mut input = Vec::new();
    for body in [
        r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#.to_string(),
        r#"{"jsonrpc":"2.0","method":"initialized","params":{}}"#.to_string(),
        format!(
            r#"{{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{{"textDocument":{{{doc},"version":1,"text":{opened}}}}}}}"#
        ),
        format!(
            r#"{{"jsonrpc":"2.0","method":"textDocument/didChange","params":{{"textDocument":{{{doc},"version":2}},"contentChanges":[{{"text":{changed}}}]}}}}"#
        ),
        r#"{"jsonrpc":"2.0","id":2,"method":"shutdown","params":null}"#.to_string(),
        r#"{"jsonrpc":"2.0","method":"exit","params":null}"#.to_string(),
    ] {
        input.extend(format!("Content-Length: {}\r\n\r\n{body}", body.len()).into_bytes());
    }

    let out = run_shoal(&["lsp"], &[("SHOAL_CACHE_DIR", &cache)], &input);
    assert_eq!(out.status.code(), Some(0), "exit after shutdown exits 0");
    let mut reader = std::io::Cursor::new(out.stdout);
    let mut publishes = Vec::new();
    while let Some(msg) = shoal::lsp::read_message(&mut reader) {
        if msg.get("method").and_then(Json::as_str) == Some("textDocument/publishDiagnostics") {
            publishes.push(msg.get("params").and_then(|p| p.get("diagnostics")).unwrap().to_text());
        }
    }
    assert_eq!(publishes.len(), 2, "one publish per didOpen and per didChange");
    for diags in &publishes {
        assert!(diags.contains(r#""dangerous-delete""#), "no dangerous-delete in {diags}");
        assert!(diags.contains(r#""relatedInformation""#), "no relatedInformation in {diags}");
    }

    let entry = |text: &str| {
        let opts = AnalysisOptions::default();
        let parts = KeyParts::strict(text, &opts, SpecLibrary::builtin().fingerprint());
        let key = shoal_daemon::cache::cache_key(&parts);
        format!("{key}.json")
    };
    let mut entries: Vec<String> = std::fs::read_dir(&cache)
        .expect("the cache directory exists")
        .flatten()
        .flat_map(|shard| std::fs::read_dir(shard.path()).into_iter().flatten().flatten())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    let mut want = vec![entry(fig1), entry(&edited)];
    want.sort();
    assert_eq!(entries, want, "the opened and the edited text, nothing else");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `shoal daemon` child process. Dropping the guard kills and reaps
/// it, so a failed assertion never leaves a daemon behind.
struct DaemonGuard(std::process::Child);

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The JIT daemon end to end through the real binary: a cold and a
/// warm `shoal jit` print the same bytes as `shoal analyze`, the
/// serving markers tell miss from hit, `daemon status --format json`
/// and `daemon top` carry the telemetry plane (with the default slots
/// and queue of `ServerConfig::default()`), and `daemon stop` shuts
/// the daemon down cleanly.
#[test]
fn jit_daemon_serves_cold_and_warm_then_stops_cleanly() {
    use std::time::{Duration, Instant};
    let dir = std::env::temp_dir().join(format!("shoal-jit-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");
    let script = dir.join("fig1.sh");
    std::fs::write(&script, figures::FIG1).unwrap();
    let (sock, fig) = (socket.to_str().unwrap(), script.to_str().unwrap());

    let mut daemon = DaemonGuard(
        Command::new(env!("CARGO_BIN_EXE_shoal"))
            .args(["daemon", "--socket", sock, "--cache-dir"])
            .arg(dir.join("cache"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawns shoal daemon"),
    );
    let up = Instant::now() + Duration::from_secs(10);
    while std::os::unix::net::UnixStream::connect(&socket).is_err() {
        assert!(Instant::now() < up, "daemon did not come up on {sock}");
        std::thread::sleep(Duration::from_millis(20));
    }

    let direct = run_shoal(&["analyze", fig, "--format", "json"], &[], b"");
    let jit = || {
        run_shoal(
            &[
                "jit",
                "--socket",
                sock,
                "--no-spawn",
                "--format",
                "json",
                fig,
            ],
            &[],
            b"",
        )
    };
    let (cold, warm) = (jit(), jit());
    for (name, out) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(
            out.stdout, direct.stdout,
            "{name} jit differs from direct analyze"
        );
        assert_eq!(
            out.status.code(),
            direct.status.code(),
            "{name} jit exit code"
        );
    }
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    let marker = "served=daemon cache=miss trace=";
    let trace = cold_err
        .find(marker)
        .map(|at| &cold_err[at + marker.len()..])
        .unwrap_or_else(|| panic!("cold request was not a traced served miss: {cold_err:?}"));
    assert!(
        trace.len() >= 16 && trace.bytes().take(16).all(|b| b.is_ascii_hexdigit()),
        "cold marker carries no 16-hex trace id: {cold_err:?}"
    );
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("served=daemon cache=hit"),
        "warm request was not a served hit: {warm_err:?}"
    );

    let status = run_shoal(
        &["daemon", "status", "--format", "json", "--socket", sock],
        &[],
        b"",
    );
    assert_eq!(status.status.code(), Some(0), "daemon status --format json");
    let stats =
        Json::parse(String::from_utf8_lossy(&status.stdout).trim()).expect("status is JSON");
    let at = |path: &[&str]| {
        path.iter()
            .try_fold(&stats, |j, key| j.get(key))
            .unwrap_or_else(|| panic!("stats carry no {}", path.join(".")))
    };
    assert_eq!(at(&["schema"]).as_str(), Some("shoal-stats/v1"));
    for path in [
        &["requests", "by", "analyze.hit"][..],
        &["latency_us", "analyze.hit", "p99"],
        &["cache", "corrupt_misses"],
        &["audit", "analyzed_scripts"],
        &["shield", "queue_highwater"],
    ] {
        at(path);
    }
    let slots = std::thread::available_parallelism().unwrap().get() as u64;
    assert_eq!(
        at(&["workers"]).as_u64(),
        Some(slots),
        "jobs 0 = available parallelism"
    );
    assert_eq!(at(&["shield", "queue_depth"]).as_u64(), Some(256));
    assert_eq!(at(&["shield", "queue_wait_ms"]).as_u64(), Some(2000));

    let top = run_shoal(&["daemon", "top", "--socket", sock], &[], b"");
    assert_eq!(top.status.code(), Some(0), "daemon top");
    let page = String::from_utf8_lossy(&top.stdout);
    for line in ["requests:", "cache:", "audit:", "shield:"] {
        assert!(
            page.lines().any(|l| l.starts_with(line)),
            "daemon top shows no {line} line:\n{page}"
        );
    }

    let stop = run_shoal(&["daemon", "stop", "--socket", sock], &[], b"");
    assert_eq!(stop.status.code(), Some(0), "daemon stop");
    let down = Instant::now() + Duration::from_secs(10);
    let exit = loop {
        if let Some(exit) = daemon.0.try_wait().expect("polls the daemon") {
            break exit;
        }
        assert!(Instant::now() < down, "daemon did not exit after stop");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(exit.success(), "daemon exited with {exit}");
    assert!(!socket.exists(), "daemon left its socket behind");
    let _ = std::fs::remove_dir_all(&dir);
}
