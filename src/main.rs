//! `shoal` — semantics-driven static analysis for Unix shell programs.
//!
//! Subcommands:
//!
//! * `analyze SCRIPT…` — run the full symbolic analysis (the paper's
//!   headline: catches Fig. 1, proves Fig. 2, catches Fig. 3).
//! * `lint SCRIPT…` — the ShellCheck-style syntactic baseline, for
//!   comparison.
//! * `typecheck 'PIPELINE'` — stream-type a pipeline and print each
//!   stage's line types.
//! * `mine COMMAND…` — run the Fig. 4 spec-mining pipeline and print
//!   the mined specification.
//! * `verify --no-RW PREFIX SCRIPT` — the §5 security checker.
//! * `monitor --type T [--halt]` — the runtime stream monitor
//!   (stdin → stdout).
//! * `explain SCRIPT [INDEX]` — replay the witness execution path of a
//!   finding (its provenance trail) step by step.
//! * `explain COMMAND` — print the ground-truth specification.

use std::io::{BufReader, Read, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    // Arm test-only fault injection when SHOAL_FAILPOINTS is set
    // (no-op — one relaxed atomic load per site — otherwise).
    shoal_obs::failpoint::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    // `--help` anywhere after a subcommand asks for the usage, not for
    // a script or an option of that name.
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (obs, rest) = match ObsFlags::extract(rest) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("shoal: {e}");
            return ExitCode::from(2);
        }
    };
    let rest = &rest[..];
    let code = match cmd.as_str() {
        "analyze" | "check" => cmd_analyze(rest, &obs),
        "scan" => cmd_scan(rest),
        "audit" => cmd_audit(rest),
        "daemon" => cmd_daemon(rest),
        "lsp" => cmd_lsp(rest),
        "jit" => cmd_jit(rest, &obs),
        "lint" => cmd_lint(rest),
        "typecheck" => cmd_typecheck(rest),
        "mine" => cmd_mine(rest),
        "verify" => cmd_verify(rest),
        "monitor" => cmd_monitor(rest),
        "explain" => cmd_explain(rest),
        "coach" => cmd_coach(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("shoal: unknown subcommand {other:?}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    };
    if let Err(e) = obs.finish() {
        eprintln!("shoal: {e}");
        return ExitCode::from(2);
    }
    code
}

/// Cross-cutting observability flags, accepted by every subcommand:
/// `--stats` prints a metrics table on exit, `--trace FILE` writes the
/// recorded event stream as JSONL, `--profile` attaches per-phase
/// timings to analysis reports. Any of them turns the recorder on;
/// without them the instrumentation stays disabled (one atomic load).
struct ObsFlags {
    stats: bool,
    trace: Option<String>,
    profile: bool,
}

impl ObsFlags {
    fn extract(args: &[String]) -> Result<(ObsFlags, Vec<String>), String> {
        let mut flags = ObsFlags {
            stats: false,
            trace: None,
            profile: false,
        };
        let mut rest = Vec::new();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--stats" => flags.stats = true,
                "--profile" => flags.profile = true,
                "--trace" => {
                    i += 1;
                    let Some(path) = args.get(i) else {
                        return Err("--trace needs an output file (.jsonl)".into());
                    };
                    flags.trace = Some(path.clone());
                }
                _ => rest.push(args[i].clone()),
            }
            i += 1;
        }
        if flags.stats || flags.trace.is_some() || flags.profile {
            shoal_obs::install();
        }
        Ok((flags, rest))
    }

    fn finish(&self) -> Result<(), String> {
        if let Some(path) = &self.trace {
            let events = shoal_obs::take_events();
            let jsonl = shoal_obs::trace_to_jsonl(&events);
            std::fs::write(path, jsonl).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("shoal: wrote {} trace event(s) to {path}", events.len());
        }
        if self.stats {
            let snap = shoal_obs::snapshot();
            eprint!("{}", shoal_obs::stats::render_snapshot(&snap));
        }
        Ok(())
    }
}

const USAGE: &str = "\
shoal — semantics-driven static analysis for Unix shell programs

USAGE:
    shoal analyze SCRIPT...            symbolic analysis (all checkers)
    shoal check SCRIPT...              alias for analyze
    shoal scan PATH...                 hardened batch analysis of a tree
    shoal audit PATH...                fleet coverage / precision-loss report
    shoal jit SCRIPT...                just-in-time analysis via the daemon
    shoal daemon [stop|status|top]     run / control the resident analyzer
    shoal lsp                          language server over stdio (editor
                                       integration; incremental engine)
    shoal lint SCRIPT...               syntactic baseline linter
    shoal typecheck 'CMD | CMD | ...'  stream-type a pipeline
    shoal mine COMMAND...              mine specs from docs + probing
    shoal verify --no-RW PREFIX SCRIPT check a script against a policy
    shoal monitor --type T [--halt]    monitor stdin line types
    shoal explain SCRIPT [INDEX]       replay the witness path of finding #INDEX
    shoal explain COMMAND              print a command's specification
    shoal coach SCRIPT...              optimization suggestions (§5)

ANALYZE/CHECK OPTIONS:
    --format text|json|sarif    output format (json embeds provenance;
                                sarif is SARIF 2.1.0 with codeFlows)
    --emit-world-tree FILE      write the explored world tree (.dot ->
                                GraphViz, .json -> JSON, else both)

SCAN OPTIONS:
    --format text|json          output format (default text)
    --fuel N                    symbolic-step budget per script
                                (default 200000; 0 = unlimited)
    --deadline-ms N             wall-clock budget per script in ms
                                (default 2000; 0 = unlimited)
    --jobs N                    worker threads for the batch
                                (default 0 = available parallelism)
    --audit                     record coverage/precision-loss maps and
                                append the fleet shoal-audit/v1 report
  scan walks directories for .sh / shell-shebang files, isolates each
  script's analysis against panics (retrying once with tightened
  budgets), and exits 0 = clean, 1 = findings, 3 = some scripts only
  partially analyzed (parse recovery or budget), 4 = a script panicked.
  Output is byte-identical for any --jobs value.

AUDIT OPTIONS (plus --fuel/--deadline-ms/--jobs as for scan):
    --format text|json          output format (default text; json is
                                the shoal-audit/v1 document)
  audit scans like `scan --audit` but prints only the fleet report:
  commands ranked by scripts x call sites lacking specs, precision
  losses by cause (no-spec, dfa-cap, loop-widen, fuel, deadline,
  parse-partial, world-cap, expansion-cap) with worst-offender
  scripts, and checker fired / possibly-suppressed counts. Output is
  byte-deterministic across runs and --jobs values; exits 0.

JIT / DAEMON OPTIONS:
    --socket PATH               daemon socket (default: per-user path
                                under $XDG_RUNTIME_DIR; override with
                                $SHOAL_DAEMON_SOCKET)
    --no-spawn                  jit: never auto-spawn a daemon
    --format text|json          jit: output format (default text)
    --cache-dir DIR             daemon: on-disk result cache (default:
                                ~/.cache/shoal-jit; $SHOAL_CACHE_DIR)
    --cache-capacity N          daemon: in-memory LRU entries (512)
    --cache-disk-bytes N        daemon: disk-cache size cap in bytes
                                (GC evicts oldest-mtime entries;
                                default unbounded)
    --jobs N                    daemon: concurrent analyses admitted
                                (0 = auto); excess requests queue
    --queue-depth N             daemon: requests allowed to queue for
                                an analysis slot (default 256; past
                                it, requests are shed `queue-full`)
    --queue-wait-ms N           daemon: max queue wait before a
                                request is shed `queue-timeout`
                                (default 2000; a request's own
                                --deadline-ms caps it lower)
    --request-timeout-ms N      jit: per-attempt response timeout
                                (default 30000)
    --retries N                 jit: transient-failure retries with
                                jittered exponential backoff
                                (default 2; sheds never retry)
    --trace-log FILE            daemon: append one JSONL trace line
                                per request (+ a final daemon_stats
                                summary on shutdown)
  `shoal daemon` runs the resident analyzer in the foreground;
  `shoal daemon status` / `shoal daemon stop` control a running one.
  `shoal daemon status --format json` prints the full shoal-stats/v1
  telemetry snapshot (per-endpoint request counts, latency
  percentiles, cache outcome taxonomy, slow-request log);
  `shoal daemon top` renders the same snapshot as a human page.
  `shoal jit` asks the daemon (auto-spawning it if needed) and falls
  back to in-process analysis when unreachable — the verdict is never
  lost, and the path taken is reported on stderr as
  `shoal: jit served=daemon|local-fallback` (daemon-served requests
  also carry `trace=<id>`, the client-minted trace ID echoed by the
  server). Results are content-addressed: warm output is
  byte-identical to `shoal analyze --format json`. An overloaded
  daemon sheds requests with a structured reason instead of stalling;
  the client falls back locally at once
  (`served=local-fallback (daemon shed (queue-full))`).

OBSERVABILITY (any subcommand):
    --stats           print a counters/gauges/histograms table on exit
    --trace FILE      write the recorded event stream as JSONL
    --profile         attach per-phase timings to analysis reports
";

fn read_script(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut src = String::new();
        std::io::stdin()
            .read_to_string(&mut src)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(src)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

/// Output format of `analyze`/`check`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
    Sarif,
}

fn cmd_analyze(args: &[String], obs: &ObsFlags) -> ExitCode {
    // Subcommand-local flags: --format, --emit-world-tree.
    let mut format = OutputFormat::Text;
    let mut tree_file: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("text") => OutputFormat::Text,
                    Some("json") => OutputFormat::Json,
                    Some("sarif") => OutputFormat::Sarif,
                    other => {
                        eprintln!(
                            "shoal analyze: --format must be text, json, or sarif (got {:?})",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::from(2);
                    }
                };
            }
            "--emit-world-tree" => {
                i += 1;
                let Some(f) = args.get(i) else {
                    eprintln!("shoal analyze: --emit-world-tree needs an output file");
                    return ExitCode::from(2);
                };
                tree_file = Some(f.clone());
            }
            other if other.starts_with("--") => {
                eprintln!("shoal analyze: unknown option {other:?}");
                return ExitCode::from(2);
            }
            p => paths.push(p.to_string()),
        }
        i += 1;
    }
    if paths.is_empty() {
        eprintln!("shoal analyze: no scripts given");
        return ExitCode::from(2);
    }
    let opts = shoal_core::AnalysisOptions {
        profile: obs.profile,
        ..shoal_core::AnalysisOptions::default()
    };
    let mut worst = ExitCode::SUCCESS;
    let mut entries: Vec<(String, shoal_core::AnalysisReport)> = Vec::new();
    for path in &paths {
        let src = match read_script(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("shoal: {e}");
                return ExitCode::from(2);
            }
        };
        match shoal_core::analyze_source_with(&src, opts.clone()) {
            Err(e) => {
                eprintln!("{path}: parse error: {e}");
                worst = ExitCode::from(2);
            }
            Ok(report) => {
                if report
                    .diagnostics
                    .iter()
                    .any(|d| d.severity >= shoal_core::Severity::Warning)
                {
                    worst = ExitCode::FAILURE;
                }
                if format == OutputFormat::Text {
                    if report.diagnostics.is_empty() {
                        println!("{path}: no findings across all explored executions");
                    } else {
                        for d in &report.diagnostics {
                            println!("{path}: {d}");
                        }
                    }
                    println!(
                        "{path}: {} execution path(s) explored, peak {} live world(s){}",
                        report.terminal_worlds,
                        report.worlds_explored,
                        if report.incomplete { " (capped)" } else { "" }
                    );
                    for hit in &report.cap_hits {
                        println!(
                            "{path}: cap hit: {} at line {} ({} hit(s), {} world(s) dropped)",
                            hit.reason, hit.line, hit.hits, hit.dropped
                        );
                    }
                    if let Some(p) = &report.profile {
                        print!("{}", render_profile(path, p));
                    }
                }
                entries.push((path.clone(), report));
            }
        }
    }
    if let Some(file) = &tree_file {
        if let Err(e) = emit_world_trees(file, &entries) {
            eprintln!("shoal: {e}");
            return ExitCode::from(2);
        }
    }
    match format {
        OutputFormat::Text => {}
        OutputFormat::Json => {
            println!("{}", shoal_core::provenance::reports_json(&entries).to_text());
        }
        OutputFormat::Sarif => {
            println!("{}", shoal_core::provenance::sarif_json(&entries).to_text());
        }
    }
    worst
}

/// `shoal scan PATH...` — the hardened batch driver: panic-isolated,
/// budgeted, taxonomy-reporting (see `shoal_core::scan`).
fn cmd_scan(args: &[String]) -> ExitCode {
    let mut opts = shoal_core::ScanOptions::default();
    let mut json = false;
    let mut roots: Vec<std::path::PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--audit" => opts.audit = true,
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("text") => json = false,
                    Some("json") => json = true,
                    other => {
                        eprintln!(
                            "shoal scan: --format must be text or json (got {:?})",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--fuel" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(0) => opts.fuel = None,
                    Some(n) => opts.fuel = Some(n),
                    None => {
                        eprintln!("shoal scan: --fuel needs a number (0 = unlimited)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--deadline-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(0) => opts.deadline = None,
                    Some(n) => opts.deadline = Some(std::time::Duration::from_millis(n)),
                    None => {
                        eprintln!("shoal scan: --deadline-ms needs a number (0 = unlimited)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => opts.jobs = n,
                    None => {
                        eprintln!("shoal scan: --jobs needs a number (0 = auto)");
                        return ExitCode::from(2);
                    }
                }
            }
            other if other.starts_with("--") => {
                eprintln!("shoal scan: unknown option {other:?}");
                return ExitCode::from(2);
            }
            p => roots.push(std::path::PathBuf::from(p)),
        }
        i += 1;
    }
    if roots.is_empty() {
        eprintln!("shoal scan: no paths given");
        return ExitCode::from(2);
    }
    let summary = shoal_core::scan_paths(&roots, &opts);
    if json {
        let doc = if opts.audit { summary.to_json_audited() } else { summary.to_json() };
        println!("{}", doc.to_text());
    } else if opts.audit {
        print!("{}", summary.render_text_audited());
    } else {
        print!("{}", summary.render_text());
    }
    ExitCode::from(summary.exit_code() as u8)
}

/// `shoal audit DIR…` — scan a tree with coverage recording on and
/// print only the fleet `shoal-audit/v1` report: missing-spec
/// rankings, the precision-loss taxonomy with worst offenders, and
/// checker fired/suppressed counts. Always exits 0 on a completed
/// audit (it is an observability report, not a gate; `shoal scan`
/// carries the gating exit codes).
fn cmd_audit(args: &[String]) -> ExitCode {
    let mut opts = shoal_core::ScanOptions { audit: true, ..shoal_core::ScanOptions::default() };
    let mut json = false;
    let mut roots: Vec<std::path::PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("text") => json = false,
                    Some("json") => json = true,
                    other => {
                        eprintln!(
                            "shoal audit: --format must be text or json (got {:?})",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--fuel" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(0) => opts.fuel = None,
                    Some(n) => opts.fuel = Some(n),
                    None => {
                        eprintln!("shoal audit: --fuel needs a number (0 = unlimited)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--deadline-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(0) => opts.deadline = None,
                    Some(n) => opts.deadline = Some(std::time::Duration::from_millis(n)),
                    None => {
                        eprintln!("shoal audit: --deadline-ms needs a number (0 = unlimited)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => opts.jobs = n,
                    None => {
                        eprintln!("shoal audit: --jobs needs a number (0 = auto)");
                        return ExitCode::from(2);
                    }
                }
            }
            other if other.starts_with("--") => {
                eprintln!("shoal audit: unknown option {other:?}");
                return ExitCode::from(2);
            }
            p => roots.push(std::path::PathBuf::from(p)),
        }
        i += 1;
    }
    if roots.is_empty() {
        eprintln!("shoal audit: no paths given");
        return ExitCode::from(2);
    }
    let summary = shoal_core::scan_paths(&roots, &opts);
    let report = shoal_core::AuditReport::build(&summary);
    if json {
        println!("{}", report.to_json().to_text());
    } else {
        print!("{}", report.render_text());
    }
    ExitCode::SUCCESS
}

/// `shoal jit SCRIPT...` — the thin just-in-time client: ask the
/// daemon (auto-spawning one if needed), fall back in-process when
/// unreachable. Stdout is byte-identical to `shoal analyze`; the path
/// taken is reported on stderr.
fn cmd_jit(args: &[String], obs: &ObsFlags) -> ExitCode {
    let mut format = OutputFormat::Text;
    let mut cfg = shoal_daemon::client::ClientConfig::default();
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--no-spawn" => cfg.auto_spawn = false,
            "--request-timeout-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n > 0 => cfg.request_timeout = std::time::Duration::from_millis(n),
                    _ => {
                        eprintln!("shoal jit: --request-timeout-ms needs a positive number");
                        return ExitCode::from(2);
                    }
                }
            }
            "--retries" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u32>().ok()) {
                    Some(n) => cfg.retries = n,
                    None => {
                        eprintln!("shoal jit: --retries needs a number (0 = no retries)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--socket" => {
                i += 1;
                match args.get(i) {
                    Some(s) => cfg.socket = std::path::PathBuf::from(s),
                    None => {
                        eprintln!("shoal jit: --socket needs a path");
                        return ExitCode::from(2);
                    }
                }
            }
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("text") => OutputFormat::Text,
                    Some("json") => OutputFormat::Json,
                    other => {
                        eprintln!(
                            "shoal jit: --format must be text or json (got {:?})",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::from(2);
                    }
                };
            }
            other if other.starts_with("--") => {
                eprintln!("shoal jit: unknown option {other:?}");
                return ExitCode::from(2);
            }
            p => paths.push(p.to_string()),
        }
        i += 1;
    }
    if paths.is_empty() {
        eprintln!("shoal jit: no scripts given");
        return ExitCode::from(2);
    }
    let opts = shoal_core::AnalysisOptions {
        profile: obs.profile,
        ..shoal_core::AnalysisOptions::default()
    };
    let mut worst = ExitCode::SUCCESS;
    let mut scripts: Vec<shoal_obs::json::Json> = Vec::new();
    for path in &paths {
        let src = match read_script(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("shoal: {e}");
                return ExitCode::from(2);
            }
        };
        let r = shoal_daemon::client::analyze(&cfg, &src, &opts);
        // The machine-readable path marker: stdout stays identical to
        // a direct analyze, so the serving path lives on stderr.
        match &r.served {
            shoal_daemon::client::Served::Daemon { cache_hit } => {
                // `trace=` names the server-side trace for this exact
                // request (visible in `daemon top` / the JSONL log).
                let trace = r
                    .trace_id
                    .as_deref()
                    .map(|id| format!(" trace={id}"))
                    .unwrap_or_default();
                eprintln!(
                    "shoal: jit served=daemon cache={}{trace} {path}",
                    if *cache_hit { "hit" } else { "miss" }
                )
            }
            shoal_daemon::client::Served::Fallback { reason } => {
                eprintln!("shoal: jit served=local-fallback ({reason}) {path}")
            }
        }
        match r.result {
            Err(e) => {
                eprintln!("{path}: parse error: {e}");
                worst = ExitCode::from(2);
            }
            Ok(entry) => {
                if entry.findings > 0 {
                    worst = ExitCode::FAILURE;
                }
                if format == OutputFormat::Text {
                    print!("{}", render_jit_text(path, &entry));
                }
                let mut fields = vec![(
                    "path".to_string(),
                    shoal_obs::json::Json::Str(path.clone()),
                )];
                if let shoal_obs::json::Json::Obj(body_fields) = &entry.body {
                    fields.extend(body_fields.clone());
                }
                scripts.push(shoal_obs::json::Json::Obj(fields));
            }
        }
    }
    if format == OutputFormat::Json {
        println!(
            "{}",
            shoal_core::provenance::reports_envelope(scripts).to_text()
        );
    }
    worst
}

/// Renders a served verdict exactly as `shoal analyze` renders the
/// same report in text mode (the wire body carries every field the
/// text view needs).
fn render_jit_text(path: &str, entry: &shoal_daemon::cache::Entry) -> String {
    use shoal_obs::json::Json;
    use std::fmt::Write as _;
    let mut out = String::new();
    if entry.text.is_empty() {
        let _ = writeln!(out, "{path}: no findings across all explored executions");
    } else {
        for line in &entry.text {
            let _ = writeln!(out, "{path}: {line}");
        }
    }
    let num = |field: &str| {
        entry
            .body
            .get(field)
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let incomplete = matches!(entry.body.get("incomplete"), Some(Json::Bool(true)));
    let _ = writeln!(
        out,
        "{path}: {} execution path(s) explored, peak {} live world(s){}",
        num("terminal_worlds"),
        num("peak_live_worlds"),
        if incomplete { " (capped)" } else { "" }
    );
    if let Some(Json::Arr(hits)) = entry.body.get("cap_hits") {
        for hit in hits {
            let h = |f: &str| hit.get(f).and_then(Json::as_u64).unwrap_or(0);
            let _ = writeln!(
                out,
                "{path}: cap hit: {} at line {} ({} hit(s), {} world(s) dropped)",
                hit.get("reason").and_then(Json::as_str).unwrap_or("?"),
                h("line"),
                h("hits"),
                h("dropped")
            );
        }
    }
    out
}

/// `shoal daemon [stop|status|top]` — run or control the resident
/// analyzer.
fn cmd_lsp(args: &[String]) -> ExitCode {
    if !args.is_empty() {
        eprintln!("shoal lsp: takes no arguments (speaks LSP over stdio)");
        return ExitCode::from(2);
    }
    ExitCode::from(shoal_lsp::run_stdio() as u8)
}

fn cmd_daemon(args: &[String]) -> ExitCode {
    use std::path::PathBuf;
    // Every default (socket, cache, slots, queue) comes from
    // `ServerConfig::default()`; the flags override fields of it.
    let mut config = shoal_daemon::server::ServerConfig::default();
    let mut action: Option<&str> = None;
    let mut no_disk = false;
    let mut status_json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "stop" | "status" | "top" if action.is_none() => action = Some(args[i].as_str()),
            "--format" => {
                i += 1;
                status_json = match args.get(i).map(String::as_str) {
                    Some("json") => true,
                    Some("text") => false,
                    other => {
                        eprintln!(
                            "shoal daemon: --format must be text or json (got {:?})",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::from(2);
                    }
                };
            }
            "--trace-log" => {
                i += 1;
                match args.get(i) {
                    Some(s) => config.trace_log = Some(PathBuf::from(s)),
                    None => {
                        eprintln!("shoal daemon: --trace-log needs an output file (.jsonl)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--socket" => {
                i += 1;
                match args.get(i) {
                    Some(s) => config.socket = PathBuf::from(s),
                    None => {
                        eprintln!("shoal daemon: --socket needs a path");
                        return ExitCode::from(2);
                    }
                }
            }
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(s) => config.cache_dir = Some(PathBuf::from(s)),
                    None => {
                        eprintln!("shoal daemon: --cache-dir needs a directory");
                        return ExitCode::from(2);
                    }
                }
            }
            "--no-disk-cache" => no_disk = true,
            "--cache-capacity" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => config.cache_capacity = n,
                    None => {
                        eprintln!("shoal daemon: --cache-capacity needs a number");
                        return ExitCode::from(2);
                    }
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => config.jobs = n,
                    None => {
                        eprintln!("shoal daemon: --jobs needs a number (0 = auto)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--queue-depth" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => config.queue_depth = n,
                    None => {
                        eprintln!("shoal daemon: --queue-depth needs a number (0 = shed instead of queue)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--queue-wait-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) => config.queue_wait = std::time::Duration::from_millis(n),
                    None => {
                        eprintln!("shoal daemon: --queue-wait-ms needs a number");
                        return ExitCode::from(2);
                    }
                }
            }
            "--cache-disk-bytes" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) if n > 0 => config.cache_disk_bytes = Some(n),
                    _ => {
                        eprintln!("shoal daemon: --cache-disk-bytes needs a positive byte count");
                        return ExitCode::from(2);
                    }
                }
            }
            other => {
                eprintln!("shoal daemon: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if no_disk {
        config.cache_dir = None;
    }
    use shoal_daemon::client;
    let socket = config.socket.clone();
    let reply = match action {
        // JSON status is the full `shoal-stats/v1` telemetry snapshot
        // (the `stats` verb), not the terse status verb.
        Some("status") if status_json => {
            client::stats(&socket).map(|j| println!("{}", j.to_text()))
        }
        Some("status") => client::status(&socket).map(|j| println!("{}", j.to_text())),
        Some("top") => client::stats(&socket).map(|j| print!("{}", render_daemon_top(&j))),
        Some("stop") => {
            client::stop(&socket).map(|_| eprintln!("shoal daemon: stopped {}", socket.display()))
        }
        _ => {
            eprintln!("shoal daemon: listening on {}", socket.display());
            return match shoal_daemon::server::run(config) {
                Ok(()) => {
                    eprintln!("shoal daemon: shut down cleanly");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("shoal daemon: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    };
    match reply {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shoal daemon: no daemon at {} ({e})", socket.display());
            ExitCode::FAILURE
        }
    }
}

/// Renders the `shoal-stats/v1` snapshot as a human `top`-style page:
/// identity line, per-`endpoint.outcome` request table with
/// percentiles, cache occupancy + outcome taxonomy, and the retained
/// slow-request log with per-phase breakdowns.
fn render_daemon_top(json: &shoal_obs::json::Json) -> String {
    use shoal_obs::json::Json;
    use std::fmt::Write as _;
    let mut out = String::new();
    let num = |j: &Json, f: &str| j.get(f).and_then(Json::as_u64).unwrap_or(0);
    let _ = writeln!(
        out,
        "shoal daemon v{} (pid {}) up {:.1}s, {} worker(s)",
        json.get("version").and_then(Json::as_str).unwrap_or("?"),
        num(json, "pid"),
        num(json, "uptime_ms") as f64 / 1000.0,
        num(json, "workers"),
    );

    let requests = json.get("requests").cloned().unwrap_or(Json::Null);
    let (mut hits, mut misses) = (0, 0);
    let mut rows: Vec<(String, u64)> = Vec::new();
    if let Some(Json::Obj(by)) = requests.get("by") {
        for (key, count) in by {
            let count = count.as_u64().unwrap_or(0);
            match key.as_str() {
                "analyze.hit" => hits = count,
                "analyze.miss" => misses = count,
                _ => {}
            }
            rows.push((key.clone(), count));
        }
    }
    let ratio = if hits + misses > 0 {
        format!(
            ", hit ratio {:.0}%",
            100.0 * hits as f64 / (hits + misses) as f64
        )
    } else {
        String::new()
    };
    let _ = writeln!(out, "requests: {} total{}", num(&requests, "total"), ratio);
    let latency = json.get("latency_us").cloned().unwrap_or(Json::Null);
    for (key, count) in &rows {
        let _ = write!(out, "  {key:<22} {count:>8}");
        if let Some(h) = latency.get(key) {
            let _ = write!(
                out,
                "   p50 {:>7}µs  p95 {:>7}µs  p99 {:>7}µs",
                num(h, "p50"),
                num(h, "p95"),
                num(h, "p99"),
            );
        }
        let _ = writeln!(out);
    }

    if let Some(cache) = json.get("cache") {
        let _ = writeln!(
            out,
            "cache: {}/{} hot, {} on disk; {} hot hit(s), {} disk hit(s), {} miss(es) ({} corrupt), {} eviction(s), {} write failure(s)",
            num(cache, "hot_entries"),
            num(cache, "capacity"),
            num(cache, "disk_entries"),
            num(cache, "hot_hits"),
            num(cache, "disk_hits"),
            num(cache, "misses"),
            num(cache, "corrupt_misses"),
            num(cache, "evictions"),
            num(cache, "write_failures"),
        );
    }

    if let Some(shield) = json.get("shield") {
        let sheds_by = shield.get("sheds_by").cloned().unwrap_or(Json::Null);
        let _ = writeln!(
            out,
            "shield: {} slot(s), queue {}/{} (highwater {}), {} admitted, {} shed ({} queue-full, {} queue-timeout), {} coalesced",
            num(shield, "concurrency"),
            num(shield, "queued"),
            num(shield, "queue_depth"),
            num(shield, "queue_highwater"),
            num(shield, "admitted"),
            num(shield, "sheds"),
            num(&sheds_by, "queue-full"),
            num(&sheds_by, "queue-timeout"),
            num(shield, "coalesced"),
        );
    }

    if let Some(Json::Arr(slow)) = json.get("slow_requests") {
        if !slow.is_empty() {
            let _ = writeln!(out, "slowest request(s):");
            for t in slow {
                if let Some(trace) = shoal_obs::Trace::from_json(t) {
                    for line in trace.render_text().lines() {
                        let _ = writeln!(out, "  {line}");
                    }
                }
            }
        }
    }

    if let Some(audit) = json.get("audit") {
        let _ = writeln!(
            out,
            "audit: {} script(s) analyzed, {} degraded, {} command(s) missing specs",
            num(audit, "analyzed_scripts"),
            num(audit, "degraded_scripts"),
            num(audit, "missing_spec_commands"),
        );
        if let Some(Json::Arr(top)) = audit.get("top_missing_specs") {
            for entry in top {
                let _ = writeln!(
                    out,
                    "  {:<22} {:>4} script(s)  {:>4} site(s)  score {}",
                    audit_str(entry, "command"),
                    num(entry, "scripts"),
                    num(entry, "sites"),
                    num(entry, "score"),
                );
            }
        }
        if let Some(Json::Obj(losses)) = audit.get("losses") {
            if !losses.is_empty() {
                let causes: Vec<String> = losses
                    .iter()
                    .map(|(cause, n)| format!("{cause} {}", n.as_u64().unwrap_or(0)))
                    .collect();
                let _ = writeln!(out, "  losses: {}", causes.join(", "));
            }
        }
    }
    out
}

/// String field accessor for the audit block of a stats snapshot.
fn audit_str<'j>(j: &'j shoal_obs::json::Json, field: &str) -> &'j str {
    j.get(field)
        .and_then(shoal_obs::json::Json::as_str)
        .unwrap_or("?")
}

/// Writes the world tree(s) for the analyzed scripts. `.dot` writes
/// GraphViz DOT, `.json` writes JSON, and any other name writes both
/// (as `FILE.dot` + `FILE.json`). With several scripts, each gets a
/// numbered file (`FILE.2.dot`, …) in input order.
fn emit_world_trees(
    file: &str,
    entries: &[(String, shoal_core::AnalysisReport)],
) -> Result<(), String> {
    let write = |path: &str, contents: &str| -> Result<(), String> {
        std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("shoal: wrote world tree to {path}");
        Ok(())
    };
    for (i, (_, report)) in entries.iter().enumerate() {
        let numbered = |name: &str| -> String {
            if i == 0 {
                name.to_string()
            } else {
                match name.rsplit_once('.') {
                    Some((stem, ext)) => format!("{stem}.{}.{ext}", i + 1),
                    None => format!("{name}.{}", i + 1),
                }
            }
        };
        let tree = &report.world_tree;
        if file.ends_with(".dot") {
            write(&numbered(file), &tree.to_dot())?;
        } else if file.ends_with(".json") {
            write(&numbered(file), &tree.to_json().to_text())?;
        } else {
            write(&numbered(&format!("{file}.dot")), &tree.to_dot())?;
            write(&numbered(&format!("{file}.json")), &tree.to_json().to_text())?;
        }
    }
    Ok(())
}

fn render_profile(path: &str, p: &shoal_core::ProfileReport) -> String {
    let rows = vec![
        ("parse".to_string(), format!("{} µs", p.parse_us)),
        ("setup".to_string(), format!("{} µs", p.setup_us)),
        ("exec".to_string(), format!("{} µs", p.exec_us)),
        ("idempotence".to_string(), format!("{} µs", p.idempotence_us)),
        ("report".to_string(), format!("{} µs", p.report_us)),
        ("total".to_string(), format!("{} µs", p.total_us)),
        (
            "peak live worlds".to_string(),
            p.peak_live_worlds.to_string(),
        ),
        ("forks".to_string(), p.forks.to_string()),
        ("worlds pruned".to_string(), p.worlds_pruned.to_string()),
        ("cap dropped".to_string(), p.cap_dropped.to_string()),
        ("merged".to_string(), p.merged.to_string()),
    ];
    shoal_obs::stats::render_table(&format!("profile ({path})"), &rows)
}

fn cmd_lint(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("shoal lint: no scripts given");
        return ExitCode::from(2);
    }
    let mut worst = ExitCode::SUCCESS;
    for path in paths {
        let src = match read_script(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("shoal: {e}");
                return ExitCode::from(2);
            }
        };
        match shoal_lint::lint_source(&src) {
            Err(e) => {
                eprintln!("{path}: parse error: {e}");
                worst = ExitCode::from(2);
            }
            Ok(lints) => {
                for l in &lints {
                    println!("{path}: {l}");
                }
                if !lints.is_empty() {
                    worst = ExitCode::FAILURE;
                }
            }
        }
    }
    worst
}

fn cmd_typecheck(args: &[String]) -> ExitCode {
    let Some(src) = args.first() else {
        eprintln!("shoal typecheck: give a pipeline as one argument");
        return ExitCode::from(2);
    };
    let script = match shoal_shparse::parse_script(src) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(item) = script.items.first() else {
        eprintln!("empty input");
        return ExitCode::from(2);
    };
    let pipe = &item.and_or.first;
    let engine = shoal_core::engine::Engine::new(shoal_core::AnalysisOptions::default());
    let check = engine.stream_check_pipeline(pipe);
    for d in &check.findings {
        println!("{d}");
    }
    match check.output {
        Some(ty) => {
            println!("final output line type: {ty}");
            let aliases = shoal_streamty::TypeAliases::builtin();
            if let Some(name) = aliases.type_of(&ty) {
                println!("  (a subtype of `{name}`)");
            }
            if check.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => {
            println!("pipeline contains stages the type system cannot model");
            ExitCode::FAILURE
        }
    }
}

fn cmd_mine(names: &[String]) -> ExitCode {
    let names: Vec<String> = if names.is_empty() {
        shoal_miner::manpages::all_documented()
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        names.to_vec()
    };
    for name in &names {
        match shoal_miner::mine_command(name) {
            Some(spec) => {
                print!("{}", shoal_spec::text::render_spec(&spec));
                println!();
            }
            None => eprintln!("shoal mine: no documentation for {name:?}"),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let mut policy = shoal_monitor::Policy::default();
    let mut script_path: Option<&String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--no-RW" | "--no-rw" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("--no-RW needs a path prefix");
                    return ExitCode::from(2);
                };
                policy.no_read.push(p.clone());
                policy.no_write.push(p.clone());
            }
            "--no-read" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("--no-read needs a path prefix");
                    return ExitCode::from(2);
                };
                policy.no_read.push(p.clone());
            }
            "--no-write" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("--no-write needs a path prefix");
                    return ExitCode::from(2);
                };
                policy.no_write.push(p.clone());
            }
            other if !other.starts_with("--") => script_path = Some(&args[i]),
            other => {
                eprintln!("shoal verify: unknown option {other:?}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let Some(path) = script_path else {
        eprintln!("shoal verify: no script given (use - for stdin)");
        return ExitCode::from(2);
    };
    let src = match read_script(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("shoal: {e}");
            return ExitCode::from(2);
        }
    };
    let specs = shoal_spec::SpecLibrary::builtin();
    match shoal_monitor::verify_source(&src, &policy, &specs) {
        Err(e) => {
            eprintln!("parse error: {e}");
            ExitCode::from(2)
        }
        Ok(report) => {
            for f in &report.findings {
                let severity = match f.certainty {
                    shoal_monitor::verify::Certainty::Definite => shoal_core::Severity::Error,
                    shoal_monitor::verify::Certainty::Possible => shoal_core::Severity::Warning,
                };
                let diag = shoal_core::Diagnostic::new(
                    shoal_core::DiagCode::PolicyViolation,
                    severity,
                    f.span,
                    format!(
                        "{:?} {} of protected {} by `{}`",
                        f.certainty, f.access, f.prefix, f.what
                    ),
                );
                println!("{diag}");
            }
            for (span, what) in &report.unclassified {
                println!("{span}: unclassifiable command `{what}` — wrap with runtime containment");
            }
            if report.conclusively_safe() {
                println!(
                    "conclusively safe: {} command(s) verified against the policy",
                    report.commands_checked
                );
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn cmd_monitor(args: &[String]) -> ExitCode {
    let mut ty_text: Option<&String> = None;
    let mut halt = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--type" => {
                i += 1;
                ty_text = args.get(i);
            }
            "--halt" => halt = true,
            other => {
                eprintln!("shoal monitor: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let Some(ty_text) = ty_text else {
        eprintln!("shoal monitor: --type is required");
        return ExitCode::from(2);
    };
    let aliases = shoal_streamty::TypeAliases::builtin();
    let ty = match aliases.resolve(ty_text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("shoal monitor: {e}");
            return ExitCode::from(2);
        }
    };
    let policy = if halt {
        shoal_monitor::OnViolation::Halt
    } else {
        shoal_monitor::OnViolation::Flag
    };
    let mut monitor = shoal_monitor::StreamMonitor::new(&ty, policy);
    let stdin = std::io::stdin();
    let mut reader = BufReader::new(stdin.lock());
    let stdout = std::io::stdout();
    let mut writer = stdout.lock();
    match monitor.run(&mut reader, &mut writer) {
        Ok(report) => {
            let _ = writer.flush();
            if report.violations > 0 {
                eprintln!(
                    "shoal monitor: {} violation(s), first at line {}{}",
                    report.violations,
                    report.first_violation.unwrap_or(0),
                    if report.halted {
                        " — stream halted"
                    } else {
                        ""
                    }
                );
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("shoal monitor: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_coach(paths: &[String]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("shoal coach: no scripts given");
        return ExitCode::from(2);
    }
    let specs = shoal_spec::SpecLibrary::builtin();
    for path in paths {
        let src = match read_script(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("shoal: {e}");
                return ExitCode::from(2);
            }
        };
        match shoal_shparse::parse_script(&src) {
            Err(e) => eprintln!("{path}: parse error: {e}"),
            Ok(script) => {
                let suggestions = shoal_core::coach::coach(&script, &specs);
                if suggestions.is_empty() {
                    println!("{path}: no optimization opportunities found");
                }
                for s in suggestions {
                    println!("{path}: {s}");
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_explain(names: &[String]) -> ExitCode {
    // Dispatch: a path to an existing script (or "-") replays a
    // finding's witness path; anything else is a spec name.
    if let Some(first) = names.first() {
        if first == "-" || std::path::Path::new(first).is_file() {
            return cmd_explain_script(names);
        }
    }
    let specs = shoal_spec::SpecLibrary::builtin();
    if names.is_empty() {
        println!("specified commands: {}", specs.names().join(", "));
        return ExitCode::SUCCESS;
    }
    let mut ok = true;
    for name in names {
        match specs.get(name) {
            Some(spec) => print!("{}", shoal_spec::text::render_spec(spec)),
            None => {
                eprintln!("shoal explain: no specification for {name:?}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `shoal explain SCRIPT [INDEX]`: analyze the script and replay the
/// witness execution of finding #INDEX (default 0) step by step.
fn cmd_explain_script(args: &[String]) -> ExitCode {
    let path = &args[0];
    let index: usize = match args.get(1) {
        None => 0,
        Some(s) => match s.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("shoal explain: finding index must be a number (got {s:?})");
                return ExitCode::from(2);
            }
        },
    };
    let src = match read_script(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("shoal: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match shoal_core::analyze_source(&src) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: parse error: {e}");
            return ExitCode::from(2);
        }
    };
    match shoal_core::provenance::explain_diag(path, &src, &report, index) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shoal explain: {e}");
            ExitCode::FAILURE
        }
    }
}
