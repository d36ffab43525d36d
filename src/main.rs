//! `shoal` — semantics-driven static analysis for Unix shell programs.
//!
//! Subcommands (`USAGE` below has their options):
//!
//! * `analyze SCRIPT…` (alias `check`) — the full symbolic analysis
//!   (the paper's headline: catches Fig. 1, proves Fig. 2, catches
//!   Fig. 3).
//! * `scan PATH…` — hardened batch analysis of a tree of scripts.
//! * `audit PATH…` — the fleet coverage and precision-loss report
//!   (`shoal-audit/v1`).
//! * `jit SCRIPT…` — analysis through the resident daemon, falling back
//!   in-process; `daemon [stop|status|top]` runs or controls it.
//! * `lsp` — the language server over stdio (incremental engine).
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
//! * `coach SCRIPT…` — optimization suggestions (§5).
//!
//! Every subcommand that takes options or operands reads them through
//! [`Args`]. A usage or I/O error comes back as the message to print,
//! and the process exits 2.

use shoal_daemon::cache::Entry;
use std::io::{BufReader, Read, Write};
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// What a subcommand returns: its exit code, or the message of a usage
/// or I/O error (exit 2).
type CmdResult = Result<ExitCode, String>;

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
    let result = match cmd.as_str() {
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
            Ok(ExitCode::SUCCESS)
        }
        other => {
            eprintln!("shoal: unknown subcommand {other:?}\n");
            eprint!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    };
    let code = result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    });
    if let Err(e) = obs.finish() {
        eprintln!("shoal: {e}");
        return ExitCode::from(2);
    }
    code
}

/// The option reader every subcommand's flag loop uses. It walks one
/// subcommand's arguments left to right; a flag arm takes the flag's
/// value with [`Args::value`] or [`Args::choice`], and anything else
/// goes through [`Args::operand`], so an unknown `--option` is an
/// error, never a script path. Errors are the message to print, as
/// `shoal SUB: …`.
struct Args<'a> {
    sub: &'static str,
    rest: std::slice::Iter<'a, String>,
    /// The argument read last: the flag a value error names.
    flag: &'a str,
}

impl<'a> Args<'a> {
    fn new(sub: &'static str, args: &'a [String]) -> Self {
        Args { sub, rest: args.iter(), flag: "" }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value, parsed as a `T`; `what` describes it
    /// for the error when it is missing or does not parse.
    fn value<T: FromStr>(&mut self, what: &str) -> Result<T, String> {
        match self.rest.next().map(|v| v.parse()) {
            Some(Ok(v)) => Ok(v),
            _ => Err(self.err(format!("{} needs {what}", self.flag))),
        }
    }

    /// The current flag's value, which must be one of `choices`.
    fn choice(&mut self, choices: &[&'static str]) -> Result<&'static str, String> {
        let got = self.rest.next().map_or("nothing", String::as_str);
        match choices.iter().find(|c| **c == got) {
            Some(c) => Ok(c),
            None => Err(self.err(format!(
                "{} must be {} (got {got:?})",
                self.flag,
                choices.join(" or ")
            ))),
        }
    }

    /// `arg` as an operand: an argument that starts with `--` and no
    /// flag arm took is an unknown option.
    fn operand(&self, arg: &'a str) -> Result<&'a str, String> {
        if arg.starts_with("--") {
            Err(self.err(format!("unknown option {arg:?}")))
        } else {
            Ok(arg)
        }
    }

    /// The remaining arguments of a subcommand that takes no options.
    fn operands(mut self) -> Result<Vec<&'a str>, String> {
        let mut out = Vec::new();
        while let Some(arg) = self.next() {
            out.push(self.operand(arg)?);
        }
        Ok(out)
    }

    fn err(&self, msg: impl std::fmt::Display) -> String {
        format!("shoal {}: {msg}", self.sub)
    }
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
  scan walks directories for .sh / shell-shebang files, isolates each
  script's analysis against panics (retrying once with tightened
  budgets), and exits 0 = clean, 1 = findings, 3 = some scripts only
  partially analyzed (parse recovery or budget), 4 = a script panicked.
  Output is byte-identical for any --jobs value.

AUDIT OPTIONS (plus --fuel/--deadline-ms/--jobs as for scan):
    --format text|json          output format (default text; json is
                                the shoal-audit/v1 document)
  audit scans like `scan` with coverage recording on, and prints only
  the fleet report: commands ranked by scripts x call sites lacking
  specs, precision losses by cause (no-spec, dfa-cap, loop-widen, fuel,
  deadline, parse-partial, world-cap, expansion-cap) with
  worst-offender scripts, and checker fired / possibly-suppressed
  counts. Output is byte-deterministic across runs and --jobs values;
  exits 0.

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

/// A script's text, from `path` or, for `-`, from stdin.
fn read_script(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut src = String::new();
        std::io::stdin()
            .read_to_string(&mut src)
            .map_err(|e| format!("shoal: reading stdin: {e}"))?;
        Ok(src)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("shoal: {path}: {e}"))
    }
}

fn cmd_analyze(args: &[String], obs: &ObsFlags) -> CmdResult {
    let mut a = Args::new("analyze", args);
    let mut format = "text";
    let mut tree_file: Option<String> = None;
    let mut paths = Vec::new();
    while let Some(arg) = a.next() {
        match arg {
            "--format" => format = a.choice(&["text", "json", "sarif"])?,
            "--emit-world-tree" => tree_file = Some(a.value("an output file")?),
            _ => paths.push(a.operand(arg)?),
        }
    }
    if paths.is_empty() {
        return Err(a.err("no scripts given"));
    }
    let opts = shoal_core::AnalysisOptions {
        profile: obs.profile,
        ..shoal_core::AnalysisOptions::default()
    };
    let mut worst = ExitCode::SUCCESS;
    let mut entries: Vec<(String, shoal_core::AnalysisReport)> = Vec::new();
    for path in paths {
        let src = read_script(path)?;
        match shoal_core::analyze_source_with(&src, opts.clone()) {
            Err(e) => {
                eprintln!("{path}: parse error: {e}");
                worst = ExitCode::from(2);
            }
            Ok(report) => {
                Verdict::of_report(&report).print(path, format == "text", &mut worst);
                if format == "text" {
                    if let Some(p) = &report.profile {
                        print!("{}", render_profile(path, p));
                    }
                }
                entries.push((path.to_string(), report));
            }
        }
    }
    if let Some(file) = &tree_file {
        emit_world_trees(file, &entries)?;
    }
    match format {
        "json" => println!("{}", shoal_core::provenance::reports_json(&entries).to_text()),
        "sarif" => println!("{}", shoal_core::provenance::sarif_json(&entries).to_text()),
        _ => {}
    }
    Ok(worst)
}

/// Parses the flags `scan` and `audit` share (`--format text|json`,
/// `--fuel`, `--deadline-ms`, `--jobs`) and scans the paths, recording
/// coverage when `audit` is set. Returns the summary and whether JSON
/// was asked for.
fn scan(
    sub: &'static str,
    args: &[String],
    audit: bool,
) -> Result<(shoal_core::ScanSummary, bool), String> {
    let mut a = Args::new(sub, args);
    let mut opts = shoal_core::ScanOptions { audit, ..shoal_core::ScanOptions::default() };
    let mut json = false;
    let mut roots: Vec<PathBuf> = Vec::new();
    while let Some(arg) = a.next() {
        match arg {
            "--format" => json = a.choice(&["text", "json"])? == "json",
            "--fuel" => {
                opts.fuel = match a.value("a number (0 = unlimited)")? {
                    0 => None,
                    n => Some(n),
                }
            }
            "--deadline-ms" => {
                opts.deadline = match a.value("a number (0 = unlimited)")? {
                    0 => None,
                    n => Some(Duration::from_millis(n)),
                }
            }
            "--jobs" => opts.jobs = a.value("a number (0 = auto)")?,
            _ => roots.push(PathBuf::from(a.operand(arg)?)),
        }
    }
    if roots.is_empty() {
        return Err(a.err("no paths given"));
    }
    Ok((shoal_core::scan_paths(&roots, &opts), json))
}

/// `shoal scan PATH...` — hardened batch analysis: panic-isolated,
/// budgeted, taxonomy-reporting (see `shoal_core::scan`).
fn cmd_scan(args: &[String]) -> CmdResult {
    let (summary, json) = scan("scan", args, false)?;
    if json {
        println!("{}", summary.to_json().to_text());
    } else {
        print!("{}", summary.render_text());
    }
    Ok(ExitCode::from(summary.exit_code() as u8))
}

/// `shoal audit DIR…` — scan a tree with coverage recording on and
/// print only the fleet `shoal-audit/v1` report: missing-spec
/// rankings, the precision-loss taxonomy with worst offenders, and
/// checker fired/suppressed counts. Always exits 0 on a completed
/// audit (it is an observability report, not a gate; `shoal scan`
/// carries the gating exit codes).
fn cmd_audit(args: &[String]) -> CmdResult {
    let (summary, json) = scan("audit", args, true)?;
    let report = shoal_core::AuditReport::build(&summary);
    if json {
        println!("{}", report.to_json().to_text());
    } else {
        print!("{}", report.render_text());
    }
    Ok(ExitCode::SUCCESS)
}

/// `shoal jit SCRIPT...` — the thin just-in-time client: ask the
/// daemon (auto-spawning one if needed), fall back in-process when
/// unreachable. Stdout is byte-identical to `shoal analyze`; the path
/// taken is reported on stderr.
fn cmd_jit(args: &[String], obs: &ObsFlags) -> CmdResult {
    let mut a = Args::new("jit", args);
    let mut text = true;
    let mut cfg = shoal_daemon::client::ClientConfig::default();
    let mut paths = Vec::new();
    while let Some(arg) = a.next() {
        match arg {
            "--no-spawn" => cfg.auto_spawn = false,
            "--request-timeout-ms" => {
                let ms: NonZeroU64 = a.value("a positive number")?;
                cfg.request_timeout = Duration::from_millis(ms.get());
            }
            "--retries" => cfg.retries = a.value("a number (0 = no retries)")?,
            "--socket" => cfg.socket = a.value("a path")?,
            "--format" => text = a.choice(&["text", "json"])? == "text",
            _ => paths.push(a.operand(arg)?),
        }
    }
    if paths.is_empty() {
        return Err(a.err("no scripts given"));
    }
    let opts = shoal_core::AnalysisOptions {
        profile: obs.profile,
        ..shoal_core::AnalysisOptions::default()
    };
    let mut worst = ExitCode::SUCCESS;
    let mut scripts: Vec<shoal_obs::json::Json> = Vec::new();
    for path in paths {
        let src = read_script(path)?;
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
                Verdict::of_entry(&entry).print(path, text, &mut worst);
                let mut fields = vec![(
                    "path".to_string(),
                    shoal_obs::json::Json::Str(path.to_string()),
                )];
                if let shoal_obs::json::Json::Obj(body_fields) = entry.body {
                    fields.extend(body_fields);
                }
                scripts.push(shoal_obs::json::Json::Obj(fields));
            }
        }
    }
    if !text {
        println!(
            "{}",
            shoal_core::provenance::reports_envelope(scripts).to_text()
        );
    }
    Ok(worst)
}

/// One script's verdict as `analyze` and `jit` print it, so a
/// daemon-served verdict prints exactly as a local one. `analyze` reads
/// it off the report and `jit` off the result-cache entry; building
/// that entry in `analyze` would serialize the whole world tree only to
/// print a few of its numbers.
struct Verdict {
    /// Each finding's full rendering, in report order.
    findings: Vec<String>,
    /// How many findings are at warning level or above.
    warnings: usize,
    terminal_worlds: u64,
    peak_live_worlds: u64,
    incomplete: bool,
    /// Each cap hit's reason, line, hit count and dropped worlds.
    cap_hits: Vec<(String, u64, u64, u64)>,
}

impl Verdict {
    fn of_report(report: &shoal_core::AnalysisReport) -> Verdict {
        let diags = &report.diagnostics;
        Verdict {
            findings: diags.iter().map(ToString::to_string).collect(),
            warnings: diags.iter().filter(|d| d.severity >= shoal_core::Severity::Warning).count(),
            terminal_worlds: report.terminal_worlds as u64,
            peak_live_worlds: report.worlds_explored as u64,
            incomplete: report.incomplete,
            cap_hits: report
                .cap_hits
                .iter()
                .map(|h| (h.reason.to_string(), h.line.into(), h.hits as u64, h.dropped as u64))
                .collect(),
        }
    }

    fn of_entry(entry: &Entry) -> Verdict {
        use shoal_obs::json::Json;
        let num = |j: &Json, field: &str| j.get(field).and_then(Json::as_u64).unwrap_or(0);
        let hits = match entry.body.get("cap_hits") {
            Some(Json::Arr(hits)) => &hits[..],
            _ => &[],
        };
        Verdict {
            findings: entry.text.clone(),
            warnings: entry.findings,
            terminal_worlds: num(&entry.body, "terminal_worlds"),
            peak_live_worlds: num(&entry.body, "peak_live_worlds"),
            incomplete: matches!(entry.body.get("incomplete"), Some(Json::Bool(true))),
            cap_hits: hits
                .iter()
                .map(|h| {
                    let reason = h.get("reason").and_then(Json::as_str).unwrap_or("?");
                    (reason.to_string(), num(h, "line"), num(h, "hits"), num(h, "dropped"))
                })
                .collect(),
        }
    }

    /// The one exit-code rule (a finding at warning level or above
    /// makes it 1) and, in text mode, the one text report: the findings
    /// (or that there are none), the paths explored and the peak of
    /// live worlds, then each cap hit.
    fn print(&self, path: &str, text: bool, worst: &mut ExitCode) {
        if self.warnings > 0 {
            *worst = ExitCode::FAILURE;
        }
        if !text {
            return;
        }
        if self.findings.is_empty() {
            println!("{path}: no findings across all explored executions");
        }
        for finding in &self.findings {
            println!("{path}: {finding}");
        }
        println!(
            "{path}: {} execution path(s) explored, peak {} live world(s){}",
            self.terminal_worlds,
            self.peak_live_worlds,
            if self.incomplete { " (capped)" } else { "" }
        );
        for (reason, line, hits, dropped) in &self.cap_hits {
            println!(
                "{path}: cap hit: {reason} at line {line} ({hits} hit(s), {dropped} world(s) dropped)"
            );
        }
    }
}

/// `shoal lsp` — the language server over stdio.
fn cmd_lsp(args: &[String]) -> CmdResult {
    if !args.is_empty() {
        return Err("shoal lsp: takes no arguments (speaks LSP over stdio)".into());
    }
    Ok(ExitCode::from(shoal_lsp::run_stdio() as u8))
}

/// `shoal daemon [stop|status|top]` — run or control the resident
/// analyzer.
fn cmd_daemon(args: &[String]) -> CmdResult {
    // Every default (socket, cache, slots, queue) comes from
    // `ServerConfig::default()`; the flags override fields of it.
    let mut config = shoal_daemon::server::ServerConfig::default();
    let mut a = Args::new("daemon", args);
    let mut action: Option<&str> = None;
    let mut no_disk = false;
    let mut status_json = false;
    while let Some(arg) = a.next() {
        match arg {
            "stop" | "status" | "top" if action.is_none() => action = Some(arg),
            "--format" => status_json = a.choice(&["text", "json"])? == "json",
            "--trace-log" => config.trace_log = Some(a.value("an output file (.jsonl)")?),
            "--socket" => config.socket = a.value("a path")?,
            "--cache-dir" => config.cache_dir = Some(a.value("a directory")?),
            "--no-disk-cache" => no_disk = true,
            "--cache-capacity" => config.cache_capacity = a.value("a number")?,
            "--jobs" => config.jobs = a.value("a number (0 = auto)")?,
            "--queue-depth" => {
                config.queue_depth = a.value("a number (0 = shed instead of queue)")?
            }
            "--queue-wait-ms" => config.queue_wait = Duration::from_millis(a.value("a number")?),
            "--cache-disk-bytes" => {
                let bytes: NonZeroU64 = a.value("a positive byte count")?;
                config.cache_disk_bytes = Some(bytes.get());
            }
            _ => return Err(a.err(format!("unexpected argument {:?}", a.operand(arg)?))),
        }
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
            return Ok(match shoal_daemon::server::run(config) {
                Ok(()) => {
                    eprintln!("shoal daemon: shut down cleanly");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("shoal daemon: {e}");
                    ExitCode::FAILURE
                }
            });
        }
    };
    match reply {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("shoal daemon: no daemon at {} ({e})", socket.display());
            Ok(ExitCode::FAILURE)
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
                    entry.get("command").and_then(Json::as_str).unwrap_or("?"),
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

/// Writes the world tree(s) for the analyzed scripts. `.dot` writes
/// GraphViz DOT, `.json` writes JSON, and any other name writes both
/// (as `FILE.dot` + `FILE.json`). With several scripts, each gets a
/// numbered file (`FILE.2.dot`, …) in input order.
fn emit_world_trees(
    file: &str,
    entries: &[(String, shoal_core::AnalysisReport)],
) -> Result<(), String> {
    let write = |path: &str, contents: &str| -> Result<(), String> {
        std::fs::write(path, contents).map_err(|e| format!("shoal: {path}: {e}"))?;
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


fn cmd_lint(args: &[String]) -> CmdResult {
    let paths = Args::new("lint", args).operands()?;
    if paths.is_empty() {
        return Err("shoal lint: no scripts given".into());
    }
    let mut worst = ExitCode::SUCCESS;
    for path in paths {
        let src = read_script(path)?;
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
    Ok(worst)
}

fn cmd_typecheck(args: &[String]) -> CmdResult {
    let Some(src) = Args::new("typecheck", args).operands()?.first().copied() else {
        return Err("shoal typecheck: give a pipeline as one argument".into());
    };
    let script = shoal_shparse::parse_script(src).map_err(|e| format!("parse error: {e}"))?;
    let Some(item) = script.items.first() else {
        return Err("empty input".into());
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
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::FAILURE)
            }
        }
        None => {
            println!("pipeline contains stages the type system cannot model");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_mine(args: &[String]) -> CmdResult {
    let mut names = Args::new("mine", args).operands()?;
    if names.is_empty() {
        names = shoal_miner::manpages::all_documented().to_vec();
    }
    for name in names {
        match shoal_miner::mine_command(name) {
            Some(spec) => {
                print!("{}", shoal_spec::text::render_spec(&spec));
                println!();
            }
            None => eprintln!("shoal mine: no documentation for {name:?}"),
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify(args: &[String]) -> CmdResult {
    let mut a = Args::new("verify", args);
    let mut policy = shoal_monitor::Policy::default();
    let mut script_path = None;
    while let Some(arg) = a.next() {
        match arg {
            "--no-RW" | "--no-rw" => {
                let prefix: String = a.value("a path prefix")?;
                policy.no_read.push(prefix.clone());
                policy.no_write.push(prefix);
            }
            "--no-read" => policy.no_read.push(a.value("a path prefix")?),
            "--no-write" => policy.no_write.push(a.value("a path prefix")?),
            _ => script_path = Some(a.operand(arg)?),
        }
    }
    let Some(path) = script_path else {
        return Err(a.err("no script given (use - for stdin)"));
    };
    let src = read_script(path)?;
    let specs = shoal_spec::SpecLibrary::builtin();
    let report = shoal_monitor::verify_source(&src, &policy, &specs)
        .map_err(|e| format!("parse error: {e}"))?;
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
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_monitor(args: &[String]) -> CmdResult {
    let mut a = Args::new("monitor", args);
    let mut ty_text: Option<String> = None;
    let mut halt = false;
    while let Some(arg) = a.next() {
        match arg {
            "--type" => ty_text = Some(a.value("a line type")?),
            "--halt" => halt = true,
            _ => return Err(a.err(format!("unexpected argument {:?}", a.operand(arg)?))),
        }
    }
    let Some(ty_text) = ty_text else {
        return Err(a.err("--type is required"));
    };
    let aliases = shoal_streamty::TypeAliases::builtin();
    let ty = aliases.resolve(&ty_text).map_err(|e| a.err(e))?;
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
    let report = monitor.run(&mut reader, &mut writer).map_err(|e| a.err(e))?;
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
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_coach(args: &[String]) -> CmdResult {
    let paths = Args::new("coach", args).operands()?;
    if paths.is_empty() {
        return Err("shoal coach: no scripts given".into());
    }
    let specs = shoal_spec::SpecLibrary::builtin();
    for path in paths {
        let src = read_script(path)?;
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
    Ok(ExitCode::SUCCESS)
}

fn cmd_explain(args: &[String]) -> CmdResult {
    let names = Args::new("explain", args).operands()?;
    // Dispatch: a path to an existing script (or "-") replays a
    // finding's witness path; anything else is a spec name.
    if let Some(&first) = names.first() {
        if first == "-" || std::path::Path::new(first).is_file() {
            return cmd_explain_script(first, names.get(1).copied());
        }
    }
    let specs = shoal_spec::SpecLibrary::builtin();
    if names.is_empty() {
        println!("specified commands: {}", specs.names().join(", "));
        return Ok(ExitCode::SUCCESS);
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
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

/// `shoal explain SCRIPT [INDEX]`: analyze the script and replay the
/// witness execution of finding #INDEX (default 0) step by step.
fn cmd_explain_script(path: &str, index: Option<&str>) -> CmdResult {
    let index: usize = match index {
        None => 0,
        Some(s) => s
            .parse()
            .map_err(|_| format!("shoal explain: finding index must be a number (got {s:?})"))?,
    };
    let src = read_script(path)?;
    let report =
        shoal_core::analyze_source(&src).map_err(|e| format!("{path}: parse error: {e}"))?;
    match shoal_core::provenance::explain_diag(path, &src, &report, index) {
        Ok(text) => {
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("shoal explain: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}
