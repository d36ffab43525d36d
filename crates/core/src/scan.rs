//! The hardened batch driver behind `shoal scan`.
//!
//! A fleet-wide scan must survive any single script: a parser bug, a
//! pathological world explosion, or an engine panic on one input must
//! not take down the batch or silently drop the other results. Each
//! script runs in a [`std::panic::catch_unwind`]-isolated worker under
//! fuel/deadline budgets ([`crate::analyze::AnalysisOptions`]); a
//! worker that panics is retried once with budgets tightened to a
//! quarter, and the outcome taxonomy
//! ([`Outcome`]) — ok / findings / parse-partial / budget-exhausted /
//! panicked — is reported per script and rolled up into the exit code.
//! Output is byte-deterministic: files are walked in sorted order and
//! diagnostics are already canonically ordered by the analyzer.

use crate::analyze::{analyze_source_resilient, AnalysisOptions, AnalysisReport};
use crate::diag::Severity;
use crate::provenance::report_json;
use crate::stats::CapReason;
use shoal_obs::json::Json;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Once;
use std::time::{Duration, Instant};

/// Batch-scan configuration. The defaults bound every script so one
/// pathological input cannot stall the batch; `None` disables a budget.
#[derive(Debug, Clone)]
pub struct ScanOptions {
    /// Symbolic-step budget per script.
    pub fuel: Option<u64>,
    /// Wall-clock budget per script.
    pub deadline: Option<Duration>,
    /// Loop unrolling bound (passed through to the engine).
    pub loop_bound: usize,
    /// Maximum simultaneously-live worlds (passed through).
    pub max_worlds: usize,
    /// Worker threads for the batch (`0` = available parallelism).
    /// Results are collected in input order, so output is byte-identical
    /// to a sequential scan regardless of this setting.
    pub jobs: usize,
    /// Record per-script coverage/precision-loss maps
    /// ([`crate::AnalysisOptions::audit`]) for the fleet audit report.
    pub audit: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            fuel: Some(200_000),
            deadline: Some(Duration::from_millis(2_000)),
            loop_bound: 2,
            max_worlds: 64,
            jobs: 0,
            audit: false,
        }
    }
}

impl ScanOptions {
    fn analysis_options(&self) -> AnalysisOptions {
        AnalysisOptions {
            loop_bound: self.loop_bound,
            max_worlds: self.max_worlds,
            fuel: self.fuel,
            deadline: self.deadline,
            audit: self.audit,
            ..AnalysisOptions::default()
        }
    }

    /// Budgets for the post-panic retry: a quarter of the originals,
    /// so a script that panicked near its budget boundary gets a
    /// cheaper second chance instead of a second full-cost crash.
    fn tightened(&self) -> ScanOptions {
        ScanOptions {
            fuel: self.fuel.map(|f| (f / 4).max(1)),
            deadline: self.deadline.map(|d| d / 4),
            ..self.clone()
        }
    }
}

/// What happened to one script, in precedence order (worst last):
/// a script that both lost budget and had findings reports the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// Parsed fully, analyzed fully, no findings at warning level.
    Ok,
    /// Analysis completed and found warnings or errors.
    Findings,
    /// Some statements were skipped over syntax errors; findings cover
    /// the parsed remainder.
    ParsePartial,
    /// The fuel or deadline budget ran out; findings up to the
    /// exhaustion point are reported.
    BudgetExhausted,
    /// The worker panicked twice (once at full and once at tightened
    /// budgets); no report is available.
    Panicked,
}

impl Outcome {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Findings => "findings",
            Outcome::ParsePartial => "parse-partial",
            Outcome::BudgetExhausted => "budget-exhausted",
            Outcome::Panicked => "panicked",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One script's scan result.
#[derive(Debug)]
pub struct ScriptResult {
    /// Path as given (files) or discovered (directory walk).
    pub path: String,
    /// Outcome classification.
    pub outcome: Outcome,
    /// The analysis report; `None` for [`Outcome::Panicked`].
    pub report: Option<AnalysisReport>,
    /// The panic payload when the worker panicked (kept even when the
    /// retry succeeded, so the flake is visible).
    pub panic_message: Option<String>,
    /// The first attempt panicked and the script was re-run with
    /// tightened budgets.
    pub retried: bool,
}

/// The whole batch: per-script results plus files that could not be
/// read at all.
#[derive(Debug, Default)]
pub struct ScanSummary {
    /// Per-script results in sorted path order.
    pub results: Vec<ScriptResult>,
    /// (path, error) for files that could not be read.
    pub unreadable: Vec<(String, String)>,
}

impl ScanSummary {
    /// Count of results with a given outcome.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.results.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Exit code for the batch: 4 if anything panicked, 3 if any script
    /// was only partially analyzed (budget or parse recovery), 1 if any
    /// fully-analyzed script had findings, 0 when everything is clean.
    pub fn exit_code(&self) -> i32 {
        match self.results.iter().map(|r| r.outcome).max() {
            Some(Outcome::Panicked) => 4,
            Some(Outcome::BudgetExhausted) | Some(Outcome::ParsePartial) => 3,
            Some(Outcome::Findings) => 1,
            _ => 0,
        }
    }

    /// Deterministic human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            let findings = r.report.as_ref().map_or(0, |rep| {
                rep.diagnostics
                    .iter()
                    .filter(|d| d.severity >= Severity::Warning)
                    .count()
            });
            out.push_str(&format!(
                "{}: {} ({} finding{})\n",
                r.path,
                r.outcome,
                findings,
                if findings == 1 { "" } else { "s" }
            ));
            if let Some(msg) = &r.panic_message {
                out.push_str(&format!("  panic: {msg}\n"));
                if r.retried && r.outcome != Outcome::Panicked {
                    out.push_str("  recovered on retry with tightened budgets\n");
                }
            }
            if let Some(rep) = &r.report {
                for d in &rep.diagnostics {
                    out.push_str(&format!("  {d}\n"));
                }
            }
        }
        for (path, err) in &self.unreadable {
            out.push_str(&format!("{path}: unreadable ({err})\n"));
        }
        out.push_str(&format!(
            "scanned {} script{}: {} ok, {} findings, {} parse-partial, {} budget-exhausted, {} panicked\n",
            self.results.len(),
            if self.results.len() == 1 { "" } else { "s" },
            self.count(Outcome::Ok),
            self.count(Outcome::Findings),
            self.count(Outcome::ParsePartial),
            self.count(Outcome::BudgetExhausted),
            self.count(Outcome::Panicked),
        ));
        out
    }

    /// `shoal-report/v1` JSON for the batch, with the scan taxonomy
    /// attached to every script entry.
    pub fn to_json(&self) -> Json {
        let mut scripts = Vec::new();
        for r in &self.results {
            let mut fields = match &r.report {
                Some(rep) => match report_json(&r.path, rep) {
                    Json::Obj(fields) => fields,
                    other => vec![("report".into(), other)],
                },
                None => vec![("path".into(), Json::Str(r.path.clone()))],
            };
            fields.push(("outcome".into(), Json::Str(r.outcome.as_str().into())));
            if let Some(msg) = &r.panic_message {
                fields.push(("panic".into(), Json::Str(msg.clone())));
            }
            fields.push(("retried".into(), Json::Bool(r.retried)));
            scripts.push(Json::Obj(fields));
        }
        Json::Obj(vec![
            ("schema".into(), Json::Str("shoal-report/v1".into())),
            ("tool".into(), Json::Str("shoal scan".into())),
            (
                "version".into(),
                Json::Str(env!("CARGO_PKG_VERSION").into()),
            ),
            ("scripts".into(), Json::Arr(scripts)),
            (
                "unreadable".into(),
                Json::Arr(
                    self.unreadable
                        .iter()
                        .map(|(p, e)| {
                            Json::Obj(vec![
                                ("path".into(), Json::Str(p.clone())),
                                ("error".into(), Json::Str(e.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("exit_code".into(), Json::Num(self.exit_code() as f64)),
        ])
    }
}

thread_local! {
    /// Set while a worker runs under `catch_unwind`, so the process
    /// panic hook stays quiet for *expected* (isolated) panics without
    /// silencing real ones elsewhere.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that defers to the previous
/// hook except while a scan worker is running on this thread.
fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) {
                return;
            }
            prev(info);
        }));
    });
}

fn panic_payload(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the analyzer on one script inside a panic shield.
fn run_isolated(src: &str, opts: AnalysisOptions) -> Result<AnalysisReport, String> {
    install_quiet_hook();
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| analyze_source_resilient(src, opts)));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    result.map_err(panic_payload)
}

fn classify(report: &AnalysisReport) -> Outcome {
    let budget_hit = report
        .cap_hits
        .iter()
        .any(|h| matches!(h.reason, CapReason::Fuel | CapReason::Deadline));
    if budget_hit {
        Outcome::BudgetExhausted
    } else if report.parse_partial {
        Outcome::ParsePartial
    } else if report
        .diagnostics
        .iter()
        .any(|d| d.severity >= Severity::Warning)
    {
        Outcome::Findings
    } else {
        Outcome::Ok
    }
}

/// Scans one script's source: analyze under budgets in a panic shield,
/// retry once with tightened budgets on panic, classify.
pub fn scan_source(path: &str, src: &str, opts: &ScanOptions) -> ScriptResult {
    shoal_obs::failpoint::set_context(path);
    let first = run_isolated(src, opts.analysis_options());
    let result = match first {
        Ok(report) => ScriptResult {
            path: path.to_string(),
            outcome: classify(&report),
            report: Some(report),
            panic_message: None,
            retried: false,
        },
        Err(msg) => {
            shoal_obs::counter_add("scan.panics", 1);
            shoal_obs::event!("scan_panic", path = path, payload = msg.as_str());
            match run_isolated(src, opts.tightened().analysis_options()) {
                Ok(report) => ScriptResult {
                    path: path.to_string(),
                    outcome: classify(&report),
                    report: Some(report),
                    panic_message: Some(msg),
                    retried: true,
                },
                Err(_) => ScriptResult {
                    path: path.to_string(),
                    outcome: Outcome::Panicked,
                    report: None,
                    panic_message: Some(msg),
                    retried: true,
                },
            }
        }
    };
    shoal_obs::failpoint::set_context("");
    result
}

/// Recursively collects scripts under `roots` in sorted order.
/// Explicitly-named files are always included; directory walks filter
/// to shell scripts and skip dot-entries.
fn collect(roots: &[PathBuf], summary: &mut ScanSummary) -> Vec<(String, String)> {
    let mut scripts: Vec<(String, String)> = Vec::new();
    let mut stack: Vec<(PathBuf, bool)> = roots.iter().map(|p| (p.clone(), true)).collect();
    // Depth-first with an explicit stack; entries are pushed in reverse
    // sorted order so files come out sorted.
    stack.reverse();
    while let Some((path, explicit)) = stack.pop() {
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = match std::fs::read_dir(&path) {
                Ok(rd) => rd
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .map(|n| !n.starts_with('.'))
                            .unwrap_or(false)
                    })
                    .collect(),
                Err(e) => {
                    summary
                        .unreadable
                        .push((path.display().to_string(), e.to_string()));
                    continue;
                }
            };
            entries.sort();
            for entry in entries.into_iter().rev() {
                stack.push((entry, false));
            }
            continue;
        }
        match std::fs::read(&path) {
            Ok(bytes) => {
                let src = String::from_utf8_lossy(&bytes).into_owned();
                if explicit || crate::sniff::is_shell_script(&path, &src) {
                    scripts.push((path.display().to_string(), src));
                }
            }
            Err(e) => {
                if explicit || path.extension().and_then(|x| x.to_str()) == Some("sh") {
                    summary
                        .unreadable
                        .push((path.display().to_string(), e.to_string()));
                }
            }
        }
    }
    scripts.sort_by(|a, b| a.0.cmp(&b.0));
    scripts.dedup_by(|a, b| a.0 == b.0);
    scripts
}

/// Scans every shell script under `roots` (files or directories).
///
/// With `opts.jobs != 1` the scripts are distributed over a
/// work-stealing thread pool ([`shoal_obs::pool`]); the panic shield,
/// tightened-budget retry, and per-script failpoint context are all
/// thread-local, and [`shoal_obs::pool::map_indexed`] returns results
/// in input (= sorted path) order, so the summary — text, JSON, and
/// exit code — is byte-identical to a sequential scan.
pub fn scan_paths(roots: &[PathBuf], opts: &ScanOptions) -> ScanSummary {
    let mut summary = ScanSummary::default();
    let scripts = collect(roots, &mut summary);
    shoal_obs::counter_add("scan.scripts", scripts.len() as u64);
    let jobs = match opts.jobs {
        0 => shoal_obs::pool::available_parallelism(),
        n => n,
    };
    summary.results = shoal_obs::pool::map_indexed(jobs, &scripts, |_, (path, src)| {
        // One clock pair and a charge, not a phase timer: a live timer
        // would make the relang timers inside the analysis inert.
        let t_scan = Instant::now();
        let result = scan_source(path, src, opts);
        shoal_obs::trace::phase_add("scan", t_scan.elapsed().as_micros() as u64);
        result
    });
    summary.unreadable.sort();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_precedence_orders_worst_last() {
        assert!(Outcome::Ok < Outcome::Findings);
        assert!(Outcome::Findings < Outcome::ParsePartial);
        assert!(Outcome::ParsePartial < Outcome::BudgetExhausted);
        assert!(Outcome::BudgetExhausted < Outcome::Panicked);
    }

    #[test]
    fn clean_script_is_ok_with_exit_zero() {
        let r = scan_source("clean.sh", "echo hello\n", &ScanOptions::default());
        assert_eq!(r.outcome, Outcome::Ok);
        let summary = ScanSummary {
            results: vec![r],
            unreadable: Vec::new(),
        };
        assert_eq!(summary.exit_code(), 0);
        assert!(summary.render_text().contains("1 ok"));
    }

    #[test]
    fn steam_bug_is_findings_with_exit_one() {
        let src = "STEAMROOT=\"$(cd \"${0%/*}\" && echo $PWD)\"\nrm -rf \"$STEAMROOT/\"*\n";
        let r = scan_source("fig1.sh", src, &ScanOptions::default());
        assert_eq!(r.outcome, Outcome::Findings);
        let summary = ScanSummary {
            results: vec![r],
            unreadable: Vec::new(),
        };
        assert_eq!(summary.exit_code(), 1);
    }

    #[test]
    fn malformed_prefix_is_parse_partial_but_keeps_findings() {
        // Fig. 1 with a garbage first line: recovery must keep the
        // dangerous-delete finding and mark the report parse-partial.
        let src = ")\nSTEAMROOT=\"$(cd \"${0%/*}\" && echo $PWD)\"\nrm -rf \"$STEAMROOT/\"*\n";
        let r = scan_source("fig1-broken.sh", src, &ScanOptions::default());
        assert_eq!(r.outcome, Outcome::ParsePartial);
        let report = r
            .report
            .as_ref()
            .expect("parse-partial still yields a report");
        assert!(report.parse_partial);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == crate::diag::DiagCode::DangerousDelete),
            "the Steam-updater finding must survive the malformed first line"
        );
        let summary = ScanSummary {
            results: vec![r],
            unreadable: Vec::new(),
        };
        assert_eq!(summary.exit_code(), 3);
    }

    #[test]
    fn zero_deadline_is_budget_exhausted() {
        let opts = ScanOptions {
            deadline: Some(Duration::ZERO),
            ..ScanOptions::default()
        };
        let r = scan_source("slow.sh", "echo a\necho b\n", &opts);
        assert_eq!(r.outcome, Outcome::BudgetExhausted);
        let report = r.report.expect("budget exhaustion still yields a report");
        assert!(report.incomplete);
        assert!(report
            .cap_hits
            .iter()
            .any(|h| h.reason == CapReason::Deadline));
    }

    #[test]
    fn json_includes_taxonomy_fields() {
        let r = scan_source("clean.sh", "echo hello\n", &ScanOptions::default());
        let summary = ScanSummary {
            results: vec![r],
            unreadable: Vec::new(),
        };
        let json = summary.to_json().to_text();
        assert!(json.contains("\"schema\":\"shoal-report/v1\""));
        assert!(json.contains("\"outcome\":\"ok\""));
        assert!(json.contains("\"exit_code\":0"));
    }
}
