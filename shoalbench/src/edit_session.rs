//! `edit_session`: an editor session through an in-process
//! `shoal_lsp::Server`.
//!
//! The same engine as `long_scripts`, reached the other way: statement
//! replay, checkpoints, a full reparse per keystroke, the resilient
//! fallback for non-parsing prefixes, and result-cache writes beside
//! reads. Latency runs from handing a message to `Server::serve` until
//! its `publishDiagnostics` is written, timed by the benchmark's own
//! reader and writer.
//!
//! A run is made of identical rounds: each opens the documents on a
//! fresh server and replays the same prefix of the edit plan. The
//! latency of an edit depends on where in the plan it falls, so a run
//! that stopped mid-plan when its time was up would measure a mix of
//! edits that changes with the speed of the host.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{BufRead, Cursor, Read, Write};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use shoal_core::provenance::diag_json;
use shoal_core::{
    analyze_source_resilient, analyze_source_with, AnalysisOptions, AnalysisReport, IncrSession,
};
use shoal_daemon::cache::{cache_key, KeyParts, ResultCache};
use shoal_lsp::{read_message, write_message, Server};
use shoal_obs::json::Json;

use crate::common::{self, Deadline, RunResult, Tally};
use crate::editor::{self, Editor, Kind, Op};
use crate::kernel::{self, Meter};
use crate::trace::Tracer;

/// Every this many messages, on average, one is checked against a
/// cold analysis of the same text (decided by a hash of the seed and
/// the message index).
const SAMPLE_EVERY: u64 = 8;
/// Messages in one round. Also the counted pass, whose work counts
/// must repeat.
const ROUND: u64 = 150;

/// Frames written by the server, each with the instant it was flushed.
type Written = Rc<RefCell<Vec<(Instant, Vec<u8>)>>>;

/// The server's output: stamps each message as `write_message`
/// flushes it.
struct Out {
    buf: Vec<u8>,
    written: Written,
}

impl Write for Out {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let now = Instant::now();
        if !self.buf.is_empty() {
            self.written
                .borrow_mut()
                .push((now, std::mem::take(&mut self.buf)));
        }
        Ok(())
    }
}

/// Parses one frame written by the server.
fn parse_frame(bytes: &[u8]) -> Json {
    read_message(&mut Cursor::new(bytes)).expect("the server writes well-formed frames")
}

/// A fresh, empty cache directory inside the working directory.
fn fresh_dir(n: usize) -> PathBuf {
    let dir = PathBuf::from(".bench_tmp").join(format!("edit-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creates the cache directory");
    dir
}

struct Session {
    server: Server<Out>,
    written: Written,
    dir: PathBuf,
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts a server on a fresh cache directory and opens every
/// document: the session's set-up.
fn open_session(editor: &Editor, n: usize) -> Session {
    let written: Written = Rc::default();
    let dir = fresh_dir(n);
    let mut server = Server::new(
        Out {
            buf: Vec::new(),
            written: written.clone(),
        },
        Some(dir.clone()),
    );
    let mut input = editor::handshake();
    for op in editor.opens() {
        input.extend(op.frame(0));
    }
    server.serve(&mut Cursor::new(input));
    written.borrow_mut().clear();
    Session {
        server,
        written,
        dir,
    }
}

/// Is message `index` checked against a cold analysis?
fn sampled(seed: u64, index: u64) -> bool {
    shoal_obs::rng::splitmix64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .is_multiple_of(SAMPLE_EVERY)
}

/// (line, code, severity, message) of each published diagnostic.
type DiagKey = (u64, String, String, String);

fn published_keys(params: &Json) -> Vec<DiagKey> {
    let Some(Json::Arr(diags)) = params.get("diagnostics") else {
        return Vec::new();
    };
    let mut keys: Vec<DiagKey> = diags
        .iter()
        .map(|d| {
            let line = d
                .get("range")
                .and_then(|r| r.get("start"))
                .and_then(|s| s.get("line"))
                .and_then(Json::as_u64);
            let severity = match d.get("severity").and_then(Json::as_f64) {
                Some(1.0) => "error",
                Some(2.0) => "warning",
                _ => "note",
            };
            let text = |k: &str| d.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (
                line.unwrap_or(u64::MAX),
                text("code"),
                severity.to_string(),
                text("message"),
            )
        })
        .collect();
    keys.sort();
    keys
}

/// The same keys from a cold analysis: the line an editor shows is the
/// 0-based line of the span's start (of its 1-based `line` when the
/// span is synthetic).
fn cold_keys(text: &str, report: &AnalysisReport) -> Vec<DiagKey> {
    let mut keys: Vec<DiagKey> = report
        .diagnostics
        .iter()
        .map(|d| {
            let line = if d.span.start == 0 && d.span.end == 0 {
                u64::from(d.span.line).saturating_sub(1)
            } else {
                text.as_bytes()[..d.span.start.min(text.len())]
                    .iter()
                    .filter(|&&b| b == b'\n')
                    .count() as u64
            };
            (
                line,
                d.code.to_string(),
                d.severity.to_string(),
                d.message.clone(),
            )
        })
        .collect();
    keys.sort();
    keys
}

fn cold_analysis(text: &str) -> AnalysisReport {
    analyze_source_with(text, AnalysisOptions::default())
        .unwrap_or_else(|_| analyze_source_resilient(text, AnalysisOptions::default()))
}

/// One measured message: its index in the round, whether the published
/// analysis was complete, and, when sampled, what to check.
struct Outcome {
    index: u64,
    complete: bool,
    check: Option<(String, Vec<DiagKey>)>,
}

/// Feeds the first [`ROUND`] messages of the edit stream to
/// `Server::serve` one at a time. Between messages it collects the
/// previous message's publish and runs the reference kernel.
struct Feed<'a> {
    editor: &'a mut Editor,
    written: Written,
    meter: &'a mut Meter,
    seed: u64,
    index: u64,
    /// The message in flight: its index, op, and hand-off instant.
    pending: Option<(u64, Op, Instant)>,
    outcomes: Vec<Outcome>,
    cur: Vec<u8>,
    pos: usize,
}

impl Feed<'_> {
    /// Collects the publish of the message in flight.
    fn collect(&mut self) {
        let Some((index, op, sent)) = self.pending.take() else {
            return;
        };
        let frames = std::mem::take(&mut *self.written.borrow_mut());
        let (at, bytes) = frames.last().expect("every message publishes diagnostics");
        if op.kind == Kind::Close {
            return;
        }
        self.meter
            .record(index as usize, at.duration_since(sent).as_secs_f64() * 1e6);
        let msg = parse_frame(bytes);
        let params = msg.get("params").cloned().unwrap_or(Json::Null);
        let keys = published_keys(&params);
        let complete = !keys.iter().any(|k| k.1 == "analysis-incomplete");
        let check = sampled(self.seed, index).then_some((op.text, keys));
        self.outcomes.push(Outcome {
            index,
            complete,
            check,
        });
    }

    /// The next framed message, or `None` at the end of the round.
    fn next_frame(&mut self) -> Option<Vec<u8>> {
        self.collect();
        if self.index >= ROUND {
            return None;
        }
        self.meter.tick();
        let op = self.editor.next().expect("the edit stream is endless");
        self.index += 1;
        let bytes = op.frame(self.index);
        self.pending = Some((self.index, op, Instant::now()));
        Some(bytes)
    }
}

impl Read for Feed<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feed<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.cur.len() {
            match self.next_frame() {
                Some(bytes) => {
                    self.cur = bytes;
                    self.pos = 0;
                }
                None => return Ok(&[]),
            }
        }
        Ok(&self.cur[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// One round: flushes the relang memo, opens the documents on a fresh
/// server and cache directory (`n` names it), and replays the first
/// [`ROUND`] messages.
fn round(seed: u64, n: usize, meter: &mut Meter) -> Vec<Outcome> {
    shoal_relang::memo_flush();
    let mut editor = Editor::new(seed);
    let mut session = open_session(&editor, n);
    let mut feed = Feed {
        editor: &mut editor,
        written: session.written.clone(),
        meter,
        seed,
        index: 0,
        pending: None,
        outcomes: Vec::new(),
        cur: Vec::new(),
        pos: 0,
    };
    session.server.serve(&mut feed);
    std::mem::take(&mut feed.outcomes)
}

/// Runs rounds until `secs` have passed, and at least one, then checks
/// the sampled messages against cold analyses. Every round replays the
/// same messages, so a message is tallied by its index in the round.
/// Returns the tally and the peak resident set when the last round
/// ended, before the checks.
fn replay(seed: u64, secs: f64, meter: &mut Meter, first: usize) -> (Tally, f64) {
    let deadline = Deadline::after(secs);
    let mut outcomes = Vec::new();
    let mut n = first;
    while n == first || !deadline.passed() {
        outcomes.extend(round(seed, n, meter));
        meter.end_pass();
        n += 1;
    }
    let peak_rss_mb = common::peak_rss_mb();
    let mut cold: HashMap<String, Vec<DiagKey>> = HashMap::new();
    let mut tally = Tally::default();
    for o in outcomes {
        let ok = o.check.is_none_or(|(text, published)| {
            let want = cold
                .entry(text)
                .or_insert_with_key(|text| cold_keys(text, &cold_analysis(text)));
            let ok = published == *want;
            if !ok {
                eprintln!("edit_session: message {} published diagnostics that differ from a cold analysis", o.index);
            }
            ok
        });
        tally.add(o.index as usize, (ok, o.complete));
    }
    (tally, peak_rss_mb)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    if trace {
        return run_traced(seed, seconds);
    }
    let mut n = 0;
    let (_, setup_s) = common::setup_repeated(3, || {
        n += 1;
        shoal_relang::memo_flush();
        open_session(&Editor::new(seed), n)
    });
    let mut meter = Meter::default();
    let (tally, peak_rss_mb) = replay(seed, seconds, &mut meter, n + 1);
    meter.finish();
    RunResult {
        correct: true,
        attempted: tally.attempted(),
        failed: tally.failed(),
        metrics: crate::end_to_end(&meter, setup_s, peak_rss_mb, tally.complete_share()),
    }
}

/// The traced replay: the server's steps on the same stream, made
/// through the public functions it is built from, with a span around
/// each layer call.
struct Mirror {
    sessions: HashMap<usize, IncrSession>,
    cache: ResultCache,
    dir: PathBuf,
    spec_fingerprint: u64,
    resilient_edits: u64,
    exec_us: u64,
    report_us: u64,
}

impl Mirror {
    fn new(dir: PathBuf) -> Mirror {
        Mirror {
            sessions: HashMap::new(),
            cache: ResultCache::new(32, Some(dir.clone()), None),
            dir,
            spec_fingerprint: shoal_spec::SpecLibrary::builtin().fingerprint(),
            resilient_edits: 0,
            exec_us: 0,
            report_us: 0,
        }
    }

    fn key(&self, text: &str, resilient: bool) -> String {
        cache_key(&KeyParts {
            source: text,
            options: &AnalysisOptions::default(),
            resilient,
            spec_fingerprint: self.spec_fingerprint,
            version: shoal_daemon::version(),
        })
    }

    fn analyze(&mut self, t: &mut Tracer, doc: usize, text: &str) -> Json {
        t.span("shparse", |_| {
            std::hint::black_box(shoal_shparse::parse_script(text).is_ok())
        });
        let session = self.sessions.entry(doc).or_insert_with(|| {
            IncrSession::new(AnalysisOptions {
                profile: true,
                ..AnalysisOptions::default()
            })
        });
        let (report, resilient) = match t.span("core.incr", |_| session.analyze(text)) {
            Ok(report) => (report, false),
            Err(_) => {
                self.resilient_edits += 1;
                let opts = AnalysisOptions {
                    profile: true,
                    ..AnalysisOptions::default()
                };
                (
                    t.span("lsp.resilient", |_| analyze_source_resilient(text, opts)),
                    true,
                )
            }
        };
        if let Some(p) = &report.profile {
            self.exec_us += p.exec_us;
            self.report_us += p.report_us;
        }
        let diags = Json::Arr(report.diagnostics.iter().map(diag_json).collect());
        t.span("daemon.cache", |_| {
            let key = self.key(text, resilient);
            self.cache
                .put(key, shoal_daemon::entry_from_report(&report));
        });
        diags
    }

    fn handle(&mut self, t: &mut Tracer, op: &Op, frame: &[u8]) {
        t.span("lsp.edit", |t| {
            let msg = t.span("lsp.frame", |_| {
                read_message(&mut Cursor::new(frame)).expect("well-formed frame")
            });
            std::hint::black_box(&msg);
            let diags = match op.kind {
                Kind::Close => {
                    self.sessions.remove(&op.doc);
                    Json::Arr(Vec::new())
                }
                Kind::Open => {
                    self.sessions.remove(&op.doc);
                    let key = self.key(&op.text, false);
                    match t.span("daemon.cache", |_| self.cache.get(&key)) {
                        Some(entry) => entry
                            .body
                            .get("diagnostics")
                            .cloned()
                            .unwrap_or(Json::Arr(Vec::new())),
                        None => self.analyze(t, op.doc, &op.text),
                    }
                }
                Kind::Change => self.analyze(t, op.doc, &op.text),
            };
            t.span("lsp.frame", |_| {
                let publish = Json::Obj(vec![
                    ("jsonrpc".into(), Json::Str("2.0".into())),
                    (
                        "method".into(),
                        Json::Str("textDocument/publishDiagnostics".into()),
                    ),
                    (
                        "params".into(),
                        Json::Obj(vec![
                            ("uri".into(), Json::Str(op.uri())),
                            ("diagnostics".into(), diags),
                        ]),
                    ),
                ]);
                write_message(&mut std::io::sink(), &publish);
            });
        });
    }

    fn summaries(&self) -> usize {
        self.sessions.values().map(IncrSession::summary_count).sum()
    }
}

impl Drop for Mirror {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn run_traced(seed: u64, seconds: f64) -> RunResult {
    // Counted pass: a fresh server, one round of messages.
    let mut runs = 0;
    let (counts, repeated) = common::counted_twice(shoal_relang::memo_flush, || {
        runs += 1;
        let mut editor = Editor::new(seed);
        let mut session = open_session(&editor, 100 + runs);
        let mut input = Vec::new();
        for (i, op) in editor.by_ref().take(ROUND as usize).enumerate() {
            input.extend(op.frame(i as u64 + 1));
        }
        session.server.serve(&mut Cursor::new(input));
    });

    let mut plain = Meter::default();
    let (tally, _) = replay(seed, seconds * 0.4, &mut plain, 200);
    let untraced_us = crate::mean_corrected_us(plain.finish());

    shoal_relang::memo_flush();
    let mut editor = Editor::new(seed);
    let mut mirror = Mirror::new(fresh_dir(300));
    let mut meter = Meter::default();
    let mut tracer = Tracer::default();
    for op in editor.opens() {
        mirror.handle(&mut Tracer::default(), &op, &op.frame(0));
    }
    let (mut ops, mut changes) = (0u64, 0u64);
    // One round: the messages of every untraced round and of the
    // counted pass, whose summary and fallback counts must repeat.
    for (i, op) in editor.by_ref().take(ROUND as usize).enumerate() {
        meter.tick();
        mirror.handle(&mut tracer, &op, &op.frame(i as u64 + 1));
        ops += u64::from(op.kind != Kind::Close);
        changes += u64::from(op.kind == Kind::Change);
    }
    let (summaries, resilient) = (mirror.summaries(), mirror.resilient_edits);
    meter.finish();
    let factor = kernel::NOMINAL_US / meter.kernel_median_us();
    let self_ms = tracer.self_times(factor);
    let self_of = |name: &str| self_ms.get(name).copied().unwrap_or((0.0, 0));
    // Mean self time per span of that name, and per message.
    let per_span = |name: &str| self_of(name).0 / self_of(name).1.max(1) as f64;
    let per_op = |name: &str| self_of(name).0 / ops as f64;
    let (edit_ms, _) = tracer.total_ms("lsp.edit", factor);
    let traced_us = (edit_ms - self_of("shparse").0) / ops as f64 * 1e3;

    let mut m = Vec::new();
    common::core_counts(&counts, &mut m);
    m.push((
        "core.exec_ms",
        mirror.exec_us as f64 * factor / 1e3 / changes as f64,
        "ms",
    ));
    m.push((
        "core.report_ms",
        mirror.report_us as f64 * factor / 1e3 / changes as f64,
        "ms",
    ));
    m.push(("shparse.parse_ms", per_span("shparse"), "ms"));
    common::relang_counts(&counts, &mut m);
    let (replayed, executed) = (
        common::count(&counts, "incr.replayed"),
        common::count(&counts, "incr.executed"),
    );
    m.push(("incr.replayed", replayed, "count"));
    m.push(("incr.executed", executed, "count"));
    m.push((
        "incr.replay_ratio",
        replayed / (replayed + executed).max(1.0),
        "ratio",
    ));
    m.push((
        "incr.full_fallbacks",
        common::count(&counts, "incr.fallback_full"),
        "count",
    ));
    m.push((
        "incr.relocations",
        common::count(&counts, "incr.relocated"),
        "count",
    ));
    m.push(("incr.summaries", summaries as f64, "count"));
    m.push(("incr.analyze_ms", per_span("core.incr"), "ms"));
    m.push(("lsp.resilient_edits", resilient as f64, "count"));
    m.push(("lsp.resilient_ms", per_span("lsp.resilient"), "ms"));
    m.push(("lsp.frame_ms", per_op("lsp.frame"), "ms"));
    m.push((
        "daemon.cache.hits",
        common::count(&counts, "daemon.cache_hit"),
        "count",
    ));
    m.push((
        "daemon.cache.misses",
        common::count(&counts, "daemon.cache_miss"),
        "count",
    ));
    m.push(("daemon.cache_ms", per_op("daemon.cache"), "ms"));
    crate::push_bench_metrics(
        &mut m,
        &meter,
        &plain,
        common::overhead_pct(traced_us, untraced_us),
    );
    crate::write_trace(&tracer, "edit_session", seed);
    RunResult {
        correct: repeated,
        attempted: tally.attempted(),
        failed: tally.failed(),
        metrics: m,
    }
}
