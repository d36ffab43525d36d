//! shoal-lsp: a language server over the incremental analysis engine.
//!
//! Implements the slice of the Language Server Protocol an editor needs
//! for live shell diagnostics — `initialize`, `textDocument/didOpen`,
//! `textDocument/didChange` (full-text sync), `textDocument/didClose`,
//! `shutdown`/`exit` — speaking JSON-RPC 2.0 over stdio with
//! `Content-Length` framing, built entirely on the crate's own JSON
//! layer (zero external dependencies, like the rest of the workspace).
//!
//! Analysis is the paper's JIT story made resident in the editor loop:
//!
//! * each open document owns a [`shoal_core::IncrSession`], so a
//!   keystroke re-executes only the dirty statement suffix and replays
//!   the statements above it from the previous version's checkpoints
//!   (byte-identical to cold analysis). The checkpoints an edit
//!   superseded are freed after its diagnostics are published;
//! * `didOpen` consults the JIT daemon's two-tier result cache (same
//!   content-addressed keys, same on-disk format) for a cross-session
//!   warm start, so the CLI, the daemon, and the editor share one
//!   verdict store. Only texts that can be opened again are written
//!   back: an opened text that missed (it is the file on disk), and a
//!   document's last edited text at `didClose` or `shutdown`. A
//!   `didChange` analyzes and publishes without touching the cache —
//!   its mid-edit text is never on disk, so no later lookup could hit
//!   it;
//! * published diagnostics carry provenance: each finding's typed
//!   constraint trail becomes LSP `relatedInformation`, pointing at the
//!   `if`/`case`/`test` sites whose assumptions produced the world that
//!   exhibits the bug;
//! * each `publishDiagnostics` frame is written in one pass, straight
//!   from the report's diagnostics into a reused text buffer: no JSON
//!   tree stands between the analysis and the editor. A warm open reads
//!   the cached `diag_json` array through the same writer, so a cached
//!   open and a fresh one publish the same bytes.
//!
//! Positions are byte-offset based (LSP `character` values count bytes,
//! not UTF-16 code units — exact for the ASCII that shell scripts
//! overwhelmingly are, and never worse than one column off otherwise).

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;

use shoal_core::{
    analyze_source_resilient, AnalysisOptions, AnalysisReport, Diagnostic, IncrSession,
};
use shoal_daemon::cache::{cache_key, KeyParts, ResultCache};
use shoal_obs::json::{self, Json};

/// Hot-tier capacity of the shared result cache while serving an
/// editor (per-document sessions do the real incremental work; the
/// result cache exists for cross-session warm starts).
const CACHE_HOT_CAPACITY: usize = 32;

/// One open document: its current full text, the incremental session
/// accumulated over its edit history, and the latest analysis the
/// result cache does not hold yet.
struct Document {
    text: String,
    version: Option<f64>,
    session: IncrSession,
    /// The report of the last analysis and whether it came from the
    /// resilient fallback; `None` once the cache holds the current text.
    unsaved: Option<(AnalysisReport, bool)>,
}

/// The server state behind one stdio connection.
pub struct Server<W: Write> {
    wire: Wire<W>,
    docs: HashMap<String, Document>,
    opts: AnalysisOptions,
    cache: Option<ResultCache>,
    spec_fingerprint: u64,
    shutdown_requested: bool,
    exit_code: Option<i32>,
}

impl<W: Write> Server<W> {
    /// A server writing responses/notifications to `out`, warm-starting
    /// from (and writing opened and closed texts back to) the daemon
    /// result cache rooted at `cache_dir` when given.
    pub fn new(out: W, cache_dir: Option<PathBuf>) -> Server<W> {
        Server {
            wire: Wire {
                out,
                frame: String::new(),
            },
            docs: HashMap::new(),
            opts: AnalysisOptions::default(),
            cache: cache_dir.map(|dir| ResultCache::new(CACHE_HOT_CAPACITY, Some(dir), None)),
            spec_fingerprint: shoal_spec::SpecLibrary::builtin().fingerprint(),
            shutdown_requested: false,
            exit_code: None,
        }
    }

    /// Serves one connection until `exit` or EOF; returns the process
    /// exit code (0 after an orderly `shutdown`/`exit`, 1 otherwise —
    /// the LSP contract).
    pub fn serve(&mut self, reader: &mut impl BufRead) -> i32 {
        while self.exit_code.is_none() {
            let Some(msg) = read_message(reader) else { break };
            self.handle(msg);
        }
        self.exit_code.unwrap_or(1)
    }

    /// Dispatches one message. It is taken by value so that a document's
    /// text moves out of it instead of being copied.
    fn handle(&mut self, mut msg: Json) {
        shoal_obs::counter_add("lsp.requests", 1);
        let id = msg.get("id").cloned();
        let mut params = take(&mut msg, "params");
        let method = msg.get("method").and_then(Json::as_str).unwrap_or("");
        match method {
            "initialize" => {
                let result = Json::Obj(vec![
                    (
                        "capabilities".into(),
                        Json::Obj(vec![
                            // 1 = full-text document sync.
                            ("textDocumentSync".into(), Json::Num(1.0)),
                        ]),
                    ),
                    (
                        "serverInfo".into(),
                        Json::Obj(vec![
                            ("name".into(), Json::Str("shoal-lsp".into())),
                            ("version".into(), Json::Str(shoal_daemon::version().into())),
                        ]),
                    ),
                ]);
                self.respond(id, result);
            }
            "initialized" => {}
            "shutdown" => {
                let uris: Vec<String> = self.docs.keys().cloned().collect();
                for uri in &uris {
                    self.persist(uri);
                }
                self.shutdown_requested = true;
                self.respond(id, Json::Null);
            }
            "exit" => {
                self.exit_code = Some(if self.shutdown_requested { 0 } else { 1 });
            }
            "textDocument/didOpen" => {
                let mut doc = take(&mut params, "textDocument");
                let uri = doc.get("uri").and_then(Json::as_str).unwrap_or("").to_string();
                let version = doc.get("version").and_then(Json::as_f64);
                let text = match take(&mut doc, "text") {
                    Json::Str(text) => text,
                    _ => String::new(),
                };
                if uri.is_empty() {
                    return;
                }
                self.docs.insert(
                    uri.clone(),
                    Document {
                        text,
                        version,
                        session: IncrSession::new(self.opts.clone()),
                        unsaved: None,
                    },
                );
                self.open_document(&uri);
            }
            "textDocument/didChange" => {
                // Full sync: the last change carries the whole text.
                let text = match take(&mut params, "contentChanges") {
                    Json::Arr(mut changes) => changes.pop().map(|mut c| take(&mut c, "text")),
                    _ => None,
                };
                let doc = params.get("textDocument");
                let uri = doc.and_then(|t| t.get("uri")).and_then(Json::as_str).unwrap_or("");
                let version = doc.and_then(|t| t.get("version")).and_then(Json::as_f64);
                let (Some(Json::Str(text)), Some(doc)) = (text, self.docs.get_mut(uri)) else {
                    return;
                };
                doc.text = text;
                doc.version = version;
                let uri = uri.to_string();
                self.analyze_document(&uri);
            }
            "textDocument/didClose" => {
                let uri = params
                    .get("textDocument")
                    .and_then(|t| t.get("uri"))
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                self.persist(&uri);
                if self.docs.remove(&uri).is_some() {
                    // Clear our diagnostics for the closed document.
                    self.wire.publish(&uri, None, "", Diagnostics::Report(&[]));
                }
            }
            _ => {
                // Unknown *requests* get a MethodNotFound error;
                // unknown notifications are ignored (LSP contract).
                if let Some(id) = id {
                    self.error(id, -32601, &format!("method not found: {method}"));
                }
            }
        }
    }

    /// `didOpen`: try the shared result cache first (cross-session warm
    /// start — publishes the cached verdict without running the
    /// engine), then fall back to a fresh analysis, written back at
    /// once: the opened text is the file on disk, which `shoal jit` and
    /// later sessions look up.
    fn open_document(&mut self, uri: &str) {
        let Some(doc) = self.docs.get(uri) else { return };
        let key = self.key_for(&doc.text, false);
        if let Some(entry) = self.cache.as_mut().and_then(|c| c.get(&key)) {
            shoal_obs::counter_add("lsp.warm_hits", 1);
            let diags = match entry.body.get("diagnostics") {
                Some(Json::Arr(diags)) => diags.as_slice(),
                _ => &[],
            };
            self.wire.publish(uri, doc.version, &doc.text, Diagnostics::Cached(diags));
            return;
        }
        self.analyze_document(uri);
        self.persist(uri);
    }

    /// Runs the document's incremental session over its current text
    /// (resilient cold analysis when it does not parse — mid-edit
    /// documents still get diagnostics), keeps the report as the
    /// document's unsaved verdict, and publishes. Only then does the
    /// session free the checkpoints the edit superseded, so the frees
    /// do not delay the diagnostics.
    fn analyze_document(&mut self, uri: &str) {
        let Some(doc) = self.docs.get_mut(uri) else { return };
        let (report, resilient): (AnalysisReport, bool) = match doc.session.analyze(&doc.text) {
            Ok(report) => (report, false),
            Err(_) => (analyze_source_resilient(&doc.text, self.opts.clone()), true),
        };
        let diags = Diagnostics::Report(&report.diagnostics);
        self.wire.publish(uri, doc.version, &doc.text, diags);
        doc.unsaved = Some((report, resilient));
        doc.session.release();
    }

    /// Writes the document's unsaved verdict to the shared cache under
    /// the key of its current text (the resilient key for a text that
    /// does not parse); a no-op when the cache already holds that text.
    fn persist(&mut self, uri: &str) {
        let unsaved = self.docs.get_mut(uri).and_then(|d| d.unsaved.take());
        let Some((report, resilient)) = unsaved else { return };
        let key = self.key_for(&self.docs[uri].text, resilient);
        if let Some(cache) = self.cache.as_mut() {
            shoal_obs::counter_add("lsp.cache_writes", 1);
            cache.put(key, shoal_daemon::entry_from_report(&report));
        }
    }

    /// The daemon's content-addressed key for this text under the
    /// server's options — the session's report is byte-identical to a
    /// cold analysis, so editor, CLI, and daemon share entries.
    fn key_for(&self, text: &str, resilient: bool) -> String {
        cache_key(&KeyParts {
            source: text,
            options: &self.opts,
            resilient,
            spec_fingerprint: self.spec_fingerprint,
            version: shoal_daemon::version(),
        })
    }

    fn respond(&mut self, id: Option<Json>, result: Json) {
        let msg = Json::Obj(vec![
            ("jsonrpc".into(), Json::Str("2.0".into())),
            ("id".into(), id.unwrap_or(Json::Null)),
            ("result".into(), result),
        ]);
        self.wire.send(&msg);
    }

    fn error(&mut self, id: Json, code: i64, message: &str) {
        let msg = Json::Obj(vec![
            ("jsonrpc".into(), Json::Str("2.0".into())),
            ("id".into(), id),
            (
                "error".into(),
                Json::Obj(vec![
                    ("code".into(), Json::Num(code as f64)),
                    ("message".into(), Json::Str(message.into())),
                ]),
            ),
        ]);
        self.wire.send(&msg);
    }
}

/// Removes `key`'s value from an object, leaving `null` in its place
/// (`null` when there is no such key).
fn take(json: &mut Json, key: &str) -> Json {
    match json {
        Json::Obj(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| std::mem::replace(v, Json::Null))
            .unwrap_or(Json::Null),
        _ => Json::Null,
    }
}

/// Serves LSP over stdin/stdout with the default shared cache
/// directory; the `shoal lsp` entry point.
pub fn run_stdio() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut server = Server::new(stdout.lock(), Some(shoal_daemon::default_cache_dir()));
    let mut reader = stdin.lock();
    server.serve(&mut reader)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Reads one `Content-Length`-framed JSON-RPC message; `None` on EOF or
/// malformed framing (the connection is unrecoverable either way).
pub fn read_message(reader: &mut impl BufRead) -> Option<Json> {
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .strip_prefix("Content-Length:")
            .or_else(|| line.strip_prefix("content-length:"))
        {
            content_length = v.trim().parse().ok();
        }
        // Content-Type headers are read and ignored.
    }
    let len = content_length?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).ok()?;
    let text = String::from_utf8(body).ok()?;
    Json::parse(&text).ok()
}

/// Writes one framed message.
pub fn write_message(out: &mut impl Write, msg: &Json) {
    write_frame(out, &msg.to_text());
}

/// Writes `body` behind its `Content-Length` header and flushes.
fn write_frame(out: &mut impl Write, body: &str) {
    let _ = write!(out, "Content-Length: {}\r\n\r\n", body.len());
    let _ = out.write_all(body.as_bytes());
    let _ = out.flush();
}

/// The server's output stream and the buffer each frame is written
/// into before it is sent (reused, so a frame costs no allocation once
/// the buffer has grown to the largest frame so far).
struct Wire<W> {
    out: W,
    frame: String,
}

impl<W: Write> Wire<W> {
    fn send(&mut self, msg: &Json) {
        self.frame.clear();
        msg.write(&mut self.frame);
        write_frame(&mut self.out, &self.frame);
    }

    /// Writes and sends one `publishDiagnostics` notification for the
    /// document `uri`, whose current text is `text`.
    fn publish(&mut self, uri: &str, version: Option<f64>, text: &str, diags: Diagnostics<'_>) {
        shoal_obs::counter_add("lsp.publishes", 1);
        let mut doc = DocFrame {
            starts: line_starts(text),
            uri: String::new(),
        };
        json::write_str(uri, &mut doc.uri);
        let out = &mut self.frame;
        out.clear();
        out.push_str(r#"{"jsonrpc":"2.0","method":"textDocument/publishDiagnostics""#);
        out.push_str(r#","params":{"uri":"#);
        out.push_str(&doc.uri);
        if let Some(v) = version {
            out.push_str(r#","version":"#);
            json::write_num(v, out);
        }
        out.push_str(r#","diagnostics":["#);
        match diags {
            Diagnostics::Report(diags) => doc.write_all(out, diags.iter().map(report_view)),
            Diagnostics::Cached(diags) => doc.write_all(out, diags.iter().map(cached_view)),
        }
        out.push_str("]}}");
        write_frame(&mut self.out, &self.frame);
    }
}

// ---------------------------------------------------------------------------
// Diagnostic conversion
// ---------------------------------------------------------------------------

/// Where a frame's diagnostics come from: a live report, or the
/// `diag_json` array a result-cache entry stores.
enum Diagnostics<'a> {
    Report(&'a [Diagnostic]),
    Cached(&'a [Json]),
}

/// A shoal span: byte offsets and 1-based line.
#[derive(Clone, Copy)]
struct SpanView {
    start: usize,
    end: usize,
    line: usize,
}

/// What the writer reads of one diagnostic, borrowed from either source.
struct DiagView<'a, T> {
    span: SpanView,
    severity: &'a str,
    code: &'a str,
    message: &'a str,
    /// The provenance trail (empty without provenance).
    trail: T,
}

/// What the writer reads of one provenance trail entry.
struct TrailView<'a> {
    kind: &'a str,
    span: SpanView,
    what: &'a str,
}

fn report_view(d: &Diagnostic) -> DiagView<'_, impl Iterator<Item = TrailView<'_>>> {
    DiagView {
        span: SpanView {
            start: d.span.start,
            end: d.span.end,
            line: d.span.line as usize,
        },
        severity: d.severity.as_str(),
        code: d.code.as_str(),
        message: &d.message,
        trail: d.provenance.iter().flat_map(|p| p.trail.iter()).map(|t| TrailView {
            kind: t.kind.as_str(),
            span: SpanView {
                start: t.span.start,
                end: t.span.end,
                line: t.span.line as usize,
            },
            what: &t.what,
        }),
    }
}

/// A view of one cached `diag_json` object (a missing field reads as
/// `note`, empty or 0).
fn cached_view(d: &Json) -> DiagView<'_, impl Iterator<Item = TrailView<'_>>> {
    fn str_at<'a>(j: &'a Json, key: &str) -> Option<&'a str> {
        j.get(key).and_then(Json::as_str)
    }
    fn span_at(j: &Json) -> SpanView {
        let at = |key| j.get("span").and_then(|s| s.get(key)).and_then(Json::as_u64).unwrap_or(0);
        SpanView {
            start: at("start") as usize,
            end: at("end") as usize,
            line: at("line") as usize,
        }
    }
    let trail = match d.get("provenance").and_then(|p| p.get("trail")) {
        Some(Json::Arr(trail)) => trail.as_slice(),
        _ => &[],
    };
    DiagView {
        span: span_at(d),
        severity: str_at(d, "severity").unwrap_or("note"),
        code: str_at(d, "code").unwrap_or(""),
        message: str_at(d, "message").unwrap_or(""),
        trail: trail.iter().map(|t| TrailView {
            kind: str_at(t, "kind").unwrap_or("fact"),
            span: span_at(t),
            what: str_at(t, "what").unwrap_or(""),
        }),
    }
}

/// The per-publish context: the document's line table and its URI,
/// already quoted for the frame.
struct DocFrame {
    starts: Vec<usize>,
    uri: String,
}

impl DocFrame {
    /// Writes the diagnostics as the elements of the LSP array.
    fn write_all<'a, T>(&self, out: &mut String, diags: impl Iterator<Item = DiagView<'a, T>>)
    where
        T: Iterator<Item = TrailView<'a>>,
    {
        for (i, d) in diags.enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.write_diagnostic(out, d);
        }
    }

    fn write_diagnostic<'a, T>(&self, out: &mut String, d: DiagView<'a, T>)
    where
        T: Iterator<Item = TrailView<'a>>,
    {
        out.push_str(r#"{"range":"#);
        self.write_range(out, d.span);
        out.push_str(match d.severity {
            "error" => r#","severity":1,"code":"#,
            "warning" => r#","severity":2,"code":"#,
            _ => r#","severity":3,"code":"#,
        });
        json::write_str(d.code, out);
        out.push_str(r#","source":"shoal","message":"#);
        json::write_str(d.message, out);
        // Provenance trail → relatedInformation: each typed constraint
        // of the witnessing world's path condition, at the site where
        // it was assumed. Entries with no site (line 0) are left out.
        let mut related = false;
        for t in d.trail.filter(|t| t.span.line > 0) {
            out.push_str(if related { "," } else { r#","relatedInformation":["# });
            related = true;
            out.push_str(r#"{"location":{"uri":"#);
            out.push_str(&self.uri);
            out.push_str(r#","range":"#);
            self.write_range(out, t.span);
            out.push_str(r#"},"message":""#);
            json::write_escaped(t.kind, out);
            out.push_str(": ");
            json::write_escaped(t.what, out);
            out.push_str("\"}");
        }
        if related {
            out.push(']');
        }
        out.push('}');
    }

    /// An LSP range. Synthetic spans (`start == end == 0`) map to the
    /// start of their line, or of the file when the line is 0 too.
    fn write_range(&self, out: &mut String, span: SpanView) {
        let (from, to) = if span.start == 0 && span.end == 0 {
            let l = span.line.saturating_sub(1);
            ((l, 0), (l, 0))
        } else {
            (position(&self.starts, span.start), position(&self.starts, span.end))
        };
        out.push_str(r#"{"start":"#);
        write_position(out, from);
        out.push_str(r#","end":"#);
        write_position(out, to);
        out.push('}');
    }
}

/// Byte offsets of each line start; the span → LSP position table.
fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// 0-based (line, character) of a byte offset.
fn position(starts: &[usize], offset: usize) -> (usize, usize) {
    let line = match starts.binary_search(&offset) {
        Ok(i) => i,
        Err(i) => i.saturating_sub(1),
    };
    (line, offset - starts[line])
}

fn write_position(out: &mut String, (line, character): (usize, usize)) {
    out.push_str(r#"{"line":"#);
    json::write_uint(line as u64, out);
    out.push_str(r#","character":"#);
    json::write_uint(character as u64, out);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_round_trips() {
        let msg = Json::Obj(vec![
            ("jsonrpc".into(), Json::Str("2.0".into())),
            ("method".into(), Json::Str("exit".into())),
        ]);
        let mut buf = Vec::new();
        write_message(&mut buf, &msg);
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("Content-Length: "));
        let mut reader = std::io::Cursor::new(buf);
        let back = read_message(&mut reader).expect("one message");
        assert_eq!(back.get("method").and_then(Json::as_str), Some("exit"));
        assert!(read_message(&mut reader).is_none(), "EOF after one message");
    }

    #[test]
    fn positions_are_zero_based_line_and_byte_column() {
        let starts = line_starts("ab\ncd\n");
        assert_eq!(position(&starts, 0), (0, 0));
        assert_eq!(position(&starts, 2), (0, 2));
        assert_eq!(position(&starts, 3), (1, 0));
        assert_eq!(position(&starts, 4), (1, 1));
    }
}
