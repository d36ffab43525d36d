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
//!   exhibits the bug.
//!
//! Positions are byte-offset based (LSP `character` values count bytes,
//! not UTF-16 code units — exact for the ASCII that shell scripts
//! overwhelmingly are, and never worse than one column off otherwise).

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;

use shoal_core::provenance::diag_json;
use shoal_core::{analyze_source_resilient, AnalysisOptions, AnalysisReport, IncrSession};
use shoal_daemon::cache::{cache_key, KeyParts, ResultCache};
use shoal_obs::json::Json;

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
    out: W,
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
            out,
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
            self.handle(&msg);
        }
        self.exit_code.unwrap_or(1)
    }

    fn handle(&mut self, msg: &Json) {
        shoal_obs::counter_add("lsp.requests", 1);
        let method = msg.get("method").and_then(Json::as_str).unwrap_or("");
        let id = msg.get("id").cloned();
        let params = msg.get("params").cloned().unwrap_or(Json::Null);
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
                let doc = params.get("textDocument").cloned().unwrap_or(Json::Null);
                let uri = doc.get("uri").and_then(Json::as_str).unwrap_or("").to_string();
                let text = doc.get("text").and_then(Json::as_str).unwrap_or("").to_string();
                let version = doc.get("version").and_then(Json::as_f64);
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
                let uri = params
                    .get("textDocument")
                    .and_then(|t| t.get("uri"))
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let version = params
                    .get("textDocument")
                    .and_then(|t| t.get("version"))
                    .and_then(Json::as_f64);
                // Full sync: the last change carries the whole text.
                let text = match params.get("contentChanges") {
                    Some(Json::Arr(changes)) => changes
                        .last()
                        .and_then(|c| c.get("text"))
                        .and_then(Json::as_str)
                        .map(str::to_string),
                    _ => None,
                };
                let (Some(text), Some(doc)) = (text, self.docs.get_mut(&uri)) else { return };
                doc.text = text;
                doc.version = version;
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
                    let version = None;
                    self.publish(&uri, version, Json::Arr(Vec::new()));
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
            let diags = entry
                .body
                .get("diagnostics")
                .cloned()
                .unwrap_or(Json::Arr(Vec::new()));
            let (version, lsp) = {
                let doc = &self.docs[uri];
                (doc.version, lsp_diagnostics(&diags, &doc.text, uri))
            };
            self.publish(uri, version, lsp);
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
        let diags = Json::Arr(report.diagnostics.iter().map(diag_json).collect());
        let (version, lsp) = (doc.version, lsp_diagnostics(&diags, &doc.text, uri));
        doc.unsaved = Some((report, resilient));
        self.publish(uri, version, lsp);
        if let Some(doc) = self.docs.get_mut(uri) {
            doc.session.release();
        }
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

    fn publish(&mut self, uri: &str, version: Option<f64>, diagnostics: Json) {
        shoal_obs::counter_add("lsp.publishes", 1);
        let mut params = vec![("uri".into(), Json::Str(uri.into()))];
        if let Some(v) = version {
            params.push(("version".into(), Json::Num(v)));
        }
        params.push(("diagnostics".into(), diagnostics));
        self.notify("textDocument/publishDiagnostics", Json::Obj(params));
    }

    fn respond(&mut self, id: Option<Json>, result: Json) {
        let msg = Json::Obj(vec![
            ("jsonrpc".into(), Json::Str("2.0".into())),
            ("id".into(), id.unwrap_or(Json::Null)),
            ("result".into(), result),
        ]);
        write_message(&mut self.out, &msg);
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
        write_message(&mut self.out, &msg);
    }

    fn notify(&mut self, method: &str, params: Json) {
        let msg = Json::Obj(vec![
            ("jsonrpc".into(), Json::Str("2.0".into())),
            ("method".into(), Json::Str(method.into())),
            ("params".into(), params),
        ]);
        write_message(&mut self.out, &msg);
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
    let body = msg.to_text();
    let _ = write!(out, "Content-Length: {}\r\n\r\n{}", body.len(), body);
    let _ = out.flush();
}

// ---------------------------------------------------------------------------
// Diagnostic conversion
// ---------------------------------------------------------------------------

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

fn position_json(line: usize, character: usize) -> Json {
    Json::Obj(vec![
        ("line".into(), Json::Num(line as f64)),
        ("character".into(), Json::Num(character as f64)),
    ])
}

/// An LSP range from a shoal span JSON (`{start, end, line}` byte
/// offsets / 1-based line). Synthetic spans (`start == end == 0`) map
/// to the start of their line, or of the file when the line is 0 too.
fn range_json(span: &Json, starts: &[usize]) -> Json {
    let start = span.get("start").and_then(Json::as_u64).unwrap_or(0) as usize;
    let end = span.get("end").and_then(Json::as_u64).unwrap_or(0) as usize;
    let line = span.get("line").and_then(Json::as_u64).unwrap_or(0) as usize;
    let (from, to) = if start == 0 && end == 0 {
        let l = line.saturating_sub(1);
        ((l, 0), (l, 0))
    } else {
        (position(starts, start), position(starts, end))
    };
    Json::Obj(vec![
        ("start".into(), position_json(from.0, from.1)),
        ("end".into(), position_json(to.0, to.1)),
    ])
}

/// Converts a shoal diagnostics array (the `diag_json` shape — also the
/// shape stored in daemon cache entries) into LSP diagnostics. One
/// converter serves both the live path and the warm-start path, so a
/// cached open and a fresh open publish byte-identical payloads.
fn lsp_diagnostics(diags: &Json, text: &str, uri: &str) -> Json {
    let starts = line_starts(text);
    let Json::Arr(items) = diags else { return Json::Arr(Vec::new()) };
    let out = items
        .iter()
        .map(|d| {
            let severity = match d.get("severity").and_then(Json::as_str).unwrap_or("note") {
                "error" => 1.0,
                "warning" => 2.0,
                _ => 3.0,
            };
            let span = d.get("span").cloned().unwrap_or(Json::Null);
            let mut fields = vec![
                ("range".into(), range_json(&span, &starts)),
                ("severity".into(), Json::Num(severity)),
                (
                    "code".into(),
                    Json::Str(d.get("code").and_then(Json::as_str).unwrap_or("").into()),
                ),
                ("source".into(), Json::Str("shoal".into())),
                (
                    "message".into(),
                    Json::Str(d.get("message").and_then(Json::as_str).unwrap_or("").into()),
                ),
            ];
            // Provenance trail → relatedInformation: each typed
            // constraint of the witnessing world's path condition, at
            // the site where it was assumed.
            if let Some(Json::Arr(trail)) = d.get("provenance").and_then(|p| p.get("trail")) {
                let related: Vec<Json> = trail
                    .iter()
                    .filter(|t| {
                        t.get("span")
                            .and_then(|s| s.get("line"))
                            .and_then(Json::as_u64)
                            .unwrap_or(0)
                            > 0
                    })
                    .map(|t| {
                        let tspan = t.get("span").cloned().unwrap_or(Json::Null);
                        let kind = t.get("kind").and_then(Json::as_str).unwrap_or("fact");
                        let what = t.get("what").and_then(Json::as_str).unwrap_or("");
                        Json::Obj(vec![
                            (
                                "location".into(),
                                Json::Obj(vec![
                                    ("uri".into(), Json::Str(uri.into())),
                                    ("range".into(), range_json(&tspan, &starts)),
                                ]),
                            ),
                            ("message".into(), Json::Str(format!("{kind}: {what}"))),
                        ])
                    })
                    .collect();
                if !related.is_empty() {
                    fields.push(("relatedInformation".into(), Json::Arr(related)));
                }
            }
            Json::Obj(fields)
        })
        .collect();
    Json::Arr(out)
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
