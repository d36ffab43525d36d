//! End-to-end LSP sessions over in-memory pipes: a full
//! initialize → didOpen → didChange → shutdown → exit conversation, a
//! cross-session warm start through the shared daemon cache, which
//! texts that cache receives, and the published frames byte for byte.
//!
//! Regenerate the golden frames after an intentional output change with
//! `UPDATE_GOLDEN=1 cargo test -p shoal-lsp --test session`.

use std::collections::BTreeSet;
use std::io::Cursor;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use shoal_core::AnalysisOptions;
use shoal_corpus::figures::{self, FIG1};
use shoal_daemon::cache::{cache_key, KeyParts};
use shoal_lsp::{read_message, write_message, Server};
use shoal_obs::json::Json;

/// A fresh scratch directory under the system temp dir (the workspace
/// has no tempfile dependency).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "shoal-lsp-test-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn frame(msgs: &[Json]) -> Vec<u8> {
    let mut buf = Vec::new();
    for m in msgs {
        write_message(&mut buf, m);
    }
    buf
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn req(id: f64, method: &str, params: Json) -> Json {
    obj(vec![
        ("jsonrpc", Json::Str("2.0".into())),
        ("id", Json::Num(id)),
        ("method", Json::Str(method.into())),
        ("params", params),
    ])
}

fn notif(method: &str, params: Json) -> Json {
    obj(vec![
        ("jsonrpc", Json::Str("2.0".into())),
        ("method", Json::Str(method.into())),
        ("params", params),
    ])
}

fn did_open(uri: &str, text: &str) -> Json {
    notif(
        "textDocument/didOpen",
        obj(vec![(
            "textDocument",
            obj(vec![
                ("uri", Json::Str(uri.into())),
                ("languageId", Json::Str("shellscript".into())),
                ("version", Json::Num(1.0)),
                ("text", Json::Str(text.into())),
            ]),
        )]),
    )
}

fn did_change(uri: &str, version: f64, text: &str) -> Json {
    notif(
        "textDocument/didChange",
        obj(vec![
            (
                "textDocument",
                obj(vec![("uri", Json::Str(uri.into())), ("version", Json::Num(version))]),
            ),
            (
                "contentChanges",
                Json::Arr(vec![obj(vec![("text", Json::Str(text.into()))])]),
            ),
        ]),
    )
}

fn did_close(uri: &str) -> Json {
    notif(
        "textDocument/didClose",
        obj(vec![("textDocument", obj(vec![("uri", Json::Str(uri.into()))]))]),
    )
}

/// The cache key the server files `text` under.
fn key(text: &str, resilient: bool) -> String {
    cache_key(&KeyParts {
        source: text,
        options: &AnalysisOptions::default(),
        resilient,
        spec_fingerprint: shoal_spec::SpecLibrary::builtin().fingerprint(),
        version: shoal_daemon::version(),
    })
}

/// The keys of the entries on disk under a cache directory.
fn disk_keys(dir: &Path) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for shard in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        for entry in std::fs::read_dir(shard.path()).into_iter().flatten().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(key) = name.strip_suffix(".json") {
                keys.insert(key.to_string());
            }
        }
    }
    keys
}

/// Reads every framed server→client message out of the captured output.
fn drain(out: Vec<u8>) -> Vec<Json> {
    let mut reader = Cursor::new(out);
    let mut msgs = Vec::new();
    while let Some(m) = read_message(&mut reader) {
        msgs.push(m);
    }
    msgs
}

fn publishes<'a>(msgs: &'a [Json], uri: &str) -> Vec<&'a Json> {
    msgs.iter()
        .filter(|m| {
            m.get("method").and_then(Json::as_str) == Some("textDocument/publishDiagnostics")
                && m.get("params")
                    .and_then(|p| p.get("uri"))
                    .and_then(Json::as_str)
                    == Some(uri)
        })
        .filter_map(|m| m.get("params").and_then(|p| p.get("diagnostics")))
        .collect()
}

fn codes(diags: &Json) -> Vec<String> {
    match diags {
        Json::Arr(items) => items
            .iter()
            .filter_map(|d| d.get("code").and_then(Json::as_str))
            .map(str::to_string)
            .collect(),
        _ => Vec::new(),
    }
}

#[test]
fn full_session_publishes_provenance_backed_diagnostics() {
    let uri = "file:///steam.sh";
    // A trailing edit that keeps the Fig. 1 bug: append a harmless
    // statement, exercising the incremental prefix-replay path.
    let edited = format!("{FIG1}echo done\n");
    let input = frame(&[
        req(1.0, "initialize", obj(vec![("capabilities", obj(vec![]))])),
        notif("initialized", obj(vec![])),
        did_open(uri, FIG1),
        did_change(uri, 2.0, &edited),
        req(2.0, "shutdown", Json::Null),
        notif("exit", Json::Null),
    ]);

    let mut out = Vec::new();
    let code = {
        let mut server = Server::new(&mut out, None);
        server.serve(&mut Cursor::new(input))
    };
    assert_eq!(code, 0, "orderly shutdown/exit exits 0");

    let msgs = drain(out);
    let init = msgs
        .iter()
        .find(|m| m.get("id").and_then(Json::as_f64) == Some(1.0))
        .expect("initialize response");
    assert_eq!(
        init.get("result")
            .and_then(|r| r.get("capabilities"))
            .and_then(|c| c.get("textDocumentSync"))
            .and_then(Json::as_f64),
        Some(1.0),
        "full-text document sync advertised"
    );

    let pubs = publishes(&msgs, uri);
    assert_eq!(pubs.len(), 2, "one publish per didOpen/didChange");
    for diags in &pubs {
        assert!(
            codes(diags).iter().any(|c| c == "dangerous-delete"),
            "Fig. 1 verdict survives the edit: {:?}",
            codes(diags)
        );
    }
    // The dangerous-delete diagnostic carries its constraint trail as
    // relatedInformation pointing back into the same document.
    let Json::Arr(items) = pubs[0] else { panic!("diagnostics array") };
    let dd = items
        .iter()
        .find(|d| d.get("code").and_then(Json::as_str) == Some("dangerous-delete"))
        .expect("dangerous-delete diagnostic");
    let related = dd.get("relatedInformation").expect("relatedInformation present");
    let Json::Arr(related) = related else { panic!("relatedInformation array") };
    assert!(!related.is_empty());
    for r in related {
        assert_eq!(
            r.get("location").and_then(|l| l.get("uri")).and_then(Json::as_str),
            Some(uri)
        );
        assert!(r.get("message").and_then(Json::as_str).is_some());
    }
    assert_eq!(
        dd.get("severity").and_then(Json::as_f64),
        Some(1.0),
        "errors map to LSP severity 1"
    );
}

#[test]
fn mid_edit_documents_still_get_diagnostics() {
    let uri = "file:///broken.sh";
    // An unterminated quote: the incremental engine cannot parse it, so
    // the server falls back to resilient cold analysis.
    let broken = "rm -rf \"$1\nif then fi\n";
    let input = frame(&[
        req(1.0, "initialize", obj(vec![])),
        did_open(uri, broken),
        req(2.0, "shutdown", Json::Null),
        notif("exit", Json::Null),
    ]);
    let mut out = Vec::new();
    let code = {
        let mut server = Server::new(&mut out, None);
        server.serve(&mut Cursor::new(input))
    };
    assert_eq!(code, 0);
    let msgs = drain(out);
    let pubs = publishes(&msgs, uri);
    assert_eq!(pubs.len(), 1, "a non-parsing document still publishes");
}

#[test]
fn unknown_requests_get_method_not_found() {
    let input = frame(&[
        req(1.0, "initialize", obj(vec![])),
        req(7.0, "textDocument/definition", obj(vec![])),
        req(2.0, "shutdown", Json::Null),
        notif("exit", Json::Null),
    ]);
    let mut out = Vec::new();
    Server::new(&mut out, None).serve(&mut Cursor::new(input));
    let msgs = drain(out);
    let err = msgs
        .iter()
        .find(|m| m.get("id").and_then(Json::as_f64) == Some(7.0))
        .expect("error response");
    assert_eq!(
        err.get("error").and_then(|e| e.get("code")).and_then(Json::as_f64),
        Some(-32601.0)
    );
}

#[test]
fn exit_without_shutdown_is_an_error_exit() {
    let input = frame(&[req(1.0, "initialize", obj(vec![])), notif("exit", Json::Null)]);
    let mut out = Vec::new();
    let code = Server::new(&mut out, None).serve(&mut Cursor::new(input));
    assert_eq!(code, 1);
}

#[test]
fn edits_reach_the_cache_only_when_the_document_closes() {
    let dir = scratch_dir("persist");
    let uri = "file:///fig1.sh";
    let edits: Vec<String> = (1..=4).map(|i| format!("{FIG1}echo {i}\n")).collect();
    let last = edits.last().unwrap().as_str();

    let mut out = Vec::new();
    let mut server = Server::new(&mut out, Some(dir.clone()));
    let mut input = vec![req(1.0, "initialize", obj(vec![])), did_open(uri, FIG1)];
    for (i, text) in edits.iter().enumerate() {
        input.push(did_change(uri, i as f64 + 2.0, text));
    }
    server.serve(&mut Cursor::new(frame(&input)));
    assert_eq!(
        disk_keys(&dir),
        BTreeSet::from([key(FIG1, false)]),
        "edits write nothing: the opened text's entry is the only one"
    );
    server.serve(&mut Cursor::new(frame(&[did_close(uri)])));
    assert_eq!(
        disk_keys(&dir),
        BTreeSet::from([key(FIG1, false), key(last, false)]),
        "didClose writes the final text's entry"
    );
    drop(server);
    let msgs = drain(out);
    let pubs = publishes(&msgs, uri);
    assert_eq!(pubs.len(), edits.len() + 2, "didOpen, each didChange, and didClose publish");
    assert_eq!(pubs[pubs.len() - 1].to_text(), "[]", "didClose clears the diagnostics");
    let edited = pubs[pubs.len() - 2].to_text();

    // A second server opening the final text publishes from the entry
    // written at close: a hit leaves the file as it was.
    let path = dir.join(&key(last, false)[..2]).join(format!("{}.json", key(last, false)));
    let inode = std::fs::metadata(&path).expect("the closed text's entry").ino();
    let mut warm_out = Vec::new();
    Server::new(&mut warm_out, Some(dir.clone()))
        .serve(&mut Cursor::new(frame(&[did_open(uri, last)])));
    assert_eq!(std::fs::metadata(&path).unwrap().ino(), inode, "the entry is not rewritten");
    let warm = publishes(&drain(warm_out), uri)[0].to_text();
    assert_eq!(warm, edited, "the cached verdict is byte-identical to the live one");
    assert!(warm.contains("dangerous-delete"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_writes_the_entries_of_edited_open_documents() {
    let dir = scratch_dir("shutdown");
    let edited = format!("{FIG1}echo done\n");
    let broken = "rm -rf \"$1\nif then fi\n";
    let input = frame(&[
        req(1.0, "initialize", obj(vec![])),
        did_open("file:///edited.sh", FIG1),
        did_change("file:///edited.sh", 2.0, &edited),
        did_open("file:///broken.sh", "echo ok\n"),
        did_change("file:///broken.sh", 2.0, broken),
        did_open("file:///clean.sh", "echo clean\n"),
        req(2.0, "shutdown", Json::Null),
        notif("exit", Json::Null),
    ]);
    let code = Server::new(&mut Vec::new(), Some(dir.clone())).serve(&mut Cursor::new(input));
    assert_eq!(code, 0);
    assert_eq!(
        disk_keys(&dir),
        BTreeSet::from([
            key(FIG1, false),
            key(&edited, false),
            key("echo ok\n", false),
            // A text that does not parse is filed under the resilient key.
            key(broken, true),
            key("echo clean\n", false),
        ])
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A script whose report exercises every corner of the frame writer: a
/// synthetic-span note (the malformed `#@` annotation on line 1),
/// messages and trail entries holding `"`, `\`, a tab, a control byte
/// and non-ASCII text, and trail entries at line 0 (the `${0%/*}`
/// affix split), which must not become `relatedInformation`.
const ESCAPES: &str = "#@ var X missing-colon\n\
STEAMROOT=\"$(cd \"${0%/*}\" && echo $PWD)\"\n\
rm -fr \"$STEAMROOT\"/*\n\
rm -r \"/tmp/a\\\"b\\\\c\td\u{1}e\"\n\
cat \"/tmp/a\\\"b\\\\c\td\u{1}e\"/config\n";

/// Splits captured server output into its raw frames, headers included.
fn raw_frames(out: &[u8]) -> Vec<&[u8]> {
    let mut frames = Vec::new();
    let mut rest = out;
    while !rest.is_empty() {
        let header_end = rest
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("a header ends every frame")
            + 4;
        let header = std::str::from_utf8(&rest[..header_end]).expect("an ASCII header");
        let len: usize = header
            .trim_end()
            .strip_prefix("Content-Length: ")
            .and_then(|v| v.parse().ok())
            .expect("a Content-Length header");
        frames.push(&rest[..header_end + len]);
        rest = &rest[header_end + len..];
    }
    frames
}

/// The raw `publishDiagnostics` frames in captured server output.
fn publish_frames(out: &[u8]) -> Vec<Vec<u8>> {
    raw_frames(out)
        .into_iter()
        .filter(|f| f.windows(18).any(|w| w == b"publishDiagnostics"))
        .map(<[u8]>::to_vec)
        .collect()
}

/// Opens `text`, appends a statement, and closes the document: the
/// live open, the incremental change and the cleared close.
fn open_change_close(uri: &str, text: &str) -> Vec<u8> {
    let edited = format!("{text}echo done\n");
    let input = frame(&[
        req(1.0, "initialize", obj(vec![])),
        did_open(uri, text),
        did_change(uri, 2.0, &edited),
        did_close(uri),
        req(2.0, "shutdown", Json::Null),
        notif("exit", Json::Null),
    ]);
    let mut out = Vec::new();
    assert_eq!(Server::new(&mut out, None).serve(&mut Cursor::new(input)), 0);
    publish_frames(&out).concat()
}

fn check_golden(name: &str, actual: &[u8]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden {name}: {e} (run with UPDATE_GOLDEN=1)"));
    assert!(
        actual == expected,
        "{name} drifted from its golden; if intentional, regenerate with UPDATE_GOLDEN=1\n\
         actual:   {}\nexpected: {}",
        String::from_utf8_lossy(actual),
        String::from_utf8_lossy(&expected)
    );
}

#[test]
fn published_frames_match_their_goldens() {
    let escapes = open_change_close("file:///escapes.sh", ESCAPES);
    let text = String::from_utf8(escapes.clone()).expect("frames are UTF-8");
    for needle in [
        "\"range\":{\"start\":{\"line\":0,\"character\":0},\"end\":{\"line\":0,\"character\":0}}",
        "\\\"",
        "\\\\",
        "\\t",
        "\\u0001",
        "⟨$0⟩",
    ] {
        assert!(text.contains(needle), "the escapes session covers {needle}");
    }
    assert!(
        !text.contains("contains the pattern\"}"),
        "a line-0 trail entry never becomes relatedInformation"
    );
    check_golden("escapes.frames", &escapes);
    check_golden("fig1.frames", &open_change_close("file:///steam.sh", FIG1));
}

/// Every example script and paper figure.
fn all_scripts() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut scripts: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "sh"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("a readable example");
            (p.file_name().unwrap().to_string_lossy().into_owned(), text)
        })
        .collect();
    scripts.sort();
    assert!(!scripts.is_empty(), "examples/ holds shell scripts");
    scripts.extend(figures::all().into_iter().map(|(n, t)| (n.to_string(), t.to_string())));
    scripts
}

#[test]
fn warm_start_reuses_the_daemon_cache_across_servers() {
    for (name, text) in all_scripts() {
        // A fresh cache per script: two scripts with the same text must
        // not turn the first open of the second into a hit.
        let dir = scratch_dir("warm-all");
        let uri = format!("file:///{name}");
        let open_once = || {
            let mut out = Vec::new();
            Server::new(&mut out, Some(dir.clone()))
                .serve(&mut Cursor::new(frame(&[did_open(&uri, &text)])));
            publish_frames(&out)
        };
        let live = open_once();
        let k = key(&text, false);
        let path = dir.join(&k[..2]).join(format!("{k}.json"));
        let inode = std::fs::metadata(&path).expect("the live open is cached").ino();
        let warm = open_once();
        assert_eq!(std::fs::metadata(&path).unwrap().ino(), inode, "{name}: the second open hits");
        assert_eq!(live.len(), 1, "{name}: one publish per open");
        assert!(warm == live, "{name}: the cached open publishes the live bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
