//! The editor behind `edit_session`: documents built from concatenated
//! corpus scripts, and an endless stream of full-text edits at a cursor
//! that moves to the next document after each retyped line (a few dozen
//! edits).
//!
//! Each cursor move retypes a corpus line one character at a time, with
//! the quotes and brackets an editor closes as they open, so the
//! document passes through non-parsing states (a dangling `|` or `>`)
//! that resolve when the line ends. On a fixed schedule the stream also
//! pastes script bodies, appends trailing lines, deletes lines to keep
//! each document near its size, and closes and reopens an unchanged
//! document (a warm hit in the result cache).

use std::collections::VecDeque;

use shoal_corpus::{generate_corpus, LabeledScript};
use shoal_obs::json::Json;
use shoal_obs::XorShift64;
use shoal_shparse::parse_script;

/// Corpus scripts per long document: roughly 135, 150 and 165 lines,
/// all past the length at which the engine at this writing reaches its
/// world cap whatever the seed draws. The session also has the paper's
/// Fig. 1 open, a short script the engine analyzes completely.
const DOC_SCRIPTS: [usize; 3] = [18, 20, 22];
/// Seed of the session's plan, which does not vary with `--seed`.
const PLAN_SEED: u64 = 0xED17_0000_0000_0002;
/// Every this many cursor moves, the move starts by closing and
/// reopening the document.
const REOPEN_EVERY: usize = 3;

/// What one message does to a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Open,
    Change,
    Close,
}

/// One message of the stream: its kind, document, and the document's
/// full text after it.
pub struct Op {
    pub kind: Kind,
    pub doc: usize,
    pub text: String,
}

impl Op {
    pub fn uri(&self) -> String {
        uri(self.doc)
    }

    /// The framed JSON-RPC message.
    pub fn frame(&self, version: u64) -> Vec<u8> {
        let doc = |with_text: bool| {
            let mut fields = vec![("uri".to_string(), Json::Str(self.uri()))];
            if with_text {
                fields.push(("languageId".into(), Json::Str("shellscript".into())));
                fields.push(("version".into(), Json::Num(version as f64)));
                fields.push(("text".into(), Json::Str(self.text.clone())));
            } else if self.kind == Kind::Change {
                fields.push(("version".into(), Json::Num(version as f64)));
            }
            Json::Obj(fields)
        };
        let params = match self.kind {
            Kind::Open => Json::Obj(vec![("textDocument".into(), doc(true))]),
            Kind::Close => Json::Obj(vec![("textDocument".into(), doc(false))]),
            Kind::Change => Json::Obj(vec![
                ("textDocument".into(), doc(false)),
                (
                    "contentChanges".into(),
                    Json::Arr(vec![Json::Obj(vec![(
                        "text".into(),
                        Json::Str(self.text.clone()),
                    )])]),
                ),
            ]),
        };
        let method = match self.kind {
            Kind::Open => "textDocument/didOpen",
            Kind::Change => "textDocument/didChange",
            Kind::Close => "textDocument/didClose",
        };
        frame(&Json::Obj(vec![
            ("jsonrpc".into(), Json::Str("2.0".into())),
            ("method".into(), Json::Str(method.into())),
            ("params".into(), params),
        ]))
    }
}

pub fn uri(doc: usize) -> String {
    format!("file:///bench/doc{doc}.sh")
}

/// Frames one JSON-RPC message the way an editor does.
pub fn frame(msg: &Json) -> Vec<u8> {
    let body = msg.to_text();
    format!("Content-Length: {}\r\n\r\n{}", body.len(), body).into_bytes()
}

/// The `initialize` request and `initialized` notification.
pub fn handshake() -> Vec<u8> {
    let mut out = frame(&Json::Obj(vec![
        ("jsonrpc".into(), Json::Str("2.0".into())),
        ("id".into(), Json::Num(1.0)),
        ("method".into(), Json::Str("initialize".into())),
        (
            "params".into(),
            Json::Obj(vec![("capabilities".into(), Json::Obj(vec![]))]),
        ),
    ]));
    out.extend(frame(&Json::Obj(vec![
        ("jsonrpc".into(), Json::Str("2.0".into())),
        ("method".into(), Json::Str("initialized".into())),
        ("params".into(), Json::Obj(vec![])),
    ])));
    out
}

struct Doc {
    lines: Vec<String>,
    /// Line count the size control keeps the document near.
    target: usize,
}

impl Doc {
    fn text(&self) -> String {
        let mut s = self.lines.join("\n");
        s.push('\n');
        s
    }
}

pub struct Editor {
    rng: XorShift64,
    docs: Vec<Doc>,
    /// Corpus lines that parse on their own, in a seeded order: what
    /// gets retyped, each in turn.
    pool: Vec<String>,
    /// Corpus script bodies, in a seeded order: what gets pasted.
    bodies: Vec<Vec<String>>,
    queue: VecDeque<Op>,
    /// Cursor moves so far; the next block edits document
    /// `block % docs.len()`.
    block: usize,
    /// Seeded start of the low-discrepancy sequence of cursor positions.
    phase: f64,
}

fn body(s: &LabeledScript) -> Vec<String> {
    s.script
        .lines()
        .filter(|l| !l.starts_with("#!"))
        .map(str::to_string)
        .collect()
}

fn parses(lines: &[String]) -> bool {
    parse_script(&(lines.join("\n") + "\n")).is_ok()
}

/// The states a line passes through as it is typed one character at a
/// time in an editor that closes quotes and brackets as they open:
/// typing an opener inserts its closer after the cursor, and typing a
/// closer that is already there steps over it.
fn typing(line: &str) -> Vec<String> {
    let mut typed = String::new();
    let mut closers: Vec<char> = Vec::new();
    let mut states = Vec::new();
    for c in line.chars() {
        typed.push(c);
        if closers.last() == Some(&c) {
            closers.pop();
        } else if let Some(close) = match c {
            '"' | '\'' => Some(c),
            '(' => Some(')'),
            '[' => Some(']'),
            '{' => Some('}'),
            _ => None,
        } {
            closers.push(close);
        }
        states.push(typed.chars().chain(closers.iter().rev().copied()).collect());
    }
    if states.last().map(String::as_str) != Some(line) {
        states.push(line.to_string());
    }
    states
}

fn shuffle<T>(rng: &mut XorShift64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..i + 1));
    }
}

impl Editor {
    pub fn new(seed: u64) -> Editor {
        let corpus = generate_corpus(40, seed ^ 0xED17_5E55_1000_0001);
        // The seed draws the text; the plan (document offsets, line order,
        // cursor phase) is the same for every seed, so that seeds differ
        // in what is edited, not in how the session is shaped.
        let mut rng = XorShift64::seed_from_u64(PLAN_SEED);
        let mut bodies: Vec<Vec<String>> = corpus.iter().map(body).collect();
        let fig1: Vec<String> = shoal_corpus::figures::FIG1
            .lines()
            .map(str::to_string)
            .collect();
        let short = Doc {
            target: fig1.len(),
            lines: fig1,
        };
        let long = DOC_SCRIPTS.iter().map(|&k| {
            // Consecutive corpus scripts: the same mix of bug classes
            // in every document, whatever the seed.
            let mut lines = vec!["#!/bin/sh".to_string()];
            let start = rng.random_range(0..bodies.len());
            for body in bodies.iter().cycle().skip(start).take(k) {
                lines.extend(body.iter().cloned());
            }
            let target = lines.len();
            Doc { lines, target }
        });
        let docs = std::iter::once(short).chain(long).collect();
        let mut pool: Vec<String> = bodies
            .iter()
            .flatten()
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty() && parse_script(l).is_ok())
            .collect();
        pool.sort();
        pool.dedup();
        shuffle(&mut rng, &mut pool);
        shuffle(&mut rng, &mut bodies);
        let phase = rng.random_range(0..1 << 20) as f64 / f64::from(1 << 20);
        Editor {
            rng,
            docs,
            pool,
            bodies,
            queue: VecDeque::new(),
            block: 0,
            phase,
        }
    }

    /// `didOpen` of every document, as the session starts.
    pub fn opens(&self) -> Vec<Op> {
        (0..self.docs.len())
            .map(|doc| Op {
                kind: Kind::Open,
                doc,
                text: self.docs[doc].text(),
            })
            .collect()
    }

    fn change(&mut self, doc: usize) {
        self.queue.push_back(Op {
            kind: Kind::Change,
            doc,
            text: self.docs[doc].text(),
        });
    }

    /// Queues the messages of the next block: the cursor moves to the
    /// next document, retypes one corpus line there, and on a fixed
    /// schedule pastes a script body, appends a trailing line, or
    /// closes and reopens the document first. Deletions keep each
    /// document near its starting size.
    fn act(&mut self) {
        let b = self.block;
        self.block += 1;
        let doc = b % self.docs.len();
        let round = (b / self.docs.len()) as f64;
        // Cursor positions follow a golden-ratio sequence, so every run
        // spreads its edits evenly over each document.
        let at = (self.phase + round * 0.618_033_988_749_895).fract();
        let cursor = 1 + (at * (self.docs[doc].lines.len() - 1) as f64) as usize;

        if b % REOPEN_EVERY == REOPEN_EVERY - 1 {
            let text = self.docs[doc].text();
            self.queue.push_back(Op {
                kind: Kind::Close,
                doc,
                text: text.clone(),
            });
            self.queue.push_back(Op {
                kind: Kind::Open,
                doc,
                text,
            });
        }
        let line = self.pool[b % self.pool.len()].clone();
        self.docs[doc].lines.insert(cursor, String::new());
        for state in typing(&line) {
            self.docs[doc].lines[cursor] = state;
            self.change(doc);
        }
        match b % 4 {
            1 => {
                let body = self.bodies[(b / 4) % self.bodies.len()].clone();
                self.docs[doc].lines.splice(cursor + 1..cursor + 1, body);
                self.change(doc);
            }
            3 => {
                let line = self.pool[(b + self.pool.len() / 2) % self.pool.len()].clone();
                self.docs[doc].lines.push(line);
                self.change(doc);
            }
            _ => {}
        }
        let target = self.docs[doc].target;
        let band = (target / 10).max(3);
        let mut tries = 0;
        while self.docs[doc].lines.len() > target + band && tries < 64 {
            tries += 1;
            let len = self.docs[doc].lines.len();
            let n = 1 + self.rng.random_range(0..3);
            let at = 1 + self.rng.random_range(0..len - n);
            let mut lines = self.docs[doc].lines.clone();
            lines.drain(at..at + n);
            // Lines that open or close a compound command stay.
            if parses(&lines) {
                self.docs[doc].lines = lines;
                self.change(doc);
            }
        }
    }
}

impl Iterator for Editor {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        while self.queue.is_empty() {
            self.act();
        }
        self.queue.pop_front()
    }
}
