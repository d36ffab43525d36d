//! Provenance: *why* the analyzer believes each finding.
//!
//! The paper's pitch (§2) is that semantics-driven findings are
//! actionable because each one names the execution it arises on. This
//! module makes that claim first-class:
//!
//! * every explored world carries a stable [`WorldId`], assigned at the
//!   fork site that created it, and the engine records the **world
//!   tree** ([`WorldTree`]): parent/child edges, the fork site and the
//!   constraint added on each edge, and each world's final outcome
//!   (terminal, pruned as infeasible, dropped at an exploration cap, or
//!   merged into a same-state sibling);
//! * every constraint a world accumulates is a typed [`TrailEntry`]
//!   (kind + span + description), not a bare string;
//! * every diagnostic reported on a path carries a [`Provenance`]: the
//!   witness world's id plus its full trail at the moment of the report.
//!
//! On top sit the serializers: deterministic DOT and JSON export of the
//! tree (for corpus inspection of Figs. 1–3), a machine-readable JSON
//! report format, SARIF 2.1.0 with `codeFlows` mapping witness paths so
//! findings render in standard viewers, and [`explain_diag`], which
//! replays a witness path as a step-by-step narrative.
//!
//! The tree is the only record of exploration. Fork, prune, cap-drop
//! and merge counts are read off its nodes when something asks for
//! them (`--profile`, the `join` trace event, the tree JSON summary),
//! and while the recorder is on, node allocation and closing are the
//! only places that bump the `engine.{forks,pruned,cap_dropped,merged}`
//! counters and emit the per-node `fork`/`prune` trace events.
//!
//! Invariants (checked by `tests/provenance.rs` at the workspace root
//! and `crates/core/tests`):
//!
//! * IDs and the whole tree are stable under identical input — the
//!   engine explores deterministically, so two runs serialize
//!   byte-identically;
//! * every close produces exactly one leaf with its outcome (a world
//!   whose node already forked gets a synthetic `end` leaf), so after
//!   an analysis no leaf is still open and the number of
//!   [`WorldOutcome::Terminal`] leaves equals
//!   `AnalysisReport::terminal_worlds`;
//! * a fork is a node that adds a leaf, so
//!   `terminal = 1 + forks − pruned − cap_dropped − merged` holds by
//!   construction.

use crate::analyze::AnalysisReport;
use crate::diag::{DiagCode, Diagnostic, Severity};
use shoal_obs::json::Json;
use shoal_shparse::Span;
use std::fmt;
use std::sync::Arc;

/// Identifies one node of the world tree (dense, allocation order).
pub type WorldId = u32;

/// What kind of fact a trail entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrailKind {
    /// A control-flow decision (`if`/`while`/`&&`-branch taken).
    Branch,
    /// A refinement of a symbolic value (`case` match, `test` equality,
    /// parameter emptiness).
    Constraint,
    /// An assumption about the initial file system (`-d` checks, spec
    /// preconditions, `rm` existence).
    FsState,
    /// Precision loss: loop widening past the unrolling bound.
    Widen,
    /// A free-form assumption with no structured source.
    Assumption,
}

impl TrailKind {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            TrailKind::Branch => "branch",
            TrailKind::Constraint => "constraint",
            TrailKind::FsState => "fs-state",
            TrailKind::Widen => "widen",
            TrailKind::Assumption => "assumption",
        }
    }
}

impl fmt::Display for TrailKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One typed conjunct of a world's path condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrailEntry {
    /// What kind of fact this is.
    pub kind: TrailKind,
    /// Where in the script the fact was established (`line == 0` when
    /// the site had no span at hand).
    pub span: Span,
    /// Human-readable description of the conjunct.
    pub what: String,
}

impl TrailEntry {
    /// Creates an entry.
    pub fn new(kind: TrailKind, span: Span, what: impl Into<String>) -> TrailEntry {
        TrailEntry {
            kind,
            span,
            what: what.into(),
        }
    }
}

/// A world's path-condition trail: an append-only, structurally-shared
/// log of [`TrailEntry`] conjuncts.
///
/// Worlds fork constantly and report rarely, so the trail is a
/// [`shoal_obs::CowList`]: forking a world and attaching a trail to a
/// diagnostic are both O(1) pointer copies — the entries themselves are
/// shared between the parent world, its children, and every finding
/// reported along the way.
pub type Trail = shoal_obs::CowList<TrailEntry>;

/// The structured witness attached to a diagnostic: which world saw the
/// problem, and the constraint trail that world had accumulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// The witness world's id in the run's [`WorldTree`].
    pub world: WorldId,
    /// The witness world's trail at the moment of the report (shared
    /// with the world, not copied).
    pub trail: Trail,
}

/// How a world's exploration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldOutcome {
    /// Still live (interior fork nodes keep this).
    Open,
    /// Reached the end of the script.
    Terminal,
    /// Discarded as infeasible by constraint refinement.
    Pruned,
    /// Dropped when exploration hit `max_worlds`.
    CapDropped,
    /// Folded into a same-state sibling at a statement boundary (the
    /// sibling carries on, with this world's findings).
    Merged,
}

impl WorldOutcome {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            WorldOutcome::Open => "open",
            WorldOutcome::Terminal => "terminal",
            WorldOutcome::Pruned => "pruned",
            WorldOutcome::CapDropped => "cap-dropped",
            WorldOutcome::Merged => "merged",
        }
    }
}

/// One node of the explored world tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldNode {
    /// This node's id (its index in [`WorldTree::nodes`]).
    pub id: WorldId,
    /// The world this one forked from (`None` for the root).
    pub parent: Option<WorldId>,
    /// The primitive branch site that created it (`"if"`, `"case"`,
    /// `"cd"`, `"spec"`, …; `"root"`/`"end"` for synthetic nodes).
    pub site: &'static str,
    /// Source line of the fork site (0 when unknown).
    pub line: u32,
    /// The constraint this fork added to the child.
    pub constraint: String,
    /// How this world ended ([`WorldOutcome::Open`] for interior nodes).
    pub outcome: WorldOutcome,
    /// Child node ids, in creation order.
    pub children: Vec<WorldId>,
}

impl WorldNode {
    /// A live world that has not forked: a new child replaces it as a
    /// leaf, and closing it marks it in place.
    fn is_open_leaf(&self) -> bool {
        self.children.is_empty() && self.outcome == WorldOutcome::Open
    }
}

/// The tree of explored worlds for one analysis run.
///
/// Nodes live behind `Arc` so a copy of the tree (the incremental
/// engine keeps one from its last run next to the report it returned)
/// is a pointer-copy of the spine, not a deep clone of tens of
/// thousands of nodes; later in-place mutations (`close`, a parent
/// gaining a child, [`WorldTree::rewind`]) copy just the touched node
/// via `Arc::make_mut`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldTree {
    /// All nodes; index == id. Node 0 is the initial world.
    pub nodes: Vec<Arc<WorldNode>>,
}

impl Default for WorldTree {
    fn default() -> Self {
        WorldTree::new()
    }
}

impl WorldTree {
    /// A tree holding only the initial world.
    pub fn new() -> WorldTree {
        WorldTree {
            nodes: vec![Arc::new(WorldNode {
                id: 0,
                parent: None,
                site: "root",
                line: 0,
                constraint: String::new(),
                outcome: WorldOutcome::Open,
                children: Vec::new(),
            })],
        }
    }

    /// Appends a node under `parent`. While the recorder is on, this and
    /// [`WorldTree::close`] are the only places the exploration counters
    /// move: the node is a fork when it adds a leaf (its parent was not
    /// an open leaf it replaces), and a pruned node is a prune.
    fn alloc(
        &mut self,
        parent: WorldId,
        site: &'static str,
        line: u32,
        constraint: String,
        outcome: WorldOutcome,
    ) -> WorldId {
        shoal_obs::failpoint!("engine::fork");
        if shoal_obs::enabled() {
            if !self.nodes[parent as usize].is_open_leaf() {
                shoal_obs::counter_add("engine.forks", 1);
                shoal_obs::event!("fork", site = site, line = line, pc = constraint.as_str());
            }
            if outcome == WorldOutcome::Pruned {
                shoal_obs::counter_add("engine.pruned", 1);
                shoal_obs::event!("prune", site = site, line = line, pc = constraint.as_str());
            }
        }
        let id = self.nodes.len() as WorldId;
        self.nodes.push(Arc::new(WorldNode {
            id,
            parent: Some(parent),
            site,
            line,
            constraint,
            outcome,
            children: Vec::new(),
        }));
        Arc::make_mut(&mut self.nodes[parent as usize]).children.push(id);
        id
    }

    /// Records a surviving fork child of `parent` and returns its id.
    pub fn fork_child(
        &mut self,
        parent: WorldId,
        site: &'static str,
        line: u32,
        constraint: impl Into<String>,
    ) -> WorldId {
        self.alloc(parent, site, line, constraint.into(), WorldOutcome::Open)
    }

    /// Records a fork candidate discarded as infeasible.
    pub fn mark_pruned(
        &mut self,
        parent: WorldId,
        site: &'static str,
        line: u32,
        constraint: impl Into<String>,
    ) {
        self.alloc(parent, site, line, constraint.into(), WorldOutcome::Pruned);
    }

    /// Closes a live world with `outcome`. If the world's node already
    /// forked children (or was already closed), a synthetic leaf is
    /// appended instead, so every close produces exactly one leaf with
    /// that outcome.
    fn close(&mut self, id: WorldId, outcome: WorldOutcome) {
        match outcome {
            WorldOutcome::CapDropped => shoal_obs::counter_add("engine.cap_dropped", 1),
            WorldOutcome::Merged => shoal_obs::counter_add("engine.merged", 1),
            _ => {}
        }
        let node = &self.nodes[id as usize];
        if node.is_open_leaf() {
            Arc::make_mut(&mut self.nodes[id as usize]).outcome = outcome;
        } else {
            let line = node.line;
            self.alloc(id, "end", line, String::new(), outcome);
        }
    }

    /// Closes a world that reached the end of the script.
    pub fn mark_terminal(&mut self, id: WorldId) {
        self.close(id, WorldOutcome::Terminal);
    }

    /// Closes a world dropped at a `max_worlds` cap.
    pub fn mark_cap_dropped(&mut self, id: WorldId) {
        self.close(id, WorldOutcome::CapDropped);
    }

    /// Closes a world folded into a same-state sibling.
    pub fn mark_merged(&mut self, id: WorldId) {
        self.close(id, WorldOutcome::Merged);
    }

    /// Rewinds the tree to a statement boundary it passed with `len`
    /// nodes and the worlds `live` alive, and returns the nodes it cut
    /// (callers on a latency path free them later). Nodes are only
    /// appended, and a node below `len` changes after the boundary only
    /// when a world live there forks (its node gains children, whose
    /// ids are at least `len`) or closes (its node's outcome moves off
    /// [`WorldOutcome::Open`]). So dropping the appended nodes and
    /// reopening the live worlds' nodes restores the tree exactly.
    pub(crate) fn rewind(
        &mut self,
        len: usize,
        live: impl IntoIterator<Item = WorldId>,
    ) -> Vec<Arc<WorldNode>> {
        let cut = self.nodes.split_off(len);
        for id in live {
            let node = &self.nodes[id as usize];
            let keep = node.children.partition_point(|&c| (c as usize) < len);
            if keep < node.children.len() || node.outcome != WorldOutcome::Open {
                let node = Arc::make_mut(&mut self.nodes[id as usize]);
                node.children.truncate(keep);
                node.outcome = WorldOutcome::Open;
            }
        }
        cut
    }

    /// Number of nodes (including synthetic root/end nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    fn count(&self, outcome: WorldOutcome) -> usize {
        self.nodes.iter().filter(|n| n.outcome == outcome).count()
    }

    /// Worlds created beyond the first: the number of leaves (nodes
    /// that are childless or closed) minus one.
    pub fn forks(&self) -> usize {
        let leaves = self
            .nodes
            .iter()
            .filter(|n| n.children.is_empty() || n.outcome != WorldOutcome::Open)
            .count();
        leaves - 1
    }

    /// Leaves that reached the end of the script. Reconciles exactly
    /// with `AnalysisReport::terminal_worlds`.
    pub fn terminal_leaves(&self) -> usize {
        self.count(WorldOutcome::Terminal)
    }

    /// Fork candidates discarded as infeasible.
    pub fn pruned_leaves(&self) -> usize {
        self.count(WorldOutcome::Pruned)
    }

    /// Worlds dropped at exploration caps.
    pub fn cap_dropped_leaves(&self) -> usize {
        self.count(WorldOutcome::CapDropped)
    }

    /// Worlds folded into a same-state sibling.
    pub fn merged_leaves(&self) -> usize {
        self.count(WorldOutcome::Merged)
    }

    /// Deterministic GraphViz DOT rendering of the tree.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str("digraph world_tree {\n");
        out.push_str("  rankdir=TB;\n");
        out.push_str("  node [fontname=\"monospace\", fontsize=10, shape=box];\n");
        for n in &self.nodes {
            let label = if n.constraint.is_empty() {
                format!("w{} ({})", n.id, n.site)
            } else {
                format!("w{} ({})\\n{}", n.id, n.site, dot_escape(&n.constraint))
            };
            let style = match n.outcome {
                WorldOutcome::Open => "",
                WorldOutcome::Terminal => ", style=bold, color=blue",
                WorldOutcome::Pruned => ", style=dashed, color=gray",
                WorldOutcome::CapDropped => ", style=dashed, color=red",
                WorldOutcome::Merged => ", style=dotted, color=darkgreen",
            };
            out.push_str(&format!("  n{} [label=\"{}\"{}];\n", n.id, label, style));
        }
        for n in &self.nodes {
            if let Some(p) = n.parent {
                let edge_label = if n.line > 0 {
                    format!(" [label=\"line {}\"]", n.line)
                } else {
                    String::new()
                };
                out.push_str(&format!("  n{} -> n{}{};\n", p, n.id, edge_label));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Deterministic JSON rendering of the tree.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str("shoal-world-tree/v1".into())),
            (
                "terminal".into(),
                Json::Num(self.terminal_leaves() as f64),
            ),
            ("pruned".into(), Json::Num(self.pruned_leaves() as f64)),
            (
                "cap_dropped".into(),
                Json::Num(self.cap_dropped_leaves() as f64),
            ),
            ("merged".into(), Json::Num(self.merged_leaves() as f64)),
            (
                "nodes".into(),
                Json::Arr(
                    self.nodes
                        .iter()
                        .map(|n| {
                            Json::Obj(vec![
                                ("id".into(), Json::Num(n.id as f64)),
                                (
                                    "parent".into(),
                                    match n.parent {
                                        Some(p) => Json::Num(p as f64),
                                        None => Json::Null,
                                    },
                                ),
                                ("site".into(), Json::Str(n.site.into())),
                                ("line".into(), Json::Num(n.line as f64)),
                                ("constraint".into(), Json::Str(n.constraint.clone())),
                                ("outcome".into(), Json::Str(n.outcome.as_str().into())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

// ---------------------------------------------------------------------
// JSON report format (`--format json`, `xp all --json`)
// ---------------------------------------------------------------------

fn span_json(span: Span) -> Json {
    Json::Obj(vec![
        ("start".into(), Json::Num(span.start as f64)),
        ("end".into(), Json::Num(span.end as f64)),
        ("line".into(), Json::Num(span.line as f64)),
    ])
}

/// One diagnostic, with full structured provenance.
pub fn diag_json(d: &Diagnostic) -> Json {
    let mut fields = vec![
        ("code".into(), Json::Str(d.code.to_string())),
        ("severity".into(), Json::Str(d.severity.to_string())),
        ("span".into(), span_json(d.span)),
        ("message".into(), Json::Str(d.message.clone())),
    ];
    if let Some(origin) = &d.origin {
        fields.push(("origin".into(), Json::Str(origin.clone())));
    }
    if let Some(reason) = d.cap_reason {
        fields.push(("cap_reason".into(), Json::Str(reason.as_str().into())));
    }
    if let Some(p) = &d.provenance {
        fields.push((
            "provenance".into(),
            Json::Obj(vec![
                ("world".into(), Json::Num(p.world as f64)),
                (
                    "trail".into(),
                    Json::Arr(
                        p.trail
                            .iter()
                            .map(|t| {
                                Json::Obj(vec![
                                    ("kind".into(), Json::Str(t.kind.as_str().into())),
                                    ("span".into(), span_json(t.span)),
                                    ("what".into(), Json::Str(t.what.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// One script's report (diagnostics + exploration accounting + tree).
pub fn report_json(path: &str, report: &AnalysisReport) -> Json {
    let mut fields = vec![("path".into(), Json::Str(path.into()))];
    fields.extend(report_body_fields(report));
    Json::Obj(fields)
}

/// The path-independent fields of [`report_json`] — the unit the JIT
/// daemon caches. The cache key is content-addressed (script blob,
/// options, spec fingerprint, version), so the path the client happens
/// to analyze under cannot appear in the cached value; the client
/// re-attaches it via [`report_json`]'s field order (path first, then
/// exactly these fields), which keeps warm-cache output byte-identical
/// to a direct `shoal analyze --format json`.
pub fn report_body_fields(report: &AnalysisReport) -> Vec<(String, Json)> {
    vec![
        (
            "diagnostics".into(),
            Json::Arr(report.diagnostics.iter().map(diag_json).collect()),
        ),
        (
            "terminal_worlds".into(),
            Json::Num(report.terminal_worlds as f64),
        ),
        (
            "peak_live_worlds".into(),
            Json::Num(report.worlds_explored as f64),
        ),
        ("incomplete".into(), Json::Bool(report.incomplete)),
        (
            "parse_partial".into(),
            Json::Bool(report.parse_partial),
        ),
        (
            "cap_hits".into(),
            Json::Arr(
                report
                    .cap_hits
                    .iter()
                    .map(|h| {
                        Json::Obj(vec![
                            ("reason".into(), Json::Str(h.reason.as_str().into())),
                            ("line".into(), Json::Num(h.line as f64)),
                            ("dropped".into(), Json::Num(h.dropped as f64)),
                            ("hits".into(), Json::Num(h.hits as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("world_tree".into(), report.world_tree.to_json()),
    ]
}

/// The top-level JSON document for a set of analyzed scripts — the
/// `--format json` output and the serializer `xp all --json` reuses.
pub fn reports_json(entries: &[(String, AnalysisReport)]) -> Json {
    reports_envelope(entries.iter().map(|(p, r)| report_json(p, r)).collect())
}

/// Wraps per-script report objects in the `shoal-report/v1` envelope.
/// The JIT client assembles its output through this same function from
/// daemon-served bodies, so a warm `shoal jit --format json` is
/// byte-identical to `shoal analyze --format json`.
pub fn reports_envelope(scripts: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str("shoal-report/v1".into())),
        ("tool".into(), Json::Str("shoal".into())),
        (
            "version".into(),
            Json::Str(env!("CARGO_PKG_VERSION").into()),
        ),
        ("scripts".into(), Json::Arr(scripts)),
    ])
}

// ---------------------------------------------------------------------
// SARIF 2.1.0
// ---------------------------------------------------------------------

fn sarif_level(s: Severity) -> &'static str {
    match s {
        Severity::Note => "note",
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

fn sarif_location(uri: &str, line: u32, message: Option<&str>) -> Json {
    let mut phys = vec![(
        "artifactLocation".into(),
        Json::Obj(vec![("uri".into(), Json::Str(uri.into()))]),
    )];
    if line > 0 {
        phys.push((
            "region".into(),
            Json::Obj(vec![("startLine".into(), Json::Num(line as f64))]),
        ));
    }
    let mut loc = vec![("physicalLocation".into(), Json::Obj(phys))];
    if let Some(m) = message {
        loc.push((
            "message".into(),
            Json::Obj(vec![("text".into(), Json::Str(m.into()))]),
        ));
    }
    Json::Obj(loc)
}

fn sarif_code_flow(uri: &str, d: &Diagnostic, p: &Provenance) -> Json {
    let mut locations: Vec<Json> = p
        .trail
        .iter()
        .map(|t| {
            Json::Obj(vec![(
                "location".into(),
                sarif_location(uri, t.span.line, Some(&t.what)),
            )])
        })
        .collect();
    // The flow ends at the finding itself.
    locations.push(Json::Obj(vec![(
        "location".into(),
        sarif_location(uri, d.span.line, Some(&d.message)),
    )]));
    Json::Obj(vec![(
        "threadFlows".into(),
        Json::Arr(vec![Json::Obj(vec![(
            "locations".into(),
            Json::Arr(locations),
        )])]),
    )])
}

/// Builds a SARIF 2.1.0 document for a set of analyzed scripts. Witness
/// paths map to `codeFlows`, so standard viewers can step through the
/// execution a finding arises on.
pub fn sarif_json(entries: &[(String, AnalysisReport)]) -> Json {
    let rules: Vec<Json> = DiagCode::all()
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("id".into(), Json::Str(c.to_string())),
                (
                    "shortDescription".into(),
                    Json::Obj(vec![("text".into(), Json::Str(c.summary().into()))]),
                ),
            ])
        })
        .collect();
    let rule_index = |code: DiagCode| -> f64 {
        DiagCode::all().iter().position(|c| *c == code).unwrap_or(0) as f64
    };
    let mut results = Vec::new();
    for (path, report) in entries {
        for d in &report.diagnostics {
            let mut fields = vec![
                ("ruleId".into(), Json::Str(d.code.to_string())),
                ("ruleIndex".into(), Json::Num(rule_index(d.code))),
                ("level".into(), Json::Str(sarif_level(d.severity).into())),
                (
                    "message".into(),
                    Json::Obj(vec![("text".into(), Json::Str(d.message.clone()))]),
                ),
                (
                    "locations".into(),
                    Json::Arr(vec![sarif_location(path, d.span.line, None)]),
                ),
            ];
            if let Some(p) = &d.provenance {
                if !p.trail.is_empty() {
                    fields.push((
                        "codeFlows".into(),
                        Json::Arr(vec![sarif_code_flow(path, d, p)]),
                    ));
                }
            }
            results.push(Json::Obj(fields));
        }
    }
    Json::Obj(vec![
        (
            "$schema".into(),
            Json::Str("https://json.schemastore.org/sarif-2.1.0.json".into()),
        ),
        ("version".into(), Json::Str("2.1.0".into())),
        (
            "runs".into(),
            Json::Arr(vec![Json::Obj(vec![
                (
                    "tool".into(),
                    Json::Obj(vec![(
                        "driver".into(),
                        Json::Obj(vec![
                            ("name".into(), Json::Str("shoal".into())),
                            (
                                "version".into(),
                                Json::Str(env!("CARGO_PKG_VERSION").into()),
                            ),
                            (
                                "informationUri".into(),
                                Json::Str("https://example.org/shoal".into()),
                            ),
                            ("rules".into(), Json::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results".into(), Json::Arr(results)),
            ])]),
        ),
    ])
}

// ---------------------------------------------------------------------
// `shoal explain`: replay a witness path as a narrative
// ---------------------------------------------------------------------

/// Renders the step-by-step narrative of the execution on which
/// diagnostic `index` of `report` arises — the paper's Fig. 1 story
/// ("`cd` fails ⇒ `$STEAMROOT` stays empty ⇒ the glob expands to
/// `/*`") reconstructed from the recorded trail.
///
/// # Errors
///
/// When `index` is out of range, the error lists the available
/// diagnostics so the caller can pick one.
pub fn explain_diag(
    path: &str,
    src: &str,
    report: &AnalysisReport,
    index: usize,
) -> Result<String, String> {
    let Some(d) = report.diagnostics.get(index) else {
        if report.diagnostics.is_empty() {
            return Err(format!("{path}: no findings to explain"));
        }
        let mut msg = format!(
            "{path}: no finding #{index}; available findings:\n"
        );
        for (i, d) in report.diagnostics.iter().enumerate() {
            msg.push_str(&format!("  #{i}: {}: [{}] {}\n", d.span, d.code, d.message));
        }
        return Err(msg);
    };
    let lines: Vec<&str> = src.lines().collect();
    let quote = |line: u32, out: &mut String| {
        if line > 0 {
            if let Some(text) = lines.get(line as usize - 1) {
                let t = text.trim();
                if !t.is_empty() {
                    out.push_str(&format!("       > {t}\n"));
                }
            }
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "finding #{index} in {path}: {}: {} [{}] {}\n",
        d.span, d.severity, d.code, d.message
    ));
    match &d.provenance {
        Some(p) if !p.trail.is_empty() => {
            out.push_str(&format!(
                "witness execution (world {}, {} step(s)):\n",
                p.world,
                p.trail.len()
            ));
            let mut last_line = 0;
            for (i, t) in p.trail.iter().enumerate() {
                let at = if t.span.line > 0 {
                    format!("line {}: ", t.span.line)
                } else {
                    String::new()
                };
                out.push_str(&format!("  {}. {at}{} [{}]\n", i + 1, t.what, t.kind));
                if t.span.line != last_line {
                    quote(t.span.line, &mut out);
                    last_line = t.span.line;
                }
            }
        }
        Some(p) => {
            out.push_str(&format!(
                "witness execution (world {}): holds on the initial world — no \
                 branch had to be taken\n",
                p.world
            ));
        }
        None => {
            out.push_str("no recorded witness: the finding is not path-dependent\n");
        }
    }
    out.push_str(&format!("  ⇒ line {}: {}\n", d.span.line, d.message));
    quote(d.span.line, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_close_is_exact_per_call() {
        let mut t = WorldTree::new();
        let a = t.fork_child(0, "if", 3, "condition succeeded");
        let b = t.fork_child(0, "if", 3, "condition failed");
        t.mark_pruned(b, "case", 4, "infeasible arm");
        t.mark_terminal(a);
        // `b` forked a (pruned) child, so closing it appends a leaf.
        t.mark_terminal(b);
        assert_eq!(t.terminal_leaves(), 2);
        assert_eq!(t.pruned_leaves(), 1);
        assert_eq!(t.forks(), 2);
        // Double-closing an already-closed leaf still adds exactly one
        // terminal per call (robustness against missed fork sites).
        t.mark_terminal(a);
        assert_eq!(t.terminal_leaves(), 3);
        assert_eq!(t.forks(), 3);
    }

    #[test]
    fn rewind_restores_the_tree_at_a_statement_boundary() {
        // Up to the boundary: a live world with a pruned candidate, a
        // live world that forked off a cap-dropped sibling, and a live
        // open leaf.
        let mut t = WorldTree::new();
        let a = t.fork_child(0, "if", 1, "then");
        let b = t.fork_child(0, "if", 1, "else");
        t.mark_pruned(a, "case", 1, "infeasible arm");
        let c = t.fork_child(b, "cd", 1, "cd fails");
        let d = t.fork_child(b, "cd", 1, "cd succeeds");
        t.mark_cap_dropped(c);
        let e = t.fork_child(b, "test", 1, "-e holds");
        let live = [a, d, e];
        let boundary = t.clone();

        // After it, every change the engine makes: forks, prunes, cap
        // drops, merges and terminal closes, in place and as `end`
        // leaves.
        let run_on = |t: &mut WorldTree| {
            let f = t.fork_child(a, "test", 2, "-e holds");
            let g = t.fork_child(a, "test", 2, "-e fails");
            t.mark_pruned(d, "case", 2, "infeasible arm");
            t.mark_merged(g);
            t.mark_cap_dropped(f);
            t.mark_terminal(d);
            t.mark_terminal(e);
            t.mark_terminal(a);
        };
        run_on(&mut t);
        assert_ne!(t, boundary);
        let cut = t.rewind(boundary.len(), live);
        assert_eq!(t, boundary);
        assert_eq!(cut.len(), 5, "f, g, d's pruned arm and the end leaves of d and a");
        // Nodes no live world owns are not copied.
        assert!(Arc::ptr_eq(&t.nodes[c as usize], &boundary.nodes[c as usize]));

        // The rewound tree goes on as the boundary's would.
        let mut again = boundary.clone();
        run_on(&mut t);
        run_on(&mut again);
        assert_eq!(t, again);
        assert_eq!(t.to_json().to_text(), again.to_json().to_text());
    }

    #[test]
    fn dot_and_json_are_deterministic() {
        let build = || {
            let mut t = WorldTree::new();
            let a = t.fork_child(0, "cd", 2, "cd \"x\" succeeds");
            t.fork_child(0, "cd", 2, "cd \"x\" fails");
            t.mark_terminal(a);
            t
        };
        let (t1, t2) = (build(), build());
        assert_eq!(t1.to_dot(), t2.to_dot());
        assert_eq!(t1.to_json().to_text(), t2.to_json().to_text());
        assert!(t1.to_dot().contains("digraph world_tree"));
        assert!(t1.to_dot().contains("\\\"x\\\""), "quotes escaped for DOT");
    }
}
