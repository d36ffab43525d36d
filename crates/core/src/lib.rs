//! `shoal-core`: the semantics-driven symbolic execution engine.
//!
//! This crate is the paper's primary contribution: an ahead-of-time
//! analyzer that "simulat\\[es\\] the actions of the shell interpreter,
//! symbolically describing the results of operations and transforming
//! sets of program states along the way" (§3). It glues the substrates
//! together:
//!
//! * shell syntax from `shoal-shparse`,
//! * regular constraints from `shoal-relang`,
//! * the symbolic file system from `shoal-symfs`,
//! * command Hoare specs from `shoal-spec`,
//! * stream types from `shoal-streamty`,
//!
//! and adds what only the engine can know: variable stores with
//! constrained symbolic strings, full POSIX parameter-expansion
//! semantics, working-directory tracking, success/failure forking with
//! constraint refinement and concrete pruning, and the checkers that
//! turn inconsistencies into diagnostics (dangerous deletions,
//! always-failing compositions, dead pipes, type mismatches, platform
//! dependence, read/write dependencies).
//!
//! # Examples
//!
//! ```
//! use shoal_core::analyze_source;
//!
//! // The paper's Fig. 1 — the Steam updater bug.
//! let report = analyze_source(r#"
//! STEAMROOT="$(cd "${0%/*}" && echo $PWD)"
//! rm -fr "$STEAMROOT"/*
//! "#).unwrap();
//! assert!(report.diagnostics.iter().any(|d| d.code == shoal_core::DiagCode::DangerousDelete));
//! ```

/// Version of what a report *says* for a given input, options and
/// spec database. Bump it whenever a change alters report bodies (a
/// new verdict, a different world count, a schema field): result
/// caches key on it, so a warm start never serves a report the current
/// engine would not produce. Epoch 2: worlds joined at statement
/// boundaries, and the `merged` world-tree outcome. Epoch 3: resilient
/// reports carry the malformed-annotation note strict ones always had,
/// and a `#@ var` whose type admits one string starts as that literal.
pub const REPORT_EPOCH: u32 = 3;

pub mod analyze;
pub mod annotations;
pub mod audit;
pub mod builtins;
pub mod checkers;
pub mod coach;
pub mod diag;
pub mod engine;
pub mod expand;
pub mod glob;
pub mod incr;
mod langs;
mod plan;
pub mod provenance;
pub mod scan;
pub mod sniff;
pub mod stats;
pub mod value;
pub mod world;

pub use analyze::{
    analyze_script, analyze_source, analyze_source_resilient, analyze_source_with,
    AnalysisOptions, AnalysisReport,
};
pub use annotations::{parse_annotations, AnnotationError, Annotations};
pub use audit::{AuditRecorder, AuditReport, MissingSpec};
pub use diag::{DiagCode, Diagnostic, Severity};
pub use incr::{IncrSession, IncrStats};
pub use provenance::{
    Provenance, TrailEntry, TrailKind, WorldId, WorldNode, WorldOutcome, WorldTree,
};
pub use scan::{scan_paths, scan_source, Outcome, ScanOptions, ScanSummary, ScriptResult};
pub use sniff::is_shell_script;
pub use stats::{CapHit, CapReason, EngineStats, ProfileReport};
pub use value::{Seg, SymStr};
pub use world::{ExitStatus, World};
