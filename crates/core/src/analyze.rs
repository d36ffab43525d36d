//! The public analysis API.
//!
//! [`analyze_source`] parses and analyzes a script, returning an
//! [`AnalysisReport`] with deduplicated diagnostics and exploration
//! statistics. Options control the exploration budget and the ablation
//! switches used by the evaluation harness (E9 measures the effect of
//! disabling concrete pruning; E6 compares monomorphic and polymorphic
//! stream types through `shoal-streamty` directly).

use crate::annotations::Annotations;
use crate::diag::{DiagCode, Diagnostic};
use crate::engine::Engine;
use crate::provenance::WorldTree;
use crate::stats::{CapHit, ProfileReport};
use crate::world::World;
use shoal_shparse::{parse_script, parse_script_recovering, ParseError, Script};
use std::time::Instant;

/// Analysis configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisOptions {
    /// Loop unrolling bound.
    pub loop_bound: usize,
    /// Maximum simultaneously-live worlds.
    pub max_worlds: usize,
    /// Run the stream-type checker over pipelines.
    pub enable_stream_types: bool,
    /// Refine symbol constraints at forks and prune infeasible worlds
    /// (§3 "pruning via concrete state whenever possible"). Disabling
    /// this is the E9 ablation.
    pub enable_pruning: bool,
    /// Attach a [`ProfileReport`] (per-phase wall time plus exploration
    /// counters) to the report.
    pub profile: bool,
    /// Symbolic-step budget: each statement executed over `n` live
    /// worlds costs `n` fuel. When it runs out the engine stops
    /// executing further statements, keeps every diagnostic found so
    /// far, and records a [`crate::stats::CapReason::Fuel`] cap hit.
    /// `None` (the default) means unlimited.
    pub fuel: Option<u64>,
    /// Wall-clock budget, checked by a cheap poll counter (one
    /// `Instant::now()` per 64 budget charges). Exhaustion degrades
    /// exactly like fuel, with [`crate::stats::CapReason::Deadline`].
    /// `None` (the default) means unlimited.
    pub deadline: Option<std::time::Duration>,
    /// Record a coverage/precision-loss map
    /// ([`AnalysisReport::coverage`]): which commands had specs, where
    /// the analysis degraded to ⊤ and why, which checkers fired. Off by
    /// default; the disabled path records nothing, allocates nothing,
    /// and reads no clocks (the dark-path discipline).
    pub audit: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            loop_bound: 2,
            max_worlds: 64,
            enable_stream_types: true,
            enable_pruning: true,
            profile: false,
            fuel: None,
            deadline: None,
            audit: false,
        }
    }
}

impl AnalysisOptions {
    /// The canonical fingerprint string of every option that can change
    /// an [`AnalysisReport`]'s *content* — one component of the JIT
    /// daemon's content-addressed cache key. Two option values with
    /// equal canonical strings must produce byte-identical report
    /// bodies for the same source and spec database.
    ///
    /// `profile` is deliberately excluded: it only attaches wall-clock
    /// timings, which are not part of the serialized report body (and
    /// would be meaningless served from a cache — the daemon client
    /// runs profiled requests in-process instead). `audit` is excluded
    /// for the same reason: the coverage map is a side channel that
    /// never enters the serialized report body, so the daemon can audit
    /// every miss without forking the cache keyspace. The incremental
    /// engine ([`crate::incr::IncrSession`]) needs no option at all: it
    /// must produce the report body the cold engine would, so the two
    /// share one key by construction.
    ///
    /// A `deadline` *is* part of the key even though its effect is
    /// timing-dependent: a cached deadline-capped report replays the
    /// first run's verdict, which is the documented semantics (the cap
    /// hit is marked machine-readably either way).
    pub fn canonical(&self) -> String {
        format!(
            "loop_bound={};max_worlds={};stream_types={};pruning={};fuel={};deadline_ns={}",
            self.loop_bound,
            self.max_worlds,
            self.enable_stream_types,
            self.enable_pruning,
            self.fuel.map(|f| f.to_string()).unwrap_or_else(|| "-".into()),
            self.deadline
                .map(|d| d.as_nanos().to_string())
                .unwrap_or_else(|| "-".into()),
        )
    }
}

/// The result of analyzing one script.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Deduplicated diagnostics, ordered by line then code.
    pub diagnostics: Vec<Diagnostic>,
    /// Exact peak size of the live world set during exploration
    /// (tracked by `EngineStats::note_live`).
    pub worlds_explored: usize,
    /// Number of terminal worlds — the old meaning of
    /// `worlds_explored`, kept under its proper name.
    pub terminal_worlds: usize,
    /// True when exploration hit a cap somewhere.
    pub incomplete: bool,
    /// Where exploration hit bounds (machine-readable: which cap,
    /// which line, how many worlds lost). Empty when exploration was
    /// exhaustive.
    pub cap_hits: Vec<CapHit>,
    /// Per-phase timings and exploration counters; present when
    /// [`AnalysisOptions::profile`] was set.
    pub profile: Option<ProfileReport>,
    /// The explored world tree (provenance layer): one node per world,
    /// with fork site, added constraint, and outcome. Its terminal-leaf
    /// count equals [`AnalysisReport::terminal_worlds`].
    pub world_tree: WorldTree,
    /// True when the script was parsed with error recovery and some
    /// statements were skipped over syntax errors
    /// ([`analyze_source_resilient`]); the skipped regions appear as
    /// [`DiagCode::ParsePartial`] notes.
    pub parse_partial: bool,
    /// The per-script coverage/precision-loss map; present when
    /// [`AnalysisOptions::audit`] was set. Like `profile`, this is a
    /// side channel: it is never part of the serialized report body.
    pub coverage: Option<shoal_obs::audit::CoverageMap>,
}

impl AnalysisReport {
    /// Diagnostics of a given code.
    pub fn with_code(&self, code: DiagCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// True when a diagnostic with this code was reported.
    pub fn has(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

/// Analyzes a parsed script (no annotations).
pub fn analyze_script(script: &Script, opts: AnalysisOptions) -> AnalysisReport {
    analyze_script_annotated(script, opts, Annotations::default())
}

/// Analyzes a parsed script with inline annotations in effect.
pub fn analyze_script_annotated(
    script: &Script,
    opts: AnalysisOptions,
    annotations: Annotations,
) -> AnalysisReport {
    analyze_timed(script, opts, annotations, 0, Instant::now())
}

/// [`analyze_script_annotated`] for a script parsed in `parse_us`,
/// with the setup clock started at `t_setup`, so a caller that read
/// the annotations itself charges that work to
/// [`ProfileReport::setup_us`] too.
pub(crate) fn analyze_timed(
    script: &Script,
    opts: AnalysisOptions,
    annotations: Annotations,
    parse_us: u64,
    t_setup: Instant,
) -> AnalysisReport {
    let (engine, initial) = prologue(script, opts, annotations);
    let t_start = Instant::now();
    let setup_us = (t_start - t_setup).as_micros() as u64;
    let worlds = engine.exec_items(vec![initial], &script.items);
    let exec_us = t_start.elapsed().as_micros() as u64;
    // A relang DFA construction that hit its state cap during this
    // analysis over-approximated some constraint answer; drained here
    // so finalization can surface it (the incremental engine instead
    // drains per statement and accumulates across replays).
    let approx = shoal_relang::take_approx_hits();
    finalize(&engine, worlds, &approx, [parse_us, setup_us, exec_us], t_start)
}

/// Runs `parse` and charges its wall time to the `parse` phase;
/// returns the result with that time in microseconds, for
/// [`ProfileReport::parse_us`]. The one parse front end of the strict,
/// resilient and incremental entry points.
pub(crate) fn timed_parse<T>(parse: impl FnOnce() -> T) -> (T, u64) {
    let t_parse = Instant::now();
    let parsed = parse();
    let parse_us = t_parse.elapsed().as_micros() as u64;
    shoal_obs::trace::phase_add("parse", parse_us);
    (parsed, parse_us)
}

/// Reads the `#@` annotations of `src`. A malformed annotation must
/// not hide the analysis: the script then runs un-annotated, and the
/// returned note (an [`DiagCode::AnalysisIncomplete`] naming the bad
/// line) goes first in the report.
pub(crate) fn read_annotations(src: &str) -> (Annotations, Option<Diagnostic>) {
    match crate::annotations::parse_annotations(src) {
        Ok(annotations) => (annotations, None),
        Err(e) => {
            let note = Diagnostic::new(
                DiagCode::AnalysisIncomplete,
                crate::diag::Severity::Note,
                shoal_shparse::Span::new(0, 0, e.line),
                e.to_string(),
            );
            (Annotations::default(), Some(note))
        }
    }
}

/// Sets up one analysis: clears stale thread-local approximation
/// events, builds the engine with `script`'s plan table, and
/// constrains the initial world with `#@ var NAME : TYPE` annotations
/// (collapsed where they admit one string). Shared verbatim between
/// the cold path above and the incremental engine ([`crate::incr`]) —
/// the byte-identity obligation starts here.
pub(crate) fn prologue(
    script: &Script,
    opts: AnalysisOptions,
    annotations: Annotations,
) -> (Engine<'_>, World) {
    // Stale approximation events from earlier analyses on this thread
    // must not be attributed to this report.
    let _ = shoal_relang::take_approx_hits();
    let mut engine = Engine::for_script(opts, script);
    let mut initial = World::initial();
    // `#@ var NAME : TYPE` constrains the initial environment.
    let var_annotations: Vec<(String, shoal_relang::Regex)> = annotations
        .vars
        .iter()
        .map(|(n, t)| (n.clone(), t.clone()))
        .collect();
    engine.annotations = annotations;
    for (name, ty) in var_annotations {
        let v = initial
            .fresh_sym(ty, &format!("${name} (annotated)"))
            .concretized();
        initial.set_var(&name, v);
    }
    (engine, initial)
}

/// Turns a finished world set into an [`AnalysisReport`]: idempotence
/// pass, world-tree closing, deduplication, deterministic ordering,
/// cap accounting, and audit finalization. Shared verbatim between the
/// cold and incremental paths, which is what makes the incremental
/// engine's byte-identity guarantee hold by construction: once the
/// world set, tree, stats, audit state, and approximation events agree,
/// the rendered report must too. `[parse_us, setup_us, exec_us]` are
/// the measured front-end phases: parsing (already charged by
/// [`timed_parse`]), everything else before `t_start`, and execution
/// from `t_start` on. They are charged here and, when profiling, are
/// the [`ProfileReport`]'s own rows — one measurement per phase.
pub(crate) fn finalize(
    engine: &Engine,
    mut worlds: Vec<World>,
    approx: &[shoal_relang::ApproxReason],
    [parse_us, setup_us, exec_us]: [u64; 3],
    t_start: Instant,
) -> AnalysisReport {
    shoal_obs::trace::phase_add("setup", setup_us);
    shoal_obs::trace::phase_add("symexec", exec_us);
    let t_idem = Instant::now();
    // Idempotence pass (§4, CoLiS criterion): a path succeeded only
    // because some location was in state S initially, and the script
    // left it in a different state — so an immediate second run of the
    // same path fails at that command.
    for w in worlds.iter_mut() {
        let mut findings = Vec::new();
        for (key, assumed, span) in &w.fragile_assumptions {
            let now = w.fs.lookup(key);
            let flipped = match (assumed, now) {
                (shoal_symfs::state::NodeState::Absent, Some(s)) if s.exists() => true,
                (a, Some(shoal_symfs::state::NodeState::Absent)) if a.exists() => true,
                _ => false,
            };
            if flipped {
                findings.push(Diagnostic::new(
                    DiagCode::IdempotenceRisk,
                    crate::diag::Severity::Warning,
                    *span,
                    format!(
                        "not idempotent: this command succeeds only while {key} is {assumed},                          but the script leaves it {} — a second run fails here",
                        now.map(|s| s.to_string()).unwrap_or_else(|| "changed".into())
                    ),
                )
                .with_origin("checker:idempotence"));
            }
        }
        for d in findings {
            w.report(d);
        }
    }
    let worlds = worlds;
    let idempotence_us = t_idem.elapsed().as_micros() as u64;
    let t_report = Instant::now();
    let terminal_worlds = worlds.len();
    // Close the world tree: every surviving world is a terminal leaf,
    // so the tree's terminal-leaf count reconciles exactly with
    // `terminal_worlds`.
    {
        let mut tree = engine.tree.borrow_mut();
        for w in &worlds {
            tree.mark_terminal(w.id);
        }
    }
    let world_tree = engine.tree.replace(WorldTree::new());
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut incomplete = false;
    for w in &worlds {
        for d in &w.diags {
            if d.code == DiagCode::AnalysisIncomplete {
                incomplete = true;
            }
            // Deduplicate by (span, code, message) keeping the first
            // (whose path condition is usually the shortest).
            let dup = diagnostics
                .iter()
                .any(|e| e.code == d.code && e.span == d.span && e.message == d.message);
            if !dup {
                diagnostics.push(d.clone());
            }
        }
    }
    // A relang DFA construction that hit its state cap during this
    // analysis over-approximated some constraint answer; surface it as
    // a machine-readable cap hit plus an incompleteness note.
    if !approx.is_empty() {
        engine
            .stats
            .note_cap(crate::stats::CapReason::DfaStates, 0, 0);
        incomplete = true;
        diagnostics.push(
            Diagnostic::new(
                DiagCode::AnalysisIncomplete,
                crate::diag::Severity::Note,
                shoal_shparse::Span::new(0, 0, 0),
                format!(
                    "{} regular-language operation(s) hit the DFA state cap ({}) and were \
                     over-approximated; some answers may be imprecise",
                    approx.len(),
                    shoal_relang::dfa_state_cap(),
                ),
            )
            .with_cap(crate::stats::CapReason::DfaStates)
            .with_origin("relang:state_cap"),
        );
    }
    // Deterministic order regardless of world-exploration order:
    // full span, then code, then message.
    diagnostics.sort_by(|a, b| {
        (a.span.line, a.span.start, a.span.end, a.code, &a.message).cmp(&(
            b.span.line,
            b.span.start,
            b.span.end,
            b.code,
            &b.message,
        ))
    });
    let report_us = t_report.elapsed().as_micros() as u64;
    shoal_obs::trace::phase_add("report", idempotence_us.saturating_add(report_us));
    let stats = &engine.stats;
    let peak_live = stats.peak_live.get().max(1);
    shoal_obs::event!(
        "join",
        site = "analyze",
        terminal_worlds = terminal_worlds,
        peak_live = peak_live,
        forks = world_tree.forks(),
        pruned = world_tree.pruned_leaves(),
        cap_dropped = world_tree.cap_dropped_leaves(),
        merged = world_tree.merged_leaves()
    );
    shoal_obs::counter_add("analyze.runs", 1);
    let profile = engine.opts.profile.then(|| ProfileReport {
        parse_us,
        setup_us,
        exec_us,
        idempotence_us,
        report_us,
        total_us: parse_us + setup_us + t_start.elapsed().as_micros() as u64,
        peak_live_worlds: peak_live,
        forks: world_tree.forks() as u64,
        worlds_pruned: world_tree.pruned_leaves() as u64,
        cap_dropped: world_tree.cap_dropped_leaves() as u64,
        merged: world_tree.merged_leaves() as u64,
    });
    let cap_hits = stats.merged_cap_hits();
    // A cap hit always marks the report incomplete, even when no world
    // survived to carry the diagnostic (e.g. budget exhaustion after
    // every world was pruned).
    let incomplete = incomplete || !cap_hits.is_empty();
    // Audit finalization (audit-off: the recorder was never touched and
    // this whole block is skipped — no allocation, no clock reads).
    let coverage = engine.opts.audit.then(|| {
        let mut cov = engine.audit.take().finish(&diagnostics, &cap_hits);
        for hit in approx {
            cov.add_loss(shoal_obs::audit::LossCause::DfaCap, hit.site(), 1);
        }
        cov
    });
    AnalysisReport {
        diagnostics,
        worlds_explored: peak_live,
        terminal_worlds,
        incomplete,
        cap_hits,
        profile,
        world_tree,
        parse_partial: false,
        coverage,
    }
}

/// Parses and analyzes shell source with default options.
///
/// # Errors
///
/// Returns the parse error if the source is not valid shell.
pub fn analyze_source(src: &str) -> Result<AnalysisReport, ParseError> {
    analyze_source_with(src, AnalysisOptions::default())
}

/// Parses and analyzes shell source with explicit options.
///
/// # Errors
///
/// Returns the parse error if the source is not valid shell.
pub fn analyze_source_with(src: &str, opts: AnalysisOptions) -> Result<AnalysisReport, ParseError> {
    let (script, parse_us) = timed_parse(|| parse_script(src));
    let script = script?;
    let t_setup = Instant::now();
    let (annotations, note) = read_annotations(src);
    let mut report = analyze_timed(&script, opts, annotations, parse_us, t_setup);
    report.diagnostics.splice(0..0, note);
    Ok(report)
}

/// Parses with error recovery and analyzes whatever parsed; this entry
/// point never fails. Each syntax error becomes a
/// [`DiagCode::ParsePartial`] note at its source span and the report is
/// marked [`AnalysisReport::parse_partial`], so one malformed statement
/// does not hide findings in the healthy remainder (the degradation
/// invariant behind `shoal scan`).
pub fn analyze_source_resilient(src: &str, opts: AnalysisOptions) -> AnalysisReport {
    let (recovered, parse_us) = timed_parse(|| parse_script_recovering(src));
    let t_setup = Instant::now();
    let (annotations, note) = read_annotations(src);
    let mut report = analyze_timed(&recovered.script, opts, annotations, parse_us, t_setup);
    report.diagnostics.splice(0..0, note);
    if !recovered.diagnostics.is_empty() {
        report.parse_partial = true;
        // Each bridged syntax error is a precision loss: statements in
        // the gap were never analyzed.
        if let Some(cov) = report.coverage.as_mut() {
            for d in &recovered.diagnostics {
                cov.add_loss(
                    shoal_obs::audit::LossCause::ParsePartial,
                    &format!("line {}", d.span.line),
                    1,
                );
            }
        }
        for d in &recovered.diagnostics {
            report.diagnostics.push(
                Diagnostic::new(
                    DiagCode::ParsePartial,
                    crate::diag::Severity::Note,
                    d.span,
                    format!(
                        "syntax error: {}; skipped to the next statement boundary",
                        d.message
                    ),
                )
                .with_origin("parser:recovery"),
            );
        }
        report.diagnostics.sort_by(|a, b| {
            (a.span.line, a.span.start, a.span.end, a.code, &a.message).cmp(&(
                b.span.line,
                b.span.start,
                b.span.end,
                b.code,
                &b.message,
            ))
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CapReason;
    use std::time::Duration;

    const FIG1: &str = "STEAMROOT=\"$(cd \"${0%/*}\" && echo $PWD)\"\nrm -rf \"$STEAMROOT/\"*\n";

    #[test]
    fn fuel_exhaustion_keeps_found_diagnostics() {
        // Fig. 1 first, then filler; the budget dies in the filler, so
        // the dangerous delete found earlier must survive.
        let mut src = String::from(FIG1);
        for i in 0..50 {
            src.push_str(&format!("echo filler{i}\n"));
        }
        let report = analyze_source_with(
            &src,
            AnalysisOptions {
                fuel: Some(30),
                ..AnalysisOptions::default()
            },
        )
        .expect("valid script");
        assert!(
            report.has(DiagCode::DangerousDelete),
            "budget exhaustion must not lose diagnostics found before it"
        );
        assert!(report.incomplete);
        assert!(
            report.cap_hits.iter().any(|h| h.reason == CapReason::Fuel),
            "cap hits: {:?}",
            report.cap_hits
        );
        let note = report
            .diagnostics
            .iter()
            .find(|d| d.cap_reason == Some(CapReason::Fuel))
            .expect("a machine-readable fuel note");
        assert!(note.message.contains("fuel budget (30) exhausted"));
    }

    #[test]
    fn zero_fuel_still_produces_a_marked_report() {
        let report = analyze_source_with(
            "echo hello\n",
            AnalysisOptions {
                fuel: Some(0),
                ..AnalysisOptions::default()
            },
        )
        .expect("valid script");
        assert!(report.incomplete);
        assert!(report.cap_hits.iter().any(|h| h.reason == CapReason::Fuel));
        assert_eq!(report.terminal_worlds, 1, "the initial world survives");
    }

    #[test]
    fn expired_deadline_degrades_like_fuel() {
        let report = analyze_source_with(
            "echo a\necho b\n",
            AnalysisOptions {
                deadline: Some(Duration::ZERO),
                ..AnalysisOptions::default()
            },
        )
        .expect("valid script");
        assert!(report.incomplete);
        assert!(
            report
                .cap_hits
                .iter()
                .any(|h| h.reason == CapReason::Deadline),
            "cap hits: {:?}",
            report.cap_hits
        );
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.cap_reason == Some(CapReason::Deadline)));
    }

    #[test]
    fn unlimited_budgets_change_nothing() {
        let bounded = analyze_source_with(
            FIG1,
            AnalysisOptions {
                fuel: Some(1_000_000),
                deadline: Some(Duration::from_secs(3600)),
                ..AnalysisOptions::default()
            },
        )
        .expect("valid script");
        let unbounded = analyze_source(FIG1).expect("valid script");
        assert_eq!(bounded.diagnostics, unbounded.diagnostics);
        assert_eq!(bounded.terminal_worlds, unbounded.terminal_worlds);
    }

    #[test]
    fn canonical_options_cover_every_semantic_field() {
        let base = AnalysisOptions::default();
        assert_eq!(
            base.canonical(),
            "loop_bound=2;max_worlds=64;stream_types=true;pruning=true;fuel=-;deadline_ns=-"
        );
        // Each semantic field moves the canonical string…
        for changed in [
            AnalysisOptions { loop_bound: 3, ..base.clone() },
            AnalysisOptions { max_worlds: 32, ..base.clone() },
            AnalysisOptions { enable_stream_types: false, ..base.clone() },
            AnalysisOptions { enable_pruning: false, ..base.clone() },
            AnalysisOptions { fuel: Some(100), ..base.clone() },
            AnalysisOptions { deadline: Some(Duration::from_millis(5)), ..base.clone() },
        ] {
            assert_ne!(changed.canonical(), base.canonical(), "{changed:?}");
        }
        // …and the side-channel options (profile attaches timings,
        // audit attaches a coverage map; neither enters the serialized
        // report body) do not.
        let profiled = AnalysisOptions { profile: true, ..base.clone() };
        assert_eq!(profiled.canonical(), base.canonical());
        let audited = AnalysisOptions { audit: true, ..base.clone() };
        assert_eq!(audited.canonical(), base.canonical());
    }

    #[test]
    fn resilient_analysis_of_valid_source_matches_strict() {
        let strict = analyze_source(FIG1).expect("valid script");
        let resilient = analyze_source_resilient(FIG1, AnalysisOptions::default());
        assert!(!resilient.parse_partial);
        assert_eq!(strict.diagnostics, resilient.diagnostics);
    }

    #[test]
    fn resilient_analysis_reports_skipped_regions() {
        let src = ")\necho ok\nrm -rf /\n";
        let report = analyze_source_resilient(src, AnalysisOptions::default());
        assert!(report.parse_partial);
        assert!(report.has(DiagCode::ParsePartial));
        assert!(
            report.has(DiagCode::DangerousDelete),
            "statements after the bad line must still be analyzed"
        );
    }
}
