//! shoal-incr: statement-level incremental analysis.
//!
//! The cold engine analyzes a script by folding [`Engine::step`] over
//! the top-level statements. This module makes that fold *resumable*:
//! after every statement it checkpoints the engine-visible state (live
//! worlds, peak live count, audit recorder, and how far the world tree,
//! the cap-hit log and the accumulated relang approximation events
//! had grown). A session keeps one previous version only: for each
//! statement of the last analyzed script, its canonical text
//! ([`shoal_shparse::canonical_item`], here-document bodies included),
//! its layout (raw source slice, byte offset and line) and the
//! checkpoint after it, plus the last run's world tree and logs.
//!
//! **Replay.** On re-analysis the session compares the new script's
//! statements with the last version's, from the top. The leading
//! statements whose canonical text and layout are both unchanged
//! replay; the walk stops at the first statement that differs (the
//! *dirty suffix*). Only the deepest replayed checkpoint is restored
//! into a fresh engine: its worlds are cloned (refcount bumps), the
//! logs are cut back to its lengths, and `WorldTree::rewind` cuts the
//! tree back and reopens the live worlds' nodes. The remaining
//! statements are re-executed and recorded in place of the old suffix.
//! Editing line 900 of a 1000-line script replays 899 statements and
//! executes the rest; inserting a blank line above a statement
//! re-executes it and everything below. An edit to the inline
//! annotations (the only input besides the statements that changes the
//! starting state; the options are fixed for the session) replays
//! nothing.
//!
//! **Memory.** A session holds one checkpoint per statement of the last
//! analyzed version, each a vector of live worlds that share their
//! state with each other and with the run, and one world tree and pair
//! of logs, not one per statement. The superseded suffix and the cut
//! world-tree nodes are set aside and freed by
//! [`IncrSession::release`], which the LSP server calls after it has
//! published, so the frees stay off the edit's latency.
//!
//! **Byte-identity.** Both paths share [`crate::analyze`]'s prologue
//! and finalization verbatim. A replayed prefix is the same statements
//! at the same positions fed the same starting state, and
//! [`Engine::step`] is deterministic, so its checkpoint — spans,
//! trails, world-tree lines, audit sites — is exactly what a cold run
//! reaches there, and by induction the incremental report body is
//! byte-identical to a cold run's. The `tests/incr.rs` suite enforces
//! this over the figures, the example corpus and random edits.
//!
//! **Fallback-to-full.** Fuel/deadline budgets charge per statement
//! *executed*, which replay skips, so budgeted analyses decline
//! incrementality entirely and run the cold path.
//!
//! [`Engine::step`]: crate::engine::Engine::step

use std::sync::Arc;
use std::time::Instant;

use crate::analyze::{
    finalize, prologue, read_annotations, timed_parse, AnalysisOptions, AnalysisReport,
};
use crate::annotations::Annotations;
use crate::audit::AuditRecorder;
use crate::provenance::{WorldNode, WorldTree};
use crate::stats::CapHit;
use crate::world::World;
use shoal_relang::ApproxReason;
use shoal_shparse::{canonical_item, parse_script, ParseError, Script};

/// Cumulative counters for one incremental session (also mirrored into
/// the obs counter plane as `incr.*`).
#[derive(Debug, Clone, Default)]
pub struct IncrStats {
    /// Analyses served by this session.
    pub runs: u64,
    /// Statements replayed from checkpoints (never executed).
    pub replayed: u64,
    /// Statements actually executed.
    pub executed: u64,
    /// Analyses that declined incrementality (fuel/deadline budgets).
    pub full_fallbacks: u64,
    /// Replayed statement count of the most recent analysis.
    pub last_replayed: usize,
    /// Executed statement count of the most recent analysis.
    pub last_executed: usize,
}

/// Everything the engine knows after one statement: restoring this into
/// a fresh [`Engine`] and executing the remaining statements is
/// indistinguishable from having executed the whole prefix. The worlds
/// share their containers and symbolic strings with the run, so taking
/// one costs a refcount bump per live-world field. After the boundary
/// the world tree, the cap-hit log and the approximation log only grow,
/// except that the live worlds' tree nodes fork and close; so the
/// checkpoint holds their lengths, and the session keeps one copy of
/// each, from its last run, to cut back ([`WorldTree::rewind`]).
///
/// [`Engine`]: crate::engine::Engine
struct Checkpoint {
    worlds: Vec<World>,
    peak_live: usize,
    audit: AuditRecorder,
    /// Nodes in the world tree.
    tree_len: usize,
    /// Entries in the cap-hit log.
    cap_hits: usize,
    /// Approximation events accumulated from the start of the script.
    approx: usize,
}

/// One statement of the last analyzed version: what the replay rule
/// compares, and the state after it.
struct Recorded {
    /// Canonical rendering. Here-document bodies live outside the raw
    /// source slice but inside this text, so body edits re-execute.
    canon: String,
    /// Byte offset, line and raw source slice. The checkpoint holds
    /// positions from the whole prefix, so a statement replays only if
    /// it and every statement above it kept their layout.
    layout: String,
    chk: Checkpoint,
}

/// A per-document incremental analysis session: holds the last
/// analyzed version and serves repeated [`IncrSession::analyze`] calls
/// over successive versions of one script.
pub struct IncrSession {
    opts: AnalysisOptions,
    /// Rendering of the annotations the last version was analyzed under.
    context: String,
    /// One entry per executed statement of the last version, in order.
    last: Vec<Recorded>,
    /// The last version's world tree, cap-hit log and approximation
    /// events, which every checkpoint in `last` is a prefix of.
    tree: WorldTree,
    cap_hits: Vec<CapHit>,
    approx: Vec<ApproxReason>,
    /// The suffix and the world-tree nodes the last analysis
    /// superseded, until [`Self::release`].
    retired: (Vec<Recorded>, Vec<Arc<WorldNode>>),
    /// Session counters (see [`IncrStats`]).
    pub stats: IncrStats,
}

impl IncrSession {
    /// A fresh session (no previous version) for the given options.
    pub fn new(opts: AnalysisOptions) -> IncrSession {
        IncrSession {
            opts,
            context: String::new(),
            last: Vec::new(),
            tree: WorldTree::new(),
            cap_hits: Vec::new(),
            approx: Vec::new(),
            retired: (Vec::new(), Vec::new()),
            stats: IncrStats::default(),
        }
    }

    /// The options this session analyzes with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.opts
    }

    /// Checkpoints held for the last analyzed version (observability).
    pub fn summary_count(&self) -> usize {
        self.last.len()
    }

    /// Frees the checkpoints the last analysis superseded. Callers on a
    /// latency path call it after they have delivered the report; left
    /// uncalled, the next analysis frees them instead.
    pub fn release(&mut self) {
        self.retired = (Vec::new(), Vec::new());
    }

    /// Parses and analyzes one version of the document through the
    /// same front end as [`crate::analyze::analyze_source_with`] (parse
    /// timing, malformed-annotation note), but replays the statements
    /// the last version shares with it.
    ///
    /// # Errors
    ///
    /// Returns the parse error if the source is not valid shell (the
    /// LSP server falls back to resilient cold analysis in that case).
    pub fn analyze(&mut self, src: &str) -> Result<AnalysisReport, ParseError> {
        let (script, parse_us) = timed_parse(|| parse_script(src));
        let script = script?;
        let t_setup = Instant::now();
        let (annotations, note) = read_annotations(src);
        let mut report = self.run(src, &script, annotations, parse_us, t_setup);
        report.diagnostics.splice(0..0, note);
        Ok(report)
    }

    /// The incremental engine proper: prefix comparison, checkpoint
    /// restore, dirty-suffix execution and recording, shared
    /// finalization. Setup, charged from `t_setup` to the first
    /// executed statement, includes the canonical renderings, the
    /// comparison and the restore.
    fn run(
        &mut self,
        src: &str,
        script: &Script,
        annotations: Annotations,
        parse_us: u64,
        t_setup: Instant,
    ) -> AnalysisReport {
        self.stats.runs += 1;
        shoal_obs::counter_add("incr.runs", 1);
        // Budgets charge per *executed* statement; replay would skip
        // charges and change where the budget dies. Decline and run
        // cold — the reports are identical by definition.
        if self.opts.fuel.is_some() || self.opts.deadline.is_some() {
            self.stats.full_fallbacks += 1;
            self.stats.last_replayed = 0;
            self.stats.last_executed = script.items.len();
            shoal_obs::counter_add("incr.fallback_full", 1);
            let opts = self.opts.clone();
            return crate::analyze::analyze_timed(script, opts, annotations, parse_us, t_setup);
        }

        let stmts: Vec<(String, String)> = script
            .items
            .iter()
            .map(|item| {
                let span = item.and_or.span();
                let raw = src.get(span.start..span.end).unwrap_or("");
                (canonical_item(script, item), format!("{}:{};{raw}", span.start, span.line))
            })
            .collect();
        let context = format!("{annotations:?}");
        let replayed = if context == self.context {
            self.last
                .iter()
                .zip(&stmts)
                .take_while(|(r, (canon, layout))| r.canon == *canon && r.layout == *layout)
                .count()
        } else {
            0
        };
        self.context = context;
        // Held apart from the session until the run ends, so a run that
        // unwinds leaves no checkpoint behind its taken tree and logs.
        let mut last = std::mem::take(&mut self.last);
        let retired = last.split_off(replayed);

        // Restore the deepest replayed checkpoint, or the initial state:
        // one live world, the root-only tree, empty logs.
        let (engine, initial) = prologue(script, self.opts.clone(), annotations);
        let mut worlds = vec![initial];
        engine.stats.note_live(worlds.len());
        let (tree_len, cap_len, approx_len) = match last.last() {
            Some(Recorded { chk, .. }) => {
                worlds = chk.worlds.clone();
                engine.stats.peak_live.set(chk.peak_live);
                engine.audit.replace(chk.audit.clone());
                (chk.tree_len, chk.cap_hits, chk.approx)
            }
            None => (1, 0, 0),
        };
        let mut tree = std::mem::take(&mut self.tree);
        let cut = tree.rewind(tree_len, worlds.iter().map(|w| w.id));
        self.retired = (retired, cut);
        engine.tree.replace(tree);
        self.cap_hits.truncate(cap_len);
        engine.stats.cap_hits.replace(std::mem::take(&mut self.cap_hits));
        let mut approx = std::mem::take(&mut self.approx);
        approx.truncate(approx_len);

        // Execute the dirty suffix, recording a checkpoint per statement.
        let executed = stmts.len() - replayed;
        let t_start = Instant::now();
        let setup_us = (t_start - t_setup).as_micros() as u64;
        for ((canon, layout), item) in stmts.into_iter().zip(&script.items).skip(replayed) {
            let (next, keep_going) = engine.step(worlds, item);
            worlds = next;
            approx.extend(shoal_relang::take_approx_hits());
            if !keep_going {
                break;
            }
            let chk = Checkpoint {
                worlds: worlds.clone(),
                peak_live: engine.stats.peak_live.get(),
                audit: engine.audit.borrow().clone(),
                tree_len: engine.tree.borrow().len(),
                cap_hits: engine.stats.cap_hits.borrow().len(),
                approx: approx.len(),
            };
            last.push(Recorded { canon, layout, chk });
        }
        let exec_us = t_start.elapsed().as_micros() as u64;

        self.stats.replayed += replayed as u64;
        self.stats.executed += executed as u64;
        self.stats.last_replayed = replayed;
        self.stats.last_executed = executed;
        shoal_obs::counter_add("incr.replayed", replayed as u64);
        shoal_obs::counter_add("incr.executed", executed as u64);
        shoal_obs::event!(
            "incr_replay",
            statements = executed + replayed,
            replayed = replayed,
            executed = executed,
            summaries = last.len()
        );
        let report = finalize(&engine, worlds, &approx, [parse_us, setup_us, exec_us], t_start);
        self.last = last;
        self.tree = report.world_tree.clone();
        self.cap_hits = engine.stats.cap_hits.take();
        self.approx = approx;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serialized report body (the byte-identity unit the daemon
    /// caches and the CLI emits).
    fn body_text(report: &AnalysisReport) -> String {
        crate::provenance::reports_json(&[("doc".to_string(), report.clone())]).to_text()
    }

    #[test]
    fn session_replays_unchanged_source_completely() {
        let src = "echo one\nfalse || echo two\nrm -rf \"$d/\"*\n";
        let mut session = IncrSession::new(AnalysisOptions::default());
        let first = session.analyze(src).expect("valid script");
        assert_eq!(session.stats.last_executed, 3);
        assert_eq!(session.stats.last_replayed, 0);
        let second = session.analyze(src).expect("valid script");
        assert_eq!(session.stats.last_replayed, 3, "identical source replays fully");
        assert_eq!(session.stats.last_executed, 0);
        assert_eq!(first.diagnostics, second.diagnostics);
        assert_eq!(body_text(&first), body_text(&second));
    }

    #[test]
    fn trailing_edit_replays_the_prefix_only() {
        let base = "echo a\necho b\necho c\n";
        let edited = "echo a\necho b\necho changed\n";
        let mut session = IncrSession::new(AnalysisOptions::default());
        session.analyze(base).expect("valid script");
        let incr = session.analyze(edited).expect("valid script");
        assert_eq!(session.stats.last_replayed, 2);
        assert_eq!(session.stats.last_executed, 1);
        let cold = crate::analyze::analyze_source(edited).expect("valid script");
        assert_eq!(incr.diagnostics, cold.diagnostics);
        assert_eq!(incr.terminal_worlds, cold.terminal_worlds);
    }

    #[test]
    fn blank_line_above_reexecutes_the_shifted_statements() {
        let base = "rm -rf \"$d/\"*\necho done\n";
        let shifted = "\n\nrm -rf \"$d/\"*\necho done\n";
        let mut session = IncrSession::new(AnalysisOptions::default());
        session.analyze(base).expect("valid script");
        let incr = session.analyze(shifted).expect("valid script");
        assert_eq!(session.stats.last_replayed, 0, "a moved statement must not replay");
        assert_eq!(session.stats.last_executed, 2);
        let cold = crate::analyze::analyze_source(shifted).expect("valid script");
        assert_eq!(body_text(&incr), body_text(&cold));
    }

    #[test]
    fn budgeted_options_fall_back_to_full_analysis() {
        let mut session = IncrSession::new(AnalysisOptions {
            fuel: Some(10),
            ..AnalysisOptions::default()
        });
        let src = "echo a\necho b\n";
        session.analyze(src).expect("valid script");
        session.analyze(src).expect("valid script");
        assert_eq!(session.stats.full_fallbacks, 2);
        assert_eq!(session.stats.replayed, 0);
        let cold = crate::analyze::analyze_source_with(
            src,
            AnalysisOptions { fuel: Some(10), ..AnalysisOptions::default() },
        )
        .expect("valid script");
        let incr = session.analyze(src).expect("valid script");
        assert_eq!(incr.diagnostics, cold.diagnostics);
    }
}
