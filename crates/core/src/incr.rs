//! shoal-incr: statement-level incremental analysis.
//!
//! The cold engine analyzes a script by folding [`Engine::step`] over
//! the top-level statements. This module makes that fold *resumable*:
//! after every statement it checkpoints the full engine-visible state
//! (live worlds, world tree, engine statistics, audit recorder,
//! accumulated relang approximation events) and files the checkpoint in
//! a summary cache keyed by
//!
//! ```text
//! (canonical statement hash, input-state fingerprint)
//! ```
//!
//! The statement hash hashes the pretty-printed canonical subtree
//! ([`shoal_shparse::canonical_item`], here-document bodies included).
//! The *initial* fingerprint is a stable digest over the COW containers
//! that make up the starting [`World`] (their `Debug` renderings are
//! deterministic by construction), plus the world tree, stats, audit
//! state, and the options/annotations context. Every subsequent
//! fingerprint is *chained*: `fp_out = H(fp_in, canonical statement
//! text)`. Chaining is sound because [`Engine::step`] is deterministic —
//! equal input states fed equal statements produce equal output states
//! — and it makes recording a summary O(statement) instead of
//! O(abstract state), which is what keeps a one-line edit far cheaper
//! than a cold run even when the symbolic state is large.
//!
//! **Replay.** On re-analysis the session walks the new script's
//! statements, chaining `fingerprint → summary → stored output
//! fingerprint → next lookup` with zero state materialization. A cached
//! statement replays only when its canonical text equals the recorded
//! one and it, and every statement above it, has the raw source slice,
//! byte offset and line it had when the summary was recorded (one
//! chained digest, `StmtInfo::layout`, compares all of that). The
//! walk stops at the first statement that misses or moved (the *dirty
//! suffix*). Only there is the deepest checkpoint cloned back into a
//! fresh engine — O(live worlds) thanks to structural sharing — and the
//! remaining statements re-executed. Editing line 900 of a 1000-line
//! script replays 899 cached summaries and executes the rest; inserting
//! a blank line above a statement re-executes it and everything below.
//!
//! **Byte-identity.** Both paths share [`crate::analyze`]'s prologue
//! and finalization verbatim. A replayed prefix is the same statements
//! at the same positions fed the same starting state, so its checkpoint
//! — spans, trails, world-tree lines, audit sites — is exactly what a
//! cold run reaches there, and by induction the incremental report body
//! is byte-identical to a cold run's. The `tests/incr.rs` suite
//! enforces this over the figures, the example corpus and random edits.
//!
//! **Fallback-to-full.** Fuel/deadline budgets charge per statement
//! *executed*, which replay skips, so budgeted analyses decline
//! incrementality entirely and run the cold path.

use std::collections::HashMap;
use std::time::Instant;

use crate::analyze::{
    finalize, prologue, read_annotations, timed_parse, AnalysisOptions, AnalysisReport,
};
use crate::annotations::Annotations;
use crate::audit::AuditRecorder;
use crate::engine::Engine;
use crate::provenance::WorldTree;
use crate::stats::CapHit;
use crate::world::World;
use shoal_obs::hash::fnv1a64;
use shoal_relang::ApproxReason;
use shoal_shparse::{canonical_item, parse_script, ParseError, Script};

/// Cumulative counters for one incremental session (also mirrored into
/// the obs counter plane as `incr.*`).
#[derive(Debug, Clone, Default)]
pub struct IncrStats {
    /// Analyses served by this session.
    pub runs: u64,
    /// Statements replayed from summaries (never executed).
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
/// indistinguishable from having executed the whole prefix. World and
/// audit containers are COW, so the snapshot cost is O(live worlds).
#[derive(Debug, Clone)]
struct Checkpoint {
    worlds: Vec<World>,
    tree: WorldTree,
    peak_live: usize,
    cap_hits: Vec<CapHit>,
    audit: AuditRecorder,
    /// Approximation events accumulated from the start of the script
    /// through this statement (order preserved — finalization counts
    /// and attributes them).
    approx: Vec<ApproxReason>,
}

/// One cached statement summary: the output-state fingerprint (for
/// chaining without materialization), the checkpoint, and what the
/// replay rule compares.
#[derive(Debug, Clone)]
struct StmtSummary {
    fp_out: u128,
    /// Canonical rendering — compared on hit so a 64-bit hash collision
    /// can never replay the wrong statement.
    canon: String,
    /// [`StmtInfo::layout`] at record time.
    layout: u128,
    generation: u64,
    chk: Checkpoint,
}

/// One statement of the script being analyzed.
struct StmtInfo {
    hash: u64,
    canon: String,
    /// Chained digest of the raw source slice, byte offset and line of
    /// this statement and of every statement before it. The checkpoint
    /// after a statement holds positions from the whole prefix, so the
    /// whole prefix must sit where it sat when the summary was
    /// recorded. Here-document bodies live outside the raw slices but
    /// inside `canon`, so body edits still miss the cache.
    layout: u128,
}

/// A per-document incremental analysis session: owns the summary cache
/// and serves repeated [`IncrSession::analyze`] calls over successive
/// versions of one script.
pub struct IncrSession {
    opts: AnalysisOptions,
    summaries: HashMap<(u64, u128), StmtSummary>,
    generation: u64,
    /// Session counters (see [`IncrStats`]).
    pub stats: IncrStats,
}

/// Generations a summary survives without being hit before eviction
/// considers it stale.
const KEEP_GENERATIONS: u64 = 8;

impl IncrSession {
    /// A fresh session (empty summary cache) for the given options.
    pub fn new(opts: AnalysisOptions) -> IncrSession {
        IncrSession { opts, summaries: HashMap::new(), generation: 0, stats: IncrStats::default() }
    }

    /// The options this session analyzes with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.opts
    }

    /// Live summary count (observability).
    pub fn summary_count(&self) -> usize {
        self.summaries.len()
    }

    /// Parses and analyzes one version of the document through the
    /// same front end as [`crate::analyze::analyze_source_with`] (parse
    /// timing, malformed-annotation note), but serves the execution
    /// from the summary cache where fingerprints allow.
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

    /// The incremental engine proper: chain walk, frontier
    /// materialization, dirty-suffix execution, summary recording,
    /// shared finalization. Setup, charged from `t_setup` to the first
    /// executed statement, includes the statement digests, the chain
    /// walk and the frontier restore.
    fn run(
        &mut self,
        src: &str,
        script: &Script,
        annotations: Annotations,
        parse_us: u64,
        t_setup: Instant,
    ) -> AnalysisReport {
        self.generation += 1;
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

        let mut layout = 0;
        let infos: Vec<StmtInfo> = script
            .items
            .iter()
            .map(|item| {
                let (canon, _uses_heredoc) = canonical_item(script, item);
                let span = item.and_or.span();
                let raw = src.get(span.start..span.end).unwrap_or("");
                layout = digest(&format!("{layout:x};{}:{};{raw}", span.start, span.line));
                StmtInfo { hash: fnv1a64(canon.as_bytes()), canon, layout }
            })
            .collect();
        // The context digest folds everything that parameterizes the
        // transition function but lives outside the stepped state:
        // options and inline annotations.
        let ctx = fnv1a64(
            format!("{};{:?}", self.opts.canonical(), annotations).as_bytes(),
        );

        let (engine, initial) = prologue(script, self.opts.clone(), annotations);
        let mut worlds = vec![initial];
        engine.stats.note_live(worlds.len());
        let mut approx: Vec<ApproxReason> = Vec::new();
        let fp0 = fingerprint(&engine, &worlds, &approx, ctx);

        // Chain walk: zero digests, zero materialization — each hit
        // hands over the stored output fingerprint for the next lookup.
        // The walk stops at the first statement that misses or that
        // moved, itself or through a statement above it.
        let mut replayed = 0;
        let mut frontier: Option<(u64, u128)> = None;
        let mut fp_cur = fp0;
        for info in &infos {
            let key = (info.hash, fp_cur);
            let Some(s) = self.summaries.get_mut(&key) else { break };
            if s.canon != info.canon || s.layout != info.layout {
                break;
            }
            s.generation = self.generation;
            fp_cur = s.fp_out;
            frontier = Some(key);
            replayed += 1;
        }

        // Materialize the frontier into the fresh engine.
        if let Some(key) = frontier {
            let chk = self.summaries[&key].chk.clone();
            engine.tree.replace(chk.tree);
            engine.stats.peak_live.set(chk.peak_live);
            *engine.stats.cap_hits.borrow_mut() = chk.cap_hits;
            engine.audit.replace(chk.audit);
            worlds = chk.worlds;
            approx = chk.approx;
        }

        // Execute the dirty suffix, recording a summary per statement.
        let executed = infos.len() - replayed;
        let t_start = Instant::now();
        let setup_us = (t_start - t_setup).as_micros() as u64;
        for (info, item) in infos[replayed..].iter().zip(&script.items[replayed..]) {
            let (next, keep_going) = engine.step(worlds, item);
            worlds = next;
            approx.extend(shoal_relang::take_approx_hits());
            if !keep_going {
                break;
            }
            let chk = Checkpoint {
                worlds: worlds.clone(),
                tree: engine.tree.borrow().clone(),
                peak_live: engine.stats.peak_live.get(),
                cap_hits: engine.stats.cap_hits.borrow().clone(),
                audit: engine.audit.borrow().clone(),
                approx: approx.clone(),
            };
            let fp_out = chain_fp(fp_cur, &info.canon);
            self.summaries.insert(
                (info.hash, fp_cur),
                StmtSummary {
                    fp_out,
                    canon: info.canon.clone(),
                    layout: info.layout,
                    generation: self.generation,
                    chk,
                },
            );
            fp_cur = fp_out;
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
            statements = infos.len(),
            replayed = replayed,
            executed = executed,
            summaries = self.summaries.len()
        );
        self.evict();
        finalize(&engine, worlds, approx, [parse_us, setup_us, exec_us], t_start)
    }

    /// Drops summaries not hit for [`KEEP_GENERATIONS`] analyses once
    /// the cache outgrows its working set — sessions track documents
    /// whose history is mostly shared, so this keeps memory proportional
    /// to the document, not to the edit count.
    fn evict(&mut self) {
        let cap = 1024;
        if self.summaries.len() > cap {
            let floor = self.generation.saturating_sub(KEEP_GENERATIONS);
            self.summaries.retain(|_, s| s.generation >= floor);
        }
    }
}

/// Digest of the full engine-visible *starting* state: worlds, tree,
/// engine statistics, audit state, approximation events, and the
/// options/annotations context — every input the execution and the
/// finalization read. Built from `Debug` renderings: every container
/// involved (CowVec/CowMap/CowList, Pmap, BTreeMap) iterates
/// deterministically, making the rendering a canonical form. Only the
/// chain root is digested this way — the initial state is tiny — and
/// every later fingerprint comes from [`chain_fp`].
fn fingerprint(engine: &Engine, worlds: &[World], approx: &[ApproxReason], ctx: u64) -> u128 {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(1024);
    let _ = write!(s, "ctx={ctx:x};");
    for w in worlds {
        let _ = write!(s, "{w:?};");
    }
    let _ = write!(s, "tree={:?};", engine.tree.borrow());
    let st = &engine.stats;
    let _ = write!(
        s,
        "peak={};hits={:?};",
        st.peak_live.get(),
        st.cap_hits.borrow()
    );
    let _ = write!(s, "audit={:?};approx={approx:?}", engine.audit.borrow());
    digest(&s)
}

/// The output fingerprint of executing one statement from the state
/// fingerprinted by `fp_in`: a digest of the pair (input fingerprint,
/// canonical statement text). Sound because the transition function is
/// deterministic — equal abstract states fed equal statements reach
/// equal abstract states — so the chain value identifies the output
/// state without ever rendering it (recording a summary costs
/// O(statement), not O(abstract state)). The full canonical text goes
/// into the digest, not its 64-bit hash, so a statement-hash collision
/// cannot merge two different chains.
fn chain_fp(fp_in: u128, canon: &str) -> u128 {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(canon.len() + 40);
    let _ = write!(s, "fp={fp_in:x};stmt=");
    s.push_str(canon);
    digest(&s)
}

/// 128-bit digest: two seeded FNV-1a passes.
fn digest(s: &str) -> u128 {
    let lo = fnv1a64(s.as_bytes());
    let hi = shoal_obs::hash::fnv1a64_seeded(lo ^ 0x9e37_79b9_7f4a_7c15, s.as_bytes());
    ((hi as u128) << 64) | lo as u128
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
