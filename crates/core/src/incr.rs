//! shoal-incr: statement-level incremental analysis.
//!
//! The cold engine analyzes a script by folding [`Engine::step`] over
//! the top-level statements. This module makes that fold *resumable*:
//! after every statement it checkpoints the full engine-visible state
//! (live worlds, world tree, exploration counters, audit recorder,
//! accumulated relang approximation events) and files the checkpoint in
//! a summary cache keyed by
//!
//! ```text
//! (canonical statement hash, input-state fingerprint)
//! ```
//!
//! The statement hash is content-addressed — it hashes the
//! pretty-printed canonical subtree ([`shoal_shparse::canonical_item`]),
//! never byte spans — so inserting a blank line or a comment above a
//! statement does not change its identity. The *initial* fingerprint is
//! a stable digest over the COW containers that make up the starting
//! [`World`] (their `Debug` renderings are deterministic by
//! construction), plus the world tree, stats, audit state, and the
//! options/annotations context. Every subsequent fingerprint is
//! *chained*: `fp_out = H(fp_in, canonical statement text)`. Chaining
//! is sound because [`Engine::step`] is deterministic — equal input
//! states fed equal statements produce equal output states — and it
//! makes recording a summary O(statement) instead of O(abstract state),
//! which is what keeps a one-line edit far cheaper than a cold run even
//! when the symbolic state is large. The chain is position-blind
//! (canonical text carries no byte offsets); position agreement is
//! enforced separately by the relocation licence below.
//!
//! **Replay.** On re-analysis the session walks the new script's
//! statements, chaining `fingerprint → summary → stored output
//! fingerprint → next lookup` with zero state materialization. The walk
//! stops at the first miss (the *dirty suffix*); only there is the
//! deepest checkpoint cloned back into a fresh engine — O(live worlds)
//! thanks to structural sharing — and the remaining statements
//! re-executed. Editing line 900 of a 1000-line script replays 899
//! cached summaries and executes the rest.
//!
//! **Byte-identity.** Both paths share [`crate::analyze`]'s prologue
//! and finalization verbatim, and a fingerprint match implies the
//! entire engine-visible state is identical up to the constant position
//! shifts the relocation licence reconstructs exactly, so by induction
//! the incremental report body is byte-identical to a cold run's. The
//! `tests/incr.rs` property test and the ci.sh `cmp` gate enforce this.
//!
//! **Relocation.** A whitespace-only edit *above* a statement shifts
//! its byte offsets and line numbers without changing its content.
//! Replay then requires rewriting the positions baked into the
//! restored checkpoint (diagnostic spans, provenance trails, world-tree
//! fork lines, cap-hit lines, audit loss sites). This is sound only
//! when each replayed statement's raw text is byte-identical to the
//! recorded one — then every internal offset maps by a constant
//! per-statement delta. Anything unmappable (a span outside every
//! replayed region, a line shared by regions that shift differently, a
//! world carrying function definitions whose ASTs hold old spans)
//! aborts relocation and falls back to replaying the longest unshifted
//! prefix — never to wrong output.
//!
//! **Fallback-to-full.** Fuel/deadline budgets charge per statement
//! *executed*, which replay skips, so budgeted analyses decline
//! incrementality entirely and run the cold path (the flag is a
//! strategy switch, never a semantics switch).

use std::collections::HashMap;
use std::time::Instant;

use crate::analyze::{finalize, prologue, AnalysisOptions, AnalysisReport};
use crate::annotations::Annotations;
use crate::audit::AuditRecorder;
use crate::diag::{DiagCode, Diagnostic, Severity};
use crate::engine::Engine;
use crate::provenance::{Provenance, Trail, TrailEntry, WorldTree};
use crate::stats::CapHit;
use crate::world::World;
use shoal_obs::hash::fnv1a64;
use shoal_obs::CowList;
use shoal_relang::ApproxReason;
use shoal_shparse::{canonical_item, parse_script, ParseError, Script, Span};

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
    /// Replays that rewrote positions (whitespace-shift edits).
    pub relocations: u64,
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
    forks: u64,
    pruned: u64,
    cap_dropped: u64,
    merged: u64,
    peak_live: usize,
    cap_hits: Vec<CapHit>,
    audit: AuditRecorder,
    /// Approximation events accumulated from the start of the script
    /// through this statement (order preserved — finalization counts
    /// and attributes them).
    approx: Vec<ApproxReason>,
}

/// One cached statement summary: the output-state fingerprint (for
/// chaining without materialization), the checkpoint, and the recorded
/// position/text (for relocation).
#[derive(Debug, Clone)]
struct StmtSummary {
    fp_out: u128,
    /// Canonical rendering — compared on hit so a 64-bit hash collision
    /// can never replay the wrong statement.
    canon: String,
    /// Raw source slice at record time; byte-identity licenses
    /// constant-delta span relocation. Here-document bodies live
    /// outside this slice but inside `canon`, so body edits still miss
    /// the cache while body *shifts* (which no span references) replay.
    raw: String,
    start: usize,
    end: usize,
    line_start: u32,
    line_end: u32,
    generation: u64,
    chk: Checkpoint,
}

/// One statement of the script being analyzed, in new coordinates.
struct StmtInfo {
    hash: u64,
    canon: String,
    start: usize,
    end: usize,
    line_start: u32,
    line_end: u32,
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

    /// Parses and analyzes one version of the document. Mirrors
    /// [`crate::analyze::analyze_source_with`] exactly — same parse
    /// spans, same malformed-annotation recovery — but serves the
    /// execution from the summary cache where fingerprints allow.
    ///
    /// # Errors
    ///
    /// Returns the parse error if the source is not valid shell (the
    /// LSP server falls back to resilient cold analysis in that case).
    pub fn analyze(&mut self, src: &str) -> Result<AnalysisReport, ParseError> {
        let t_parse = Instant::now();
        let script = {
            let _span = shoal_obs::span!("parse");
            parse_script(src)?
        };
        let parse_us = t_parse.elapsed().as_micros() as u64;
        shoal_obs::trace::phase_add("parse", parse_us);
        let attach_parse = |mut report: AnalysisReport| {
            if let Some(p) = report.profile.as_mut() {
                p.parse_us = parse_us;
                p.total_us += parse_us;
            }
            report
        };
        let t_setup = Instant::now();
        match crate::annotations::parse_annotations(src) {
            Ok(annotations) => Ok(attach_parse(self.run(src, &script, annotations, t_setup))),
            Err(e) => {
                let mut report = self.run(src, &script, Annotations::default(), t_setup);
                report.diagnostics.insert(
                    0,
                    Diagnostic::new(
                        DiagCode::AnalysisIncomplete,
                        Severity::Note,
                        Span::new(0, 0, e.line),
                        e.to_string(),
                    ),
                );
                Ok(attach_parse(report))
            }
        }
    }

    /// The incremental engine proper: chain walk, frontier
    /// materialization (with relocation), dirty-suffix execution,
    /// summary recording, shared finalization. Setup, charged from
    /// `t_setup` to the first executed statement, includes the
    /// statement digests, the chain walk and the frontier restore.
    fn run(
        &mut self,
        src: &str,
        script: &Script,
        annotations: Annotations,
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
            return crate::analyze::analyze_timed(script, self.opts.clone(), annotations, t_setup);
        }

        let infos: Vec<StmtInfo> = script
            .items
            .iter()
            .map(|item| {
                let (canon, _uses_heredoc) = canonical_item(script, item);
                let span = item.and_or.span();
                let raw = src.get(span.start..span.end).unwrap_or("");
                StmtInfo {
                    hash: fnv1a64(canon.as_bytes()),
                    canon,
                    start: span.start,
                    end: span.end,
                    line_start: span.line,
                    line_end: span.line + raw.matches('\n').count() as u32,
                }
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
        // A hit additionally requires canonical-text equality (collision
        // guard) and raw-text equality (relocation licence).
        let mut chain: Vec<(u64, u128)> = Vec::new();
        let mut fp_cur = fp0;
        for info in &infos {
            let key = (info.hash, fp_cur);
            let Some(s) = self.summaries.get(&key) else { break };
            let raw = src.get(info.start..info.end).unwrap_or("");
            if s.canon != info.canon || s.raw != raw {
                break;
            }
            fp_cur = s.fp_out;
            chain.push(key);
        }

        // Decide how much of the hit chain is actually usable: an
        // unshifted chain replays as-is; a shifted one needs its
        // frontier checkpoint relocated, which can fail (then only the
        // unshifted prefix replays).
        let zero_delta_prefix = chain
            .iter()
            .enumerate()
            .take_while(|(i, key)| {
                let s = &self.summaries[key];
                s.start == infos[*i].start && s.line_start == infos[*i].line_start
            })
            .count();
        let mut replayed = chain.len();
        let mut restored: Option<(Checkpoint, bool)> = None;
        while replayed > 0 {
            let s = &self.summaries[&chain[replayed - 1]];
            let needs_reloc = replayed > zero_delta_prefix;
            if !needs_reloc {
                restored = Some((s.chk.clone(), false));
                break;
            }
            let Some(reloc) = Relocator::build(&self.summaries, &chain[..replayed], &infos) else {
                replayed = zero_delta_prefix;
                continue;
            };
            let mut chk = s.chk.clone();
            if relocate_checkpoint(&mut chk, &reloc) {
                restored = Some((chk, true));
                break;
            }
            replayed = zero_delta_prefix;
        }

        // Materialize the frontier into the fresh engine.
        if let Some((chk, relocated)) = restored {
            engine.tree.replace(chk.tree);
            engine.stats.forks.set(chk.forks);
            engine.stats.pruned.set(chk.pruned);
            engine.stats.cap_dropped.set(chk.cap_dropped);
            engine.stats.merged.set(chk.merged);
            engine.stats.peak_live.set(chk.peak_live);
            *engine.stats.cap_hits.borrow_mut() = chk.cap_hits;
            engine.audit.replace(chk.audit);
            worlds = chk.worlds;
            approx = chk.approx;
            if relocated {
                self.stats.relocations += 1;
                shoal_obs::counter_add("incr.relocated", 1);
            }
            // Fingerprints are position-blind, so the stored output
            // fingerprint stays valid even after relocation.
            fp_cur = self.summaries[&chain[replayed - 1]].fp_out;
        } else {
            replayed = 0;
            fp_cur = fp0;
        }
        for key in &chain[..replayed] {
            if let Some(s) = self.summaries.get_mut(key) {
                s.generation = self.generation;
            }
        }

        // Execute the dirty suffix, recording a summary per statement.
        let executed = infos.len() - replayed;
        let t_start = Instant::now();
        let setup_us = (t_start - t_setup).as_micros() as u64;
        {
            let _span = shoal_obs::span!("exec_items");
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
                    forks: engine.stats.forks.get(),
                    pruned: engine.stats.pruned.get(),
                    cap_dropped: engine.stats.cap_dropped.get(),
                    merged: engine.stats.merged.get(),
                    peak_live: engine.stats.peak_live.get(),
                    cap_hits: engine.stats.cap_hits.borrow().clone(),
                    audit: engine.audit.borrow().clone(),
                    approx: approx.clone(),
                };
                let fp_out = chain_fp(fp_cur, &info.canon);
                let raw = src.get(info.start..info.end).unwrap_or("").to_string();
                self.summaries.insert(
                    (info.hash, fp_cur),
                    StmtSummary {
                        fp_out,
                        canon: info.canon.clone(),
                        raw,
                        start: info.start,
                        end: info.end,
                        line_start: info.line_start,
                        line_end: info.line_end,
                        generation: self.generation,
                        chk,
                    },
                );
                fp_cur = fp_out;
            }
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
        finalize(&engine, worlds, approx, setup_us, t_start, exec_us)
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

/// One-shot incremental analysis (the CLI's `--incremental` path): a
/// fresh session has nothing to replay, so this exists to exercise the
/// full incremental machinery — snapshotting included — while proving
/// byte-identity against the cold path on every invocation.
pub fn analyze_source_incremental(
    src: &str,
    opts: AnalysisOptions,
) -> Result<AnalysisReport, ParseError> {
    IncrSession::new(opts).analyze(src)
}

/// Digest of the full engine-visible *starting* state: worlds, tree,
/// counters, audit state, approximation events, and the
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
        "forks={};pruned={};capped={};merged={};peak={};hits={:?};",
        st.forks.get(),
        st.pruned.get(),
        st.cap_dropped.get(),
        st.merged.get(),
        st.peak_live.get(),
        st.cap_hits.borrow()
    );
    let _ = write!(s, "audit={:?};approx={approx:?}", engine.audit.borrow());
    let lo = fnv1a64(s.as_bytes());
    let hi = shoal_obs::hash::fnv1a64_seeded(lo ^ 0x9e37_79b9_7f4a_7c15, s.as_bytes());
    ((hi as u128) << 64) | lo as u128
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
    let lo = fnv1a64(s.as_bytes());
    let hi = shoal_obs::hash::fnv1a64_seeded(lo ^ 0x9e37_79b9_7f4a_7c15, s.as_bytes());
    ((hi as u128) << 64) | lo as u128
}

/// One replayed statement's position shift.
struct Region {
    old_start: usize,
    old_end: usize,
    old_line_start: u32,
    old_line_end: u32,
    byte_delta: isize,
    line_delta: i64,
}

/// Maps recorded (chain-coordinate) positions to the edited script's
/// positions. Fingerprint chaining guarantees the recorded positions of
/// the replayed statements are mutually consistent (a fingerprint match
/// implies the whole prefix state — spans included — is identical), so
/// the per-summary positions jointly describe one coherent old layout.
struct Relocator {
    regions: Vec<Region>,
}

impl Relocator {
    /// Builds the map for the replayed prefix, or `None` when it would
    /// be ambiguous (two statements share a line but shift differently —
    /// a mid-line split edit).
    fn build(
        summaries: &HashMap<(u64, u128), StmtSummary>,
        chain: &[(u64, u128)],
        infos: &[StmtInfo],
    ) -> Option<Relocator> {
        let mut regions: Vec<Region> = Vec::with_capacity(chain.len());
        for (i, key) in chain.iter().enumerate() {
            let s = &summaries[key];
            let r = Region {
                old_start: s.start,
                old_end: s.end,
                old_line_start: s.line_start,
                old_line_end: s.line_end,
                byte_delta: infos[i].start as isize - s.start as isize,
                line_delta: i64::from(infos[i].line_start) - i64::from(s.line_start),
            };
            for prev in &regions {
                let lines_overlap =
                    r.old_line_start <= prev.old_line_end && prev.old_line_start <= r.old_line_end;
                if lines_overlap && prev.line_delta != r.line_delta {
                    return None;
                }
            }
            regions.push(r);
        }
        Some(Relocator { regions })
    }

    #[cfg(test)]
    fn map_offset(&self, o: usize) -> Option<usize> {
        for r in &self.regions {
            if o >= r.old_start && o <= r.old_end {
                return Some((o as isize + r.byte_delta) as usize);
            }
        }
        (o == 0).then_some(0)
    }

    fn map_line(&self, l: u32) -> Option<u32> {
        if l == 0 {
            return Some(0);
        }
        for r in &self.regions {
            if l >= r.old_line_start && l <= r.old_line_end {
                return Some((i64::from(l) + r.line_delta) as u32);
            }
        }
        None
    }

    fn map_span(&self, sp: Span) -> Option<Span> {
        if sp.start == 0 && sp.end == 0 {
            // Synthetic span: only the line is meaningful.
            return Some(Span::new(0, 0, self.map_line(sp.line)?));
        }
        for r in &self.regions {
            if sp.start >= r.old_start && sp.start <= r.old_end {
                if sp.end > r.old_end {
                    return None;
                }
                let line = if sp.line == 0 {
                    0
                } else if sp.line >= r.old_line_start && sp.line <= r.old_line_end {
                    (i64::from(sp.line) + r.line_delta) as u32
                } else {
                    return None;
                };
                return Some(Span::new(
                    (sp.start as isize + r.byte_delta) as usize,
                    (sp.end as isize + r.byte_delta) as usize,
                    line,
                ));
            }
        }
        None
    }
}

fn relocate_trail(trail: &Trail, reloc: &Relocator) -> Option<Trail> {
    let mut out = Trail::new();
    for e in trail.iter() {
        out.push(TrailEntry {
            kind: e.kind,
            span: reloc.map_span(e.span)?,
            what: e.what.clone(),
        });
    }
    Some(out)
}

fn relocate_diag(d: &Diagnostic, reloc: &Relocator) -> Option<Diagnostic> {
    let provenance = match &d.provenance {
        None => None,
        Some(p) => Some(Provenance {
            world: p.world,
            trail: relocate_trail(&p.trail, reloc)?,
        }),
    };
    Some(Diagnostic {
        code: d.code,
        severity: d.severity,
        span: reloc.map_span(d.span)?,
        message: d.message.clone(),
        cap_reason: d.cap_reason,
        provenance,
        origin: d.origin.clone(),
    })
}

/// Rewrites every position in a restored checkpoint, or reports that it
/// cannot be done soundly (the caller then falls back to the unshifted
/// prefix). Function definitions block relocation: their AST bodies are
/// shared `Arc`s carrying old spans that a later call site would leak
/// into new diagnostics.
fn relocate_checkpoint(chk: &mut Checkpoint, reloc: &Relocator) -> bool {
    for w in chk.worlds.iter_mut() {
        if !w.functions.is_empty() {
            return false;
        }
        let Some(trail) = relocate_trail(&w.trail, reloc) else { return false };
        w.trail = trail;
        let mut diags = CowList::new();
        for d in w.diags.iter() {
            let Some(nd) = relocate_diag(d, reloc) else { return false };
            diags.push(nd);
        }
        w.diags = diags;
        let mut fragile = CowList::new();
        for entry in w.fragile_assumptions.iter() {
            let Some(nsp) = reloc.map_span(entry.2) else { return false };
            fragile.push((entry.0.clone(), entry.1, nsp));
        }
        w.fragile_assumptions = fragile;
    }
    for n in chk.tree.nodes.iter_mut() {
        match reloc.map_line(n.line) {
            Some(l) if l != n.line => std::sync::Arc::make_mut(n).line = l,
            Some(_) => {}
            None => return false,
        }
    }
    for h in chk.cap_hits.iter_mut() {
        match reloc.map_line(h.line) {
            Some(l) => h.line = l,
            None => return false,
        }
    }
    chk.audit.relocate_lines(&|l| reloc.map_line(l))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serialized report body (the byte-identity unit the daemon
    /// caches and the CLI emits).
    fn body_text(report: &AnalysisReport) -> String {
        crate::provenance::reports_json(&[("doc".to_string(), report.clone())]).to_text()
    }

    fn region(
        old_start: usize,
        old_end: usize,
        old_line_start: u32,
        old_line_end: u32,
        byte_delta: isize,
        line_delta: i64,
    ) -> Region {
        Region { old_start, old_end, old_line_start, old_line_end, byte_delta, line_delta }
    }

    #[test]
    fn relocator_maps_inside_regions_and_rejects_outside() {
        let r = Relocator { regions: vec![region(10, 20, 2, 2, 5, 1), region(30, 40, 4, 5, -3, -1)] };
        assert_eq!(r.map_offset(10), Some(15));
        assert_eq!(r.map_offset(20), Some(25));
        assert_eq!(r.map_offset(35), Some(32));
        assert_eq!(r.map_offset(25), None, "gap offsets never appear in state");
        assert_eq!(r.map_offset(0), Some(0), "synthetic zero offset is fixed");
        assert_eq!(r.map_line(2), Some(3));
        assert_eq!(r.map_line(5), Some(4));
        assert_eq!(r.map_line(0), Some(0));
        assert_eq!(r.map_line(9), None);
    }

    #[test]
    fn relocator_spans_stay_within_one_region() {
        let r = Relocator { regions: vec![region(0, 9, 1, 1, 2, 0), region(10, 19, 2, 2, 4, 1)] };
        assert_eq!(r.map_span(Span::new(1, 9, 1)), Some(Span::new(3, 11, 1)));
        assert_eq!(r.map_span(Span::new(5, 15, 1)), None, "cross-region span is unmappable");
        assert_eq!(r.map_span(Span::new(0, 0, 2)), Some(Span::new(0, 0, 3)));
    }

    #[test]
    fn ambiguous_line_shifts_refuse_to_build() {
        // Two statements recorded on line 3 that now shift differently:
        // `map_line(3)` would be ambiguous, so build() declines.
        let a = region(0, 9, 3, 3, 0, 0);
        let b = region(12, 20, 3, 3, 5, 1);
        let overlap = a.old_line_start <= b.old_line_end && b.old_line_start <= a.old_line_end;
        assert!(overlap && a.line_delta != b.line_delta);
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
    fn blank_line_above_relocates_instead_of_reexecuting() {
        let base = "rm -rf \"$d/\"*\necho done\n";
        let shifted = "\n\nrm -rf \"$d/\"*\necho done\n";
        let mut session = IncrSession::new(AnalysisOptions::default());
        session.analyze(base).expect("valid script");
        let incr = session.analyze(shifted).expect("valid script");
        assert_eq!(session.stats.last_executed, 0, "whitespace shift must not re-execute");
        assert_eq!(session.stats.last_replayed, 2);
        assert_eq!(session.stats.relocations, 1);
        let cold = crate::analyze::analyze_source(shifted).expect("valid script");
        assert_eq!(incr.diagnostics, cold.diagnostics, "relocated spans must match cold");
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
