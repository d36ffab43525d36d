//! Exploration statistics the world tree cannot answer: the peak live
//! world set and cap-hit records.
//!
//! The engine threads an [`EngineStats`] through every world-set
//! transformation via interior mutability (all `Engine` methods take
//! `&self`). Fork, prune, cap-drop and merge counts are not kept here:
//! the world tree ([`crate::provenance::WorldTree`]) is their only
//! record, and [`ProfileReport`] reads them off its leaves.

use std::cell::{Cell, RefCell};
use std::fmt;

/// Which exploration bound was hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapReason {
    /// The live world set exceeded `max_worlds` and was truncated.
    MaxWorlds,
    /// Word expansion produced more than `max_worlds` (world, fields)
    /// pairs and was truncated.
    Expansion,
    /// A loop ran past `loop_bound` iterations and was widened (havoc);
    /// no worlds are dropped, but precision is lost.
    LoopBound,
    /// The symbolic-step budget ([`crate::analyze::AnalysisOptions::fuel`])
    /// ran out; statements past the exhaustion point were not analyzed.
    Fuel,
    /// The wall-clock budget
    /// ([`crate::analyze::AnalysisOptions::deadline`]) expired;
    /// statements past the exhaustion point were not analyzed.
    Deadline,
    /// A `relang` DFA construction hit its state cap and degraded to a
    /// top-approximation (see [`shoal_relang::ApproxReason`]); some
    /// constraint answers are over-approximate.
    DfaStates,
}

impl CapReason {
    /// Stable machine-readable name (`max_worlds`, `expansion`,
    /// `loop_bound`, `fuel`, `deadline`, `dfa_states`).
    pub fn as_str(self) -> &'static str {
        match self {
            CapReason::MaxWorlds => "max_worlds",
            CapReason::Expansion => "expansion",
            CapReason::LoopBound => "loop_bound",
            CapReason::Fuel => "fuel",
            CapReason::Deadline => "deadline",
            CapReason::DfaStates => "dfa_states",
        }
    }
}

impl fmt::Display for CapReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One place where exploration hit a bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapHit {
    /// Which bound.
    pub reason: CapReason,
    /// Source line of the capped construct.
    pub line: u32,
    /// Worlds dropped from exploration here (0 for loop widening, which
    /// keeps the worlds but havocs their state).
    pub dropped: usize,
    /// How many times this site hit the bound.
    pub hits: usize,
}

/// Per-run exploration counters, updated through `&self`.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Peak size of any live world set processed at one point.
    pub peak_live: Cell<usize>,
    /// Every bound hit, in order: an append-only log, so a prefix of
    /// it is the log at an earlier point of the run (the incremental
    /// engine checkpoints its length). [`EngineStats::merged_cap_hits`]
    /// deduplicates it by (reason, line).
    pub cap_hits: RefCell<Vec<CapHit>>,
}

impl EngineStats {
    /// Observes a live world-set size, updating the peak.
    #[inline]
    pub fn note_live(&self, n: usize) {
        if n > self.peak_live.get() {
            self.peak_live.set(n);
            shoal_obs::gauge_max("engine.peak_live_worlds", n as u64);
        }
    }

    /// Logs a bound hit and emits a `cap_hit` trace event.
    pub fn note_cap(&self, reason: CapReason, line: u32, dropped: usize) {
        self.cap_hits.borrow_mut().push(CapHit {
            reason,
            line,
            dropped,
            hits: 1,
        });
        shoal_obs::counter_add("engine.cap_hits", 1);
        shoal_obs::event!(
            "cap_hit",
            reason = reason.as_str(),
            line = line,
            dropped = dropped
        );
    }

    /// The cap-hit records for the final report: the log with repeats
    /// at the same site merged, in order of each site's first hit.
    pub fn merged_cap_hits(&self) -> Vec<CapHit> {
        let mut merged: Vec<CapHit> = Vec::new();
        for hit in self.cap_hits.borrow().iter() {
            match merged
                .iter_mut()
                .find(|h| h.reason == hit.reason && h.line == hit.line)
            {
                Some(h) => {
                    h.dropped += hit.dropped;
                    h.hits += hit.hits;
                }
                None => merged.push(hit.clone()),
            }
        }
        merged
    }
}

/// Optional per-run profile attached to an `AnalysisReport` (the
/// `--profile` view): exact peak worlds, per-phase wall time, and the
/// exploration counts read off the world tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Parsing time (µs); 0 when analysis started from an AST.
    pub parse_us: u64,
    /// Setup time (µs): annotations, engine and initial world — every
    /// cost paid before the first statement runs.
    pub setup_us: u64,
    /// Symbolic execution time (µs).
    pub exec_us: u64,
    /// Idempotence-pass time (µs).
    pub idempotence_us: u64,
    /// Diagnostic dedup/sort time (µs).
    pub report_us: u64,
    /// End-to-end time (µs).
    pub total_us: u64,
    /// Exact peak size of the live world set.
    pub peak_live_worlds: usize,
    /// Worlds created beyond the first at branch sites.
    pub forks: u64,
    /// Infeasible branch candidates pruned by refinement.
    pub worlds_pruned: u64,
    /// Worlds dropped at `max_worlds` caps.
    pub cap_dropped: u64,
    /// Worlds folded into a same-state sibling at statement boundaries.
    pub merged: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_hits_merge_by_site() {
        let s = EngineStats::default();
        s.note_cap(CapReason::MaxWorlds, 3, 10);
        s.note_cap(CapReason::MaxWorlds, 3, 5);
        s.note_cap(CapReason::LoopBound, 3, 0);
        assert_eq!(s.cap_hits.borrow().len(), 3, "the log keeps every hit");
        let hits = s.merged_cap_hits();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].dropped, 15);
        assert_eq!(hits[0].hits, 2);
        assert_eq!((hits[1].reason, hits[1].hits), (CapReason::LoopBound, 1));
    }

    #[test]
    fn peak_live_is_monotone() {
        let s = EngineStats::default();
        s.note_live(3);
        s.note_live(1);
        assert_eq!(s.peak_live.get(), 3);
    }
}
