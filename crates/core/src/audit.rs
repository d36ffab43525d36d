//! shoal-audit: the engine-side precision/coverage recorder and the
//! fleet-wide `shoal-audit/v1` report.
//!
//! The obs layer ([`shoal_obs::audit`]) defines the mergeable
//! [`CoverageMap`]; this module owns the two ends that need engine
//! knowledge:
//!
//! * [`AuditRecorder`] — collected by the engine during one analysis
//!   (only when [`crate::AnalysisOptions::audit`] is set; the recorder
//!   holds empty containers otherwise and is never touched, so the
//!   audit-off path allocates nothing and reads no clocks). Command
//!   occurrences are deduplicated **per call site** (name + line), not
//!   per live world: a script that forks into 64 worlds before calling
//!   an unspecced command still counts one site, so fork explosion
//!   cannot skew missing-spec rankings.
//! * [`AuditReport`] — the fleet fold over a [`ScanSummary`]: commands
//!   ranked by `scripts × sites` lacking specs, the precision-loss
//!   taxonomy with per-cause totals and worst-offender scripts, and
//!   checker fired/suppressed counts. Rendering (text and JSON) is
//!   byte-deterministic: every collection is ordered, nothing depends
//!   on scheduling, clocks, or hash order.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::scan::ScanSummary;
use crate::stats::{CapHit, CapReason};
use shoal_obs::audit::{CheckerCov, CommandCov, CoverageMap, LossCause};
use shoal_obs::json::Json;

/// The closed universe of engine checkers, in canonical order. Every
/// per-script [`CoverageMap`] carries an entry for each (fired or not)
/// so "degraded and silent" — the suppression upper bound — is
/// well-defined and merge-stable.
pub const CHECKER_IDS: [&str; 5] = ["delete", "idempotence", "platform", "rm", "streamty"];

#[derive(Debug, Clone, Default)]
struct CmdRec {
    has_spec: bool,
    lines: BTreeSet<u32>,
}

/// Per-analysis audit state: the command call sites the engine saw,
/// finished into a single-script [`CoverageMap`]. It starts empty; an
/// audit-off analysis constructs exactly one of these (an empty
/// `BTreeMap` header, no heap allocation) and never calls into it.
/// Precision losses are not recorded here: [`AuditRecorder::finish`]
/// derives them from the engine's cap hits.
#[derive(Debug, Clone, Default)]
pub struct AuditRecorder {
    commands: BTreeMap<String, CmdRec>,
}

impl AuditRecorder {
    /// Records one command occurrence at a call site. Repeated hits on
    /// the same (name, line) — e.g. from many live worlds executing the
    /// same statement — collapse into one site.
    pub fn record_command(&mut self, name: &str, line: u32, has_spec: bool) {
        let rec = self.commands.entry(name.to_string()).or_default();
        rec.has_spec |= has_spec;
        rec.lines.insert(line);
    }

    /// Finalizes into a single-script [`CoverageMap`]: checker firing
    /// counts come from the final deduplicated diagnostics (via their
    /// `checker:<id>` origin tags), every unspecced call site becomes a
    /// [`LossCause::NoSpec`] loss, and each merged cap hit becomes the
    /// loss [`cap_loss`] maps it to, at site `line N`.
    pub fn finish(self, diagnostics: &[Diagnostic], cap_hits: &[CapHit]) -> CoverageMap {
        let mut m = CoverageMap { scripts: 1, ..CoverageMap::default() };
        for id in CHECKER_IDS {
            m.checkers.insert(id.to_string(), CheckerCov::default());
        }
        for d in diagnostics {
            if let Some(id) = d.origin.as_deref().and_then(|o| o.strip_prefix("checker:")) {
                if let Some(c) = m.checkers.get_mut(id) {
                    c.fired += 1;
                }
            }
        }
        let mut no_spec_sites: Vec<String> = Vec::new();
        for (name, rec) in self.commands {
            if !rec.has_spec {
                for line in &rec.lines {
                    no_spec_sites.push(format!("{name}:{line}"));
                }
            }
            m.commands.insert(
                name,
                CommandCov { has_spec: rec.has_spec, sites: rec.lines.len() as u64, scripts: 1 },
            );
        }
        for site in no_spec_sites {
            m.add_loss(LossCause::NoSpec, &site, 1);
        }
        for hit in cap_hits {
            if let Some((cause, n)) = cap_loss(hit) {
                m.add_loss(cause, &format!("line {}", hit.line), n);
            }
        }
        m
    }
}

/// The precision loss one merged cap hit stands for: the worlds
/// dropped at the world and expansion caps, one event per hit for loop
/// widening and budget exhaustion. A DFA-cap loss is `None` here: it
/// comes from the approximation events, which name the construction
/// that gave up.
fn cap_loss(hit: &CapHit) -> Option<(LossCause, u64)> {
    let (cause, n) = match hit.reason {
        CapReason::MaxWorlds => (LossCause::WorldCap, hit.dropped),
        CapReason::Expansion => (LossCause::ExpansionCap, hit.dropped),
        CapReason::LoopBound => (LossCause::LoopWiden, hit.hits),
        CapReason::Fuel => (LossCause::Fuel, hit.hits),
        CapReason::Deadline => (LossCause::Deadline, hit.hits),
        CapReason::DfaStates => return None,
    };
    Some((cause, n as u64))
}

/// One command in the missing-spec ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingSpec {
    pub command: String,
    pub scripts: u64,
    pub sites: u64,
    /// `scripts × sites` — the mining-priority score.
    pub score: u64,
}

/// The fleet-wide audit fold over a scan: spec coverage, the
/// precision-loss taxonomy, and checker health.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Scripts the scan saw.
    pub total: usize,
    /// Scripts that produced a coverage map.
    pub audited: usize,
    /// Scripts with no coverage map (workers that panicked twice) —
    /// reported explicitly, never silently dropped.
    pub unaudited: usize,
    /// The merged fleet coverage map.
    pub fleet: CoverageMap,
    /// Commands lacking specs, ranked by score descending then name.
    pub missing: Vec<MissingSpec>,
    /// Per cause: worst-offender scripts as (path, loss count), count
    /// descending then path ascending, capped at
    /// [`AuditReport::WORST_PER_CAUSE`].
    pub worst: BTreeMap<LossCause, Vec<(String, u64)>>,
}

impl AuditReport {
    /// Worst-offender scripts kept per cause (the JSON carries the full
    /// per-cause totals regardless, so this cap loses no counts).
    pub const WORST_PER_CAUSE: usize = 3;

    /// Builds the fleet report from per-script scan results. Input
    /// order does not matter (CoverageMap merge is commutative and the
    /// rankings re-sort), so any `--jobs` schedule folds to the same
    /// report.
    pub fn build(summary: &ScanSummary) -> AuditReport {
        let mut fleet = CoverageMap::default();
        let mut audited = 0usize;
        let mut per_script: Vec<(&str, &CoverageMap)> = Vec::new();
        for r in &summary.results {
            if let Some(cov) = r.report.as_ref().and_then(|rep| rep.coverage.as_ref()) {
                audited += 1;
                fleet.merge(cov);
                per_script.push((r.path.as_str(), cov));
            }
        }
        let missing = fleet
            .missing_specs()
            .into_iter()
            .map(|(name, c, score)| MissingSpec {
                command: name.to_string(),
                scripts: c.scripts,
                sites: c.sites,
                score,
            })
            .collect();
        let mut worst: BTreeMap<LossCause, Vec<(String, u64)>> = BTreeMap::new();
        for cause in LossCause::ALL {
            let mut offenders: Vec<(String, u64)> = per_script
                .iter()
                .filter_map(|(path, cov)| {
                    let n = cov.loss_totals().get(&cause).copied().unwrap_or(0);
                    (n > 0).then(|| (path.to_string(), n))
                })
                .collect();
            if offenders.is_empty() {
                continue;
            }
            offenders.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            offenders.truncate(Self::WORST_PER_CAUSE);
            worst.insert(cause, offenders);
        }
        AuditReport {
            total: summary.results.len(),
            audited,
            unaudited: summary.results.len() - audited,
            fleet,
            missing,
            worst,
        }
    }

    /// The `shoal-audit/v1` JSON document. Byte-deterministic: all maps
    /// are ordered and all rankings break ties on names/paths.
    pub fn to_json(&self) -> Json {
        let missing = self
            .missing
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("command".to_string(), Json::Str(m.command.clone())),
                    ("scripts".to_string(), Json::Num(m.scripts as f64)),
                    ("sites".to_string(), Json::Num(m.sites as f64)),
                    ("score".to_string(), Json::Num(m.score as f64)),
                ])
            })
            .collect();
        let by_cause = self
            .fleet
            .loss_totals()
            .iter()
            .map(|(cause, n)| (cause.as_str().to_string(), Json::Num(*n as f64)))
            .collect();
        let worst = self
            .worst
            .iter()
            .map(|(cause, offenders)| {
                (
                    cause.as_str().to_string(),
                    Json::Arr(
                        offenders
                            .iter()
                            .map(|(path, n)| {
                                Json::Obj(vec![
                                    ("path".to_string(), Json::Str(path.clone())),
                                    ("count".to_string(), Json::Num(*n as f64)),
                                ])
                            })
                            .collect(),
                    ),
                )
            })
            .collect();
        let checkers = self
            .fleet
            .checkers
            .iter()
            .map(|(id, c)| {
                (
                    id.clone(),
                    Json::Obj(vec![
                        ("fired".to_string(), Json::Num(c.fired as f64)),
                        ("suppressed".to_string(), Json::Num(c.suppressed as f64)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::Str("shoal-audit/v1".to_string())),
            ("tool".to_string(), Json::Str("shoal".to_string())),
            ("version".to_string(), Json::Str(env!("CARGO_PKG_VERSION").to_string())),
            (
                "scripts".to_string(),
                Json::Obj(vec![
                    ("total".to_string(), Json::Num(self.total as f64)),
                    ("audited".to_string(), Json::Num(self.audited as f64)),
                    ("unaudited".to_string(), Json::Num(self.unaudited as f64)),
                    ("degraded".to_string(), Json::Num(self.fleet.degraded_scripts as f64)),
                ]),
            ),
            ("missing_specs".to_string(), Json::Arr(missing)),
            (
                "losses".to_string(),
                Json::Obj(vec![
                    ("total".to_string(), Json::Num(self.fleet.total_losses() as f64)),
                    ("by_cause".to_string(), Json::Obj(by_cause)),
                    ("worst".to_string(), Json::Obj(worst)),
                ]),
            ),
            ("checkers".to_string(), Json::Obj(checkers)),
        ])
    }

    /// Human rendering. The missing-spec table shows the top 10 with an
    /// explicit `(+N more)` marker — no silent truncation.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "audit: {} script(s) — {} audited, {} unaudited, {} degraded\n",
            self.total, self.audited, self.unaudited, self.fleet.degraded_scripts
        ));
        if self.missing.is_empty() {
            out.push_str("missing specs: none — every command was covered\n");
        } else {
            out.push_str("missing specs (score = scripts x sites):\n");
            for m in self.missing.iter().take(10) {
                out.push_str(&format!(
                    "  {:<20} score {:>4}   ({} script(s), {} site(s))\n",
                    m.command, m.score, m.scripts, m.sites
                ));
            }
            if self.missing.len() > 10 {
                out.push_str(&format!("  (+{} more)\n", self.missing.len() - 10));
            }
        }
        let totals = self.fleet.loss_totals();
        out.push_str(&format!("precision losses: {} total\n", self.fleet.total_losses()));
        for (cause, n) in &totals {
            let offenders = self
                .worst
                .get(cause)
                .map(|v| {
                    v.iter()
                        .map(|(p, c)| format!("{p} ({c})"))
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .unwrap_or_default();
            out.push_str(&format!("  {:<14} {:>5}   worst: {}\n", cause.as_str(), n, offenders));
        }
        out.push_str("checkers (fired / possibly suppressed):\n");
        for (id, c) in &self.fleet.checkers {
            out.push_str(&format!("  {:<14} {:>5} / {}\n", id, c.fired, c.suppressed));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{DiagCode, Severity};
    use shoal_shparse::Span;

    #[test]
    fn recorder_dedupes_call_sites_not_worlds() {
        let mut rec = AuditRecorder::default();
        // 64 live worlds all executing `mystery` at line 7.
        for _ in 0..64 {
            rec.record_command("mystery", 7, false);
        }
        rec.record_command("mystery", 9, false);
        let cov = rec.finish(&[], &[]);
        assert_eq!(cov.commands["mystery"].sites, 2);
        let totals = cov.loss_totals();
        assert_eq!(totals[&LossCause::NoSpec], 2);
    }

    #[test]
    fn finish_counts_checker_firings_and_flags_suppression() {
        let rec = AuditRecorder::default();
        let widened = CapHit { reason: CapReason::LoopBound, line: 3, dropped: 0, hits: 1 };
        let fired = Diagnostic::new(
            DiagCode::DangerousDelete,
            Severity::Error,
            Span::new(0, 0, 2),
            "boom".to_string(),
        )
        .with_origin("checker:delete");
        let cov = rec.finish(&[fired], &[widened]);
        assert_eq!(cov.loss_totals()[&LossCause::LoopWiden], 1);
        assert_eq!(cov.checkers["delete"].fired, 1);
        assert_eq!(cov.checkers["delete"].suppressed, 0);
        // Degraded script + silent checker = possibly suppressed.
        assert_eq!(cov.checkers["platform"].suppressed, 1);
        assert_eq!(cov.degraded_scripts, 1);
    }
}
