//! Pieces every workload shares: the verdict oracle, the run result,
//! work counters, and process measurements.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use shoal_core::AnalysisReport;

use crate::kernel::Meter;
use shoal_corpus::{BugClass, LabeledScript};

/// The checker codes a verdict is made of: the three bug classes the
/// labeled corpus injects.
pub const VERDICT_CODES: [&str; 3] = ["always-fails", "dangerous-delete", "dead-pipe"];

/// The verdict on one script: which of [`VERDICT_CODES`] it reports,
/// as a bit set in that order.
pub type Verdict = u8;

pub fn code_bit(code: &str) -> Verdict {
    VERDICT_CODES
        .iter()
        .position(|c| *c == code)
        .map_or(0, |i| 1 << i)
}

/// The known answer for a generated script: its ground-truth label.
pub fn label_verdict(s: &LabeledScript) -> Verdict {
    match s.class {
        BugClass::Benign => 0,
        class => code_bit(&class.to_string()),
    }
}

pub fn report_verdict(report: &AnalysisReport) -> Verdict {
    report
        .diagnostics
        .iter()
        .fold(0, |v, d| v | code_bit(&d.code.to_string()))
}

/// An analysis is complete when no bound was hit and nothing was
/// marked incomplete.
pub fn is_complete(report: &AnalysisReport) -> bool {
    report.cap_hits.is_empty() && !report.incomplete
}

/// The paper's figures with their known answers, as the paper states
/// them (Fig. 5 keeps Fig. 1's root deletion when `$SUFFIX` is unset).
pub fn figures() -> Vec<(String, String, Verdict)> {
    let dd = code_bit("dangerous-delete");
    let known = |name: &str| match name {
        "fig1" | "fig3" | "fig5-fixed" | "variant-split" => dd,
        "fig5" => dd | code_bit("dead-pipe"),
        "rm-then-cat" => code_bit("always-fails"),
        _ => 0,
    };
    shoal_corpus::figures::all()
        .into_iter()
        .map(|(name, src)| (name.to_string(), src.to_string(), known(name)))
        .collect()
}

/// Operations attempted and failed, and which inputs were analyzed
/// completely. An operation is the analysis of one input. It is
/// deterministic, so the timed loop's repetitions of it are the same
/// operation again: every repetition is checked, and an input fails
/// when any of its repetitions does. Counted this way, `attempted` and
/// `failed` do not depend on how many repetitions fit in the run.
#[derive(Default)]
pub struct Tally {
    /// Per input: (every check passed, every analysis complete).
    inputs: BTreeMap<usize, (bool, bool)>,
}

impl Tally {
    pub fn add(&mut self, input: usize, (ok, complete): (bool, bool)) {
        let e = self.inputs.entry(input).or_insert((true, true));
        e.0 &= ok;
        e.1 &= complete;
    }

    pub fn attempted(&self) -> u64 {
        self.inputs.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.inputs.values().filter(|(ok, _)| !ok).count() as u64
    }

    pub fn complete_share(&self) -> f64 {
        self.inputs.values().filter(|(_, c)| *c).count() as f64 / self.inputs.len() as f64
    }
}

/// Runs `op` on inputs `0..inputs` round-robin until `secs` have passed,
/// and at least once on every input, and tallies each check it returns;
/// marks each complete pass over the inputs on the meter and returns
/// the number of calls. `op` times its own call with the meter,
/// so it can keep set-up out of it.
pub fn round_robin(
    inputs: usize,
    secs: f64,
    meter: &mut Meter,
    tally: &mut Tally,
    mut op: impl FnMut(usize, &mut Meter) -> (bool, bool),
) -> usize {
    let deadline = Deadline::after(secs);
    let mut n = 0;
    for i in (0..inputs).cycle() {
        if n >= inputs && deadline.passed() {
            break;
        }
        tally.add(i, op(i, meter));
        n += 1;
        if i + 1 == inputs {
            meter.end_pass();
        }
    }
    n
}

/// What one run prints.
pub struct RunResult {
    /// False when the benchmark cannot vouch for its numbers: work
    /// counts did not repeat on identical inputs.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reads /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM: line");
    kb / 1024.0
}

/// A deadline for a timed loop.
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(secs: f64) -> Deadline {
        Deadline(Instant::now() + Duration::from_secs_f64(secs))
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// Work counters of one pass, read from the program's own metrics
/// (`shoal_obs::install()` turns them on). Must repeat exactly on
/// identical inputs.
pub type Counts = BTreeMap<String, u64>;

/// Runs `pass` with the program's metrics on and returns every counter
/// and gauge it touched.
pub fn counted(pass: impl FnOnce()) -> Counts {
    shoal_obs::install();
    pass();
    let snap = shoal_obs::snapshot();
    shoal_obs::set_enabled(false);
    let _ = shoal_obs::take_events();
    let mut out: Counts = snap.counters;
    out.extend(
        snap.gauges
            .into_iter()
            .map(|(k, v)| (format!("gauge:{k}"), v)),
    );
    out
}

/// Runs the counted pass twice from the same state (`reset` restores
/// it) and returns the counts and whether they repeated exactly.
pub fn counted_twice(mut reset: impl FnMut(), mut pass: impl FnMut()) -> (Counts, bool) {
    reset();
    let first = counted(&mut pass);
    reset();
    let second = counted(&mut pass);
    if first != second {
        for key in first.keys().chain(second.keys()) {
            if first.get(key) != second.get(key) {
                eprintln!(
                    "count {key} differs: {:?} vs {:?}",
                    first.get(key),
                    second.get(key)
                );
            }
        }
    }
    let same = first == second;
    (first, same)
}

/// A counter's value, 0 when it was never touched.
pub fn count(c: &Counts, name: &str) -> f64 {
    c.get(name).copied().unwrap_or(0) as f64
}

/// The `core.*` work counts, named as the benchmark reports them.
pub fn core_counts(c: &Counts, out: &mut Vec<(&'static str, f64, &'static str)>) {
    out.push(("core.forks", count(c, "engine.forks"), "count"));
    out.push(("core.pruned", count(c, "engine.pruned"), "count"));
    out.push(("core.cap_dropped", count(c, "engine.cap_dropped"), "count"));
    out.push(("core.cap_hits", count(c, "engine.cap_hits"), "count"));
    out.push((
        "core.peak_live_worlds",
        count(c, "gauge:engine.peak_live_worlds"),
        "count",
    ));
}

/// The `relang.*` work counts.
pub fn relang_counts(c: &Counts, out: &mut Vec<(&'static str, f64, &'static str)>) {
    let (hits, misses) = (count(c, "relang.memo_hit"), count(c, "relang.memo_miss"));
    out.push(("relang.memo_hits", hits, "count"));
    out.push(("relang.memo_misses", misses, "count"));
    let ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    out.push(("relang.memo_hit_ratio", ratio, "ratio"));
    out.push((
        "relang.lazy_pairs_explored",
        count(c, "relang.lazy_pairs_explored"),
        "count",
    ));
}

/// Median of `runs` corrected set-up times, with the state of the last.
pub fn setup_repeated<T>(runs: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(runs);
    let mut state = None;
    for _ in 0..runs {
        let (s, secs) = crate::kernel::corrected_once(&mut setup);
        times.push(secs);
        state = Some(s);
    }
    (
        state.expect("at least one set-up run"),
        crate::kernel::median(&times),
    )
}

/// Tracing overhead in percent: the traced per-operation mean against
/// the untraced one, both corrected.
pub fn overhead_pct(traced_us: f64, untraced_us: f64) -> f64 {
    100.0 * (traced_us / untraced_us - 1.0)
}
