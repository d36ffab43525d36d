//! The frozen reference kernel, the one-thread guard, and the drift
//! correction built on them.
//!
//! Host contention on a shared machine moves every timing by tens of
//! percent within minutes, and it moves them together. The benchmark
//! therefore interleaves short slices of a fixed kernel with the work
//! it times and reports each time as
//! `raw × (NOMINAL_US / kernel_measured)`, where `kernel_measured` is
//! the median kernel slice of the same window of wall time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nominal duration of one kernel slice, in µs. Frozen: it is the unit
/// every corrected time is expressed in, so changing it rescales every
/// reported time.
pub const NOMINAL_US: f64 = 60.0;

/// Strings built, hashed and sorted by one slice.
const SLICE_ITEMS: usize = 192;
/// Slices run back to back at each interleaving point.
const BURST: usize = 3;
/// Work timed between two bursts.
const BURST_EVERY: Duration = Duration::from_millis(3);
/// A window closes once it holds this many slices and this much wall
/// time; its median slice corrects every sample taken inside it.
const WINDOW_SLICES: usize = 30;
const WINDOW_WALL: Duration = Duration::from_secs(1);

/// One kernel slice: allocation, formatting, hashing and sorting of
/// path-like strings, the mix the analyzer spends its time on. The
/// work is identical on every call; `black_box` keeps the compiler from
/// folding it away.
fn slice_work() -> u64 {
    let n = black_box(SLICE_ITEMS);
    let mut paths: Vec<String> = (0..n)
        .map(|i| format!("/data/d{}/f{}", (i * 7919) % 997, i % 13))
        .collect();
    let mut seen: HashMap<&str, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, p) in paths.iter().enumerate() {
        *seen.entry(p.as_str()).or_insert(0) += i;
    }
    let folded = seen
        .values()
        .fold(0u64, |acc, &v| acc.wrapping_mul(31).wrapping_add(v as u64));
    paths.sort_unstable();
    folded ^ paths[n / 2].len() as u64
}

/// Panics unless the process runs exactly one thread. Checked before
/// every kernel slice: background work would slow the yardstick and
/// make the measured work look faster than it is.
pub fn assert_single_thread() {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the one-thread guard reads /proc/self/status");
    let threads: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("/proc/self/status has a Threads: line");
    assert_eq!(
        threads, 1,
        "the benchmark must run single-threaded; found {threads} threads"
    );
}

/// Runs one burst of kernel slices and returns their raw times (µs).
fn burst() -> [f64; BURST] {
    assert_single_thread();
    let mut out = [0.0; BURST];
    for slot in &mut out {
        let t = Instant::now();
        black_box(slice_work());
        *slot = t.elapsed().as_secs_f64() * 1e6;
    }
    out
}

/// One timed sample after correction. Kept compact: the benchmark's own
/// bookkeeping grows with the number of operations and would otherwise
/// show in `peak_rss_mb`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Caller-chosen label (an input index).
    pub tag: u32,
    pub raw_us: f32,
    pub corrected_us: f32,
}

/// Interleaves kernel bursts with timed work and corrects each sample
/// by the median kernel slice of its window.
pub struct Meter {
    last_burst: Option<Instant>,
    window_start: Instant,
    window_kernel: Vec<f64>,
    window_raw: Vec<(u32, f32)>,
    /// Every raw kernel slice (µs), for `bench.ref_kernel_ms`.
    pub kernel_us: Vec<f32>,
    /// Every corrected sample, in the order recorded.
    pub samples: Vec<Sample>,
    /// Samples recorded so far, and that count at the end of each pass.
    recorded: usize,
    pass_ends: Vec<usize>,
}

impl Default for Meter {
    fn default() -> Self {
        Meter {
            last_burst: None,
            window_start: Instant::now(),
            window_kernel: Vec::new(),
            window_raw: Vec::new(),
            kernel_us: Vec::new(),
            samples: Vec::new(),
            recorded: 0,
            pass_ends: Vec::new(),
        }
    }
}

impl Meter {
    /// Runs a kernel burst if enough work was timed since the last one.
    /// Call between operations, never inside a timed interval.
    pub fn tick(&mut self) {
        if self.last_burst.is_some_and(|t| t.elapsed() < BURST_EVERY) {
            return;
        }
        if self.window_kernel.len() >= WINDOW_SLICES && self.window_start.elapsed() >= WINDOW_WALL {
            self.close_window();
        }
        let b = burst();
        self.window_kernel.extend_from_slice(&b);
        self.kernel_us.extend(b.iter().map(|&k| k as f32));
        self.last_burst = Some(Instant::now());
    }

    /// Records a raw time measured by the caller.
    pub fn record(&mut self, tag: usize, raw_us: f64) {
        let tag = u32::try_from(tag).expect("input index fits in u32");
        self.window_raw.push((tag, raw_us as f32));
        self.recorded += 1;
    }

    /// Marks the end of a pass: every pass of a run is the same work.
    pub fn end_pass(&mut self) {
        self.pass_ends.push(self.recorded);
    }

    /// The corrected samples of each complete pass; all samples as one
    /// pass when none was marked.
    pub fn passes(&self) -> Vec<&[Sample]> {
        if self.pass_ends.is_empty() {
            return vec![&self.samples];
        }
        let mut start = 0;
        self.pass_ends
            .iter()
            .map(|&end| {
                let pass = &self.samples[start..end];
                start = end;
                pass
            })
            .collect()
    }

    /// Ticks, then times `f` and records it under `tag`.
    pub fn time<T>(&mut self, tag: usize, f: impl FnOnce() -> T) -> T {
        self.tick();
        let t = Instant::now();
        let out = f();
        self.record(tag, t.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn close_window(&mut self) {
        if self.window_raw.is_empty() && !self.window_kernel.is_empty() {
            self.window_kernel.clear();
            self.window_start = Instant::now();
            return;
        }
        if self.window_kernel.is_empty() {
            self.window_kernel.extend_from_slice(&burst());
        }
        let factor = (NOMINAL_US / median(&self.window_kernel)) as f32;
        for (tag, raw_us) in self.window_raw.drain(..) {
            self.samples.push(Sample {
                tag,
                raw_us,
                corrected_us: raw_us * factor,
            });
        }
        self.window_kernel.clear();
        self.window_start = Instant::now();
    }

    /// Median raw kernel slice of the whole run, in µs.
    pub fn kernel_median_us(&self) -> f64 {
        let all: Vec<f64> = self.kernel_us.iter().map(|&k| f64::from(k)).collect();
        median(&all)
    }

    /// Closes the open window (with a final burst) and returns the
    /// corrected samples.
    pub fn finish(&mut self) -> &[Sample] {
        self.last_burst = None;
        let b = burst();
        self.window_kernel.extend_from_slice(&b);
        self.kernel_us.extend(b.iter().map(|&k| k as f32));
        self.close_window();
        &self.samples
    }
}

/// Times `f` once between two kernel bursts and returns its result and
/// corrected duration in seconds.
pub fn corrected_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = burst();
    let t = Instant::now();
    let out = f();
    let raw = t.elapsed().as_secs_f64();
    let after = burst();
    let slices: Vec<f64> = before.iter().chain(after.iter()).copied().collect();
    (out, raw * NOMINAL_US / median(&slices))
}

/// Median of a non-empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of a non-empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
