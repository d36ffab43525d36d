//! Log-bucketed latency histograms with exact percentile extraction.
//!
//! A plain power-of-two histogram answers "what order of magnitude" —
//! useless for a latency SLO: between 1 ms and 2 ms it has exactly one
//! bucket, so p50 and p99 collapse. [`LogHistogram`] keeps the log-scale range
//! (values up to 2^63 fit) but splits every octave into
//! [`SUB_BUCKETS`] linear sub-buckets, bounding the relative
//! quantization error at 1/[`SUB_BUCKETS`] (6.25%) while the whole
//! table stays a flat 8 KiB array — no allocation per sample, O(1)
//! record, mergeable across threads by bucket-wise addition.
//!
//! "Exact" percentile extraction means: `percentile(q)` returns the
//! upper bound of the bucket containing the sample of rank
//! `ceil(q * count)` — a value `v` such that at least `q` of the
//! recorded samples are ≤ `v`, and `v` exceeds the true rank-`q`
//! sample by at most one sub-bucket width. Values below
//! [`SUB_BUCKETS`] are represented exactly (their bucket is a single
//! integer wide), which the unit tests exploit.

use crate::json::Json;

/// Linear sub-buckets per power-of-two octave. 16 sub-buckets bound
/// the relative error of any reported quantile at 6.25%.
pub const SUB_BUCKETS: usize = 16;

/// log2 of [`SUB_BUCKETS`].
const SUB_SHIFT: u32 = SUB_BUCKETS.trailing_zeros();

/// Total bucket count: the direct run for values < [`SUB_BUCKETS`]
/// plus one linear run per sub-bucketed octave (msb positions
/// [`SUB_SHIFT`]..=63 → 64 − [`SUB_SHIFT`] octaves).
const TOTAL_BUCKETS: usize = (64 - SUB_SHIFT as usize + 1) * SUB_BUCKETS;

/// A log-bucketed histogram over `u64` samples (typically
/// microseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    buckets: Vec<u64>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; TOTAL_BUCKETS],
        }
    }
}

/// The flat index of the bucket holding `v`.
///
/// Values below `SUB_BUCKETS` index directly (one integer per bucket,
/// exact). Above, the top [`SUB_SHIFT`]+1 significant bits select
/// (octave, sub-bucket), so each octave `[2^k, 2^(k+1))` is split into
/// [`SUB_BUCKETS`] equal runs.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // position of the highest set bit
    let octave = msb - SUB_SHIFT; // 0 for the first sub-bucketed octave
    let sub = (v >> octave) as usize & (SUB_BUCKETS - 1);
    ((octave as usize) + 1) * SUB_BUCKETS + sub
}

/// The *inclusive upper bound* of bucket `i` — the value
/// [`LogHistogram::percentile`] reports for samples in that bucket.
fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let octave = (i / SUB_BUCKETS - 1) as u32;
    let sub = (i % SUB_BUCKETS) as u64;
    // The bucket covers [base + sub*width, base + (sub+1)*width).
    let base = (SUB_BUCKETS as u64) << octave;
    let width = 1u64 << octave;
    base.saturating_add(width.saturating_mul(sub + 1))
        .saturating_sub(1)
}

impl LogHistogram {
    /// Records one sample. O(1), no allocation.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Bucket-wise merge of another histogram (for per-thread
    /// collection joined at the end).
    pub fn merge(&mut self, other: &LogHistogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (`0.0 ..= 1.0`): the upper bound of
    /// the bucket containing the sample of rank `ceil(q * count)`,
    /// clamped to the recorded `max`. 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// The stats-plane summary object: count / sum / min / max / mean
    /// plus the three SLO percentiles. Field order is part of the
    /// `shoal-stats/v1` schema — stable, alphabetically grouped by
    /// role.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Num(self.sum as f64)),
            (
                "min".into(),
                Json::Num(if self.count == 0 { 0.0 } else { self.min as f64 }),
            ),
            ("max".into(), Json::Num(self.max as f64)),
            ("mean".into(), Json::Num((self.mean() * 10.0).round() / 10.0)),
            ("p50".into(), Json::Num(self.p50() as f64)),
            ("p95".into(), Json::Num(self.p95() as f64)),
            ("p99".into(), Json::Num(self.p99() as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        // Every value below SUB_BUCKETS has its own bucket, so the
        // percentile extraction is *exact* there: record 0..=15 once
        // each and every quantile lands on the true order statistic.
        let mut h = LogHistogram::default();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count, 16);
        // rank(0.5) = ceil(16*0.5) = 8 → the 8th smallest = value 7.
        assert_eq!(h.p50(), 7);
        // rank(0.95) = ceil(15.2) = 16 → value 15.
        assert_eq!(h.p95(), 15);
        assert_eq!(h.p99(), 15);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(1.0), 15);
    }

    #[test]
    fn exact_p50_p95_p99_on_a_known_distribution() {
        // 100 samples: 1..=100 µs... but large values quantize. Use a
        // distribution inside the exact range scaled by bucket-aligned
        // values: 90 samples of 2, 5 of 10, 4 of 14, 1 of 15.
        let mut h = LogHistogram::default();
        for _ in 0..90 {
            h.record(2);
        }
        for _ in 0..5 {
            h.record(10);
        }
        for _ in 0..4 {
            h.record(14);
        }
        h.record(15);
        assert_eq!(h.count, 100);
        assert_eq!(h.p50(), 2); // rank 50 ≤ 90 → 2
        assert_eq!(h.p95(), 10); // rank 95 → the 95th sample is 10
        assert_eq!(h.p99(), 14); // rank 99 → 14
        assert_eq!(h.percentile(1.0), 15);
        assert_eq!(h.min, 2);
        assert_eq!(h.max, 15);
    }

    #[test]
    fn large_values_have_bounded_relative_error() {
        let mut h = LogHistogram::default();
        for v in [1_000u64, 10_000, 100_000, 1_000_000, 10_000_000] {
            h.record(v);
            let got = h.percentile(1.0);
            assert!(got >= v, "upper bound must not undershoot: {got} < {v}");
            assert!(
                (got - v) as f64 <= v as f64 / SUB_BUCKETS as f64 + 1.0,
                "relative error above 1/{SUB_BUCKETS}: {v} → {got}"
            );
        }
    }

    #[test]
    fn percentiles_are_monotone_in_q() {
        let mut h = LogHistogram::default();
        let mut x = 7u64;
        for _ in 0..500 {
            // Deterministic pseudo-random spread over several octaves.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            h.record(x % 1_000_000);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0];
        for w in qs.windows(2) {
            assert!(
                h.percentile(w[0]) <= h.percentile(w[1]),
                "percentile must be monotone: q={} > q={}",
                w[0],
                w[1]
            );
        }
        assert!(h.percentile(1.0) <= h.max);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        let mut whole = LogHistogram::default();
        for v in 0..64u64 {
            if v % 2 == 0 {
                a.record(v * 100);
            } else {
                b.record(v * 100);
            }
            whole.record(v * 100);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = LogHistogram::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
        let json = h.to_json();
        assert_eq!(json.get("count"), Some(&Json::Num(0.0)));
        assert_eq!(json.get("min"), Some(&Json::Num(0.0)));
    }

    #[test]
    fn bucket_index_and_upper_agree() {
        // Every value maps to a bucket whose [.., upper] range
        // contains it.
        let mut vals: Vec<u64> = (0..200).collect();
        vals.extend([1 << 20, (1 << 20) + 12345, u32::MAX as u64, 1 << 40]);
        for v in vals {
            let i = bucket_index(v);
            assert!(
                bucket_upper(i) >= v,
                "bucket upper bound below the value: v={v} i={i} upper={}",
                bucket_upper(i)
            );
            if i > 0 {
                assert!(
                    bucket_upper(i - 1) < v,
                    "value belongs in an earlier bucket: v={v} i={i}"
                );
            }
        }
    }
}
