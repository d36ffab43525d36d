//! Human-readable rendering of metric snapshots for `--stats`.

use crate::metrics::MetricsSnapshot;

/// Renders aligned `key  value` rows under a title.
pub fn render_table(title: &str, rows: &[(String, String)]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, v) in rows {
        out.push_str(&format!("  {k:<width$}  {v}\n"));
    }
    out
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2} s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

/// Renders the full `--stats` view of a snapshot: counters, gauges, and
/// histogram summaries (count / mean / p50 / p99 / max).
pub fn render_snapshot(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !snap.counters.is_empty() {
        let rows: Vec<(String, String)> = snap
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        out.push_str(&render_table("counters", &rows));
    }
    if !snap.gauges.is_empty() {
        let rows: Vec<(String, String)> = snap
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        out.push_str(&render_table("gauges (high-water marks)", &rows));
    }
    if !snap.histograms.is_empty() {
        let rows: Vec<(String, String)> = snap
            .histograms
            .iter()
            .map(|(k, h)| {
                let summary = if k.ends_with("us") || k.ends_with(".us") {
                    format!(
                        "n={} mean={} p50={} p99={} max={}",
                        h.count,
                        fmt_us(h.mean() as u64),
                        fmt_us(h.p50()),
                        fmt_us(h.p99()),
                        fmt_us(h.max),
                    )
                } else {
                    format!(
                        "n={} mean={:.1} p50={} p99={} max={}",
                        h.count,
                        h.mean(),
                        h.p50(),
                        h.p99(),
                        h.max,
                    )
                };
                (k.clone(), summary)
            })
            .collect();
        out.push_str(&render_table("histograms", &rows));
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_percentiles_never_exceed_the_max() {
        let mut snap = MetricsSnapshot::default();
        let mut h = crate::LogHistogram::default();
        h.record(300_230);
        assert!(
            h.p50() <= h.p99() && h.p99() <= h.max,
            "p50={} p99={} max={}",
            h.p50(),
            h.p99(),
            h.max
        );
        snap.histograms.insert("span.exec.us".into(), h);
        let text = render_snapshot(&snap);
        assert!(
            text.contains("p50=300.23 ms p99=300.23 ms max=300.23 ms"),
            "{text}"
        );
    }
}
