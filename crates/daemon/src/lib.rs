//! `shoal-daemon`: the just-in-time analysis service.
//!
//! The paper's title arc — "from ahead-of-time to just-in-time and
//! back again" — argues shell analysis must also run *at invocation
//! time*, where the latency budget is milliseconds. This crate is that
//! side of the arc: a resident daemon on a unix domain socket serving
//! analyze verdicts from a content-addressed cache, and a thin client
//! that auto-spawns it and **falls back to in-process analysis** when
//! the socket is unreachable (the PR 3 degradation contract: never
//! lose a verdict, always mark the path taken).
//!
//! The daemon is *not* a degraded fast path: a warm hit replays the
//! exact serialized report body the batch engine produced, so
//! `shoal jit --format json` is byte-identical to
//! `shoal analyze --format json` (asserted across the figure corpus in
//! this crate's tests and, through the real binary, in the root
//! package's integration tests).
//!
//! Layout:
//!
//! * [`protocol`] — the `shoal-jit/v1` length-prefixed JSON wire
//!   format (plus the `shoal-stats/v1` telemetry snapshot),
//! * [`cache`] — content-addressed verdicts: bounded in-memory LRU
//!   over a size-capped on-disk store, every outcome counted by name,
//! * [`shield`] — overload survival: the bounded admission gate
//!   (concurrency limit + deadline-budgeted wait queue + structured
//!   sheds) and the in-flight dedup table (thundering-herd collapse),
//! * [`server`] — the accept loop, one thread per connection with
//!   engine runs rationed by the shield, tracing every request into
//!   the telemetry plane,
//! * [`client`] — connect / auto-spawn / retry with jittered backoff /
//!   fall back, minting the trace IDs the server echoes.
//!
//! `shoal jit` is the daemon's only client. The crate ships no load
//! generator; the `daemon_jit` bench in `crates/bench` times the
//! serving paths, including 4 concurrent clients.

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod shield;

use shoal_core::{AnalysisReport, Severity};
use std::path::PathBuf;

/// Builds the cacheable verdict for a report: the path-free serialized
/// body, each diagnostic's full `Display` rendering, and the
/// warning-or-worse count. Server (on miss) and client (on fallback)
/// both go through this one function, so a served verdict and a local
/// one can never disagree in shape.
pub fn entry_from_report(report: &AnalysisReport) -> cache::Entry {
    cache::Entry {
        body: shoal_obs::json::Json::Obj(shoal_core::provenance::report_body_fields(report)),
        text: report.diagnostics.iter().map(|d| d.to_string()).collect(),
        findings: report
            .diagnostics
            .iter()
            .filter(|d| d.severity >= Severity::Warning)
            .count(),
    }
}

/// The shoal version string baked into cache keys and status replies.
pub fn version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The default daemon socket path: `$SHOAL_DAEMON_SOCKET` if set, else
/// a per-user name under `$XDG_RUNTIME_DIR` (fall back: the temp dir).
pub fn default_socket_path() -> PathBuf {
    if let Ok(p) = std::env::var("SHOAL_DAEMON_SOCKET") {
        return PathBuf::from(p);
    }
    let base = std::env::var("XDG_RUNTIME_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    base.join(format!("shoal-daemon-{}.sock", user_tag()))
}

/// The default on-disk cache directory: `$SHOAL_CACHE_DIR` if set,
/// else `$XDG_CACHE_HOME/shoal-jit`, else `$HOME/.cache/shoal-jit`,
/// else a per-user directory under the temp dir.
pub fn default_cache_dir() -> PathBuf {
    if let Ok(p) = std::env::var("SHOAL_CACHE_DIR") {
        return PathBuf::from(p);
    }
    if let Ok(x) = std::env::var("XDG_CACHE_HOME") {
        return PathBuf::from(x).join("shoal-jit");
    }
    if let Ok(home) = std::env::var("HOME") {
        return PathBuf::from(home).join(".cache").join("shoal-jit");
    }
    std::env::temp_dir().join(format!("shoal-jit-cache-{}", user_tag()))
}

fn user_tag() -> String {
    std::env::var("USER")
        .or_else(|_| std::env::var("LOGNAME"))
        .unwrap_or_else(|_| "anon".into())
}
