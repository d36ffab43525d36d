//! The thin JIT client: connect, auto-spawn, retry, or fall back.
//!
//! `shoal jit` is its only caller; `shoal scan` and `shoal analyze`
//! always analyze in-process.
//!
//! The degradation contract: a client request **never loses a
//! verdict**. If the daemon is reachable the verdict is served; if it
//! is not, the client analyzes in-process with the strict parser
//! through the very same [`crate::entry_from_report`] rendering the
//! server uses, and the result is tagged [`Served::Fallback`] so
//! callers (and machine consumers, via the stderr marker of
//! `shoal jit`) can see which path ran. Stdout stays byte-identical
//! either way — only the marker channel differs.
//!
//! Failures are classified, not lumped: a **dead** socket (connection
//! refused, no socket file) triggers reclaim-and-respawn at most once;
//! a **busy** daemon (connect/read timeout, a connection torn mid-
//! frame) is transient, so the request retries a bounded number of
//! times with jittered exponential backoff. A structured `shed`
//! response is *authoritative* — the daemon has said it cannot afford
//! this request — so the client falls back locally at once instead of
//! retrying into the same overload.
//!
//! Auto-spawn: on a dead socket the client launches
//! `<current_exe> daemon --socket …` detached (null stdio) and polls
//! the socket briefly; if the daemon still is not answering, it falls
//! back rather than block the caller — JIT latency budgets are the
//! whole point of this subsystem.

use crate::cache::Entry;
use crate::protocol::Request;
use shoal_core::AnalysisOptions;
use shoal_obs::frame::{read_frame, write_frame};
use shoal_obs::json::Json;
use shoal_obs::rng::XorShift64;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

/// How a verdict reached the caller.
#[derive(Debug, Clone, PartialEq)]
pub enum Served {
    /// The daemon answered; `cache_hit` is true on a warm hit.
    Daemon { cache_hit: bool },
    /// The daemon was unreachable (or the request is daemon-unservable,
    /// e.g. profiled); analysis ran in-process. `reason` says why.
    Fallback { reason: String },
}

/// One JIT analysis outcome.
#[derive(Debug, Clone)]
pub struct JitResponse {
    /// Which path produced the verdict.
    pub served: Served,
    /// The verdict, or the strict-mode parse error message.
    pub result: Result<Entry, String>,
    /// The request's trace ID (client-minted, echoed by the daemon).
    /// `Some` whenever the daemon served and echoed it back; `None` on
    /// fallback (there is no server-side trace to point at).
    pub trace_id: Option<String>,
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Daemon socket path.
    pub socket: PathBuf,
    /// Spawn a daemon when the socket is dead.
    pub auto_spawn: bool,
    /// How long to poll a freshly spawned daemon before falling back.
    pub spawn_wait: Duration,
    /// Budget for the connect phase of one attempt (a busy socket is
    /// re-tried within this window before the attempt counts as
    /// transient).
    pub connect_timeout: Duration,
    /// Read/write timeout on an established connection; a daemon that
    /// takes longer than this to answer counts as busy.
    pub request_timeout: Duration,
    /// Transient-failure retries after the first attempt (each backed
    /// off exponentially with jitter). `0` falls back on the first
    /// transient failure.
    pub retries: u32,
    /// Base backoff delay (attempt `n` waits `base * 2^n`, jittered
    /// into `[0.5, 1.5)` of itself).
    pub retry_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            socket: crate::default_socket_path(),
            auto_spawn: true,
            spawn_wait: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(30),
            retries: 2,
            retry_backoff: Duration::from_millis(25),
        }
    }
}

/// Sends one request and reads one response over a fresh connection.
///
/// # Errors
///
/// Any socket-level failure (connect, framing, a non-JSON reply).
pub fn request(socket: &Path, req: &Request) -> io::Result<Json> {
    let mut stream = UnixStream::connect(socket)?;
    write_frame(&mut stream, req.to_json().to_text().as_bytes())?;
    let payload = read_frame(&mut stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed connection"))?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not utf-8"))?;
    Json::parse(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
}

/// Asks a running daemon for its status.
///
/// # Errors
///
/// Propagates [`request`] failures (typically: no daemon listening).
pub fn status(socket: &Path) -> io::Result<Json> {
    request(socket, &Request::Status)
}

/// Asks a running daemon for its full `shoal-stats/v1` telemetry
/// snapshot (request counts, latency percentiles, cache taxonomy,
/// slow-request log).
///
/// # Errors
///
/// Propagates [`request`] failures (typically: no daemon listening).
pub fn stats(socket: &Path) -> io::Result<Json> {
    request(socket, &Request::Stats)
}

/// Stops a running daemon.
///
/// # Errors
///
/// Propagates [`request`] failures (typically: no daemon listening).
pub fn stop(socket: &Path) -> io::Result<Json> {
    request(socket, &Request::Stop)
}

/// How one failed attempt should be treated.
enum Transport {
    /// Nobody is home (refused connection, missing socket file):
    /// respawn once if allowed, else fall back.
    Dead(String),
    /// The daemon exists but did not answer in time (connect/read
    /// timeout, connection torn mid-frame): transient, retry with
    /// backoff.
    Busy(String),
}

/// Analyzes `source` just-in-time: daemon first, in-process fallback.
///
/// Profiled requests (`options.profile`) skip the daemon entirely —
/// profiling instruments *this* process, so a served verdict would be
/// meaningless.
pub fn analyze(
    config: &ClientConfig,
    source: &str,
    options: &AnalysisOptions,
) -> JitResponse {
    if options.profile {
        return local(source, options, "profile-requested");
    }
    // Mint the trace ID here, at the edge: the daemon echoes it back,
    // so the stderr marker, the server-side trace ring, and the JSONL
    // export all name the same request.
    let trace_id = shoal_obs::trace::mint_trace_id();
    let req = Request::Analyze {
        source: source.to_string(),
        options: options.clone(),
        trace_id: Some(trace_id.clone()),
    };

    let mut rng = backoff_rng();
    let mut spawned = false;
    let mut attempt: u32 = 0;
    loop {
        match attempt_request(config, &req) {
            Ok(json) => return interpret(json, source, options, &trace_id),
            Err(Transport::Dead(reason)) => {
                // Dead socket: reclaim by respawning, once. A second
                // dead classification means the spawn did not help —
                // stop burning the latency budget.
                if config.auto_spawn && !spawned {
                    spawned = true;
                    match spawn_and_wait(config) {
                        Ok(()) => continue, // does not consume a retry
                        Err(spawn_reason) => {
                            return local(source, options, &spawn_reason)
                        }
                    }
                }
                return local(source, options, &reason);
            }
            Err(Transport::Busy(reason)) => {
                // Transient: bounded retry with jittered exponential
                // backoff, then fall back rather than block the caller.
                if attempt >= config.retries {
                    return local(source, options, &reason);
                }
                shoal_obs::counter_add("jit.retry", 1);
                std::thread::sleep(backoff_delay(config.retry_backoff, attempt, &mut rng));
                attempt += 1;
            }
        }
    }
}

/// One request attempt over a fresh connection, with timeouts armed
/// and the failure classified dead-vs-busy.
fn attempt_request(config: &ClientConfig, req: &Request) -> Result<Json, Transport> {
    let stream = connect_classified(config)?;
    let _ = stream.set_read_timeout(Some(config.request_timeout));
    let _ = stream.set_write_timeout(Some(config.request_timeout));
    let mut stream = stream;
    write_frame(&mut stream, req.to_json().to_text().as_bytes())
        .map_err(|e| classify_io_error(&e, "send"))?;
    let payload = read_frame(&mut stream)
        .map_err(|e| classify_io_error(&e, "response"))?
        .ok_or_else(|| {
            // EOF before any response byte: the serving thread died
            // (or the daemon is shutting down) — transient.
            Transport::Busy("daemon closed connection before answering".into())
        })?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| Transport::Busy("daemon response is not utf-8".into()))?;
    Json::parse(text).map_err(|e| Transport::Busy(format!("bad daemon response: {e}")))
}

/// Connects, looping on busy-classified failures within the connect
/// budget; a dead classification surfaces immediately.
fn connect_classified(config: &ClientConfig) -> Result<UnixStream, Transport> {
    let deadline = Instant::now() + config.connect_timeout;
    loop {
        match UnixStream::connect(&config.socket) {
            Ok(stream) => return Ok(stream),
            Err(err) => match classify_connect_error(&err) {
                Transport::Dead(reason) => return Err(Transport::Dead(reason)),
                Transport::Busy(reason) => {
                    if Instant::now() >= deadline {
                        return Err(Transport::Busy(reason));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            },
        }
    }
}

/// Dead means nobody owns the socket; busy means somebody does but is
/// not keeping up. Unknown connect errors classify as dead (matching
/// the pre-shield behavior: any connect failure triggered a spawn).
fn classify_connect_error(err: &io::Error) -> Transport {
    match err.kind() {
        io::ErrorKind::ConnectionRefused => {
            Transport::Dead(format!("stale socket (connect refused: {err})"))
        }
        io::ErrorKind::NotFound => Transport::Dead("daemon not running (no socket)".into()),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted => {
            Transport::Busy(format!("daemon busy (connect: {err})"))
        }
        _ => Transport::Dead(format!("daemon unreachable (connect: {err})")),
    }
}

/// Mid-request failures are transient: the daemon *was* there (we
/// connected), so a torn frame or a stalled read means a dying worker
/// or an overloaded one — retry; if the daemon is truly gone the next
/// connect classifies dead.
fn classify_io_error(err: &io::Error, during: &str) -> Transport {
    Transport::Busy(format!("daemon {during} failed: {err}"))
}

/// Spawns a daemon and polls until it answers or the spawn budget ends.
fn spawn_and_wait(config: &ClientConfig) -> Result<(), String> {
    if let Err(e) = spawn_daemon(&config.socket) {
        return Err(format!("daemon unreachable, spawn failed: {e}"));
    }
    shoal_obs::counter_add("jit.daemon_spawned", 1);
    let deadline = Instant::now() + config.spawn_wait;
    while Instant::now() < deadline {
        if UnixStream::connect(&config.socket).is_ok() {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err("daemon unreachable (spawned, never answered)".into())
}

/// Seeds the jitter PRNG from wall clock + pid: cheap, and distinct
/// across the concurrent clients whose retries must not synchronize.
fn backoff_rng() -> XorShift64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x9e37_79b9);
    XorShift64::seed_from_u64(nanos ^ u64::from(std::process::id()))
}

/// Attempt `n` waits `base * 2^n`, jittered uniformly into
/// `[0.5, 1.5)` of itself so synchronized clients fan out.
fn backoff_delay(base: Duration, attempt: u32, rng: &mut XorShift64) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16));
    let jitter_pct = 50 + rng.random_range(0..100) as u32; // 50..150
    exp.saturating_mul(jitter_pct) / 100
}

/// Launches `<current_exe> daemon --socket …` detached.
fn spawn_daemon(socket: &Path) -> io::Result<()> {
    let exe = std::env::current_exe()?;
    std::process::Command::new(exe)
        .arg("daemon")
        .arg("--socket")
        .arg(socket)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map(|_| ())
}

/// Turns a daemon response into a [`JitResponse`], falling back on
/// anything that is not a well-formed verdict. `sent_id` is the trace
/// ID this client minted; the response's echo is kept only when it
/// matches (an old daemon echoes nothing; a mismatched echo would mean
/// crossed frames and is discarded rather than trusted).
fn interpret(
    json: Json,
    source: &str,
    options: &AnalysisOptions,
    sent_id: &str,
) -> JitResponse {
    let trace_id = json
        .get("trace_id")
        .and_then(Json::as_str)
        .filter(|echoed| *echoed == sent_id)
        .map(str::to_string);
    if json.get("ok").and_then(|v| match v {
        Json::Bool(b) => Some(*b),
        _ => None,
    }) == Some(true)
    {
        let Some(entry) = entry_from_response(&json) else {
            return local(source, options, "malformed daemon response");
        };
        let cache = json.get("cache").and_then(Json::as_str);
        let cache_hit = cache == Some("hit");
        shoal_obs::counter_add(
            match cache {
                Some("hit") => "jit.hit",
                // A fan-out from another request's in-flight analysis:
                // the daemon served us without a fresh engine run.
                Some("coalesced") => "jit.coalesced",
                _ => "jit.miss",
            },
            1,
        );
        return JitResponse {
            served: Served::Daemon { cache_hit },
            result: Ok(entry),
            trace_id,
        };
    }
    match json.get("error").and_then(Json::as_str) {
        // A shed is authoritative: the daemon is overloaded and told
        // us so. Fall back locally right now — retrying would only
        // deepen the overload the shield is trying to survive.
        Some("shed") => {
            shoal_obs::counter_add("jit.shed", 1);
            let reason = json
                .get("reason")
                .and_then(Json::as_str)
                .unwrap_or("overloaded");
            local(source, options, &format!("daemon shed ({reason})"))
        }
        // A strict-mode parse error is a *verdict* (the script does not
        // parse), not a transport failure — no point re-parsing locally.
        Some("parse") => JitResponse {
            served: Served::Daemon { cache_hit: false },
            result: Err(json
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("parse error")
                .to_string()),
            trace_id,
        },
        other => local(
            source,
            options,
            &format!("daemon error: {}", other.unwrap_or("unknown")),
        ),
    }
}

fn entry_from_response(json: &Json) -> Option<Entry> {
    let findings = json.get("findings")?.as_u64()? as usize;
    let text = match json.get("text")? {
        Json::Arr(items) => items
            .iter()
            .map(|t| t.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    let body = json.get("body")?.clone();
    Some(Entry {
        body,
        text,
        findings,
    })
}

/// The in-process path: same engine, same rendering, marked as
/// fallback.
fn local(source: &str, options: &AnalysisOptions, reason: &str) -> JitResponse {
    shoal_obs::counter_add("jit.fallback", 1);
    let result = match shoal_core::analyze_source_with(source, options.clone()) {
        Ok(report) => Ok(crate::entry_from_report(&report)),
        Err(e) => Err(e.to_string()),
    };
    JitResponse {
        served: Served::Fallback {
            reason: reason.to_string(),
        },
        result,
        trace_id: None,
    }
}
