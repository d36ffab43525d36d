//! shoal-shield: overload survival for the daemon.
//!
//! Two cooperating mechanisms keep an overloaded daemon answering
//! instead of queuing unboundedly or stalling:
//!
//! * **Admission control** ([`Shield`]): a counting gate caps how many
//!   analyses run concurrently, a bounded waiting queue caps how many
//!   requests may block for a slot, and every wait is budgeted — by the
//!   server's configured queue-wait ceiling *and* by the request's own
//!   deadline budget ([`shoal_core::AnalysisOptions::deadline`]) when
//!   one is set, whichever is smaller. A request that cannot be
//!   admitted is **shed** with a structured reason (`queue-full`,
//!   `queue-timeout`) instead of being dropped or stalled; the client
//!   hears the shed and serves the verdict locally, so nothing is lost.
//!
//! * **In-flight deduplication** ([`FlightTable`]): concurrent analyze
//!   requests for the *same cache key* collapse onto one computation.
//!   The first arrival becomes the **leader** and holds a
//!   [`FlightLease`]; later arrivals become waiters that block until
//!   the leader publishes its [`FlightOutcome`], then fan the result
//!   out without re-running the engine or taking an admission slot.
//!   The lease publishes on drop even if the leader panics, so a
//!   waiter can never block forever.
//!
//! Everything here is std-only (mutex + condvar + atomics); the shield
//! is consulted only on the analyze miss path, so cache hits and
//! control verbs (`status`, `stats`, `stop`) are never delayed.

use crate::cache::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a request was shed instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The waiting queue was already at capacity on arrival.
    QueueFull,
    /// The request waited its full budget without a slot freeing.
    QueueTimeout,
}

impl ShedReason {
    /// The wire / telemetry label for this reason.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::QueueTimeout => "queue-timeout",
        }
    }
}

/// Mutable gate state (guarded by [`Shield::gate`]).
#[derive(Debug, Default)]
struct Gate {
    /// Analyses currently holding a slot.
    running: usize,
    /// Requests currently blocked waiting for a slot.
    waiting: usize,
    /// High-water mark of `waiting` over the daemon's lifetime.
    highwater: usize,
}

/// A point-in-time snapshot of the shield for the stats plane.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShieldStats {
    pub concurrency: usize,
    pub queue_depth: usize,
    pub queue_wait_ms: u64,
    pub admitted: u64,
    pub shed_queue_full: u64,
    pub shed_queue_timeout: u64,
    pub coalesced: u64,
    pub queue_highwater: usize,
    pub running: usize,
    pub queued: usize,
}

impl ShieldStats {
    /// Total sheds across all reasons.
    pub fn sheds(&self) -> u64 {
        self.shed_queue_full + self.shed_queue_timeout
    }
}

/// The admission gate. One per daemon.
pub struct Shield {
    gate: Mutex<Gate>,
    free: Condvar,
    concurrency: usize,
    queue_depth: usize,
    queue_wait: Duration,
    admitted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_queue_timeout: AtomicU64,
    coalesced: AtomicU64,
}

impl Shield {
    /// A gate admitting `concurrency` analyses at once (at least 1),
    /// letting up to `queue_depth` more wait at most `queue_wait` each;
    /// the daemon's defaults live in [`crate::server::ServerConfig`].
    pub fn new(concurrency: usize, queue_depth: usize, queue_wait: Duration) -> Shield {
        Shield {
            gate: Mutex::new(Gate::default()),
            free: Condvar::new(),
            concurrency: concurrency.max(1),
            queue_depth,
            queue_wait,
            admitted: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_queue_timeout: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// The configured concurrency limit.
    pub fn concurrency(&self) -> usize {
        self.concurrency
    }

    /// Tries to admit one analysis, blocking up to the smaller of the
    /// configured queue wait and the request's own deadline `budget`.
    /// Returns a slot guard (released on drop) or the shed reason.
    ///
    /// # Errors
    ///
    /// [`ShedReason::QueueFull`] when the waiting queue is already at
    /// capacity; [`ShedReason::QueueTimeout`] when the wait budget ran
    /// out without a slot freeing.
    pub fn admit(&self, budget: Option<Duration>) -> Result<SlotGuard<'_>, ShedReason> {
        let wait_cap = match budget {
            Some(b) => b.min(self.queue_wait),
            None => self.queue_wait,
        };
        let mut gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        if gate.running < self.concurrency {
            gate.running += 1;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(SlotGuard { shield: self });
        }
        if gate.waiting >= self.queue_depth {
            self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(ShedReason::QueueFull);
        }
        gate.waiting += 1;
        gate.highwater = gate.highwater.max(gate.waiting);
        let deadline = Instant::now() + wait_cap;
        loop {
            // Check for a free slot before the deadline: a wake that
            // raced the timeout still claims the slot it was woken for.
            if gate.running < self.concurrency {
                gate.running += 1;
                gate.waiting -= 1;
                self.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(SlotGuard { shield: self });
            }
            let now = Instant::now();
            if now >= deadline {
                gate.waiting -= 1;
                self.shed_queue_timeout.fetch_add(1, Ordering::Relaxed);
                return Err(ShedReason::QueueTimeout);
            }
            let (g, _timeout) = self
                .free
                .wait_timeout(gate, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            gate = g;
        }
    }

    /// Counts one coalesced waiter (a request served from a flight it
    /// did not lead).
    pub fn note_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot for the stats plane.
    pub fn stats(&self) -> ShieldStats {
        let gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        ShieldStats {
            concurrency: self.concurrency,
            queue_depth: self.queue_depth,
            queue_wait_ms: self.queue_wait.as_millis() as u64,
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_queue_timeout: self.shed_queue_timeout.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            queue_highwater: gate.highwater,
            running: gate.running,
            queued: gate.waiting,
        }
    }
}

/// One admitted analysis slot; releasing it wakes all queued waiters
/// (they re-check the gate, so a spurious wake is harmless).
pub struct SlotGuard<'a> {
    shield: &'a Shield,
}

impl std::fmt::Debug for SlotGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotGuard").finish_non_exhaustive()
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut gate = self
            .shield
            .gate
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        gate.running = gate.running.saturating_sub(1);
        drop(gate);
        self.shield.free.notify_all();
    }
}

/// What one in-flight analysis concluded, fanned out to every waiter.
/// Mirrors the analyze outcomes the server can produce on a miss.
#[derive(Debug, Clone)]
pub enum FlightOutcome {
    /// A verdict (cached by the leader before publishing).
    Verdict(Entry),
    /// Strict-mode parse error (a verdict about the script, not a
    /// transport failure).
    ParseError(String),
    /// The engine panicked under the leader.
    Panic(String),
    /// The leader itself was shed before it could run.
    Shed(&'static str),
}

/// One in-flight computation, keyed by cache key.
struct Flight {
    slot: Mutex<Option<FlightOutcome>>,
    done: Condvar,
}

/// How `board` classified this request.
pub enum Boarding<'a> {
    /// First arrival for the key: run the analysis and publish through
    /// the lease.
    Leader(FlightLease<'a>),
    /// A leader was already in flight: this is its published outcome.
    Waiter(FlightOutcome),
}

/// The in-flight dedup table. One per daemon.
#[derive(Default)]
pub struct FlightTable {
    flights: Mutex<HashMap<String, Arc<Flight>>>,
}

impl FlightTable {
    pub fn new() -> FlightTable {
        FlightTable::default()
    }

    /// Joins the flight for `key`: the first caller leads, later
    /// callers block until the leader publishes and then receive the
    /// outcome.
    pub fn board(&self, key: &str) -> Boarding<'_> {
        let flight = {
            let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(flight) = flights.get(key) {
                Arc::clone(flight)
            } else {
                let flight = Arc::new(Flight {
                    slot: Mutex::new(None),
                    done: Condvar::new(),
                });
                flights.insert(key.to_string(), Arc::clone(&flight));
                return Boarding::Leader(FlightLease {
                    table: self,
                    key: key.to_string(),
                    flight,
                    published: false,
                });
            }
        };
        let mut slot = flight.slot.lock().unwrap_or_else(|e| e.into_inner());
        while slot.is_none() {
            slot = flight
                .done
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
        Boarding::Waiter(slot.clone().expect("published outcome"))
    }
}

/// The leader's obligation to publish. Publishing removes the key from
/// the table first (so a request arriving after publication starts a
/// fresh flight — the cache will serve it) and then wakes all waiters.
/// Dropping an unpublished lease publishes a `Panic` outcome so the
/// leader dying can never strand its waiters.
pub struct FlightLease<'a> {
    table: &'a FlightTable,
    key: String,
    flight: Arc<Flight>,
    published: bool,
}

impl FlightLease<'_> {
    /// Publishes the outcome to every waiter and retires the flight.
    pub fn publish(mut self, outcome: FlightOutcome) {
        self.publish_inner(outcome);
    }

    fn publish_inner(&mut self, outcome: FlightOutcome) {
        if self.published {
            return;
        }
        self.published = true;
        {
            let mut flights = self
                .table
                .flights
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            flights.remove(&self.key);
        }
        let mut slot = self.flight.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(outcome);
        drop(slot);
        self.flight.done.notify_all();
    }
}

impl Drop for FlightLease<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.publish_inner(FlightOutcome::Panic(
                "flight leader died before publishing".into(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoal_obs::json::Json;
    use std::sync::atomic::AtomicUsize;

    fn entry() -> Entry {
        Entry {
            body: Json::Obj(vec![]),
            text: vec!["ok".into()],
            findings: 0,
        }
    }

    #[test]
    fn admits_up_to_concurrency_then_queues() {
        let shield = Shield::new(2, 4, Duration::from_millis(200));
        let a = shield.admit(None).expect("slot 1");
        let b = shield.admit(None).expect("slot 2");
        assert_eq!(shield.stats().running, 2);
        drop(a);
        let c = shield.admit(None).expect("slot freed by drop");
        drop(b);
        drop(c);
        let s = shield.stats();
        assert_eq!(s.running, 0);
        assert_eq!(s.admitted, 3);
        assert_eq!(s.sheds(), 0);
    }

    #[test]
    fn sheds_queue_full_when_queue_is_at_capacity() {
        let shield = Shield::new(1, 0, Duration::from_secs(5));
        let _slot = shield.admit(None).expect("slot");
        // queue_depth 0: nobody may wait, so the second admit sheds
        // immediately rather than blocking for queue_wait.
        let t = Instant::now();
        let shed = shield.admit(None).expect_err("must shed");
        assert_eq!(shed, ShedReason::QueueFull);
        assert!(t.elapsed() < Duration::from_secs(1));
        assert_eq!(shield.stats().shed_queue_full, 1);
    }

    #[test]
    fn sheds_queue_timeout_and_deadline_budget_caps_the_wait() {
        let shield = Shield::new(1, 4, Duration::from_secs(30));
        let _slot = shield.admit(None).expect("slot");
        // The request's own deadline budget (10ms) is far below the
        // configured queue wait (30s): the wait must honor the smaller.
        let t = Instant::now();
        let shed = shield
            .admit(Some(Duration::from_millis(10)))
            .expect_err("must time out");
        assert_eq!(shed, ShedReason::QueueTimeout);
        assert!(t.elapsed() < Duration::from_secs(5));
        let s = shield.stats();
        assert_eq!(s.shed_queue_timeout, 1);
        assert_eq!(s.queue_highwater, 1);
    }

    #[test]
    fn queued_waiter_claims_a_freed_slot() {
        let shield = Arc::new(Shield::new(1, 4, Duration::from_secs(10)));
        let slot = shield.admit(None).expect("slot");
        let waiter = {
            let shield = Arc::clone(&shield);
            std::thread::spawn(move || shield.admit(None).map(drop))
        };
        std::thread::sleep(Duration::from_millis(50));
        drop(slot); // frees the slot; the waiter must claim it
        waiter
            .join()
            .expect("waiter thread")
            .expect("waiter admitted after slot freed");
        assert_eq!(shield.stats().admitted, 2);
    }

    #[test]
    fn flight_waiters_receive_the_leaders_outcome() {
        let table = Arc::new(FlightTable::new());
        let lease = match table.board("k1") {
            Boarding::Leader(l) => l,
            Boarding::Waiter(_) => panic!("first board must lead"),
        };
        let fanned = Arc::new(AtomicUsize::new(0));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let table = Arc::clone(&table);
                let fanned = Arc::clone(&fanned);
                std::thread::spawn(move || match table.board("k1") {
                    Boarding::Waiter(FlightOutcome::Verdict(e)) => {
                        assert_eq!(e.text, vec!["ok".to_string()]);
                        fanned.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => panic!("waiter must receive the leader's verdict"),
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        lease.publish(FlightOutcome::Verdict(entry()));
        for w in waiters {
            w.join().expect("waiter thread");
        }
        assert_eq!(fanned.load(Ordering::Relaxed), 3);
        // The flight is retired: the next board leads a fresh flight.
        assert!(matches!(table.board("k1"), Boarding::Leader(_)));
    }

    #[test]
    fn distinct_keys_never_share_a_flight() {
        let table = FlightTable::new();
        let lease_a = match table.board("ka") {
            Boarding::Leader(l) => l,
            Boarding::Waiter(_) => panic!("ka must lead"),
        };
        // A different key boards its own flight even while ka is open.
        match table.board("kb") {
            Boarding::Leader(lease_b) => lease_b.publish(FlightOutcome::ParseError("x".into())),
            Boarding::Waiter(_) => panic!("kb must not join ka's flight"),
        }
        lease_a.publish(FlightOutcome::Verdict(entry()));
    }

    #[test]
    fn dropped_lease_publishes_panic_so_waiters_never_hang() {
        let table = Arc::new(FlightTable::new());
        let lease = match table.board("k9") {
            Boarding::Leader(l) => l,
            Boarding::Waiter(_) => panic!("first board must lead"),
        };
        let waiter = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || match table.board("k9") {
                Boarding::Waiter(outcome) => outcome,
                Boarding::Leader(_) => panic!("second board must wait"),
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        drop(lease); // leader dies without publishing
        match waiter.join().expect("waiter thread") {
            FlightOutcome::Panic(msg) => {
                assert!(msg.contains("leader died"), "{msg}");
            }
            _ => panic!("dropped lease must publish a panic outcome"),
        }
    }
}
