//! Hash-consed term ids and bounded memo tables for the decision
//! procedures.
//!
//! The analyzer asks the same questions about the same languages over
//! and over: every explored world re-checks the same spec
//! preconditions, and every `rm` operand is re-classified against the
//! same danger patterns. Each such question used to recompile a DFA
//! from scratch. This module makes repeats O(1):
//!
//! * **Interning** ([`intern`]): a thread-local hash-consing table maps
//!   each structurally-canonical [`Regex`] to a dense [`TermId`]. Two
//!   structurally equal terms (the smart constructors canonicalize, so
//!   equal-by-construction terms are structurally equal) get the same
//!   id.
//! * **Memo tables**: DFA compilation plus the four decision procedures
//!   (emptiness, containment, equivalence, disjointness / emptiness of
//!   intersection), witness extraction, affix quotients and the affix
//!   split ([`affix_split`]: which values of a constraint have an affix
//!   in a pattern, which do not, and what is left once it is removed —
//!   the shell's `${x%pat}` / `${x#pat}` on a symbolic `x`) are cached
//!   keyed on term ids. Every world that reaches the same removal then
//!   costs one lookup.
//!
//! Correctness invariants:
//!
//! * **Approximation replay.** A decision computed under the DFA state
//!   cap may record [`ApproxReason`] events (the analysis driver turns
//!   them into "analysis incomplete" report notes). The memo stores the
//!   events recorded during the original computation and **replays them
//!   on every hit** — a cached ⊤-approximation must not silently lose
//!   its incompleteness mark.
//! * **Cap-aware invalidation.** Cached answers are only valid for the
//!   state cap they were computed under; every memo operation compares
//!   the thread's current [`crate::dfa::dfa_state_cap`] against the cap
//!   the tables were built with and flushes everything on change.
//! * **Bounded.** The interner and each table have fixed caps; on
//!   overflow everything is flushed (the simple eviction policy keeps
//!   hit/miss behavior deterministic — no LRU clock state).
//!
//! All state is thread-local, so concurrent analyses (the parallel scan
//! pool) stay independent; the cached *answers* are pure functions of
//! the terms, so results never depend on which thread (or how warm a
//! cache) computed them.
//!
//! Observability: `relang.memo_hit`, `relang.memo_miss`, and
//! `relang.memo_evict` counters via `shoal-obs`.

use crate::ast::Regex;
use crate::dfa::{ApproxReason, Dfa};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// Dense id of an interned term (thread-local scope).
pub type TermId = u32;

/// Interner capacity: beyond this many distinct live terms, all memo
/// state is flushed. Large enough for any realistic script corpus
/// (thousands of distinct constraints), small enough to bound memory.
/// Public so regression tests can drive the interner exactly to the
/// overflow boundary (see `tests/props.rs`,
/// `memo_flush_must_retire_ids_with_the_terms`).
pub const INTERN_CAP: usize = 16 * 1024;
/// Per-table decision cache capacity.
const DECISION_CAP: usize = 16 * 1024;
/// Compiled-DFA cache capacity (DFAs are the heavyweight entries).
const COMPILE_CAP: usize = 2 * 1024;

/// Which end of a string an affix removal strips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Affix {
    /// A prefix in the pattern (the shell's `${x#pat}` / `${x##pat}`).
    Prefix,
    /// A suffix in the pattern (the shell's `${x%pat}` / `${x%%pat}`).
    Suffix,
}

/// A constraint `C` split by whether its values have an affix in a
/// pattern `P` ([`affix_split`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffixSplit {
    /// The values with such an affix, when there are any.
    pub matched: Option<AffixMatch>,
    /// `C \ Σ*P` (suffix) or `C \ PΣ*` (prefix), when non-empty: the
    /// values the removal leaves unchanged.
    pub unmatched: Option<Regex>,
}

/// The matched side of an [`AffixSplit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffixMatch {
    /// `C ∩ Σ*P` (suffix) or `C ∩ PΣ*` (prefix).
    pub originals: Regex,
    /// What is left of a value of `C` once an affix in `P` is removed
    /// ([`affix_quotient`]).
    pub quotient: Regex,
}

/// A cached answer plus the approximation events its computation
/// recorded (replayed on every hit).
struct Cached<T> {
    value: T,
    approx: Vec<ApproxReason>,
}

struct Memo {
    enabled: bool,
    /// The DFA state cap the tables were built under.
    cap: usize,
    /// Interner generation, bumped on every [`Memo::flush`]. Ids are
    /// only comparable within one epoch: a flush retires every id, so
    /// a key whose terms were interned across a flush (the interner
    /// overflowed between the two `intern` calls of a binary key, or
    /// a decision's own computation reentered the memo and flushed)
    /// must not be used to insert — the same `(TermId, TermId)` pair
    /// will later address *different* terms.
    epoch: u64,
    interner: HashMap<Regex, TermId>,
    next_id: TermId,
    empty: HashMap<TermId, Cached<bool>>,
    subset: HashMap<(TermId, TermId), Cached<bool>>,
    equiv: HashMap<(TermId, TermId), Cached<bool>>,
    disjoint: HashMap<(TermId, TermId), Cached<bool>>,
    witness: HashMap<TermId, Cached<Option<Vec<u8>>>>,
    quotient: HashMap<(TermId, TermId, Affix), Cached<Regex>>,
    affix: HashMap<(TermId, TermId, Affix), Cached<AffixSplit>>,
    compile: HashMap<TermId, Cached<Arc<Dfa>>>,
}

impl Memo {
    fn new() -> Memo {
        Memo {
            enabled: true,
            cap: crate::dfa::dfa_state_cap(),
            epoch: 0,
            interner: HashMap::new(),
            next_id: 0,
            empty: HashMap::new(),
            subset: HashMap::new(),
            equiv: HashMap::new(),
            disjoint: HashMap::new(),
            witness: HashMap::new(),
            quotient: HashMap::new(),
            affix: HashMap::new(),
            compile: HashMap::new(),
        }
    }

    fn flush(&mut self) {
        self.epoch += 1;
        self.interner.clear();
        self.next_id = 0;
        self.empty.clear();
        self.subset.clear();
        self.equiv.clear();
        self.disjoint.clear();
        self.witness.clear();
        self.quotient.clear();
        self.affix.clear();
        self.compile.clear();
        shoal_obs::counter_add("relang.memo_evict", 1);
    }

    /// Flushes stale answers when the thread's DFA state cap changed
    /// since the tables were built (a cached ⊤ under a small cap would
    /// be wrong under a larger one, and vice versa).
    fn validate_cap(&mut self) {
        let current = crate::dfa::dfa_state_cap();
        if current != self.cap {
            self.flush();
            self.cap = current;
        }
    }

    /// Interns `r`, flushing everything first if the interner is full
    /// (ids must stay dense and live tables must not reference retired
    /// ids).
    fn intern(&mut self, r: &Regex) -> TermId {
        if let Some(&id) = self.interner.get(r) {
            return id;
        }
        if self.interner.len() >= INTERN_CAP {
            self.flush();
        }
        let id = self.next_id;
        self.next_id += 1;
        self.interner.insert(r.clone(), id);
        id
    }
}

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::new(Memo::new());
    static AFFIX_SPLITS: Cell<u64> = const { Cell::new(0) };
}

/// Enables or disables memoization on this thread (tests compare
/// memoized against freshly-computed answers). Disabling flushes.
pub fn set_memo_enabled(enabled: bool) {
    MEMO.with(|m| {
        let mut m = m.borrow_mut();
        m.enabled = enabled;
        if !enabled {
            m.flush();
        }
    });
}

/// Drops all memoized state on this thread.
pub fn memo_flush() {
    MEMO.with(|m| m.borrow_mut().flush());
}

/// The interned id of `r` on this thread (hash-consing handle —
/// structurally equal terms get equal ids).
pub fn intern(r: &Regex) -> TermId {
    MEMO.with(|m| {
        let mut m = m.borrow_mut();
        m.validate_cap();
        m.intern(r)
    })
}

/// Runs `compute`, capturing the approximation events it records so
/// they can be replayed on later cache hits. The live events stay in
/// the thread's approx-hit buffer exactly as they would uncached.
fn compute_capturing<T>(compute: impl FnOnce() -> T) -> Cached<T> {
    let (value, approx) = crate::dfa::capture_approx_hits(compute);
    Cached { value, approx }
}

/// Generic memoized unary/binary decision. `table` projects the table
/// out of the memo, `key` the lookup key; `compute` runs uncached.
macro_rules! memoized {
    ($table:ident, $key:expr, $compute:expr) => {{
        let enabled_key = MEMO.with(|m| {
            let mut m = m.borrow_mut();
            if !m.enabled {
                return None;
            }
            m.validate_cap();
            let epoch = m.epoch;
            let key = $key(&mut *m);
            if m.epoch != epoch {
                // The interner overflowed while interning this key's
                // terms, retiring ids minted before the flush.
                // Re-intern: the interner was just emptied, so a
                // second flush within one key is impossible and the
                // recomputed key is whole.
                Some(($key(&mut *m), m.epoch))
            } else {
                Some((key, epoch))
            }
        });
        let Some((key, epoch)) = enabled_key else {
            // Memoization off: compute fresh (events record live).
            return $compute();
        };
        let hit = MEMO.with(|m| {
            let m = m.borrow();
            m.$table.get(&key).map(|c| {
                crate::dfa::replay_approx_hits(&c.approx);
                c.value.clone()
            })
        });
        if let Some(v) = hit {
            shoal_obs::counter_add("relang.memo_hit", 1);
            return v;
        }
        shoal_obs::counter_add("relang.memo_miss", 1);
        // Compute WITHOUT holding the borrow: decision procedures
        // reenter the memo (emptiness → compile).
        let cached = compute_capturing($compute);
        let value = cached.value.clone();
        MEMO.with(|m| {
            let mut m = m.borrow_mut();
            // The computation itself reenters the memo (difference,
            // intersection, emptiness all intern sub-terms) and may
            // have flushed; the key's ids are then retired and caching
            // under them would poison a future epoch's terms.
            if m.epoch != epoch {
                return;
            }
            if m.$table.len() >= table_cap(stringify!($table)) {
                m.$table.clear();
                shoal_obs::counter_add("relang.memo_evict", 1);
            }
            m.$table.insert(key, cached);
        });
        value
    }};
}

fn table_cap(table: &str) -> usize {
    if table == "compile" {
        COMPILE_CAP
    } else {
        DECISION_CAP
    }
}

/// Memoized language emptiness of `r`.
///
/// An `And` term is decomposed: each conjunct compiles to its own
/// (individually memoized, typically small and already-cached) DFA and
/// the lazy n-way intersection search answers without ever compiling
/// the conjunction into one derivative automaton — the common
/// `a.difference(b).is_empty()` call pattern never materializes `a\b`.
pub fn is_empty(r: &Regex) -> bool {
    let _t = shoal_obs::trace::phase_timer("relang");
    memoized!(empty, |m: &mut Memo| m.intern(r), || {
        match r {
            Regex::And(parts) => {
                let dfas: Vec<Arc<Dfa>> = parts.iter().map(compile_shared).collect();
                let refs: Vec<&Dfa> = dfas.iter().map(|d| &**d).collect();
                crate::lazy::intersection_empty(&refs)
            }
            _ => compile_shared(r).is_empty_lang(),
        }
    })
}

/// Memoized containment `a ⊆ b`: lazy pair search over the operands'
/// (individually cached) DFAs, early-exiting at the first string in
/// `a` but not `b`.
pub fn is_subset_of(a: &Regex, b: &Regex) -> bool {
    let _t = shoal_obs::trace::phase_timer("relang");
    memoized!(subset, |m: &mut Memo| (m.intern(a), m.intern(b)), || {
        crate::lazy::subset(&compile_shared(a), &compile_shared(b))
    })
}

/// Memoized language equivalence: one lazy symmetric-difference search
/// (the eager pipeline ran two full containment checks).
pub fn equiv(a: &Regex, b: &Regex) -> bool {
    let _t = shoal_obs::trace::phase_timer("relang");
    memoized!(equiv, |m: &mut Memo| (m.intern(a), m.intern(b)), || {
        crate::lazy::equiv(&compile_shared(a), &compile_shared(b))
    })
}

/// Memoized disjointness (emptiness of intersection): lazy pair
/// search, early-exiting at the first common string.
pub fn disjoint(a: &Regex, b: &Regex) -> bool {
    let _t = shoal_obs::trace::phase_timer("relang");
    memoized!(disjoint, |m: &mut Memo| (m.intern(a), m.intern(b)), || {
        crate::lazy::disjoint(&compile_shared(a), &compile_shared(b))
    })
}

/// Memoized shortest-witness extraction. Stays compile-based (not a
/// lazy pair search): witness byte strings reach diagnostics, and the
/// canonical minimal DFA pins their exact rendering.
pub fn witness(r: &Regex) -> Option<Vec<u8>> {
    let _t = shoal_obs::trace::phase_timer("relang");
    memoized!(witness, |m: &mut Memo| m.intern(r), || {
        compile_shared(r).witness()
    })
}

/// Memoized affix quotient: the strings left of a value of `lang` once
/// an affix in `pattern` is removed — the right quotient `lang / pattern`
/// for a suffix, the left quotient `pattern \ lang` for a prefix — as a
/// regex (GNFA state elimination of the quotient automaton).
pub fn affix_quotient(lang: &Regex, pattern: &Regex, affix: Affix) -> Regex {
    let _t = shoal_obs::trace::phase_timer("relang");
    memoized!(
        quotient,
        |m: &mut Memo| (m.intern(lang), m.intern(pattern), affix),
        || {
            let (l, p) = (compile_shared(lang), compile_shared(pattern));
            match affix {
                Affix::Suffix => l.right_quotient(&p),
                Affix::Prefix => l.left_quotient(&p),
            }
            .to_regex()
        }
    )
}

/// Memoized affix split of `constraint` by `pattern`: the values with
/// an affix in `pattern` and what is left of them once it is removed,
/// and the values without one. The quotient is computed only when the
/// matched side is live.
pub fn affix_split(constraint: &Regex, pattern: &Regex, affix: Affix) -> AffixSplit {
    let _t = shoal_obs::trace::phase_timer("relang");
    memoized!(
        affix,
        |m: &mut Memo| (m.intern(constraint), m.intern(pattern), affix),
        || {
            AFFIX_SPLITS.with(|n| n.set(n.get() + 1));
            let affixed = match affix {
                Affix::Suffix => Regex::anything().then(pattern),
                Affix::Prefix => pattern.then(&Regex::anything()),
            };
            let originals = constraint.intersect(&affixed);
            let unmatched = constraint.difference(&affixed);
            let matched = (!originals.is_empty()).then(|| AffixMatch {
                quotient: affix_quotient(constraint, pattern, affix),
                originals,
            });
            AffixSplit {
                matched,
                unmatched: (!unmatched.is_empty()).then_some(unmatched),
            }
        }
    )
}

/// How many affix splits this thread has computed rather than found
/// in the memo (every call while memoization is off). Tests use it to
/// pin that a removal reached by many worlds is decided once.
pub fn affix_splits_computed() -> u64 {
    AFFIX_SPLITS.with(Cell::get)
}

/// Memoized DFA compilation, sharing the cached `Arc` (no clone of the
/// transition tables). The lazy decision procedures go through this so
/// a hot operand pair costs two table lookups before the search.
pub(crate) fn compile_shared(r: &Regex) -> Arc<Dfa> {
    memoized!(compile, |m: &mut Memo| m.intern(r), || {
        Arc::new(Dfa::from_regex_uncached(r))
    })
}

/// Memoized DFA compilation (the [`Dfa::from_regex`] entry point).
/// Returns a clone of the cached automaton; the cached `Arc` keeps the
/// heavy tables shared until a caller actually mutates them.
///
/// Decision procedures and compilation charge their wall time to the
/// `relang` trace phase ([`shoal_obs::trace::phase_timer`]) — a
/// sub-slice of the engine's `symexec` phase. The timer is inert (one
/// thread-local read, no clock) unless a request trace is active, and
/// nested calls charge only at the outermost entry point.
pub fn compile(r: &Regex) -> Dfa {
    let _t = shoal_obs::trace::phase_timer("relang");
    (*compile_shared(r)).clone()
}

/// The eager reference pipeline, retained verbatim for differential
/// testing: every decision compiles the *combined* term with the
/// (uncached) derivative construction and asks a reachability question
/// of the materialized automaton — exactly what the decision
/// procedures did before the lazy rebuild. `tests/props.rs` pins
/// lazy-vs-eager verdict equality on random regex pairs; nothing on a
/// production path should call these.
pub mod eager {
    use super::*;

    /// Eager emptiness: compile `r`, check reachability.
    pub fn is_empty(r: &Regex) -> bool {
        Dfa::from_regex_uncached(r).is_empty_lang()
    }

    /// Eager containment via the materialized difference automaton.
    pub fn is_subset_of(a: &Regex, b: &Regex) -> bool {
        is_empty(&a.difference(b))
    }

    /// Eager equivalence: two full containment checks.
    pub fn equiv(a: &Regex, b: &Regex) -> bool {
        is_subset_of(a, b) && is_subset_of(b, a)
    }

    /// Eager disjointness via the materialized intersection.
    pub fn disjoint(a: &Regex, b: &Regex) -> bool {
        is_empty(&a.intersect(b))
    }

    /// Eager witness from the compiled automaton.
    pub fn witness(r: &Regex) -> Option<Vec<u8>> {
        Dfa::from_regex_uncached(r).witness()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::{set_dfa_state_cap, take_approx_hits, DEFAULT_DFA_STATE_CAP};

    #[test]
    fn repeated_decisions_agree_with_fresh() {
        memo_flush();
        let a = Regex::parse_must("[0-9]+");
        let b = Regex::parse_must("[0-9a-f]+");
        for _ in 0..3 {
            assert!(is_subset_of(&a, &b));
            assert!(!is_subset_of(&b, &a));
            assert!(!equiv(&a, &b));
            assert!(disjoint(&a, &Regex::lit("x")));
            assert!(!is_empty(&a));
            assert_eq!(witness(&Regex::lit("ok")), Some(b"ok".to_vec()));
        }
    }

    #[test]
    fn interning_is_structural() {
        memo_flush();
        let a1 = Regex::lit("abc").then(&Regex::any_line());
        let a2 = Regex::lit("abc").then(&Regex::any_line());
        assert_eq!(intern(&a1), intern(&a2));
        assert_ne!(intern(&a1), intern(&Regex::lit("abc")));
    }

    #[test]
    fn approx_hits_replay_on_memo_hits() {
        memo_flush();
        let _ = take_approx_hits();
        // A pattern whose derivative construction blows a tiny cap.
        set_dfa_state_cap(2);
        let r = Regex::parse_must("(a|b)*abab(a|b)*");
        assert!(!is_empty(&r));
        let first = take_approx_hits();
        assert!(
            !first.is_empty(),
            "tiny cap must record an approximation on the miss"
        );
        // Second call is a cache hit — the approximation must replay.
        assert!(!is_empty(&r));
        let second = take_approx_hits();
        assert_eq!(
            first.len(),
            second.len(),
            "cache hits must replay the recorded approx events"
        );
        set_dfa_state_cap(DEFAULT_DFA_STATE_CAP);
        memo_flush();
        let _ = take_approx_hits();
    }

    #[test]
    fn cap_change_invalidates() {
        memo_flush();
        let _ = take_approx_hits();
        let r = Regex::parse_must("(a|b)*abab(a|b)*");
        assert!(!is_empty(&r));
        assert!(take_approx_hits().is_empty(), "full cap: exact");
        // Under a tiny cap the same term must be *recomputed* (the
        // cached exact answer was built under a different cap).
        set_dfa_state_cap(2);
        assert!(!is_empty(&r));
        assert!(
            !take_approx_hits().is_empty(),
            "cap change must invalidate the cached exact answer"
        );
        set_dfa_state_cap(DEFAULT_DFA_STATE_CAP);
        memo_flush();
        let _ = take_approx_hits();
    }

    #[test]
    fn affix_split_is_computed_once() {
        memo_flush();
        let c = Regex::parse_must("/?([^/\n]+/)*[^/\n]+");
        let p = Regex::parse_must("/(.|\n)*");
        let before = affix_splits_computed();
        let split = affix_split(&c, &p, Affix::Suffix);
        for _ in 0..3 {
            assert_eq!(affix_split(&c, &p, Affix::Suffix), split);
        }
        assert_eq!(affix_splits_computed() - before, 1);
        let matched = split.matched.expect("paths with a slash match");
        assert!(matched.originals.matches(b"/a/b"));
        assert!(matched.quotient.matches(b"/a"));
        assert!(split.unmatched.expect("bare names do not").matches(b"b"));
        // The other side is a different question.
        let _ = affix_split(&c, &p, Affix::Prefix);
        assert_eq!(affix_splits_computed() - before, 2);
    }

    #[test]
    fn affix_split_approx_hits_replay_on_memo_hits() {
        memo_flush();
        let _ = take_approx_hits();
        set_dfa_state_cap(2);
        let c = Regex::parse_must("(a|b)*abab(a|b)*");
        let p = Regex::parse_must("b(a|b)*");
        let miss = affix_split(&c, &p, Affix::Suffix);
        let first = take_approx_hits();
        assert!(
            !first.is_empty(),
            "tiny cap must record an approximation on the miss"
        );
        assert_eq!(affix_split(&c, &p, Affix::Suffix), miss);
        let second = take_approx_hits();
        assert_eq!(
            first.len(),
            second.len(),
            "cache hits must replay the recorded approx events"
        );
        set_dfa_state_cap(DEFAULT_DFA_STATE_CAP);
        memo_flush();
        let _ = take_approx_hits();
    }

    #[test]
    fn affix_split_cap_change_invalidates() {
        memo_flush();
        let _ = take_approx_hits();
        let c = Regex::parse_must("(a|b)*abab(a|b)*");
        let p = Regex::parse_must("b(a|b)*");
        let _ = affix_split(&c, &p, Affix::Suffix);
        assert!(take_approx_hits().is_empty(), "full cap: exact");
        let before = affix_splits_computed();
        set_dfa_state_cap(2);
        let _ = affix_split(&c, &p, Affix::Suffix);
        assert_eq!(
            affix_splits_computed() - before,
            1,
            "cap change must recompute the split"
        );
        assert!(
            !take_approx_hits().is_empty(),
            "cap change must invalidate the cached exact answer"
        );
        set_dfa_state_cap(DEFAULT_DFA_STATE_CAP);
        memo_flush();
        let _ = take_approx_hits();
    }
}
