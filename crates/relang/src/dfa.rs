//! Deterministic finite automata: construction, minimization, products,
//! and the decision procedures built on them.
//!
//! A [`Dfa`] here is always *complete* (every state has a transition for
//! every byte, via a sink state when necessary) and works over a
//! byte-class-compressed alphabet: bytes are first mapped to one of a
//! small number of equivalence classes, and transitions are tabulated per
//! class. Completeness makes complement a bit-flip and makes the product
//! constructions total.
//!
//! Two construction routes are provided:
//!
//! * [`Dfa::from_regex`] — Brzozowski-derivative construction, which
//!   handles the full extended syntax including `And` and `Not`;
//! * [`Dfa::from_nfa`] — classical subset construction from a Thompson
//!   NFA, for the classical fragment.
//!
//! The two are cross-checked against each other in the test suite.
//!
//! Minimization is Hopcroft's worklist algorithm over the compressed
//! alphabet (O(n·k·log n)); the old Moore refinement is kept as
//! [`Dfa::minimize_moore`] purely as a differential-testing oracle. The
//! binary decision procedures ([`Dfa::is_subset_of`], [`Dfa::equiv`],
//! [`Dfa::disjoint`]) do **not** materialize product automata — they
//! run the lazy pair search in [`crate::lazy`] and stop at the first
//! counterexample.

use crate::ast::Regex;
use crate::class::ByteClass;
use crate::deriv::{deriv, local_classes};
use crate::nfa::Nfa;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};

/// Default per-thread bound on states materialized by any one DFA
/// construction (derivative interning, subset construction, products).
/// Every automaton the analyzer builds in practice is far below this;
/// the cap exists so a pathological regex degrades to an honest
/// top-approximation instead of exhausting memory.
pub const DEFAULT_DFA_STATE_CAP: usize = 4096;

/// Why a DFA is an *approximation* of the requested language rather
/// than an exact automaton (machine-readable; surfaced in analysis
/// reports as a cap hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApproxReason {
    /// A construction worklist exceeded the per-thread state cap; the
    /// result is ⊤ (accepts every byte string).
    StateCap {
        /// Which construction or search hit the cap (`from_regex`,
        /// `from_nfa`, `product`, `union_of_states`, `left_quotient`,
        /// `right_quotient`, or a `lazy_*` pair search).
        site: &'static str,
        /// The cap that was in effect.
        cap: usize,
    },
}

impl ApproxReason {
    /// The construction site that gave up.
    pub fn site(self) -> &'static str {
        match self {
            ApproxReason::StateCap { site, .. } => site,
        }
    }
}

thread_local! {
    static STATE_CAP: Cell<usize> = const { Cell::new(DEFAULT_DFA_STATE_CAP) };
    static APPROX_HITS: RefCell<Vec<ApproxReason>> = const { RefCell::new(Vec::new()) };
}

/// The DFA state cap in effect on this thread.
pub fn dfa_state_cap() -> usize {
    STATE_CAP.with(Cell::get)
}

/// Sets this thread's DFA state cap (engines run single-threaded, so a
/// thread-local keeps concurrent analyses independent). A cap of 0 is
/// treated as 1.
pub fn set_dfa_state_cap(cap: usize) {
    STATE_CAP.with(|c| c.set(cap.max(1)));
}

/// Drains the approximation events recorded on this thread since the
/// last call. The analysis driver turns these into report cap hits so
/// an approximated answer is never silent.
pub fn take_approx_hits() -> Vec<ApproxReason> {
    APPROX_HITS.with(|h| std::mem::take(&mut *h.borrow_mut()))
}

/// Runs `compute` and returns its value with the approximation events
/// it recorded. The events also stay in this thread's buffer, exactly
/// as they would uncaptured; a cache that reuses the value replays
/// them with [`replay_approx_hits`] on every reuse, so a cached
/// ⊤-approximation never loses its incompleteness mark.
pub fn capture_approx_hits<T>(compute: impl FnOnce() -> T) -> (T, Vec<ApproxReason>) {
    let mark = APPROX_HITS.with(|h| h.borrow().len());
    let value = compute();
    let hits = APPROX_HITS.with(|h| h.borrow().get(mark..).unwrap_or_default().to_vec());
    (value, hits)
}

/// Re-records previously captured approximation events (see
/// [`capture_approx_hits`]).
pub fn replay_approx_hits(hits: &[ApproxReason]) {
    if hits.is_empty() {
        return;
    }
    APPROX_HITS.with(|h| h.borrow_mut().extend_from_slice(hits));
}

/// Records a state-cap hit at `site` (approx-hit buffer, counter,
/// event) and returns the reason. Shared by the eager constructions
/// (which wrap the reason in a ⊤ automaton) and the lazy pair searches
/// in [`crate::lazy`] (which degrade to a conservative verdict instead
/// of building anything).
pub(crate) fn record_cap(site: &'static str) -> ApproxReason {
    let cap = dfa_state_cap();
    let reason = ApproxReason::StateCap { site, cap };
    APPROX_HITS.with(|h| h.borrow_mut().push(reason));
    shoal_obs::counter_add("relang.dfa_state_cap", 1);
    shoal_obs::event!("dfa_state_cap", site = site, cap = cap as u64);
    reason
}

/// A complete DFA over a byte-class-compressed alphabet.
///
/// Fields are `pub(crate)` so the lazy pair-search engine
/// ([`crate::lazy`]) can walk transitions without per-step accessor
/// overhead; outside the crate the automaton is opaque.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// Alphabet partition: disjoint classes covering all 256 bytes.
    pub(crate) classes: Vec<ByteClass>,
    /// Byte → class index.
    pub(crate) byte_map: Vec<u16>,
    /// `trans[state][class]` → next state.
    pub(crate) trans: Vec<Vec<u32>>,
    /// Accepting flags per state.
    pub(crate) accept: Vec<bool>,
    /// Start state.
    pub(crate) start: u32,
    /// Set when this automaton is an approximation (state cap hit
    /// somewhere in its construction history).
    pub(crate) approx: Option<ApproxReason>,
}

/// Intermediate sparse automaton used by both construction routes.
struct Sparse {
    trans: Vec<Vec<(ByteClass, u32)>>,
    accept: Vec<bool>,
    start: u32,
}

impl Dfa {
    // ---------------------------------------------------------------
    // Construction
    // ---------------------------------------------------------------

    /// The ⊤ automaton (accepts every byte string), carrying the reason
    /// it stands in for an exact result. Accepting-everything is the
    /// honest fallback: emptiness checks stay sound (never claims a
    /// language empty) and containment proofs fail conservatively.
    fn top(reason: ApproxReason) -> Dfa {
        Dfa {
            classes: vec![ByteClass::ALL],
            byte_map: vec![0u16; 256],
            trans: vec![vec![0]],
            accept: vec![true],
            start: 0,
            approx: Some(reason),
        }
    }

    /// Records a state-cap hit at `site` and returns the ⊤ fallback.
    fn cap_blown(site: &'static str) -> Dfa {
        Dfa::top(record_cap(site))
    }

    /// `Some` when this automaton over-approximates the requested
    /// language because a construction hit the state cap.
    pub fn approx_reason(&self) -> Option<ApproxReason> {
        self.approx
    }

    /// Is this automaton an approximation rather than an exact result?
    pub fn is_approx(&self) -> bool {
        self.approx.is_some()
    }

    /// Builds a DFA from any (possibly extended) regex via Brzozowski
    /// derivatives, then minimizes it. Compilation is memoized per
    /// interned term (see [`crate::memo`]); this entry point returns a
    /// cheap clone of the cached automaton on repeats.
    pub fn from_regex(r: &Regex) -> Dfa {
        crate::memo::compile(r)
    }

    /// The uncached derivative construction behind [`Dfa::from_regex`].
    pub(crate) fn from_regex_uncached(r: &Regex) -> Dfa {
        shoal_obs::counter_add("relang.dfa_compile", 1);
        let mut ids: HashMap<Regex, u32> = HashMap::new();
        let mut order: Vec<Regex> = Vec::new();
        let mut trans: Vec<Vec<(ByteClass, u32)>> = Vec::new();
        let mut work: VecDeque<u32> = VecDeque::new();

        let intern = |r: Regex,
                      order: &mut Vec<Regex>,
                      trans: &mut Vec<Vec<(ByteClass, u32)>>,
                      work: &mut VecDeque<u32>,
                      ids: &mut HashMap<Regex, u32>| {
            if let Some(&id) = ids.get(&r) {
                return id;
            }
            let id = order.len() as u32;
            ids.insert(r.clone(), id);
            order.push(r);
            trans.push(Vec::new());
            work.push_back(id);
            id
        };

        let start = intern(r.clone(), &mut order, &mut trans, &mut work, &mut ids);
        let cap = dfa_state_cap();
        while let Some(id) = work.pop_front() {
            if order.len() > cap {
                return Dfa::cap_blown("from_regex");
            }
            let state = order[id as usize].clone();
            for block in local_classes(&state) {
                // Partition blocks are non-empty by construction; skip
                // defensively rather than panic (densify adds the sink).
                let Some(rep) = block.min_byte() else { continue };
                let d = deriv(&state, rep);
                let to = intern(d, &mut order, &mut trans, &mut work, &mut ids);
                trans[id as usize].push((block, to));
            }
        }

        let accept = order.iter().map(Regex::nullable).collect();
        Dfa::densify(Sparse {
            trans,
            accept,
            start,
        })
        .minimize()
    }

    /// Builds a DFA from a Thompson NFA via subset construction, then
    /// minimizes it.
    pub fn from_nfa(nfa: &Nfa) -> Dfa {
        let mut ids: HashMap<Vec<usize>, u32> = HashMap::new();
        let mut order: Vec<Vec<usize>> = Vec::new();
        let mut trans: Vec<Vec<(ByteClass, u32)>> = Vec::new();
        let mut work: VecDeque<u32> = VecDeque::new();

        let start_set = nfa.eps_closure(&[nfa.start]);
        ids.insert(start_set.clone(), 0);
        order.push(start_set);
        trans.push(Vec::new());
        work.push_back(0);

        let cap = dfa_state_cap();
        while let Some(id) = work.pop_front() {
            if order.len() > cap {
                return Dfa::cap_blown("from_nfa");
            }
            let set = order[id as usize].clone();
            // Alphabet compression: step once per local transition
            // class instead of once per byte.
            for block in nfa.local_classes(&set) {
                let Some(rep) = block.min_byte() else { continue };
                let mut next: Vec<usize> = Vec::new();
                for &s in &set {
                    for t in &nfa.states[s].trans {
                        if t.on.contains(rep) {
                            next.push(t.to);
                        }
                    }
                }
                if next.is_empty() {
                    continue; // Densify adds the sink.
                }
                let closed = nfa.eps_closure(&next);
                let to = match ids.get(&closed) {
                    Some(&to) => to,
                    None => {
                        let to = order.len() as u32;
                        ids.insert(closed.clone(), to);
                        order.push(closed);
                        trans.push(Vec::new());
                        work.push_back(to);
                        to
                    }
                };
                trans[id as usize].push((block, to));
            }
        }

        let accept = order.iter().map(|set| set.contains(&nfa.accept)).collect();
        Dfa::densify(Sparse {
            trans,
            accept,
            start: 0,
        })
        .minimize()
    }

    /// Converts a sparse automaton into a complete, class-compressed DFA,
    /// adding a sink state where transitions are missing.
    fn densify(sparse: Sparse) -> Dfa {
        // Global alphabet partition: refine ALL by every class used.
        let mut partition = vec![ByteClass::ALL];
        for row in &sparse.trans {
            for (c, _) in row {
                crate::class::refine_partition(&mut partition, c);
            }
        }
        let mut byte_map = vec![0u16; 256];
        for (i, block) in partition.iter().enumerate() {
            for b in block.iter() {
                byte_map[b as usize] = i as u16;
            }
        }

        let n = sparse.trans.len();
        let sink = n as u32;
        let mut trans = Vec::with_capacity(n + 1);
        let mut used_sink = false;
        for row in &sparse.trans {
            let mut dense = vec![sink; partition.len()];
            for (ci, block) in partition.iter().enumerate() {
                let Some(rep) = block.min_byte() else {
                    used_sink = true;
                    continue;
                };
                for (c, to) in row {
                    if c.contains(rep) {
                        dense[ci] = *to;
                        break;
                    }
                }
                if dense[ci] == sink {
                    used_sink = true;
                }
            }
            trans.push(dense);
        }
        let mut accept = sparse.accept;
        if used_sink {
            trans.push(vec![sink; partition.len()]);
            accept.push(false);
        }
        Dfa {
            classes: partition,
            byte_map,
            trans,
            accept,
            start: sparse.start,
            approx: None,
        }
    }

    // ---------------------------------------------------------------
    // Minimization (Hopcroft's algorithm)
    // ---------------------------------------------------------------

    /// Restricts to the reachable subautomaton: returns the kept
    /// original state ids (in ascending order) and the old → new map
    /// (`usize::MAX` for dropped states).
    fn reachable_states(&self) -> (Vec<usize>, Vec<usize>) {
        let n = self.trans.len();
        let mut reach = vec![false; n];
        let mut stack = vec![self.start as usize];
        reach[self.start as usize] = true;
        while let Some(s) = stack.pop() {
            for &t in &self.trans[s] {
                if !reach[t as usize] {
                    reach[t as usize] = true;
                    stack.push(t as usize);
                }
            }
        }
        let mut remap = vec![usize::MAX; n];
        let mut kept = Vec::new();
        for s in 0..n {
            if reach[s] {
                remap[s] = kept.len();
                kept.push(s);
            }
        }
        (kept, remap)
    }

    /// Returns the minimal equivalent DFA (unreachable states removed,
    /// equivalent states merged) via Hopcroft's worklist algorithm:
    /// O(n·k·log n) over the compressed alphabet classes, versus the
    /// old Moore refinement's O(n²·k) worst case.
    ///
    /// The resulting state numbering is canonical — blocks are numbered
    /// by first occurrence in the input's state order, exactly the
    /// numbering Moore refinement produced — so everything downstream
    /// of `minimize` (including [`Dfa::to_regex`], whose output is
    /// state-order-sensitive and reaches user-facing diagnostics) is
    /// byte-identical to the pre-Hopcroft pipeline.
    pub fn minimize(&self) -> Dfa {
        // 1. Drop unreachable states; work over the dense remnant.
        let (kept, remap) = self.reachable_states();
        let m = kept.len();
        let k = self.classes.len();
        // t[i*k + c]: transition table of the kept subautomaton.
        let mut t = vec![0u32; m * k];
        for (i, &s) in kept.iter().enumerate() {
            for (c, &to) in self.trans[s].iter().enumerate() {
                t[i * k + c] = remap[to as usize] as u32;
            }
        }

        // 2. Per-class inverse transitions in CSR form:
        //    inv[c] = (offsets, preds) with preds[offsets[s]..offsets[s+1]]
        //    the states stepping to `s` on class c.
        let mut inv: Vec<(Vec<u32>, Vec<u32>)> = Vec::with_capacity(k);
        for c in 0..k {
            let mut offsets = vec![0u32; m + 1];
            for i in 0..m {
                offsets[t[i * k + c] as usize + 1] += 1;
            }
            for s in 0..m {
                offsets[s + 1] += offsets[s];
            }
            let mut fill = offsets.clone();
            let mut preds = vec![0u32; m];
            for i in 0..m {
                let tgt = t[i * k + c] as usize;
                preds[fill[tgt] as usize] = i as u32;
                fill[tgt] += 1;
            }
            inv.push((offsets, preds));
        }

        // 3. Initial partition {accepting, non-accepting} (skipping an
        //    empty side) and the worklist seeded with the smaller side
        //    for every class.
        let mut blocks: Vec<Vec<u32>> = Vec::new();
        let mut block_of: Vec<u32> = vec![0; m];
        let mut acc_states: Vec<u32> = Vec::new();
        let mut rej_states: Vec<u32> = Vec::new();
        for (i, &s) in kept.iter().enumerate() {
            if self.accept[s] {
                acc_states.push(i as u32);
            } else {
                rej_states.push(i as u32);
            }
        }
        let mut work: VecDeque<(u32, u32)> = VecDeque::new();
        let seed = if acc_states.is_empty() || rej_states.is_empty() {
            // One block: all states share acceptance, so (the DFA being
            // complete) they are all equivalent; nothing to refine.
            None
        } else {
            Some(usize::from(acc_states.len() > rej_states.len()))
        };
        for states in [acc_states, rej_states] {
            if !states.is_empty() {
                let id = blocks.len() as u32;
                for &s in &states {
                    block_of[s as usize] = id;
                }
                blocks.push(states);
            }
        }
        let mut in_work = vec![false; blocks.len() * k];
        if let Some(seed) = seed {
            for c in 0..k {
                in_work[seed * k + c] = true;
                work.push_back((seed as u32, c as u32));
            }
        }

        // 4. Refine: process (splitter block, class) pairs, splitting
        //    every block with both marked (stepping into the splitter)
        //    and unmarked members; re-enqueue the smaller half.
        let mut state_marked = vec![false; m];
        let mut marked: Vec<Vec<u32>> = vec![Vec::new(); blocks.len()];
        let mut touched: Vec<u32> = Vec::new();
        while let Some((b, c)) = work.pop_front() {
            in_work[b as usize * k + c as usize] = false;
            // Snapshot: the splitter itself may be among the split.
            let splitter = blocks[b as usize].clone();
            let (offsets, preds) = &inv[c as usize];
            for &tstate in &splitter {
                let lo = offsets[tstate as usize] as usize;
                let hi = offsets[tstate as usize + 1] as usize;
                for &p in &preds[lo..hi] {
                    if !state_marked[p as usize] {
                        state_marked[p as usize] = true;
                        let d = block_of[p as usize];
                        if marked[d as usize].is_empty() {
                            touched.push(d);
                        }
                        marked[d as usize].push(p);
                    }
                }
            }
            for &d in &touched {
                let du = d as usize;
                if marked[du].len() == blocks[du].len() {
                    // Every member marked: no split.
                    for &s in &marked[du] {
                        state_marked[s as usize] = false;
                    }
                    marked[du].clear();
                    continue;
                }
                // Proper split: marked members move to a new block.
                let new_id = blocks.len() as u32;
                blocks[du].retain(|s| !state_marked[*s as usize]);
                let moved = std::mem::take(&mut marked[du]);
                for &s in &moved {
                    block_of[s as usize] = new_id;
                    state_marked[s as usize] = false;
                }
                blocks.push(moved);
                marked.push(Vec::new());
                in_work.resize(blocks.len() * k, false);
                for cc in 0..k {
                    if in_work[du * k + cc] {
                        // (d, cc) is already queued: both halves must
                        // be processed to keep the refinement exact.
                        in_work[new_id as usize * k + cc] = true;
                        work.push_back((new_id, cc as u32));
                    } else {
                        // Hopcroft's trick: the smaller half suffices.
                        let smaller = if blocks[du].len() <= blocks[new_id as usize].len() {
                            du as u32
                        } else {
                            new_id
                        };
                        let idx = smaller as usize * k + cc;
                        if !in_work[idx] {
                            in_work[idx] = true;
                            work.push_back((smaller, cc as u32));
                        }
                    }
                }
            }
            touched.clear();
        }

        // 5. Renumber blocks by first occurrence in state order (the
        //    Moore numbering) and emit one row per block.
        let mut new_id = vec![u32::MAX; blocks.len()];
        let mut reps: Vec<u32> = Vec::new();
        for (i, &bo) in block_of.iter().enumerate().take(m) {
            let b = bo as usize;
            if new_id[b] == u32::MAX {
                new_id[b] = reps.len() as u32;
                reps.push(i as u32);
            }
        }
        let mut trans = Vec::with_capacity(reps.len());
        let mut accept = Vec::with_capacity(reps.len());
        for &rep in &reps {
            let row: Vec<u32> = (0..k)
                .map(|c| new_id[block_of[t[rep as usize * k + c] as usize] as usize])
                .collect();
            trans.push(row);
            accept.push(self.accept[kept[rep as usize]]);
        }
        Dfa {
            classes: self.classes.clone(),
            byte_map: self.byte_map.clone(),
            trans,
            accept,
            start: new_id[block_of[remap[self.start as usize]] as usize],
            approx: self.approx,
        }
    }

    /// The pre-Hopcroft Moore partition refinement, kept verbatim as a
    /// differential-testing oracle: `tests/props.rs` asserts that
    /// [`Dfa::minimize`] produces *structurally identical* output.
    /// Quadratic; do not use on hot paths.
    #[doc(hidden)]
    pub fn minimize_moore(&self) -> Dfa {
        let (kept, remap) = self.reachable_states();
        let m = kept.len();

        let mut block = vec![0usize; m];
        for (i, &s) in kept.iter().enumerate() {
            block[i] = usize::from(self.accept[s]);
        }
        loop {
            let mut sig_ids: HashMap<(usize, Vec<usize>), usize> = HashMap::new();
            let mut next_block = vec![0usize; m];
            for (i, &s) in kept.iter().enumerate() {
                let sig: Vec<usize> = self.trans[s]
                    .iter()
                    .map(|&t| block[remap[t as usize]])
                    .collect();
                let key = (block[i], sig);
                let next_id = sig_ids.len();
                let id = *sig_ids.entry(key).or_insert(next_id);
                next_block[i] = id;
            }
            let stable = next_block == block;
            block = next_block;
            if stable {
                break;
            }
        }

        let num_blocks = block.iter().copied().max().map_or(0, |b| b + 1);
        let mut trans = vec![Vec::new(); num_blocks];
        let mut accept = vec![false; num_blocks];
        let mut filled = vec![false; num_blocks];
        for (i, &s) in kept.iter().enumerate() {
            let b = block[i];
            if !filled[b] {
                trans[b] = self.trans[s]
                    .iter()
                    .map(|&t| block[remap[t as usize]] as u32)
                    .collect();
                accept[b] = self.accept[s];
                filled[b] = true;
            }
        }
        Dfa {
            classes: self.classes.clone(),
            byte_map: self.byte_map.clone(),
            trans,
            accept,
            start: block[remap[self.start as usize]] as u32,
            approx: self.approx,
        }
    }

    /// Structural (not just language) equality: same classes, byte map,
    /// transitions, acceptance, and start state. Exposed for the
    /// Hopcroft-vs-Moore differential tests, which pin the canonical
    /// state numbering (to_regex output is numbering-sensitive).
    #[doc(hidden)]
    pub fn structurally_equal(&self, other: &Dfa) -> bool {
        self.classes == other.classes
            && self.byte_map == other.byte_map
            && self.trans == other.trans
            && self.accept == other.accept
            && self.start == other.start
    }

    // ---------------------------------------------------------------
    // Products and complement
    // ---------------------------------------------------------------

    /// Product construction combining acceptance with `op`. Eager —
    /// materializes (then minimizes) the reachable product; callers
    /// that only need a verdict should use the lazy searches instead
    /// ([`Dfa::is_subset_of`] etc. already do).
    pub fn product(&self, other: &Dfa, op: impl Fn(bool, bool) -> bool) -> Dfa {
        shoal_obs::counter_add("relang.dfa_product", 1);
        let alpha = crate::lazy::PairAlphabet::new(self, other);
        self.product_with_alphabet(other, op, &alpha).minimize()
    }

    /// The unminimized reachable product over a precomputed combined
    /// alphabet. `#[doc(hidden)]` pub: the property suite uses it to
    /// manufacture non-minimal automata for minimization oracles.
    #[doc(hidden)]
    pub fn product_raw(&self, other: &Dfa, op: impl Fn(bool, bool) -> bool) -> Dfa {
        let alpha = crate::lazy::PairAlphabet::new(self, other);
        self.product_with_alphabet(other, op, &alpha)
    }

    fn product_with_alphabet(
        &self,
        other: &Dfa,
        op: impl Fn(bool, bool) -> bool,
        alpha: &crate::lazy::PairAlphabet,
    ) -> Dfa {
        let mut ids: HashMap<(u32, u32), u32> = HashMap::new();
        let mut order: Vec<(u32, u32)> = Vec::new();
        let mut trans: Vec<Vec<u32>> = Vec::new();
        let mut work = VecDeque::new();

        let start_pair = (self.start, other.start);
        ids.insert(start_pair, 0);
        order.push(start_pair);
        work.push_back(0u32);

        let cap = dfa_state_cap();
        while let Some(id) = work.pop_front() {
            if order.len() > cap {
                return Dfa::cap_blown("product");
            }
            let (a, b) = order[id as usize];
            let mut row = Vec::with_capacity(alpha.pairs.len());
            // Step directly on class indices — no representative bytes.
            for &(ca, cb) in &alpha.pairs {
                let na = self.trans[a as usize][ca as usize];
                let nb = other.trans[b as usize][cb as usize];
                let to = match ids.get(&(na, nb)) {
                    Some(&to) => to,
                    None => {
                        let to = order.len() as u32;
                        ids.insert((na, nb), to);
                        order.push((na, nb));
                        work.push_back(to);
                        to
                    }
                };
                row.push(to);
            }
            if trans.len() <= id as usize {
                trans.resize(id as usize + 1, Vec::new());
            }
            trans[id as usize] = row;
        }
        let accept = order
            .iter()
            .map(|&(a, b)| op(self.accept[a as usize], other.accept[b as usize]))
            .collect();
        Dfa {
            classes: alpha.classes.clone(),
            byte_map: alpha.byte_map.clone(),
            trans,
            accept,
            start: 0,
            approx: self.approx.or(other.approx),
        }
    }

    /// Language intersection.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && b)
    }

    /// Language union.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a || b)
    }

    /// Language difference.
    pub fn difference(&self, other: &Dfa) -> Dfa {
        self.product(other, |a, b| a && !b)
    }

    /// Language complement (flips acceptance; the DFA is complete).
    pub fn complement(&self) -> Dfa {
        let mut d = self.clone();
        for a in d.accept.iter_mut() {
            *a = !*a;
        }
        d.minimize()
    }

    // ---------------------------------------------------------------
    // Decision procedures
    // ---------------------------------------------------------------

    /// Single transition step on byte `b`.
    fn step(&self, state: u32, b: u8) -> u32 {
        self.trans[state as usize][self.byte_map[b as usize] as usize]
    }

    /// Runs the DFA on `input` (exact match).
    pub fn matches(&self, input: &[u8]) -> bool {
        let mut s = self.start;
        for &b in input {
            s = self.step(s, b);
        }
        self.accept[s as usize]
    }

    /// Is the recognized language empty? Early-exit reachability: stops
    /// at the first accepting state, no path bookkeeping.
    pub fn is_empty_lang(&self) -> bool {
        let n = self.trans.len();
        let mut seen = vec![false; n];
        let mut stack = vec![self.start];
        seen[self.start as usize] = true;
        while let Some(s) = stack.pop() {
            if self.accept[s as usize] {
                return false;
            }
            for &t in &self.trans[s as usize] {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        true
    }

    /// Is `self ⊆ other` as languages? Lazy: explores product pairs
    /// on the fly and stops at the first counterexample instead of
    /// materializing `self \ other`.
    pub fn is_subset_of(&self, other: &Dfa) -> bool {
        crate::lazy::subset(self, other)
    }

    /// Do the two automata accept the same language? Lazy symmetric-
    /// difference search (one pass, not two containment checks).
    pub fn equiv(&self, other: &Dfa) -> bool {
        crate::lazy::equiv(self, other)
    }

    /// Are the two languages disjoint? Lazy intersection search.
    pub fn disjoint(&self, other: &Dfa) -> bool {
        crate::lazy::disjoint(self, other)
    }

    /// A shortest accepted byte string, if one exists. Prefers printable
    /// representative bytes so diagnostics read well.
    pub fn witness(&self) -> Option<Vec<u8>> {
        let n = self.trans.len();
        let mut prev: Vec<Option<(u32, u8)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[self.start as usize] = true;
        queue.push_back(self.start);
        let mut hit: Option<u32> = None;
        if self.accept[self.start as usize] {
            hit = Some(self.start);
        }
        'bfs: while let Some(s) = queue.pop_front() {
            if hit.is_some() {
                break;
            }
            for (ci, &t) in self.trans[s as usize].iter().enumerate() {
                if !seen[t as usize] {
                    // An empty class labels no byte; skip the edge
                    // rather than panic (classes are non-empty for all
                    // in-crate constructions, but stay total).
                    let Some(rep) = self.classes[ci].representative() else {
                        continue;
                    };
                    seen[t as usize] = true;
                    prev[t as usize] = Some((s, rep));
                    if self.accept[t as usize] {
                        hit = Some(t);
                        break 'bfs;
                    }
                    queue.push_back(t);
                }
            }
        }
        let mut cur = hit?;
        let mut out = Vec::new();
        while let Some((p, b)) = prev[cur as usize] {
            out.push(b);
            cur = p;
        }
        out.reverse();
        Some(out)
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// Number of alphabet classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfa(pat: &str) -> Dfa {
        Dfa::from_regex(&Regex::parse_must(pat))
    }

    #[test]
    fn literal_dfa() {
        let d = dfa("abc");
        assert!(d.matches(b"abc"));
        assert!(!d.matches(b"ab"));
        assert!(!d.matches(b"abcd"));
        // Minimal DFA for "abc": 4 live states + sink.
        assert_eq!(d.num_states(), 5);
    }

    #[test]
    fn construction_routes_agree() {
        for pat in ["(a|b)*abb", "[0-9]+(\\.[0-9]+)?", "x{2,4}y*", "(ab|a)(b|)"] {
            let r = Regex::parse_must(pat);
            let via_deriv = Dfa::from_regex(&r);
            let via_nfa = Dfa::from_nfa(&Nfa::compile(&r).unwrap());
            assert!(via_deriv.equiv(&via_nfa), "backends disagree on {pat:?}");
            assert_eq!(
                via_deriv.num_states(),
                via_nfa.num_states(),
                "minimal sizes differ for {pat:?}"
            );
        }
    }

    #[test]
    fn intersection_emptiness() {
        let a = dfa("desc.*");
        let b = dfa("(Distributor ID|Description|Release|Codename):.*");
        assert!(a.intersect(&b).is_empty_lang());
        let c = dfa("Desc.*");
        assert!(!c.intersect(&b).is_empty_lang());
    }

    #[test]
    fn union_and_difference() {
        let a = dfa("aa*");
        let b = dfa("bb*");
        let u = a.union(&b);
        assert!(u.matches(b"aaa"));
        assert!(u.matches(b"b"));
        assert!(!u.matches(b"ab"));
        let d = u.difference(&a);
        assert!(d.matches(b"b"));
        assert!(!d.matches(b"a"));
    }

    #[test]
    fn complement_total() {
        let a = dfa("x");
        let c = a.complement();
        assert!(c.matches(b""));
        assert!(c.matches(b"xx"));
        assert!(!c.matches(b"x"));
        assert!(a.complement().complement().equiv(&a));
    }

    #[test]
    fn subset_checks() {
        assert!(dfa("abc").is_subset_of(&dfa("ab.*")));
        assert!(!dfa("ab.*").is_subset_of(&dfa("abc")));
        assert!(dfa("[0-9]+").is_subset_of(&dfa("[0-9a-f]+")));
    }

    #[test]
    fn witness_shortest() {
        assert_eq!(dfa("colou?r").witness().unwrap(), b"color".to_vec());
        assert_eq!(dfa("a|bb|ccc").witness().unwrap(), b"a".to_vec());
        assert!(dfa("a").intersect(&dfa("b")).witness().is_none());
    }

    #[test]
    fn minimize_idempotent() {
        let d = dfa("(a|b)*abb(a|b)*");
        let m = d.minimize();
        assert_eq!(d.num_states(), m.num_states());
        assert!(d.equiv(&m));
    }

    #[test]
    fn state_cap_degrades_to_top() {
        let saved = dfa_state_cap();
        let _ = take_approx_hits();
        set_dfa_state_cap(3);
        let d = dfa("(a|b)*abb(a|b)*aab");
        set_dfa_state_cap(saved);
        assert!(d.is_approx());
        assert!(matches!(
            d.approx_reason(),
            Some(ApproxReason::StateCap {
                site: "from_regex",
                cap: 3
            })
        ));
        // ⊤ fallback: sound for emptiness (never claims empty), total.
        assert!(!d.is_empty_lang());
        assert!(d.matches(b"anything at all"));
        let hits = take_approx_hits();
        assert_eq!(hits.len(), 1, "cap hit must be recorded for the report");
        // With the default cap the same pattern is exact.
        assert!(!dfa("(a|b)*abb(a|b)*aab").is_approx());
    }

    #[test]
    fn approx_marker_propagates_through_products() {
        let saved = dfa_state_cap();
        let _ = take_approx_hits();
        set_dfa_state_cap(3);
        let top = dfa("(a|b)*abb(a|b)*aab");
        set_dfa_state_cap(saved);
        let exact = dfa("xyz");
        assert!(top.intersect(&exact).is_approx());
        assert!(exact.union(&top).is_approx());
        assert!(top.minimize().is_approx());
        assert!(!exact.intersect(&exact).is_approx());
        let _ = take_approx_hits();
    }

    #[test]
    fn extended_regex_via_derivatives() {
        // (hex strings) minus (digit-only strings).
        let r = Regex::parse_must("[0-9a-f]+").difference(&Regex::parse_must("[0-9]+"));
        let d = Dfa::from_regex(&r);
        assert!(d.matches(b"a1"));
        assert!(!d.matches(b"11"));
        assert!(!d.matches(b""));
    }
}

// ---------------------------------------------------------------------
// Quotients and regex extraction
// ---------------------------------------------------------------------

impl Dfa {
    /// The language from `state` treated as the start state.
    /// `#[doc(hidden)]` pub: the property suite uses it to check
    /// pairwise state inequivalence of minimized automata.
    #[doc(hidden)]
    pub fn language_from(&self, state: u32) -> Dfa {
        let mut d = self.clone();
        d.start = state;
        d.minimize()
    }

    /// Right quotient `L(self) / L(k) = { u : ∃v ∈ L(k), u·v ∈ L(self) }`.
    ///
    /// Used for `${x%pat}`: the possible values after removing a suffix
    /// matching `pat` from a string in `L(self)`.
    ///
    /// One backward reachability pass over the (implicit) product with
    /// `k`, on the combined compressed alphabet: state `q` accepts in
    /// the quotient iff `(q, k.start)` can reach a pair accepting in
    /// both automata. The old implementation re-minimized a fresh
    /// product *per state*; this is the single-pass replacement. The
    /// full pair space is charged against the DFA state cap with the
    /// usual ⊤ degradation.
    pub fn right_quotient(&self, k: &Dfa) -> Dfa {
        let n = self.trans.len();
        let m = k.trans.len();
        if n.saturating_mul(m) > dfa_state_cap() {
            return Dfa::cap_blown("right_quotient");
        }
        let alpha = crate::lazy::PairAlphabet::new(self, k);
        let pc = alpha.pairs.len();
        let total = n * m;
        // Reverse product edges in CSR form (pair id = q*m + p).
        let mut offsets = vec![0u32; total + 1];
        let succ = |q: usize, p: usize, ca: u16, cb: u16| {
            self.trans[q][ca as usize] as usize * m + k.trans[p][cb as usize] as usize
        };
        for q in 0..n {
            for p in 0..m {
                for &(ca, cb) in &alpha.pairs {
                    offsets[succ(q, p, ca, cb) + 1] += 1;
                }
            }
        }
        for i in 0..total {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut preds = vec![0u32; total * pc];
        for q in 0..n {
            for p in 0..m {
                for &(ca, cb) in &alpha.pairs {
                    let tgt = succ(q, p, ca, cb);
                    preds[fill[tgt] as usize] = (q * m + p) as u32;
                    fill[tgt] += 1;
                }
            }
        }
        // Backward BFS from pairs accepting in both automata.
        let mut good = vec![false; total];
        let mut queue: VecDeque<u32> = VecDeque::new();
        for q in 0..n {
            if !self.accept[q] {
                continue;
            }
            for p in 0..m {
                if k.accept[p] {
                    good[q * m + p] = true;
                    queue.push_back((q * m + p) as u32);
                }
            }
        }
        while let Some(pair) = queue.pop_front() {
            let lo = offsets[pair as usize] as usize;
            let hi = offsets[pair as usize + 1] as usize;
            for &pr in &preds[lo..hi] {
                if !good[pr as usize] {
                    good[pr as usize] = true;
                    queue.push_back(pr);
                }
            }
        }
        let mut d = self.clone();
        for q in 0..n {
            d.accept[q] = good[q * m + k.start as usize];
        }
        d.approx = self.approx.or(k.approx);
        d.minimize()
    }

    /// Left quotient `L(k) \ L(self) = { v : ∃u ∈ L(k), u·v ∈ L(self) }`.
    ///
    /// Used for `${x#pat}`: the possible values after removing a prefix
    /// matching `pat`.
    pub fn left_quotient(&self, k: &Dfa) -> Dfa {
        // States of `self` reachable by strings in L(k): run the product
        // with k and collect self-states paired with k-accepting states.
        let alpha = crate::lazy::PairAlphabet::new(self, k);
        let mut reached: Vec<bool> = vec![false; self.trans.len()];
        let mut seen = std::collections::HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back((self.start, k.start));
        seen.insert((self.start, k.start));
        let cap = dfa_state_cap();
        while let Some((a, b)) = queue.pop_front() {
            if seen.len() > cap {
                return Dfa::cap_blown("left_quotient");
            }
            if k.accept[b as usize] {
                reached[a as usize] = true;
            }
            // Joint step once per combined class, not once per byte.
            for &(ca, cb) in &alpha.pairs {
                let na = self.trans[a as usize][ca as usize];
                let nb = k.trans[b as usize][cb as usize];
                if seen.insert((na, nb)) {
                    queue.push_back((na, nb));
                }
            }
        }
        // Union of languages from all reached states: fresh start with
        // ε-moves is easiest via an NFA-like subset trick on this DFA.
        let starts: Vec<u32> = (0..self.trans.len() as u32)
            .filter(|q| reached[*q as usize])
            .collect();
        if starts.is_empty() {
            return Dfa::from_regex(&Regex::Empty);
        }
        self.union_of_states(&starts)
    }

    /// The union of the languages from several states, as one DFA.
    fn union_of_states(&self, starts: &[u32]) -> Dfa {
        let mut ids: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut order: Vec<Vec<u32>> = Vec::new();
        let mut trans: Vec<Vec<u32>> = Vec::new();
        let mut work = VecDeque::new();
        let mut s0: Vec<u32> = starts.to_vec();
        s0.sort_unstable();
        s0.dedup();
        ids.insert(s0.clone(), 0);
        order.push(s0);
        work.push_back(0u32);
        let cap = dfa_state_cap();
        while let Some(id) = work.pop_front() {
            if order.len() > cap {
                return Dfa::cap_blown("union_of_states");
            }
            let set = order[id as usize].clone();
            let mut row = Vec::with_capacity(self.classes.len());
            for ci in 0..self.classes.len() {
                // Step on the class index directly (no representative
                // byte, so empty classes cannot panic here).
                let mut next: Vec<u32> = set.iter().map(|&q| self.trans[q as usize][ci]).collect();
                next.sort_unstable();
                next.dedup();
                let to = match ids.get(&next) {
                    Some(&to) => to,
                    None => {
                        let to = order.len() as u32;
                        ids.insert(next.clone(), to);
                        order.push(next);
                        work.push_back(to);
                        to
                    }
                };
                row.push(to);
            }
            if trans.len() <= id as usize {
                trans.resize(id as usize + 1, Vec::new());
            }
            trans[id as usize] = row;
        }
        let accept = order
            .iter()
            .map(|set| set.iter().any(|&q| self.accept[q as usize]))
            .collect();
        Dfa {
            classes: self.classes.clone(),
            byte_map: self.byte_map.clone(),
            trans,
            accept,
            start: 0,
            approx: self.approx,
        }
        .minimize()
    }

    /// Extracts an equivalent [`Regex`] by state elimination (GNFA).
    /// The result can be verbose but is language-equal; callers that
    /// care about presentation should keep the original syntax where
    /// they have it.
    // Index-based loops are the clearest rendering of the GNFA update
    // rule; the iterator form clippy suggests obscures it.
    #[allow(clippy::needless_range_loop)]
    pub fn to_regex(&self) -> Regex {
        let n = self.trans.len();
        // GNFA edge matrix over n + 2 states (fresh start = n, accept =
        // n+1), entries are regexes (∅ = no edge).
        let total = n + 2;
        let gstart = n;
        let gaccept = n + 1;
        let mut edge: Vec<Vec<Regex>> = vec![vec![Regex::Empty; total]; total];
        for (q, row) in self.trans.iter().enumerate() {
            for (ci, &t) in row.iter().enumerate() {
                let class_re = Regex::class(self.classes[ci]);
                edge[q][t as usize] = edge[q][t as usize].or(&class_re);
            }
        }
        edge[gstart][self.start as usize] = Regex::Eps;
        for (q, &acc) in self.accept.iter().enumerate() {
            if acc {
                edge[q][gaccept] = Regex::Eps;
            }
        }
        // Eliminate original states one by one.
        for rip in 0..n {
            let self_loop = edge[rip][rip].clone();
            let loop_star = self_loop.star();
            for i in 0..total {
                if i == rip {
                    continue;
                }
                let in_edge = edge[i][rip].clone();
                if in_edge == Regex::Empty {
                    continue;
                }
                for j in 0..total {
                    if j == rip {
                        continue;
                    }
                    let out_edge = edge[rip][j].clone();
                    if out_edge == Regex::Empty {
                        continue;
                    }
                    let path = Regex::concat(vec![in_edge.clone(), loop_star.clone(), out_edge]);
                    edge[i][j] = edge[i][j].or(&path);
                }
            }
            for i in 0..total {
                edge[i][rip] = Regex::Empty;
                edge[rip][i] = Regex::Empty;
            }
        }
        edge[gstart][gaccept].clone()
    }
}

#[cfg(test)]
mod quotient_tests {
    use super::*;

    fn dfa(pat: &str) -> Dfa {
        Dfa::from_regex(&Regex::parse_must(pat))
    }

    #[test]
    fn to_regex_roundtrips() {
        for pat in ["abc", "(a|b)*abb", "[0-9]+(\\.[0-9]+)?", "x{2,3}y*", ""] {
            let d = dfa(pat);
            let r = d.to_regex();
            assert!(
                Dfa::from_regex(&r).equiv(&d),
                "state elimination changed the language of {pat:?}"
            );
        }
        assert_eq!(Dfa::from_regex(&Regex::Empty).to_regex(), Regex::Empty);
    }

    #[test]
    fn right_quotient_strips_suffixes() {
        // { u : ∃v ∈ /[^/]*, u·v ∈ /home/user/file } = { /home/user, … }
        let l = dfa("/home/user/file");
        let k = dfa("/[^/]*");
        let q = l.right_quotient(&k);
        assert!(q.matches(b"/home/user"));
        // v must start with '/', so stripping "e" alone is not allowed.
        assert!(!q.matches(b"/home/user/fil"));
        assert!(!q.matches(b"/home/user/file"));
        assert!(!q.matches(b"/home"));
    }

    #[test]
    fn right_quotient_dirnames() {
        // The `${0%/*}` image: paths with a slash, suffix `/<anything>`
        // removed (shortest/longest collapse in the quotient).
        let paths = dfa("/([^/]+/)*[^/]+");
        let slash_suffix = dfa("/(.|\\n)*");
        let q = paths.right_quotient(&slash_suffix);
        assert!(q.matches(b"")); // /file → ""
        assert!(q.matches(b"/home"));
        assert!(q.matches(b"/home/user"));
        assert!(!q.matches(b"noslash"));
    }

    #[test]
    fn left_quotient_strips_prefixes() {
        // ${x##*/}: remove longest prefix matching */ — i.e. keep what
        // follows some slash (or the whole string).
        let l = dfa("/usr/bin/env");
        let k = dfa("(.|\\n)*/");
        let q = l.left_quotient(&k);
        assert!(q.matches(b"env"));
        assert!(q.matches(b"bin/env"));
        assert!(q.matches(b"usr/bin/env"));
        assert!(!q.matches(b"/usr/bin/env"));
    }

    #[test]
    fn quotient_of_empty_is_empty() {
        let l = dfa("abc");
        let none = Dfa::from_regex(&Regex::Empty);
        assert!(l.right_quotient(&none).is_empty_lang());
        assert!(l.left_quotient(&none).is_empty_lang());
    }

    #[test]
    fn quotient_regex_roundtrip() {
        let l = dfa("(a|b)+c");
        let k = dfa("c");
        let q = l.right_quotient(&k);
        let r = q.to_regex();
        assert!(Dfa::from_regex(&r).equiv(&q));
        assert!(r.matches(b"ab"));
        assert!(!r.matches(b"abc"));
    }
}
