//! Property-based tests for the regular-language engine, on the in-repo
//! seeded harness (`shoal_obs::prop`).
//!
//! The central invariant: the three execution backends (Brzozowski
//! derivatives, Thompson NFA simulation, compiled DFA) recognize exactly
//! the same language, and the Boolean algebra of languages agrees with
//! pointwise matching.

use shoal_obs::prop::{run_cases, Gen};
use shoal_relang::{ByteClass, Dfa, Nfa, Regex};

/// A random classical regex over the alphabet {a, b, c}, with bounded
/// depth (mirrors the old `prop_recursive(4, 24, 3, …)` strategy).
fn classical_regex(g: &mut Gen, depth: usize) -> Regex {
    if depth == 0 || g.ratio(0.3) {
        return match g.usize(0..6) {
            0 => Regex::eps(),
            1 => Regex::byte(b'a'),
            2 => Regex::byte(b'b'),
            3 => Regex::byte(b'c'),
            4 => Regex::class(ByteClass::from_bytes(b"ab")),
            _ => Regex::class(ByteClass::from_bytes(b"bc")),
        };
    }
    match g.usize(0..4) {
        0 => Regex::concat(g.vec_of(2..4, |g| classical_regex(g, depth - 1))),
        1 => Regex::alt(g.vec_of(2..4, |g| classical_regex(g, depth - 1))),
        2 => classical_regex(g, depth - 1).star(),
        _ => classical_regex(g, depth - 1).opt(),
    }
}

/// A random input over {a, b, c, d} (d exercises out-of-alphabet bytes).
fn input(g: &mut Gen) -> Vec<u8> {
    g.vec_of(0..10, |g| *g.pick(b"abcd"))
}

#[test]
fn backends_agree() {
    run_cases("backends_agree", 128, |g| {
        let r = classical_regex(g, 4);
        let s = input(g);
        let via_deriv = r.matches(&s);
        let nfa = Nfa::compile(&r).expect("classical");
        let via_nfa = nfa.matches(&s);
        let dfa = Dfa::from_regex(&r);
        let via_dfa = dfa.matches(&s);
        let via_subset = Dfa::from_nfa(&nfa).matches(&s);
        assert_eq!(via_deriv, via_nfa, "{r} on {s:?}");
        assert_eq!(via_deriv, via_dfa, "{r} on {s:?}");
        assert_eq!(via_deriv, via_subset, "{r} on {s:?}");
    });
}

#[test]
fn boolean_algebra_pointwise() {
    run_cases("boolean_algebra_pointwise", 128, |g| {
        let a = classical_regex(g, 3);
        let b = classical_regex(g, 3);
        let s = input(g);
        assert_eq!(a.or(&b).matches(&s), a.matches(&s) || b.matches(&s));
        assert_eq!(a.intersect(&b).matches(&s), a.matches(&s) && b.matches(&s));
        assert_eq!(a.complement().matches(&s), !a.matches(&s));
        assert_eq!(a.difference(&b).matches(&s), a.matches(&s) && !b.matches(&s));
    });
}

#[test]
fn subset_laws() {
    run_cases("subset_laws", 96, |g| {
        let a = classical_regex(g, 3);
        let b = classical_regex(g, 3);
        assert!(a.is_subset_of(&a.or(&b)));
        assert!(a.intersect(&b).is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(Regex::empty().is_subset_of(&a));
    });
}

#[test]
fn witness_is_member() {
    run_cases("witness_is_member", 128, |g| {
        let r = classical_regex(g, 4);
        match r.witness() {
            Some(w) => assert!(r.matches(&w), "witness {w:?} not in language of {r}"),
            None => assert!(r.is_empty()),
        }
    });
}

#[test]
fn witness_is_shortest() {
    run_cases("witness_is_shortest", 96, |g| {
        let r = classical_regex(g, 4);
        if let Some(w) = r.witness() {
            // No strictly shorter member exists: check all shorter strings
            // over the tiny alphabet when feasible.
            if !w.is_empty() && w.len() <= 3 {
                let alphabet = [b'a', b'b', b'c', b'd'];
                let mut shorter_member = false;
                let mut stack: Vec<Vec<u8>> = vec![vec![]];
                while let Some(cand) = stack.pop() {
                    if cand.len() < w.len() {
                        if r.matches(&cand) {
                            shorter_member = true;
                            break;
                        }
                        for &c in &alphabet {
                            let mut next = cand.clone();
                            next.push(c);
                            stack.push(next);
                        }
                    }
                }
                assert!(!shorter_member, "witness {w:?} of {r} is not shortest");
            }
        }
    });
}

#[test]
fn minimize_preserves_language() {
    run_cases("minimize_preserves_language", 96, |g| {
        let r = classical_regex(g, 3);
        let s = input(g);
        let d = Dfa::from_regex(&r);
        let m = d.minimize();
        assert_eq!(d.matches(&s), m.matches(&s));
        assert!(d.equiv(&m));
    });
}

#[test]
fn display_roundtrip() {
    run_cases("display_roundtrip", 128, |g| {
        let r = classical_regex(g, 3);
        let printed = r.to_string();
        let reparsed = Regex::parse(&printed)
            .unwrap_or_else(|e| panic!("printed {printed:?} failed to reparse: {e}"));
        assert!(r.equiv(&reparsed), "{printed} reparsed to a different language");
    });
}

#[test]
fn equivalence_is_congruence() {
    run_cases("equivalence_is_congruence", 96, |g| {
        let a = classical_regex(g, 3);
        let b = classical_regex(g, 3);
        // a ∪ b ≡ b ∪ a, (a ∪ b) ∩ a ≡ a, and a \ a ≡ ∅.
        assert!(a.or(&b).equiv(&b.or(&a)));
        assert!(a.or(&b).intersect(&a).equiv(&a));
        assert!(a.difference(&a).is_empty());
    });
}

#[test]
fn star_laws() {
    run_cases("star_laws", 96, |g| {
        let a = classical_regex(g, 3);
        let s = input(g);
        // a* a* ≡ a*, and s ∈ a ⇒ s ∈ a*.
        let star = a.star();
        assert_eq!(star.then(&star).matches(&s), star.matches(&s));
        if a.matches(&s) {
            assert!(star.matches(&s));
        }
    });
}

#[test]
fn grep_literal_is_substring_search() {
    run_cases("grep_literal_is_substring_search", 128, |g| {
        let needle = g.string_of("abc", 1..5);
        let hay = g.string_of("abcd", 0..11);
        let pat = Regex::grep_pattern(&needle).expect("literal pattern");
        let selected = pat.matches(hay.as_bytes());
        assert_eq!(selected, hay.contains(&needle), "needle {needle:?} hay {hay:?}");
    });
}

/// Memoization must be semantically invisible: every decision procedure
/// answers identically with caching on (warm *and* cold) and off.
#[test]
fn memoized_decisions_equal_fresh() {
    use shoal_relang::{memo_flush, set_memo_enabled};
    run_cases("memoized_decisions_equal_fresh", 96, |g| {
        let a = classical_regex(g, 3);
        let b = classical_regex(g, 3);
        set_memo_enabled(false);
        let fresh = (
            a.is_empty(),
            a.is_subset_of(&b),
            b.is_subset_of(&a),
            a.equiv(&b),
            a.disjoint(&b),
            a.witness(),
        );
        set_memo_enabled(true);
        memo_flush();
        // First pass populates the tables (misses), second pass hits.
        for pass in ["cold", "warm"] {
            let memoized = (
                a.is_empty(),
                a.is_subset_of(&b),
                b.is_subset_of(&a),
                a.equiv(&b),
                a.disjoint(&b),
                a.witness(),
            );
            assert_eq!(memoized, fresh, "{pass} memo answers diverge: {a} vs {b}");
        }
    });
    shoal_relang::memo_flush();
}

/// A random glob-shaped pattern over {a, b, c, /}: literal bytes, `?`
/// (any byte) and `*` (any string), as `${x%pat}` and `${x#pat}` see
/// them.
fn glob_pattern(g: &mut Gen) -> Regex {
    Regex::concat(g.vec_of(0..4, |g| match g.usize(0..6) {
        0 => Regex::anything(),
        1 => Regex::any_byte(),
        _ => Regex::byte(*g.pick(b"abc/")),
    }))
}

/// The memoized affix split and quotient answer exactly what the same
/// call computes with memoization off, on the cold and the warm call.
#[test]
fn memoized_affix_splits_equal_fresh() {
    use shoal_relang::memo::{affix_quotient, affix_split, Affix};
    use shoal_relang::{memo_flush, set_memo_enabled};
    run_cases("memoized_affix_splits_equal_fresh", 64, |g| {
        let c = classical_regex(g, 3);
        let p = glob_pattern(g);
        for affix in [Affix::Suffix, Affix::Prefix] {
            set_memo_enabled(false);
            let fresh = (affix_split(&c, &p, affix), affix_quotient(&c, &p, affix));
            set_memo_enabled(true);
            memo_flush();
            for pass in ["cold", "warm"] {
                let memoized = (affix_split(&c, &p, affix), affix_quotient(&c, &p, affix));
                assert_eq!(
                    memoized, fresh,
                    "{pass} memo answers diverge: {c} by {p} ({affix:?})"
                );
            }
        }
    });
    shoal_relang::memo_flush();
}

/// The lazy on-the-fly decision procedures must return exactly the
/// verdicts of the eager materialize-then-check pipeline whenever
/// neither side degraded to ⊤ — across caps and with memoization on
/// and off. When a side *does* cap, the contract is only conservatism,
/// so capped rounds are skipped.
#[test]
fn lazy_and_eager_verdicts_agree() {
    use shoal_relang::{
        dfa::{set_dfa_state_cap, take_approx_hits, DEFAULT_DFA_STATE_CAP},
        memo::{self, memo_flush, set_memo_enabled},
    };
    run_cases("lazy_and_eager_verdicts_agree", 48, |g| {
        let a = classical_regex(g, 3);
        let b = classical_regex(g, 3);
        // Ground truth at the default cap; these tiny automata never cap.
        set_dfa_state_cap(DEFAULT_DFA_STATE_CAP);
        set_memo_enabled(false);
        let _ = take_approx_hits();
        let truth = (
            a.is_empty(),
            a.is_subset_of(&b),
            a.equiv(&b),
            a.disjoint(&b),
            a.witness(),
        );
        assert!(
            take_approx_hits().is_empty(),
            "ground truth capped: {a} vs {b}"
        );
        for cap in [16usize, 4096] {
            for memo_on in [false, true] {
                set_dfa_state_cap(cap);
                set_memo_enabled(memo_on);
                if memo_on {
                    memo_flush();
                }
                let lazy = (
                    a.is_empty(),
                    a.is_subset_of(&b),
                    a.equiv(&b),
                    a.disjoint(&b),
                    a.witness(),
                );
                let lazy_capped = !take_approx_hits().is_empty();
                let eager = (
                    memo::eager::is_empty(&a),
                    memo::eager::is_subset_of(&a, &b),
                    memo::eager::equiv(&a, &b),
                    memo::eager::disjoint(&a, &b),
                    memo::eager::witness(&a),
                );
                let eager_capped = !take_approx_hits().is_empty();
                if !lazy_capped && !eager_capped {
                    assert_eq!(
                        lazy, eager,
                        "lazy vs eager diverge (cap {cap}, memo {memo_on}): {a} vs {b}"
                    );
                    assert_eq!(
                        lazy, truth,
                        "lazy vs ground truth diverge (cap {cap}, memo {memo_on}): {a} vs {b}"
                    );
                }
            }
        }
        set_dfa_state_cap(DEFAULT_DFA_STATE_CAP);
        set_memo_enabled(true);
        memo_flush();
    });
}

/// Hopcroft's worklist minimization must be observably identical to the
/// retained Moore reference: same structure (the canonical first-
/// occurrence numbering), same language, idempotent, and with no pair
/// of distinct states recognizing the same residual language.
#[test]
fn hopcroft_matches_moore() {
    run_cases("hopcroft_matches_moore", 64, |g| {
        let a = classical_regex(g, 3);
        let b = classical_regex(g, 3);
        // A raw (un-minimized) product gives Hopcroft real work to do.
        let raw = Dfa::from_regex(&a).product_raw(&Dfa::from_regex(&b), |x, y| x || y);
        let hop = raw.minimize();
        let moore = raw.minimize_moore();
        assert!(
            hop.structurally_equal(&moore),
            "Hopcroft and Moore disagree on {a} | {b}"
        );
        assert!(hop.equiv(&raw), "minimize changed the language of {a} | {b}");
        assert!(
            hop.minimize().structurally_equal(&hop),
            "minimize not idempotent on {a} | {b}"
        );
        // True minimality: every pair of distinct surviving states is
        // distinguishable by some suffix.
        let n = hop.num_states() as u32;
        for i in 0..n {
            for j in (i + 1)..n {
                assert!(
                    !hop.language_from(i).equiv(&hop.language_from(j)),
                    "states {i} and {j} of minimized {a} | {b} are equivalent"
                );
            }
        }
    });
}

/// Regression for the `expect("non-empty class")` panic paths: a regex
/// whose DFA needs all 256 byte classes (every byte maps to its own
/// class) must survive every combining operation. Before the rework,
/// product/witness looked up a representative byte per *combined*
/// class and panicked when refinement produced an empty intersection.
#[test]
fn dense_256_class_alphabet_survives_all_ops() {
    // ∪ over all 256 bytes of "bb" — each byte is its own class.
    let r = Regex::alt(
        (0u16..256)
            .map(|b| Regex::concat(vec![Regex::byte(b as u8), Regex::byte(b as u8)]))
            .collect(),
    );
    let d = Dfa::from_regex(&r);
    assert_eq!(d.num_classes(), 256, "expected a fully dense alphabet");
    let s = Dfa::from_regex(&Regex::parse_must("a[a-z]"));
    // Every operation that combines alphabets, on both operand orders.
    assert!(!d.is_subset_of(&s));
    assert!(!s.is_subset_of(&d));
    assert!(!d.equiv(&s));
    assert!(!d.disjoint(&s), "\"aa\" is in both languages");
    let inter = d.intersect(&s);
    assert!(inter.matches(b"aa"));
    assert!(!inter.matches(b"ab"));
    let uni = d.union(&s);
    assert!(uni.matches(b"\x00\x00") && uni.matches(b"az"));
    assert_eq!(d.witness().map(|w| w.len()), Some(2));
    // L(d)/L(s): only ε, since "aa" is the sole shared suffix.
    let quo = d.right_quotient(&s);
    assert!(quo.matches(b"") && !quo.matches(b"a"));
    let lq = d.left_quotient(&s);
    assert!(lq.matches(b"") && !lq.matches(b"b"));
}

/// Regression: interner overflow must retire term ids *together with*
/// their memoized decisions.
///
/// The failure mode this pins down: ids are dense and reused after a
/// flush, so a decision cached under `(id_a, id_b)` before the flush
/// would be served for a *different* pair of terms that landed on the
/// same ids afterwards — a silently wrong subset answer, not a perf
/// bug. The fix flushes every decision table whenever the interner
/// flushes; this test drives the interner exactly to the overflow
/// boundary and then re-lands an unrelated term on the retired id.
#[test]
fn memo_flush_must_retire_ids_with_the_terms() {
    use shoal_relang::{memo_flush, Regex, INTERN_CAP};
    memo_flush();
    // Fill the interner to CAP - 1 distinct terms.
    for n in 0..(INTERN_CAP - 1) {
        let _ = Regex::lit(&format!("filler-{n}")).term_id();
    }
    // `a` takes the last slot (id CAP-1); interning `b` overflows and
    // flushes; `b` re-lands on id 0. The subset answer for (a, b) is
    // keyed (CAP-1, 0) — and CAP-1 is now a *retired* id.
    let a = Regex::lit("AAAA");
    let b = Regex::parse_must("A+");
    assert!(a.is_subset_of(&b), "sanity: AAAA ⊆ A+");

    // Refill until some unrelated term `c` lands exactly on id CAP-1
    // while `b` keeps id 0.
    let mut c = None;
    for n in 0..(2 * INTERN_CAP) {
        let cand = Regex::lit(&format!("poison-{n}"));
        if cand.term_id() as usize == INTERN_CAP - 1 {
            c = Some(cand);
            break;
        }
    }
    let c = c.expect("some term reached the retired id");
    // `c` is NOT a subset of A+; a stale entry at (CAP-1, 0) would say
    // it is.
    let got = c.is_subset_of(&b);
    memo_flush();
    assert!(
        !got,
        "stale memo key (retired id reused) made {c:?} ⊆ A+ return true"
    );
}
