//! Deriving stream signatures from classified invocations.
//!
//! Each standard filter gets a signature derivation that inspects its
//! flags and arguments. This is the analyzer's counterpart of the spec
//! library: specs describe file-system behavior, signatures describe
//! stream behavior.

use crate::sig::Sig;
use shoal_relang::Regex;
use shoal_spec::Invocation;
use std::sync::LazyLock;

/// The bound of `sort -g` (general numeric): lines beginning with an
/// optionally-signed decimal, a `0x` hexadecimal, or empty lines (which
/// `sort -g` treats as zero). This is the paper's
/// `∀α ⊆ 0x[0-9a-f]+.*` example generalized to what `-g` really accepts.
pub fn sort_g_bound() -> Regex {
    SORT_G_BOUND.clone()
}

/// The bound of `sort -n` (decimal numeric prefix or blank).
pub fn sort_n_bound() -> Regex {
    SORT_N_BOUND.clone()
}

// Parsed once per process, as `core::langs` does for the engine's
// constant languages.
static SORT_G_BOUND: LazyLock<Regex> = LazyLock::new(|| {
    Regex::parse_must(r"([-+]?[0-9]+(\.[0-9]*)?([eE][-+]?[0-9]+)?.*|0[xX][0-9a-fA-F]+.*)?")
});
static SORT_N_BOUND: LazyLock<Regex> =
    LazyLock::new(|| Regex::parse_must(r"( *[-+]?[0-9]+(\.[0-9]*)?.*)?"));

/// Derives the stream signature of one filter invocation, if the command
/// is a known filter. Returns `None` for non-filters (their stdout comes
/// from the spec library's `stdout_line` instead) and for invocations too
/// exotic to type.
pub fn sig_for(inv: &Invocation) -> Option<Sig> {
    match inv.name.as_str() {
        "grep" => grep_sig(inv),
        "sed" => sed_sig(inv),
        "cut" => cut_sig(inv),
        "sort" => Some(sort_sig(inv)),
        "cat" | "tac" | "rev0" => Some(Sig::identity()),
        "head" | "tail" => Some(Sig::identity()),
        "uniq" => Some(uniq_sig(inv)),
        "tr" => Some(tr_sig(inv)),
        "wc" => Some(wc_sig(inv)),
        "nl" => Some(Sig::poly_wrap(
            Regex::parse(" *[0-9]+\t").expect("builtin"),
            Regex::eps(),
        )),
        "xargs" | "tee" => Some(Sig::identity()),
        _ => None,
    }
}

fn pattern_of(inv: &Invocation) -> Option<String> {
    if let Some(p) = inv.options.get(&'e') {
        return Some(p.clone());
    }
    inv.operands.first().cloned()
}

fn grep_sig(inv: &Invocation) -> Option<Sig> {
    let pattern = pattern_of(inv)?;
    // `-q` produces no stream output at all; `-c` produces a count.
    if inv.has_flag('q') {
        return Some(Sig::mono(Regex::any_line(), Regex::empty()));
    }
    if inv.has_flag('c') {
        return Some(Sig::mono(
            Regex::any_line(),
            Regex::parse("[0-9]+").expect("builtin"),
        ));
    }
    // `-F`: fixed string — build the literal's substring language.
    let mut keep = if inv.has_flag('F') {
        Regex::any_line()
            .then(&Regex::lit(&pattern))
            .then(&Regex::any_line())
    } else {
        // BREs and EREs differ in ways that rarely matter for typing;
        // parse both with the ERE-subset parser.
        Regex::grep_pattern(&pattern).ok()?
    };
    if inv.has_flag('i') {
        keep = keep.case_insensitive();
    }
    if inv.has_flag('o') {
        // Output lines are the matched fragments themselves.
        let mut inner = if inv.has_flag('F') {
            Regex::lit(&pattern)
        } else {
            Regex::parse(&pattern).ok()?
        };
        if inv.has_flag('i') {
            inner = inner.case_insensitive();
        }
        return Some(Sig::mono(Regex::any_line(), inner));
    }
    if inv.has_flag('v') {
        return Some(Sig::FilterOut { drop: keep });
    }
    let mut sig_keep = keep;
    if inv.has_flag('n') {
        // `-n` prefixes `lineno:`; model as filter-then-wrap. The filter
        // semantics dominate for dead-pipe detection, so approximate the
        // output as `[0-9]+:` + kept lines.
        sig_keep = Regex::parse("[0-9]+:").expect("builtin").then(&sig_keep);
        return Some(Sig::mono(Regex::any_line(), sig_keep));
    }
    Some(Sig::Filter { keep: sig_keep })
}

/// `sed` scripts of the forms the paper discusses:
/// `s/^/P/` (prefix), `s/$/S/` (suffix) — polymorphic wraps; anything
/// else falls back to `.* → .*`.
fn sed_sig(inv: &Invocation) -> Option<Sig> {
    let script = inv
        .options
        .get(&'e')
        .cloned()
        .or_else(|| inv.operands.first().cloned())?;
    if let Some(rest) = script.strip_prefix("s/^/") {
        if let Some(repl) = rest.strip_suffix('/') {
            if !repl.contains('/') && !repl.contains('&') && !repl.contains('\\') {
                return Some(Sig::poly_wrap(Regex::lit(repl), Regex::eps()));
            }
        }
    }
    if let Some(rest) = script.strip_prefix("s/$/") {
        if let Some(repl) = rest.strip_suffix('/') {
            if !repl.contains('/') && !repl.contains('&') && !repl.contains('\\') {
                return Some(Sig::poly_wrap(Regex::eps(), Regex::lit(repl)));
            }
        }
    }
    // `sed -n` with no printing commands produces nothing.
    if inv.has_flag('n') && !script.contains('p') {
        return Some(Sig::mono(Regex::any_line(), Regex::empty()));
    }
    // General substitution: output shape unknown.
    Some(Sig::mono(Regex::any_line(), Regex::any_line()))
}

fn cut_sig(inv: &Invocation) -> Option<Sig> {
    let delim = inv
        .options
        .get(&'d')
        .and_then(|d| d.bytes().next())
        .unwrap_or(b'\t');
    if inv.options.contains_key(&'f') {
        // Output is a field: no (single) delimiter inside a single
        // selected field. Multi-field selections (`-f1,3`) may retain
        // delimiters; approximate by any_line then.
        let fields = inv.options.get(&'f').map(String::as_str).unwrap_or("");
        if fields.chars().all(|c| c.is_ascii_digit()) {
            let mut cls = shoal_relang::ByteClass::dot();
            cls.remove(delim);
            return Some(Sig::mono(Regex::any_line(), Regex::class(cls).star()));
        }
        return Some(Sig::mono(Regex::any_line(), Regex::any_line()));
    }
    if inv.options.contains_key(&'c') {
        return Some(Sig::mono(Regex::any_line(), Regex::any_line()));
    }
    None
}

fn sort_sig(inv: &Invocation) -> Sig {
    if inv.has_flag('g') {
        Sig::bounded_identity(sort_g_bound())
    } else if inv.has_flag('n') {
        Sig::bounded_identity(sort_n_bound())
    } else {
        Sig::identity()
    }
}

fn uniq_sig(inv: &Invocation) -> Sig {
    if inv.has_flag('c') {
        // `uniq -c` prefixes a count.
        Sig::poly_wrap(Regex::parse(" *[0-9]+ ").expect("builtin"), Regex::eps())
    } else {
        Sig::identity()
    }
}

fn tr_sig(inv: &Invocation) -> Sig {
    // Precise class-translation typing is possible; the identity-shape
    // approximation `.* → .*` is sound for dead-pipe detection.
    let _ = inv;
    Sig::mono(Regex::any_line(), Regex::any_line())
}

fn wc_sig(inv: &Invocation) -> Sig {
    if inv.has_flag('l') || inv.has_flag('w') || inv.has_flag('c') {
        Sig::mono(
            Regex::any_line(),
            Regex::parse(" *[0-9]+").expect("builtin"),
        )
    } else {
        Sig::mono(
            Regex::any_line(),
            Regex::parse(" *[0-9]+ +[0-9]+ +[0-9]+.*").expect("builtin"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoal_spec::Invocation;

    fn inv(name: &str, flags: &[char], operands: &[&str]) -> Invocation {
        Invocation::new(name, flags, operands)
    }

    #[test]
    fn grep_plain_is_filter() {
        let sig = sig_for(&inv("grep", &[], &["^desc"])).unwrap();
        assert!(matches!(sig, Sig::Filter { .. }));
    }

    #[test]
    fn grep_v_is_filter_out() {
        let sig = sig_for(&inv("grep", &['v'], &["^#"])).unwrap();
        let out = sig.apply(&Regex::any_line()).unwrap();
        assert!(out.matches(b"data"));
        assert!(!out.matches(b"# comment"));
    }

    #[test]
    fn grep_i_widens_case() {
        let sig = sig_for(&inv("grep", &['i'], &["^desc"])).unwrap();
        let lsb = Regex::parse(r"(Distributor ID|Description|Release|Codename):\t.*").unwrap();
        let out = sig.apply(&lsb).unwrap();
        assert!(!out.is_empty(), "-i makes ^desc match Description:");
    }

    #[test]
    fn grep_o_extracts_matches() {
        // The paper's `grep -oE "$hex"`.
        let sig = sig_for(&inv("grep", &['o', 'E'], &["[0-9a-f]+"])).unwrap();
        let out = sig.apply(&Regex::any_line()).unwrap();
        assert!(out.equiv(&Regex::parse("[0-9a-f]+").unwrap()));
    }

    #[test]
    fn grep_q_and_c() {
        let q = sig_for(&inv("grep", &['q'], &["x"])).unwrap();
        assert!(q.apply(&Regex::any_line()).unwrap().is_empty());
        let c = sig_for(&inv("grep", &['c'], &["x"])).unwrap();
        let out = c.apply(&Regex::any_line()).unwrap();
        assert!(out.matches(b"42"));
        assert!(!out.matches(b"x 42"));
    }

    #[test]
    fn sed_prefix_is_polymorphic() {
        let sig = sig_for(&inv("sed", &[], &["s/^/0x/"])).unwrap();
        assert!(matches!(sig, Sig::Poly { .. }));
        let out = sig.apply(&Regex::parse("[0-9a-f]+").unwrap()).unwrap();
        assert!(out.equiv(&Regex::parse("0x[0-9a-f]+").unwrap()));
    }

    #[test]
    fn sed_suffix_is_polymorphic() {
        let sig = sig_for(&inv("sed", &[], &["s/$/;/"])).unwrap();
        let out = sig.apply(&Regex::parse("[a-z]+").unwrap()).unwrap();
        assert!(out.matches(b"abc;"));
        assert!(!out.matches(b"abc"));
    }

    #[test]
    fn sed_general_is_any() {
        let sig = sig_for(&inv("sed", &[], &["s/a/b/g"])).unwrap();
        let out = sig.apply(&Regex::parse("[a-z]+").unwrap()).unwrap();
        assert!(out.equiv(&Regex::any_line()));
    }

    #[test]
    fn cut_field_excludes_delimiter() {
        let mut i = inv("cut", &[], &[]);
        i.options.insert('f', "2".to_string());
        let sig = sig_for(&i).unwrap();
        let out = sig.apply(&Regex::any_line()).unwrap();
        assert!(out.matches(b"field"));
        assert!(!out.matches(b"two\tfields"));
    }

    #[test]
    fn sort_g_bound_accepts_paper_inputs() {
        let b = sort_g_bound();
        assert!(Regex::parse("0x[0-9a-f]+").unwrap().is_subset_of(&b));
        assert!(Regex::parse("[0-9]+").unwrap().is_subset_of(&b));
        assert!(!Regex::parse("[a-z]+").unwrap().is_subset_of(&b));
    }

    #[test]
    fn sort_plain_is_identity() {
        let sig = sig_for(&inv("sort", &[], &[])).unwrap();
        let t = Regex::parse("[a-z]+").unwrap();
        assert!(sig.apply(&t).unwrap().equiv(&t));
    }

    #[test]
    fn wc_l_emits_number() {
        let sig = sig_for(&inv("wc", &['l'], &[])).unwrap();
        let out = sig.apply(&Regex::any_line()).unwrap();
        assert!(out.matches(b"17"));
        assert!(out.matches(b"  17"));
        assert!(!out.matches(b"seventeen"));
    }

    #[test]
    fn unknown_commands_have_no_sig() {
        assert!(sig_for(&inv("objdump", &[], &[])).is_none());
        assert!(sig_for(&inv("rm", &['r'], &["/x"])).is_none());
    }
}
