//! Shell pattern (glob) semantics: conversion to regular languages and
//! the POSIX parameter-expansion pattern operators.
//!
//! Two distinct pattern worlds exist in the shell and both reduce to
//! regular languages here:
//!
//! * **glob matching** for `case` patterns and pathname expansion, where
//!   `*` matches any string, `?` one character, `[…]` a class;
//! * **prefix/suffix removal** in `${x%pat}`, `${x%%pat}`, `${x#pat}`,
//!   `${x##pat}` — precise on literals (scan for the smallest/largest
//!   matching affix) and constraint-preserving on symbols (language
//!   quotients, computed and memoized by `shoal_relang::memo`).

use crate::value::SymStr;
use shoal_relang::{memo, ByteClass, Regex};
use shoal_shparse::{Word, WordPart};

/// Converts a glob pattern (as text) to the regular language it matches.
/// In parameter-expansion and `case` contexts `*` matches *any* string,
/// including `/` and newlines.
pub fn glob_to_regex(pattern: &str) -> Regex {
    let bytes = pattern.as_bytes();
    let mut parts = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'*' => parts.push(Regex::anything()),
            b'?' => parts.push(Regex::any_byte()),
            b'[' => {
                // Find the closing bracket (first `]` can be literal).
                let mut j = i + 1;
                let negated = j < bytes.len() && (bytes[j] == b'!' || bytes[j] == b'^');
                if negated {
                    j += 1;
                }
                let class_start = j;
                if j < bytes.len() && bytes[j] == b']' {
                    j += 1;
                }
                while j < bytes.len() && bytes[j] != b']' {
                    j += 1;
                }
                if j >= bytes.len() {
                    // Unclosed: literal '['.
                    parts.push(Regex::byte(b'['));
                } else {
                    let mut class = ByteClass::new();
                    let inner = &bytes[class_start..j];
                    let mut k = 0;
                    while k < inner.len() {
                        if k + 2 < inner.len() && inner[k + 1] == b'-' {
                            class.insert_range(inner[k], inner[k + 2]);
                            k += 3;
                        } else {
                            class.insert(inner[k]);
                            k += 1;
                        }
                    }
                    if negated {
                        class = class.complement();
                    }
                    parts.push(Regex::class(class));
                    i = j;
                }
            }
            b'\\' if i + 1 < bytes.len() => {
                i += 1;
                parts.push(Regex::byte(bytes[i]));
            }
            b => parts.push(Regex::byte(b)),
        }
        i += 1;
    }
    Regex::concat(parts)
}

/// Converts a parsed pattern [`Word`] to its glob language. Quoted parts
/// are literal; unquoted glob metacharacters are active; expansions make
/// the pattern unknown (any string).
pub fn word_pattern_to_regex(word: &Word) -> Regex {
    let mut parts = Vec::new();
    for part in &word.parts {
        match part {
            WordPart::Literal(s) => parts.push(glob_to_regex(s)),
            WordPart::SingleQuoted(s) => parts.push(Regex::lit(s)),
            WordPart::DoubleQuoted(inner) => {
                for p in inner {
                    match p {
                        WordPart::Literal(s) => parts.push(Regex::lit(s)),
                        _ => parts.push(Regex::anything()),
                    }
                }
            }
            WordPart::Glob(g) => parts.push(glob_to_regex(g)),
            WordPart::Tilde(_) => parts.push(Regex::anything()),
            _ => parts.push(Regex::anything()),
        }
    }
    Regex::concat(parts)
}

/// Which affix a removal operator targets: `Prefix` for `${x#pat}` /
/// `${x##pat}`, `Suffix` for `${x%pat}` / `${x%%pat}`.
pub use shoal_relang::memo::Affix;

/// One possible outcome of a removal operator on a symbolic value.
#[derive(Debug, Clone)]
pub struct RemovalCase {
    /// The resulting value.
    pub result: SymStr,
    /// Constraint refinement to apply to the source symbol (when the
    /// source was a single symbol): the set of originals consistent with
    /// this case.
    pub source_refinement: Option<Regex>,
    /// Path-condition text for diagnostics.
    pub condition: String,
}

/// Applies `${x op pat}` removal. Literal values are computed exactly;
/// a single-symbol value splits into the "pattern matched" and "pattern
/// did not match" worlds with quotient-derived result constraints; other
/// shapes fall back to one over-approximate case.
pub fn remove_affix(
    value: &SymStr,
    pattern: &Regex,
    affix: Affix,
    longest: bool,
    fresh: &mut impl FnMut() -> u32,
) -> Vec<RemovalCase> {
    if let Some(text) = value.as_literal() {
        let result = remove_affix_literal(&text, pattern, affix, longest);
        return vec![RemovalCase {
            result: SymStr::lit(&result),
            source_refinement: None,
            condition: String::new(),
        }];
    }
    if let Some((id, constraint)) = value.as_single_sym() {
        let label = value.describe();
        let split = memo::affix_split(constraint, pattern, affix);
        let mut cases = Vec::new();
        if let Some(matched) = split.matched {
            cases.push(RemovalCase {
                result: SymStr::sym(fresh(), matched.quotient, &format!("{label} minus affix"))
                    .concretized(),
                source_refinement: Some(matched.originals),
                condition: format!("{label} contains the pattern"),
            });
        }
        if let Some(unmatched) = split.unmatched {
            // No affix matches: the value is unchanged, but we learn the
            // refinement.
            let mut unchanged = value.clone();
            unchanged.refine_sym(id, &unmatched);
            unchanged.concretize();
            cases.push(RemovalCase {
                result: unchanged,
                source_refinement: Some(unmatched),
                condition: format!("{label} does not contain the pattern"),
            });
        }
        if cases.is_empty() {
            cases.push(RemovalCase {
                result: SymStr::sym(fresh(), Regex::Empty, &label),
                source_refinement: None,
                condition: "unsatisfiable".to_string(),
            });
        }
        return cases;
    }
    // Mixed literal/symbol: over-approximate with a fresh symbol bounded
    // by the quotient of the whole value's language.
    let lang = value.to_regex();
    let approx = memo::affix_quotient(&lang, pattern, affix).or(&lang);
    vec![RemovalCase {
        result: SymStr::sym(
            fresh(),
            approx,
            &format!("{} minus affix", value.describe()),
        )
        .concretized(),
        source_refinement: None,
        condition: String::new(),
    }]
}

/// Exact removal on a literal string: scans the cut points from the end
/// that reaches the wanted affix first and stops at the first match.
pub fn remove_affix_literal(text: &str, pattern: &Regex, affix: Affix, longest: bool) -> String {
    let bytes = text.as_bytes();
    // Cut `i` leaves `(rest, affix)`. A suffix grows as `i` falls, a
    // prefix as `i` rises; POSIX's smallest matching affix may be empty.
    let split = |i: usize| match affix {
        Affix::Suffix => (&bytes[..i], &bytes[i..]),
        Affix::Prefix => (&bytes[i..], &bytes[..i]),
    };
    let matches = |&i: &usize| pattern.matches(split(i).1);
    let cut = if longest == (affix == Affix::Suffix) {
        (0..=bytes.len()).find(matches)
    } else {
        (0..=bytes.len()).rev().find(matches)
    };
    match cut {
        Some(i) => String::from_utf8_lossy(split(i).0).into_owned(),
        None => text.to_string(),
    }
}

/// Does `value` definitely match / definitely not match / possibly match
/// the glob language? Used by `case`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchVerdict {
    /// Every possible value matches.
    Always,
    /// No possible value matches.
    Never,
    /// Some do, some do not.
    Maybe,
}

/// Classifies a symbolic value against a pattern language.
pub fn match_verdict(value: &SymStr, pattern: &Regex) -> MatchVerdict {
    let lang = value.to_regex();
    if lang.is_subset_of(pattern) {
        MatchVerdict::Always
    } else if lang.disjoint(pattern) {
        MatchVerdict::Never
    } else {
        MatchVerdict::Maybe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_conversion() {
        assert!(glob_to_regex("*.log").matches(b"x.log"));
        assert!(glob_to_regex("*.log").matches(b"a/b.log")); // * crosses /
        assert!(!glob_to_regex("*.log").matches(b"x.txt"));
        assert!(glob_to_regex("?x").matches(b"ax"));
        assert!(!glob_to_regex("?x").matches(b"x"));
        assert!(glob_to_regex("[a-c]z").matches(b"bz"));
        assert!(!glob_to_regex("[!a-c]z").matches(b"bz"));
        assert!(glob_to_regex("a\\*b").matches(b"a*b"));
        assert!(!glob_to_regex("a\\*b").matches(b"aXb"));
        assert!(glob_to_regex("*Linux").matches(b"Arch Linux"));
    }

    #[test]
    fn literal_suffix_removal() {
        // The paper's `${0%/*}`.
        let pat = glob_to_regex("/*");
        assert_eq!(
            remove_affix_literal("/home/jcarb/.steam/upd.sh", &pat, Affix::Suffix, false),
            "/home/jcarb/.steam"
        );
        assert_eq!(
            remove_affix_literal("/home/jcarb/.steam/upd.sh", &pat, Affix::Suffix, true),
            "" // `%%/*` removes from the first slash.
        );
        assert_eq!(
            remove_affix_literal("upd.sh", &pat, Affix::Suffix, false),
            "upd.sh"
        );
    }

    #[test]
    fn literal_prefix_removal() {
        let pat = glob_to_regex("*/");
        assert_eq!(
            remove_affix_literal("/usr/bin/env", &pat, Affix::Prefix, true),
            "env"
        );
        assert_eq!(
            remove_affix_literal("/usr/bin/env", &pat, Affix::Prefix, false),
            "usr/bin/env"
        );
        let ext = glob_to_regex("*.");
        assert_eq!(
            remove_affix_literal("archive.tar.gz", &ext, Affix::Prefix, true),
            "gz"
        );
    }

    #[test]
    fn smallest_suffix_may_be_empty_match() {
        // `${x%*}` removes the (empty) smallest suffix matching `*`.
        let pat = glob_to_regex("*");
        assert_eq!(
            remove_affix_literal("abc", &pat, Affix::Suffix, false),
            "abc"
        );
        assert_eq!(remove_affix_literal("abc", &pat, Affix::Suffix, true), "");
    }

    #[test]
    fn literal_removal_takes_the_wanted_cut_among_several() {
        // `.` occurs three times, so three cuts match each pattern.
        let dot_suffix = glob_to_regex(".*");
        let text = "a.tar.gz.bak";
        assert_eq!(
            remove_affix_literal(text, &dot_suffix, Affix::Suffix, false),
            "a.tar.gz"
        );
        assert_eq!(
            remove_affix_literal(text, &dot_suffix, Affix::Suffix, true),
            "a"
        );
        let dot_prefix = glob_to_regex("*.");
        assert_eq!(
            remove_affix_literal(text, &dot_prefix, Affix::Prefix, false),
            "tar.gz.bak"
        );
        assert_eq!(
            remove_affix_literal(text, &dot_prefix, Affix::Prefix, true),
            "bak"
        );
    }

    #[test]
    fn smallest_prefix_may_be_empty_match() {
        // `${x#*}` removes the empty prefix, `${x##*}` everything.
        let pat = glob_to_regex("*");
        assert_eq!(
            remove_affix_literal("abc", &pat, Affix::Prefix, false),
            "abc"
        );
        assert_eq!(remove_affix_literal("abc", &pat, Affix::Prefix, true), "");
    }

    #[test]
    fn symbolic_removal_splits_worlds() {
        // ${0%/*} on a path-constrained symbol: matched world (dirname)
        // and unmatched world (no slash).
        let mut next = 100u32;
        let mut fresh = || {
            next += 1;
            next
        };
        let zero = SymStr::sym(0, Regex::parse("/?([^/\n]*/)*[^/\n]+").unwrap(), "$0");
        let cases = remove_affix(
            &zero,
            &glob_to_regex("/*"),
            Affix::Suffix,
            false,
            &mut fresh,
        );
        assert_eq!(cases.len(), 2);
        let matched = &cases[0];
        let unmatched = &cases[1];
        // The unmatched world's value contains no slash.
        assert!(unmatched.result.may_be("upd.sh"));
        assert!(!unmatched.result.may_be("/a/b"));
        // The matched world's result can be a dirname (or empty for
        // `/upd.sh`).
        assert!(matched.result.may_be_empty());
        assert!(matched.result.may_be("/home/jcarb/.steam"));
    }

    #[test]
    fn match_verdicts() {
        let debian = SymStr::lit("Debian");
        assert_eq!(
            match_verdict(&debian, &glob_to_regex("Debian")),
            MatchVerdict::Always
        );
        assert_eq!(
            match_verdict(&debian, &glob_to_regex("*Linux")),
            MatchVerdict::Never
        );
        let unknown = SymStr::sym(0, Regex::any_line(), "$x");
        assert_eq!(
            match_verdict(&unknown, &glob_to_regex("*Linux")),
            MatchVerdict::Maybe
        );
    }

    #[test]
    fn word_pattern_quoting() {
        use shoal_shparse::parse_script;
        // In `case` patterns, quoted stars are literal.
        let s = parse_script("case x in '*') echo lit ;; *) echo glob ;; esac").unwrap();
        let shoal_shparse::Command::Case(c, _, _) = &s.items[0].and_or.first.commands[0] else {
            panic!("case");
        };
        let lit_star = word_pattern_to_regex(&c.arms[0].patterns[0]);
        assert!(lit_star.matches(b"*"));
        assert!(!lit_star.matches(b"anything"));
        let glob_star = word_pattern_to_regex(&c.arms[1].patterns[0]);
        assert!(glob_star.matches(b"anything"));
    }
}
