//! Descriptive type aliases.
//!
//! §4 ("Ergonomic annotations") argues that raw regular-language
//! constraints are "intimidating and cumbersome" and calls for "an
//! extensible library of descriptive types. For example, `any` may stand
//! for `.*`; `url` for inputs to curl; and `longlist` for outputs of
//! `ls -l`." This module is that library, plus the `typeOf`-style
//! reverse lookup used in diagnostics.

use shoal_relang::Regex;
use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock};

/// An extensible alias table: name → line type.
///
/// A copy-on-write value: clones share one map, and [`Self::define`]
/// copies it first if another clone still holds it. Every
/// [`Self::builtin`] call hands out the same process-wide table, so
/// its patterns are parsed once per process; a script's `#@ type`
/// definitions land in a private copy and never leak into another
/// analysis.
#[derive(Debug, Clone)]
pub struct TypeAliases {
    map: Arc<BTreeMap<String, Regex>>,
}

/// The built-in table, built on first use.
static BUILTIN: LazyLock<TypeAliases> = LazyLock::new(|| {
    let mut map = BTreeMap::new();
    let mut put = |name: &str, pat: &str| {
        map.insert(
            name.to_string(),
            Regex::parse(pat).unwrap_or_else(|e| panic!("builtin alias {name}: {e}")),
        );
    };
    put("any", ".*");
    put("empty", "");
    put("word", "[^ \t]+");
    put("num", "[-+]?[0-9]+");
    put("float", r"[-+]?[0-9]+(\.[0-9]*)?([eE][-+]?[0-9]+)?");
    put("hex", "[0-9a-f]+");
    put("path", "/?([^/\n]+/)*[^/\n]+/?");
    put("abspath", "/([^/\n]+(/[^/\n]+)*)?");
    put("url", "(https?|ftp)://[^ \t]+");
    put(
        "longlist",
        "[-dlbcps][-rwxsStT]{9} +[0-9]+ +[^ ]+ +[^ ]+ +[0-9]+ .*",
    );
    put("kv", "[^=\t ]+=.*");
    put("tsv2", "[^\t]*\t[^\t]*");
    put("csv", "[^,\n]*(,[^,\n]*)*");
    put("ipv4", "[0-9]{1,3}(\\.[0-9]{1,3}){3}");
    put("identifier", "[A-Za-z_][A-Za-z0-9_]*");
    TypeAliases { map: Arc::new(map) }
});

impl TypeAliases {
    /// The built-in aliases from the paper plus common Unix line shapes.
    pub fn builtin() -> TypeAliases {
        BUILTIN.clone()
    }

    /// Resolves a type expression: either an alias name or a raw ERE.
    ///
    /// # Errors
    ///
    /// Returns the regex parse error message if the expression is neither
    /// an alias nor a valid pattern.
    pub fn resolve(&self, expr: &str) -> Result<Regex, String> {
        if let Some(r) = self.map.get(expr) {
            return Ok(r.clone());
        }
        Regex::parse(expr).map_err(|e| format!("{expr:?} is not a known type or pattern: {e}"))
    }

    /// Adds or replaces an alias (user `type` definitions).
    pub fn define(&mut self, name: &str, ty: Regex) {
        Arc::make_mut(&mut self.map).insert(name.to_string(), ty);
    }

    /// `typeOf`: the most specific alias containing `ty`, if any —
    /// preferring narrower aliases so diagnostics say `hex`, not `any`.
    pub fn type_of(&self, ty: &Regex) -> Option<&str> {
        let mut best: Option<(&str, &Regex)> = None;
        for (name, alias) in self.map.iter() {
            if ty.is_subset_of(alias) {
                best = match best {
                    None => Some((name, alias)),
                    Some((_, b)) if alias.is_subset_of(b) && !b.is_subset_of(alias) => {
                        Some((name, alias))
                    }
                    keep => keep,
                };
            }
        }
        best.map(|(n, _)| n)
    }

    /// All alias names.
    pub fn names(&self) -> Vec<&str> {
        self.map.keys().map(String::as_str).collect()
    }
}

impl Default for TypeAliases {
    fn default() -> Self {
        TypeAliases::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_aliases_resolve() {
        let t = TypeAliases::builtin();
        assert!(t.resolve("any").unwrap().matches(b"whatever"));
        assert!(t.resolve("hex").unwrap().matches(b"deadbeef"));
        assert!(!t.resolve("hex").unwrap().matches(b"xyz"));
        assert!(t.resolve("url").unwrap().matches(b"https://example.org/x"));
        assert!(!t.resolve("url").unwrap().matches(b"not a url"));
        assert!(t.resolve("abspath").unwrap().matches(b"/usr/local/bin"));
        assert!(t.resolve("abspath").unwrap().matches(b"/"));
        assert!(!t.resolve("abspath").unwrap().matches(b"relative/path"));
    }

    #[test]
    fn longlist_matches_ls_l_output() {
        let t = TypeAliases::builtin();
        let ll = t.resolve("longlist").unwrap();
        assert!(ll.matches(b"-rw-r--r-- 1 root root 4096 Jan  1 00:00 notes.txt"));
        assert!(ll.matches(b"drwxr-xr-x 2 alice users 4096 Jul  6 12:00 src"));
        assert!(!ll.matches(b"notes.txt"));
    }

    #[test]
    fn raw_patterns_resolve_too() {
        let t = TypeAliases::builtin();
        assert!(t.resolve("[0-9]{4}").unwrap().matches(b"2026"));
        assert!(t.resolve("[unclosed").is_err());
    }

    #[test]
    fn user_definitions() {
        let mut t = TypeAliases::builtin();
        t.define("steamsuffix", Regex::parse(r"\.(config/)?steam").unwrap());
        assert!(t.resolve("steamsuffix").unwrap().matches(b".steam"));
    }

    #[test]
    fn type_of_prefers_specific() {
        let t = TypeAliases::builtin();
        let hex = Regex::parse("[0-9a-f]{8}").unwrap();
        assert_eq!(t.type_of(&hex), Some("hex"));
        let anything = Regex::any_line();
        assert_eq!(t.type_of(&anything), Some("any"));
        let digits = Regex::parse("[0-9]+").unwrap();
        // digits ⊆ hex ⊆ any; digits ⊆ num too. num and hex are
        // incomparable; either is acceptable, but not "any".
        let got = t.type_of(&digits).unwrap();
        assert_ne!(got, "any");
    }
}
