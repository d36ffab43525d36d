//! Inline annotations (§4 "Ergonomic annotations").
//!
//! "In order to … maintain full compatibility with existing shell
//! interpreters, these constraints should instead join the shell
//! ecosystem through annotations manifesting as specialized inline
//! comments or external files." Annotations are ordinary comments
//! starting with `#@`, invisible to every shell:
//!
//! ```sh
//! #@ type version = [0-9]+\.[0-9]+\.[0-9]+
//! #@ var RELEASE : version
//! #@ cmd mystery-gen :: any -> hex
//! ```
//!
//! * `#@ type NAME = PATTERN` — define a descriptive type alias (adds
//!   to the built-in library: `any`, `hex`, `url`, `longlist`, …);
//! * `#@ var NAME : TYPE` — constrain an environment variable's
//!   possible values; the engine starts `NAME` as a symbol with that
//!   constraint;
//! * `#@ cmd NAME :: TYPE -> TYPE` — declare the stream signature of a
//!   command the analyzer has no specification for, so pipelines
//!   through it stay typed.

use shoal_relang::Regex;
use shoal_streamty::{Sig, TypeAliases};
use std::collections::BTreeMap;
use std::fmt;

/// A parse error in an annotation comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotationError {
    /// 1-based line.
    pub line: u32,
    /// Description.
    pub message: String,
}

impl fmt::Display for AnnotationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: bad annotation: {}", self.line, self.message)
    }
}

impl std::error::Error for AnnotationError {}

/// The collected annotations of one script.
#[derive(Debug, Clone, Default)]
pub struct Annotations {
    /// Variable constraints: name → line type.
    pub vars: BTreeMap<String, Regex>,
    /// Command stream signatures: name → signature.
    pub cmd_sigs: BTreeMap<String, Sig>,
    /// The alias table extended with `#@ type` definitions.
    pub aliases: TypeAliases,
}

impl Annotations {
    /// True when the script carries no annotations.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty() && self.cmd_sigs.is_empty()
    }
}

/// Scans source text for `#@` annotation comments (whole-line or
/// trailing) and parses them.
///
/// # Errors
///
/// Returns the first malformed annotation with its line number.
pub fn parse_annotations(src: &str) -> Result<Annotations, AnnotationError> {
    let mut out = Annotations::default();
    for (lineno, line) in src.lines().enumerate() {
        let lineno = lineno as u32 + 1;
        let Some(at) = line.find("#@") else { continue };
        let body = line[at + 2..].trim();
        let err = |m: String| AnnotationError {
            line: lineno,
            message: m,
        };
        if let Some(rest) = body.strip_prefix("type ") {
            let (name, pattern) = rest
                .split_once('=')
                .ok_or_else(|| err("expected `type NAME = PATTERN`".into()))?;
            let ty = out
                .aliases
                .resolve(pattern.trim())
                .map_err(|e| err(e.to_string()))?;
            out.aliases.define(name.trim(), ty);
        } else if let Some(rest) = body.strip_prefix("var ") {
            let (name, ty_text) = rest
                .split_once(':')
                .ok_or_else(|| err("expected `var NAME : TYPE`".into()))?;
            let ty = out
                .aliases
                .resolve(ty_text.trim())
                .map_err(|e| err(e.to_string()))?;
            out.vars.insert(name.trim().to_string(), ty);
        } else if let Some(rest) = body.strip_prefix("cmd ") {
            let (name, sig_text) = rest
                .split_once("::")
                .ok_or_else(|| err("expected `cmd NAME :: IN -> OUT`".into()))?;
            let (input, output) = sig_text
                .split_once("->")
                .ok_or_else(|| err("signature needs `IN -> OUT`".into()))?;
            let input = out
                .aliases
                .resolve(input.trim())
                .map_err(|e| err(e.to_string()))?;
            let output = out
                .aliases
                .resolve(output.trim())
                .map_err(|e| err(e.to_string()))?;
            out.cmd_sigs
                .insert(name.trim().to_string(), Sig::mono(input, output));
        } else {
            return Err(err(format!(
                "unknown annotation {body:?} (expected type/var/cmd)"
            )));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_kinds() {
        let src = "\
#@ type version = [0-9]+\\.[0-9]+
#!/bin/sh
#@ var RELEASE : version
echo ok   #@ cmd mystery :: any -> hex
";
        let a = parse_annotations(src).unwrap();
        assert!(a.vars["RELEASE"].matches(b"1.2"));
        assert!(!a.vars["RELEASE"].matches(b"one.two"));
        let sig = &a.cmd_sigs["mystery"];
        let out = sig.apply(&Regex::any_line()).unwrap();
        assert!(out.matches(b"deadbeef"));
        assert!(!out.matches(b"xyz"));
    }

    #[test]
    fn type_definitions_compose() {
        let src = "#@ type semver = [0-9]+\\.[0-9]+\\.[0-9]+\n#@ var V : semver\n";
        let a = parse_annotations(src).unwrap();
        assert!(a.vars["V"].matches(b"1.2.3"));
    }

    #[test]
    fn builtin_aliases_usable() {
        let a = parse_annotations("#@ var U : url\n").unwrap();
        assert!(a.vars["U"].matches(b"https://x.org/y"));
    }

    #[test]
    fn errors_carry_lines() {
        let e = parse_annotations("echo hi\n#@ bogus thing\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e2 = parse_annotations("#@ var X missing-colon\n").unwrap_err();
        assert_eq!(e2.line, 1);
        assert!(parse_annotations("#@ type T = [unclosed\n").is_err());
        assert!(parse_annotations("#@ cmd c :: onlyinput\n").is_err());
    }

    #[test]
    fn plain_comments_ignored() {
        let a = parse_annotations("# normal comment\necho x # trailing\n").unwrap();
        assert!(a.is_empty());
    }
}
