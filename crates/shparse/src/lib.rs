//! `shoal-shparse`: a POSIX shell front end built from scratch.
//!
//! The analyzer needs to reason about "the semantics of the shell
//! language \\[6\\], including composition primitives such as `|`, `&`, and
//! `&&`" (§3). That starts with a faithful syntax tree. This crate
//! provides:
//!
//! * a character-level recursive-descent parser for the POSIX shell
//!   command language: simple commands, pipelines, and-or lists,
//!   `if`/`while`/`until`/`for`/`case`, subshells, brace groups, function
//!   definitions, redirections (including here-documents), and
//!   assignments;
//! * full *word structure*: single/double quoting, parameter expansion
//!   with every POSIX operator (`${x%pat}`, `${x:-d}`, `${x:?msg}`, …),
//!   command substitution (both `$(…)` and backticks), arithmetic
//!   substitution, globs, and tildes — the raw material for the symbolic
//!   expansion engine in `shoal-core`;
//! * source spans on every node, so diagnostics point at real locations;
//! * a pretty-printer that renders the tree back to executable shell,
//!   used by diagnostics and by the corpus generators.
//!
//! # Examples
//!
//! ```
//! use shoal_shparse::parse_script;
//!
//! // Line 2 of the paper's Fig. 1 (the Steam updater bug).
//! let script = parse_script(r#"STEAMROOT="$(cd "${0%/*}" && echo $PWD)""#).unwrap();
//! assert_eq!(script.items.len(), 1);
//! ```

pub mod ast;
pub mod cursor;
pub mod parse;
pub mod print;

pub use ast::{
    AndOr, AndOrOp, Assignment, CaseArm, CaseClause, Command, ForClause, IfClause, ListItem,
    ParamExp, ParamOp, Pipeline, Redir, RedirOp, Script, SimpleCommand, Span, WhileClause, Word,
    WordPart,
};
pub use parse::{
    parse_script, parse_script_recovering, ParseDiagnostic, ParseError, RecoveredParse,
};
pub use print::canonical_item;
