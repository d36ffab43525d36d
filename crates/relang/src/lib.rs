//! `shoal-relang`: a self-contained regular-language engine.
//!
//! This crate is the constraint workhorse of the shoal analyzer. The paper
//! argues (§3) that constraints on shell state — variable contents, path
//! shapes, and the per-line shape of Unix streams — are naturally expressed
//! as regular languages, because regular languages are computationally
//! tractable and familiar to Unix developers. Everything downstream
//! (symbolic execution, stream types, runtime monitoring) reduces its
//! questions to the decision procedures implemented here:
//!
//! * **emptiness** — is the language of a constraint empty? (dead-pipe
//!   detection, UNSAT path conditions);
//! * **containment** — `A ⊆ B`? (type compatibility between pipeline
//!   stages, polymorphic instantiation checks);
//! * **intersection / union / complement / difference** — constraint
//!   conjunction and refinement along success/failure branches;
//! * **witness generation** — a concrete string demonstrating a behavior,
//!   used in diagnostics ("e.g. `STEAMROOT` may be `\"\"`").
//!
//! The engine works over the full byte alphabet (shell streams are raw
//! bytes), parses a practical POSIX-ERE subset, compiles via Thompson NFA
//! and subset-construction DFA with byte-class compression, minimizes with
//! Hopcroft's worklist algorithm, and builds DFAs for the full extended
//! syntax, `And` and `Not` included, from Brzozowski derivatives
//! ([`deriv`]); the runtime monitor matches lines with [`Dfa::matches`].
//! The binary
//! decision procedures are *lazy*: they explore the implicit product
//! automaton on the fly ([`lazy`]) and exit at the first counterexample
//! instead of materializing and minimizing the product.
//!
//! # Examples
//!
//! ```
//! use shoal_relang::Regex;
//!
//! // The paper's Fig. 5 bug: `grep '^desc'` over `lsb_release -a` output.
//! let lsb = Regex::parse("(Distributor ID|Description|Release|Codename):\t.*").unwrap();
//! let grep_out = Regex::grep_pattern("^desc").unwrap();
//! assert!(lsb.intersect(&grep_out).is_empty()); // the filter passes nothing
//!
//! // The corrected filter passes something.
//! let fixed = Regex::grep_pattern("^Desc").unwrap();
//! assert!(!lsb.intersect(&fixed).is_empty());
//! ```

pub mod ast;
pub mod class;
pub mod deriv;
pub mod dfa;
pub mod display;
pub mod lazy;
pub mod memo;
pub mod nfa;
pub mod parser;

pub use ast::Regex;
pub use class::ByteClass;
pub use dfa::{
    capture_approx_hits, dfa_state_cap, replay_approx_hits, set_dfa_state_cap, take_approx_hits,
    ApproxReason, Dfa, DEFAULT_DFA_STATE_CAP,
};
pub use memo::{memo_flush, set_memo_enabled, TermId, INTERN_CAP};
pub use nfa::Nfa;
pub use parser::ParseError;
