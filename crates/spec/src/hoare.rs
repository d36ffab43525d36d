//! Hoare-style specification cases.
//!
//! A [`CommandSpec`] bundles a utility's invocation syntax with a list of
//! [`SpecCase`]s. Each case is a Hoare triple specialized to one
//! invocation shape and one file-system situation:
//!
//! ```text
//! { guard(invocation) ∧ pre(world) }  cmd args  { effects(world') ∧ exit }
//! ```
//!
//! The paper's worked example is `rm`'s first case:
//! `{(∃ $p) ∧ (arg 0 $p path.FD)} rm -f -r $p {(∄ $p) ∧ exit 0}`.
//!
//! Cases are checked in order; *all* cases whose guard matches the
//! invocation are candidate behaviors, and the symbolic engine forks one
//! world per candidate whose precondition is satisfiable. The final
//! catch-all failure case is how "anything else fails" is expressed.

use crate::syntax::{CmdSyntax, Invocation};
use std::fmt;

/// Operand marker meaning "every operand" in [`Cond`]s and [`Effect`]s
/// of variadic utilities (`rm a b c` deletes each operand).
pub const EACH: usize = usize::MAX;

/// Operand marker meaning "every operand after the first" — for
/// utilities whose first operand is not a path (`grep pattern file…`).
pub const REST: usize = usize::MAX - 1;

/// Expands an operand marker to the concrete indices it denotes for an
/// invocation with `count` operands.
pub fn operand_indices(marker: usize, count: usize) -> std::ops::Range<usize> {
    match marker {
        EACH => 0..count,
        REST => 1.min(count)..count,
        i if i < count => i..i + 1,
        _ => 0..0,
    }
}

/// Requirement on the node an operand resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeReq {
    /// Must be a regular file.
    File,
    /// Must be a directory.
    Dir,
    /// Must exist (any kind).
    Exists,
    /// Must not exist.
    Absent,
    /// No requirement.
    Any,
}

impl fmt::Display for NodeReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeReq::File => "file",
            NodeReq::Dir => "dir",
            NodeReq::Exists => "exists",
            NodeReq::Absent => "absent",
            NodeReq::Any => "any",
        };
        write!(f, "{s}")
    }
}

impl NodeReq {
    /// Parses the textual form used by [`crate::text`].
    pub fn parse(s: &str) -> Option<NodeReq> {
        Some(match s {
            "file" => NodeReq::File,
            "dir" => NodeReq::Dir,
            "exists" => NodeReq::Exists,
            "absent" => NodeReq::Absent,
            "any" => NodeReq::Any,
            _ => return None,
        })
    }
}

/// A precondition over the file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// Operand `i` must resolve to a node satisfying the requirement.
    OperandIs(usize, NodeReq),
}

/// A postcondition effect on the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Operand `i` and its subtree are removed.
    Deletes(usize),
    /// The *children* of operand `i` are removed, not the node itself.
    DeletesChildren(usize),
    /// Operand `i` becomes a regular file (created or truncated).
    CreatesFile(usize),
    /// Operand `i` becomes a directory.
    CreatesDir(usize),
    /// Operand `i` and any missing ancestors become directories
    /// (`mkdir -p`).
    CreatesDirChain(usize),
    /// Operand `i` is read (content dependency, no mutation).
    Reads(usize),
    /// Operand `i` is written/appended (content mutation, node remains).
    Writes(usize),
    /// The tree at operand `src` is copied to operand `dst`.
    CopiesTo {
        /// Source operand index.
        src: usize,
        /// Destination operand index.
        dst: usize,
    },
    /// The tree at operand `src` is moved to operand `dst`.
    MovesTo {
        /// Source operand index.
        src: usize,
        /// Destination operand index.
        dst: usize,
    },
    /// The process working directory becomes operand `i` (`cd`).
    ChangesCwdTo(usize),
    /// The command writes to stdout.
    WritesStdout,
    /// The command writes a diagnostic to stderr.
    WritesStderr,
}

/// Exit-status component of the postcondition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitSpec {
    /// Exit code 0.
    Success,
    /// Any non-zero exit code.
    Failure,
    /// Either outcome is possible.
    Unknown,
}

impl fmt::Display for ExitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExitSpec::Success => "exit 0",
            ExitSpec::Failure => "fails",
            ExitSpec::Unknown => "exit ?",
        };
        write!(f, "{s}")
    }
}

/// Which invocation shapes a case covers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Guard {
    /// Flags that must be present.
    pub requires_flags: Vec<char>,
    /// Flags that must be absent.
    pub forbids_flags: Vec<char>,
    /// Operand-count bounds (min, optional max).
    pub operand_count: Option<(usize, Option<usize>)>,
}

impl Guard {
    /// The unconditional guard.
    pub fn always() -> Guard {
        Guard::default()
    }

    /// Guard requiring the given flags.
    pub fn with_flags(flags: &[char]) -> Guard {
        Guard {
            requires_flags: flags.to_vec(),
            ..Guard::default()
        }
    }

    /// Guard forbidding the given flags.
    pub fn without_flags(flags: &[char]) -> Guard {
        Guard {
            forbids_flags: flags.to_vec(),
            ..Guard::default()
        }
    }

    /// Does the guard cover this invocation?
    pub fn matches(&self, inv: &Invocation) -> bool {
        self.requires_flags.iter().all(|f| inv.has_flag(*f))
            && self.forbids_flags.iter().all(|f| !inv.has_flag(*f))
            && match self.operand_count {
                None => true,
                Some((min, max)) => {
                    inv.operands.len() >= min && max.is_none_or(|m| inv.operands.len() <= m)
                }
            }
    }
}

/// One Hoare-style case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecCase {
    /// Which invocations this case covers.
    pub guard: Guard,
    /// Preconditions (conjunction).
    pub pre: Vec<Cond>,
    /// Effects on success of the precondition.
    pub effects: Vec<Effect>,
    /// Exit status.
    pub exit: ExitSpec,
    /// Output line shape on stdout as an ERE (exact-match type), if the
    /// case specifies one. Stored as text to keep this crate independent
    /// of the regex engine; `shoal-streamty` compiles it.
    pub stdout_line: Option<String>,
}

impl SpecCase {
    /// A new case with the given guard.
    pub fn new(guard: Guard) -> SpecCase {
        SpecCase {
            guard,
            pre: Vec::new(),
            effects: Vec::new(),
            exit: ExitSpec::Success,
            stdout_line: None,
        }
    }

    /// Adds a precondition (builder style).
    pub fn pre(mut self, c: Cond) -> SpecCase {
        self.pre.push(c);
        self
    }

    /// Adds an effect (builder style).
    pub fn effect(mut self, e: Effect) -> SpecCase {
        self.effects.push(e);
        self
    }

    /// Sets the exit status (builder style).
    pub fn exit(mut self, e: ExitSpec) -> SpecCase {
        self.exit = e;
        self
    }

    /// Sets the stdout line type (builder style).
    pub fn stdout(mut self, pattern: &str) -> SpecCase {
        self.stdout_line = Some(pattern.to_string());
        self
    }
}

/// A utility's full specification: syntax plus behavior cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandSpec {
    /// Invocation syntax.
    pub syntax: CmdSyntax,
    /// Behavior cases, in order.
    pub cases: Vec<SpecCase>,
}

impl CommandSpec {
    /// The cases applicable to one classified invocation. The cases
    /// borrow only the spec, so they may outlive `inv`.
    pub fn applicable<'a, 'i>(
        &'a self,
        inv: &'i Invocation,
    ) -> impl Iterator<Item = &'a SpecCase> + use<'a, 'i> {
        self.cases.iter().filter(move |c| c.guard.matches(inv))
    }

    /// The utility name.
    pub fn name(&self) -> &str {
        &self.syntax.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::Invocation;

    #[test]
    fn guard_matching() {
        let inv = Invocation::new("rm", &['f', 'r'], &["/x"]);
        assert!(Guard::always().matches(&inv));
        assert!(Guard::with_flags(&['f']).matches(&inv));
        assert!(Guard::with_flags(&['f', 'r']).matches(&inv));
        assert!(!Guard::with_flags(&['i']).matches(&inv));
        assert!(!Guard::without_flags(&['r']).matches(&inv));
        let counted = Guard {
            operand_count: Some((2, Some(3))),
            ..Guard::default()
        };
        assert!(!counted.matches(&inv));
        let counted1 = Guard {
            operand_count: Some((1, None)),
            ..Guard::default()
        };
        assert!(counted1.matches(&inv));
    }

    #[test]
    fn node_req_compat_roundtrip() {
        for r in [
            NodeReq::File,
            NodeReq::Dir,
            NodeReq::Exists,
            NodeReq::Absent,
            NodeReq::Any,
        ] {
            assert_eq!(NodeReq::parse(&r.to_string()), Some(r));
        }
        assert_eq!(NodeReq::parse("garbage"), None);
    }

    #[test]
    fn case_builder_and_applicability() {
        let spec = CommandSpec {
            syntax: crate::syntax::CmdSyntax::simple("rm", 1, None)
                .flag('f', "force")
                .flag('r', "recursive"),
            cases: vec![
                SpecCase::new(Guard::with_flags(&['r']))
                    .pre(Cond::OperandIs(0, NodeReq::Exists))
                    .effect(Effect::Deletes(0))
                    .exit(ExitSpec::Success),
                SpecCase::new(Guard::without_flags(&['r']))
                    .pre(Cond::OperandIs(0, NodeReq::Dir))
                    .effect(Effect::WritesStderr)
                    .exit(ExitSpec::Failure),
            ],
        };
        let recursive = Invocation::new("rm", &['r'], &["/x"]);
        let plain = Invocation::new("rm", &[], &["/x"]);
        assert_eq!(spec.applicable(&recursive).count(), 1);
        let plain_cases: Vec<_> = spec.applicable(&plain).collect();
        assert_eq!(plain_cases.len(), 1);
        assert_eq!(plain_cases[0].exit, ExitSpec::Failure);
    }
}
