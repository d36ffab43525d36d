//! The abstract syntax tree for POSIX shell programs.
//!
//! The tree mirrors the POSIX grammar hierarchy: a [`Script`] is a list of
//! [`ListItem`]s (separated by `;`, `&`, or newlines), each an [`AndOr`]
//! chain of [`Pipeline`]s, each a `|`-sequence of [`Command`]s. Every node
//! carries a [`Span`] so that diagnostics can point at source.
//!
//! Words keep their internal structure ([`WordPart`]): quoting, parameter
//! expansion operators, command substitution, globs. The analyzer's
//! symbolic expansion (shoal-core) consumes this structure directly — the
//! Fig. 1 bug hinges on the exact semantics of `"${0%/*}"`, which survives
//! here as `ParamOp::RemoveSmallestSuffix` applied to parameter `0` inside
//! double quotes.

use std::fmt;
use std::sync::Arc;

/// A half-open byte range into the source, with a 1-based starting line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
}

impl Span {
    /// Creates a span.
    pub fn new(start: usize, end: usize, line: u32) -> Span {
        Span { start, end, line }
    }

    /// The smallest span covering both inputs.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line.min(other.line),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.line)
    }
}

/// A whole script: a sequence of list items plus collected here-document
/// bodies (see [`Script::heredoc_body`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// Top-level commands in order.
    pub items: Vec<ListItem>,
    /// Here-document bodies, indexed by [`RedirOp::HereDoc`]'s `body`.
    pub heredocs: Vec<String>,
}

impl Script {
    /// Fetches the body of a here-document redirection.
    pub fn heredoc_body(&self, index: usize) -> &str {
        self.heredocs.get(index).map(String::as_str).unwrap_or("")
    }
}

/// One list entry: an and-or chain, possibly sent to the background.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListItem {
    /// The chain itself.
    pub and_or: AndOr,
    /// True when terminated by `&`.
    pub background: bool,
}

/// An `&&`/`||` chain of pipelines, evaluated left to right with shell
/// short-circuit semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AndOr {
    /// The first pipeline.
    pub first: Pipeline,
    /// Subsequent pipelines, each guarded by the preceding exit status.
    pub rest: Vec<(AndOrOp, Pipeline)>,
}

impl AndOr {
    /// Wraps a single pipeline with no continuation.
    pub fn single(p: Pipeline) -> AndOr {
        AndOr {
            first: p,
            rest: Vec::new(),
        }
    }

    /// The source span of the whole chain.
    pub fn span(&self) -> Span {
        let mut s = self.first.span();
        for (_, p) in &self.rest {
            s = s.merge(p.span());
        }
        s
    }
}

/// The connective between two pipelines in an [`AndOr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AndOrOp {
    /// `&&` — run the right side only on success.
    And,
    /// `||` — run the right side only on failure.
    Or,
}

/// A `|`-connected sequence of commands, optionally negated with `!`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    /// True when prefixed by `!` (exit status negation).
    pub negated: bool,
    /// The commands, left to right; length ≥ 1.
    pub commands: Vec<Command>,
}

impl Pipeline {
    /// The source span of the pipeline.
    pub fn span(&self) -> Span {
        let mut it = self.commands.iter().map(Command::span);
        let first = it.next().unwrap_or_default();
        it.fold(first, Span::merge)
    }
}

/// A command: either simple or one of the compound forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `name args… <redirs`, possibly with leading assignments.
    Simple(SimpleCommand),
    /// `{ list; }` with redirections applied to the whole group.
    BraceGroup(Vec<ListItem>, Vec<Redir>, Span),
    /// `( list )` — runs in a subshell environment.
    Subshell(Vec<ListItem>, Vec<Redir>, Span),
    /// `if … then … [elif …] [else …] fi`.
    If(IfClause, Vec<Redir>, Span),
    /// `while cond; do body; done`.
    While(WhileClause, Vec<Redir>, Span),
    /// `until cond; do body; done`.
    Until(WhileClause, Vec<Redir>, Span),
    /// `for x in words; do body; done`.
    For(ForClause, Vec<Redir>, Span),
    /// `case subject in pattern) body ;; … esac`.
    Case(CaseClause, Vec<Redir>, Span),
    /// `name() body` — a function definition.
    FunctionDef {
        /// Function name.
        name: String,
        /// Function body (usually a brace group), shared: every world
        /// that defines the function holds the same allocation.
        body: Arc<Command>,
        /// Definition site.
        span: Span,
    },
}

impl Command {
    /// The source span of the command.
    pub fn span(&self) -> Span {
        match self {
            Command::Simple(s) => s.span,
            Command::BraceGroup(_, _, s)
            | Command::Subshell(_, _, s)
            | Command::If(_, _, s)
            | Command::While(_, _, s)
            | Command::Until(_, _, s)
            | Command::For(_, _, s)
            | Command::Case(_, _, s) => *s,
            Command::FunctionDef { span, .. } => *span,
        }
    }

    /// Redirections attached to the command, if any.
    pub fn redirects(&self) -> &[Redir] {
        match self {
            Command::Simple(s) => &s.redirects,
            Command::BraceGroup(_, r, _)
            | Command::Subshell(_, r, _)
            | Command::If(_, r, _)
            | Command::While(_, r, _)
            | Command::Until(_, r, _)
            | Command::For(_, r, _)
            | Command::Case(_, r, _) => r,
            Command::FunctionDef { .. } => &[],
        }
    }
}

/// A simple command: assignments, words, redirections.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimpleCommand {
    /// Leading `NAME=value` assignments.
    pub assignments: Vec<Assignment>,
    /// Command name and arguments (empty for bare assignments).
    pub words: Vec<Word>,
    /// Redirections in source order.
    pub redirects: Vec<Redir>,
    /// Source location.
    pub span: Span,
}

impl SimpleCommand {
    /// The command name, if this is not a bare assignment and the name is
    /// a plain literal.
    pub fn name_literal(&self) -> Option<String> {
        self.words.first().and_then(Word::as_literal)
    }
}

/// A variable assignment `NAME=value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Variable name.
    pub name: String,
    /// Assigned word (empty word for `NAME=`).
    pub value: Word,
    /// Source location.
    pub span: Span,
}

/// The `if` compound command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IfClause {
    /// Condition list.
    pub cond: Vec<ListItem>,
    /// `then` branch.
    pub then_body: Vec<ListItem>,
    /// `elif` branches, in order.
    pub elifs: Vec<(Vec<ListItem>, Vec<ListItem>)>,
    /// `else` branch, if present.
    pub else_body: Option<Vec<ListItem>>,
}

/// The `while`/`until` compound command body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhileClause {
    /// Condition list.
    pub cond: Vec<ListItem>,
    /// Loop body.
    pub body: Vec<ListItem>,
}

/// The `for` compound command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForClause {
    /// Loop variable.
    pub var: String,
    /// Words iterated over; `None` means the implicit `"$@"`.
    pub words: Option<Vec<Word>>,
    /// Loop body.
    pub body: Vec<ListItem>,
}

/// The `case` compound command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseClause {
    /// The word being matched.
    pub subject: Word,
    /// The arms in order; first matching pattern wins.
    pub arms: Vec<CaseArm>,
}

/// One `pattern[|pattern…]) body ;;` arm of a `case`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseArm {
    /// The glob patterns.
    pub patterns: Vec<Word>,
    /// The arm body.
    pub body: Vec<ListItem>,
}

/// A redirection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Redir {
    /// Explicit file descriptor, when written (`2>err`).
    pub fd: Option<u32>,
    /// The operator.
    pub op: RedirOp,
    /// The target word (filename, fd digits for dups, or here-doc
    /// delimiter).
    pub target: Word,
    /// Source location.
    pub span: Span,
}

/// Redirection operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedirOp {
    /// `<`.
    In,
    /// `>`.
    Out,
    /// `>>`.
    Append,
    /// `<&`.
    DupIn,
    /// `>&`.
    DupOut,
    /// `<>`.
    ReadWrite,
    /// `>|`.
    Clobber,
    /// `<<` / `<<-`; `body` indexes [`Script::heredocs`].
    HereDoc {
        /// True for `<<-` (leading tabs stripped).
        strip: bool,
        /// Index into the script's here-document table.
        body: usize,
    },
}

/// One structural piece of a word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WordPart {
    /// Unquoted or backslash-escaped literal text.
    Literal(String),
    /// `'…'` — literal, no expansion.
    SingleQuoted(String),
    /// `"…"` — inner parts expand but do not field-split.
    DoubleQuoted(Vec<WordPart>),
    /// `$name`, `${name}`, `${name op word}`.
    Param(ParamExp),
    /// `$( … )` or `` ` … ` ``.
    CmdSub(Box<Script>),
    /// `$(( … ))`, kept as raw text.
    Arith(String),
    /// An unquoted glob metacharacter sequence (`*`, `?`, `[…]`).
    Glob(String),
    /// `~` or `~user` at the start of a word.
    Tilde(Option<String>),
}

impl WordPart {
    /// True when the part can expand to multiple fields or arbitrary text.
    pub fn is_expansion(&self) -> bool {
        matches!(
            self,
            WordPart::Param(_) | WordPart::CmdSub(_) | WordPart::Arith(_)
        )
    }
}

/// A word: a non-empty sequence of parts (or empty for the empty word).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Word {
    /// The parts, in order.
    pub parts: Vec<WordPart>,
    /// Source location.
    pub span: Span,
}

impl Word {
    /// Builds a purely literal word (used by generators and tests).
    pub fn literal(text: &str) -> Word {
        Word {
            parts: vec![WordPart::Literal(text.to_string())],
            span: Span::default(),
        }
    }

    /// If the word is entirely static text (literals and quotes, no
    /// expansion), returns that text.
    pub fn as_literal(&self) -> Option<String> {
        let mut out = String::new();
        for part in &self.parts {
            match part {
                WordPart::Literal(s) | WordPart::SingleQuoted(s) => out.push_str(s),
                WordPart::DoubleQuoted(inner) => {
                    for p in inner {
                        match p {
                            WordPart::Literal(s) => out.push_str(s),
                            _ => return None,
                        }
                    }
                }
                _ => return None,
            }
        }
        Some(out)
    }

    /// True when any part is an unquoted expansion subject to field
    /// splitting — the shape ShellCheck's SC2086 warns about.
    pub fn has_unquoted_expansion(&self) -> bool {
        self.parts.iter().any(WordPart::is_expansion)
    }

    /// True when the word contains any expansion at any quoting depth.
    pub fn has_expansion(&self) -> bool {
        fn go(parts: &[WordPart]) -> bool {
            parts.iter().any(|p| match p {
                WordPart::DoubleQuoted(inner) => go(inner),
                other => other.is_expansion(),
            })
        }
        go(&self.parts)
    }
}

/// A parameter expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamExp {
    /// The parameter name: a variable name, a positional digit string, or
    /// one of the specials `# ? * @ $ ! -`.
    pub name: String,
    /// The operator, if any.
    pub op: Option<ParamOp>,
}

impl ParamExp {
    /// A bare `$name` expansion.
    pub fn bare(name: &str) -> ParamExp {
        ParamExp {
            name: name.to_string(),
            op: None,
        }
    }
}

/// Parameter expansion operators (POSIX 2.6.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamOp {
    /// `${x-w}` / `${x:-w}`: default value. `colon` distinguishes the two.
    Default(Word, bool),
    /// `${x=w}` / `${x:=w}`: assign default.
    Assign(Word, bool),
    /// `${x?w}` / `${x:?w}`: error if unset (or empty, with colon).
    Error(Option<Word>, bool),
    /// `${x+w}` / `${x:+w}`: alternative value.
    Alt(Word, bool),
    /// `${x%pat}`: remove smallest matching suffix.
    RemoveSmallestSuffix(Word),
    /// `${x%%pat}`: remove largest matching suffix.
    RemoveLargestSuffix(Word),
    /// `${x#pat}`: remove smallest matching prefix.
    RemoveSmallestPrefix(Word),
    /// `${x##pat}`: remove largest matching prefix.
    RemoveLargestPrefix(Word),
    /// `${#x}`: string length.
    Length,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge() {
        let a = Span::new(5, 10, 2);
        let b = Span::new(8, 20, 3);
        let m = a.merge(b);
        assert_eq!(m, Span::new(5, 20, 2));
    }

    #[test]
    fn word_as_literal() {
        let w = Word {
            parts: vec![
                WordPart::Literal("a".into()),
                WordPart::SingleQuoted("b c".into()),
                WordPart::DoubleQuoted(vec![WordPart::Literal("d".into())]),
            ],
            span: Span::default(),
        };
        assert_eq!(w.as_literal(), Some("ab cd".to_string()));
        let dynamic = Word {
            parts: vec![WordPart::Param(ParamExp::bare("HOME"))],
            span: Span::default(),
        };
        assert_eq!(dynamic.as_literal(), None);
    }

    #[test]
    fn unquoted_vs_quoted_expansion() {
        let unquoted = Word {
            parts: vec![WordPart::Param(ParamExp::bare("x"))],
            span: Span::default(),
        };
        assert!(unquoted.has_unquoted_expansion());
        let quoted = Word {
            parts: vec![WordPart::DoubleQuoted(vec![WordPart::Param(
                ParamExp::bare("x"),
            )])],
            span: Span::default(),
        };
        assert!(!quoted.has_unquoted_expansion());
        assert!(quoted.has_expansion());
        assert!(!Word::literal("plain").has_expansion());
    }
}
