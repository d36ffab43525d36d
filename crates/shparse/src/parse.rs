//! The recursive-descent parser for the POSIX shell command language.
//!
//! The parser follows the POSIX grammar hierarchy (complete command →
//! list → and-or → pipeline → command) directly off a byte cursor,
//! recognizing reserved words positionally as the standard requires.
//! Here-document bodies are collected when the parser crosses the
//! newline that ends their command and stored in a per-script table.

use crate::ast::{
    AndOr, AndOrOp, Assignment, CaseArm, CaseClause, Command, ForClause, IfClause, ListItem,
    ParamExp, ParamOp, Pipeline, Redir, RedirOp, Script, SimpleCommand, Span, WhileClause, Word,
    WordPart,
};
use crate::cursor::{is_name_char, is_name_start, is_word_end, Cursor};
use std::fmt;

/// A parse error with a message and source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Where the error was detected.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.message, self.span)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete shell script.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error, with its
/// source span.
pub fn parse_script(src: &str) -> Result<Script, ParseError> {
    let mut p = Parser::new(src);
    let items = p.parse_list(&[])?;
    p.skip_blank();
    if !p.cur.at_eof() {
        return Err(p.error_at_token("unexpected trailing input"));
    }
    if let Some(pending) = p.pending.first() {
        return Err(ParseError {
            message: format!("unterminated here-document (delimiter {:?})", pending.delim),
            span: Span::new(p.cur.pos(), p.cur.pos(), p.cur.line()),
        });
    }
    Ok(Script {
        items,
        heredocs: p.heredocs,
    })
}

/// A syntax error recorded — not raised — while parsing with recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDiagnostic {
    /// Human-readable description.
    pub message: String,
    /// Where the error was detected.
    pub span: Span,
}

impl fmt::Display for ParseDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.message, self.span)
    }
}

/// The result of [`parse_script_recovering`]: whatever parsed, plus the
/// syntax errors that were skipped to get it.
#[derive(Debug, Clone)]
pub struct RecoveredParse {
    /// The statements that parsed cleanly.
    pub script: Script,
    /// One entry per syntax error recovered from, in source order.
    /// Empty means the script parsed exactly as [`parse_script`] would.
    pub diagnostics: Vec<ParseDiagnostic>,
}

/// Parses a script, *recovering* from syntax errors instead of failing.
///
/// On an error the parser records a [`ParseDiagnostic`], resynchronizes
/// at the next statement boundary (newline, `;`, or a dangling
/// `fi`/`done`/`esac`), and continues, so one malformed statement does
/// not hide findings in the healthy remainder of the script. The strict
/// [`parse_script`] API is unchanged.
pub fn parse_script_recovering(src: &str) -> RecoveredParse {
    let mut p = Parser::new(src);
    let mut items = Vec::new();
    let mut diagnostics = Vec::new();
    loop {
        let before = p.cur.pos();
        p.skip_blank();
        match p.cur.peek() {
            None => break,
            Some(b'\n') => {
                if let Err(e) = p.consume_newline() {
                    // Unterminated here-document: record it and drop the
                    // pending collection so later lines parse as code.
                    diagnostics.push(ParseDiagnostic {
                        message: e.message,
                        span: e.span,
                    });
                    p.pending.clear();
                }
                continue;
            }
            Some(b';') if !p.cur.looking_at(";;") => {
                p.cur.bump();
                continue;
            }
            _ => {}
        }
        match p.parse_and_or() {
            Ok(and_or) => {
                p.skip_blank();
                let mut background = false;
                if p.cur.peek() == Some(b'&') && !p.cur.looking_at("&&") {
                    p.cur.bump();
                    background = true;
                }
                items.push(ListItem { and_or, background });
            }
            Err(e) => {
                diagnostics.push(ParseDiagnostic {
                    message: e.message,
                    span: e.span,
                });
                p.resync();
            }
        }
        if p.cur.pos() == before && !p.cur.at_eof() {
            // Defensive progress guarantee: never loop on the same byte.
            p.cur.bump();
        }
    }
    if let Some(pending) = p.pending.first() {
        diagnostics.push(ParseDiagnostic {
            message: format!("unterminated here-document (delimiter {:?})", pending.delim),
            span: Span::new(p.cur.pos(), p.cur.pos(), p.cur.line()),
        });
    }
    RecoveredParse {
        script: Script {
            items,
            heredocs: p.heredocs,
        },
        diagnostics,
    }
}

/// Reserved words, recognized only in command position.
const RESERVED: &[&str] = &[
    "if", "then", "else", "elif", "fi", "while", "until", "do", "done", "for", "in", "case",
    "esac", "{", "}", "!",
];

/// A here-document whose body has not yet been collected.
struct Pending {
    delim: String,
    strip: bool,
    index: usize,
}

struct Parser<'a> {
    cur: Cursor<'a>,
    heredocs: Vec<String>,
    pending: Vec<Pending>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            cur: Cursor::new(src),
            heredocs: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn error_here(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            span: Span::new(self.cur.pos(), self.cur.pos() + 1, self.cur.line()),
        }
    }

    /// Like [`Parser::error_here`], but the span covers the whole token
    /// at the cursor (to the next word-ending metacharacter) rather
    /// than a single byte, so editors highlight the offending token.
    fn error_at_token(&self, message: impl Into<String>) -> ParseError {
        let start = self.cur.pos();
        let mut len = 0;
        while let Some(b) = self.cur.peek_at(len) {
            // Operator bytes (`)`, `;`, `&`, …) form the token when they
            // come first; otherwise stop at the first word end.
            if len > 0 && is_word_end(b) {
                break;
            }
            len += 1;
            if len == 1 && is_word_end(b) {
                break;
            }
        }
        ParseError {
            message: message.into(),
            span: Span::new(start, start + len.max(1), self.cur.line()),
        }
    }

    /// Error recovery: advances to the next statement boundary — past a
    /// newline or `;`, or past a dangling `fi`/`done`/`esac` closer —
    /// discarding any half-collected here-documents on the way.
    fn resync(&mut self) {
        self.pending.clear();
        loop {
            match self.cur.peek() {
                None => return,
                Some(b'\n') => {
                    self.cur.bump();
                    return;
                }
                Some(b';') => {
                    self.cur.bump();
                    if self.cur.peek() == Some(b';') {
                        self.cur.bump();
                    }
                    return;
                }
                _ => {
                    if let Some(w @ ("fi" | "done" | "esac")) = self.peek_reserved() {
                        for _ in 0..w.len() {
                            self.cur.bump();
                        }
                        return;
                    }
                    self.cur.bump();
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Whitespace, separators, reserved words
    // -----------------------------------------------------------------

    /// Skips spaces, tabs, comments, and escaped newlines — everything
    /// blank except newlines (which are separators).
    fn skip_blank(&mut self) {
        loop {
            match self.cur.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') => {
                    self.cur.bump();
                }
                Some(b'\\') if self.cur.peek_at(1) == Some(b'\n') => {
                    self.cur.bump();
                    self.cur.bump();
                }
                Some(b'#') => {
                    self.cur.take_line();
                }
                _ => break,
            }
        }
    }

    /// Skips blanks *and* newlines (for positions where the grammar
    /// allows line breaks, e.g. after `&&`).
    fn skip_linebreaks(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_blank();
            if self.cur.peek() == Some(b'\n') {
                self.consume_newline()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Consumes a newline and collects any pending here-document bodies.
    fn consume_newline(&mut self) -> Result<(), ParseError> {
        debug_assert_eq!(self.cur.peek(), Some(b'\n'));
        self.cur.bump();
        while !self.pending.is_empty() {
            let p = self.pending.remove(0);
            let mut body = String::new();
            loop {
                if self.cur.at_eof() {
                    return Err(ParseError {
                        message: format!("unterminated here-document (delimiter {:?})", p.delim),
                        span: Span::new(self.cur.pos(), self.cur.pos(), self.cur.line()),
                    });
                }
                let line = self.cur.take_line();
                if self.cur.peek() == Some(b'\n') {
                    self.cur.bump();
                }
                let check: &str = if p.strip {
                    line.trim_start_matches('\t')
                } else {
                    line.as_str()
                };
                if check == p.delim {
                    break;
                }
                body.push_str(check);
                body.push('\n');
            }
            self.heredocs[p.index] = body;
        }
        Ok(())
    }

    /// If the input at the cursor is a reserved word (entire, unquoted),
    /// returns it without consuming.
    fn peek_reserved(&self) -> Option<&'static str> {
        let mut i = 0;
        loop {
            match self.cur.peek_at(i) {
                None => break,
                Some(b) if is_word_end(b) => break,
                Some(b'\'') | Some(b'"') | Some(b'$') | Some(b'`') | Some(b'\\') => return None,
                Some(b'}') if i > 0 => break,
                Some(_) => i += 1,
            }
        }
        if i == 0 {
            // `}` alone: is_word_end excludes it, handled above only for
            // i > 0; catch the standalone case here.
            if self.cur.peek() == Some(b'}') {
                let next = self.cur.peek_at(1);
                if next.is_none() || next.is_some_and(is_word_end) {
                    return Some("}");
                }
            }
            return None;
        }
        let text: Vec<u8> = (0..i).filter_map(|k| self.cur.peek_at(k)).collect();
        RESERVED
            .iter()
            .copied()
            .find(|w| w.as_bytes() == text.as_slice())
    }

    /// Consumes an expected reserved word or fails.
    fn expect_reserved(&mut self, word: &str) -> Result<(), ParseError> {
        self.skip_blank();
        if self.peek_reserved()
            == Some(match RESERVED.iter().find(|w| **w == word) {
                Some(w) => *w,
                None => return Err(self.error_here(format!("internal: {word:?} is not reserved"))),
            })
        {
            for _ in 0..word.len() {
                self.cur.bump();
            }
            Ok(())
        } else {
            Err(self.error_here(format!("expected {word:?}")))
        }
    }

    // -----------------------------------------------------------------
    // Lists, and-or chains, pipelines
    // -----------------------------------------------------------------

    /// Parses a command list until EOF or one of `terms` (a terminator
    /// reserved word, `)`, or `;;`), which is left unconsumed.
    fn parse_list(&mut self, terms: &[&str]) -> Result<Vec<ListItem>, ParseError> {
        let mut items = Vec::new();
        loop {
            self.skip_blank();
            match self.cur.peek() {
                Some(b'\n') => {
                    self.consume_newline()?;
                    continue;
                }
                Some(b';') if !self.cur.looking_at(";;") => {
                    self.cur.bump();
                    continue;
                }
                None => break,
                _ => {}
            }
            // A dangling `;;` or `)` always ends the list: either the
            // enclosing construct expects it (case arm, subshell), or
            // `parse_script` reports it as trailing input with the
            // token's own span.
            if self.cur.looking_at(";;") || self.cur.looking_at(")") {
                break;
            }
            if let Some(w) = self.peek_reserved() {
                if terms.contains(&w) {
                    break;
                }
            }
            let and_or = self.parse_and_or()?;
            self.skip_blank();
            let mut background = false;
            if self.cur.peek() == Some(b'&') && !self.cur.looking_at("&&") {
                self.cur.bump();
                background = true;
            }
            items.push(ListItem { and_or, background });
        }
        Ok(items)
    }

    fn parse_and_or(&mut self) -> Result<AndOr, ParseError> {
        let first = self.parse_pipeline()?;
        let mut rest = Vec::new();
        loop {
            self.skip_blank();
            let op = if self.cur.looking_at("&&") {
                self.cur.eat("&&");
                AndOrOp::And
            } else if self.cur.looking_at("||") {
                self.cur.eat("||");
                AndOrOp::Or
            } else {
                break;
            };
            self.skip_linebreaks()?;
            rest.push((op, self.parse_pipeline()?));
        }
        Ok(AndOr { first, rest })
    }

    fn parse_pipeline(&mut self) -> Result<Pipeline, ParseError> {
        self.skip_blank();
        let mut negated = false;
        while self.peek_reserved() == Some("!") {
            self.cur.bump();
            negated = !negated;
            self.skip_blank();
        }
        let mut commands = vec![self.parse_command()?];
        loop {
            self.skip_blank();
            if self.cur.peek() == Some(b'|') && !self.cur.looking_at("||") {
                self.cur.bump();
                self.skip_linebreaks()?;
                commands.push(self.parse_command()?);
            } else {
                break;
            }
        }
        Ok(Pipeline { negated, commands })
    }

    // -----------------------------------------------------------------
    // Commands
    // -----------------------------------------------------------------

    fn parse_command(&mut self) -> Result<Command, ParseError> {
        self.skip_blank();
        let start = self.cur.pos();
        let line = self.cur.line();
        if self.cur.peek() == Some(b'(') {
            return self.parse_subshell(start, line);
        }
        match self.peek_reserved() {
            Some("if") => return self.parse_if(start, line),
            Some("while") => return self.parse_while(false, start, line),
            Some("until") => return self.parse_while(true, start, line),
            Some("for") => return self.parse_for(start, line),
            Some("case") => return self.parse_case(start, line),
            Some("{") => return self.parse_brace_group(start, line),
            Some(w @ ("then" | "else" | "elif" | "fi" | "do" | "done" | "esac" | "}" | "in")) => {
                return Err(self.error_here(format!("unexpected reserved word {w:?}")))
            }
            _ => {}
        }
        // Function definition lookahead: NAME ( ) compound-command.
        if self.cur.peek().is_some_and(is_name_start) {
            let save = self.cur.clone();
            let name = self.cur.take_while(is_name_char);
            self.skip_blank();
            if self.cur.peek() == Some(b'(') {
                let after_paren = {
                    let mut probe = self.cur.clone();
                    probe.bump();
                    // Allow blanks between the parens.
                    while matches!(probe.peek(), Some(b' ') | Some(b'\t')) {
                        probe.bump();
                    }
                    probe.peek() == Some(b')')
                };
                if after_paren {
                    self.cur.bump(); // `(`
                    while matches!(self.cur.peek(), Some(b' ') | Some(b'\t')) {
                        self.cur.bump();
                    }
                    self.cur.bump(); // `)`
                    self.skip_linebreaks()?;
                    let body = std::sync::Arc::new(self.parse_command()?);
                    let span = self.cur.span_from(start, line);
                    return Ok(Command::FunctionDef { name, body, span });
                }
            }
            self.cur = save;
        }
        self.parse_simple(start, line)
    }

    fn parse_trailing_redirects(&mut self) -> Result<Vec<Redir>, ParseError> {
        let mut redirs = Vec::new();
        loop {
            self.skip_blank();
            if self.at_redirect() {
                redirs.push(self.parse_redirect()?);
            } else {
                return Ok(redirs);
            }
        }
    }

    fn parse_subshell(&mut self, start: usize, line: u32) -> Result<Command, ParseError> {
        self.cur.bump(); // `(`
        let items = self.parse_list(&[")"])?;
        if !self.cur.eat(")") {
            return Err(self.error_here("expected `)` to close subshell"));
        }
        let redirs = self.parse_trailing_redirects()?;
        Ok(Command::Subshell(
            items,
            redirs,
            self.cur.span_from(start, line),
        ))
    }

    fn parse_brace_group(&mut self, start: usize, line: u32) -> Result<Command, ParseError> {
        self.cur.bump(); // `{`
        let items = self.parse_list(&["}"])?;
        self.expect_reserved("}")?;
        let redirs = self.parse_trailing_redirects()?;
        Ok(Command::BraceGroup(
            items,
            redirs,
            self.cur.span_from(start, line),
        ))
    }

    fn parse_if(&mut self, start: usize, line: u32) -> Result<Command, ParseError> {
        self.expect_reserved("if")?;
        let cond = self.parse_list(&["then"])?;
        self.expect_reserved("then")?;
        let then_body = self.parse_list(&["elif", "else", "fi"])?;
        let mut elifs = Vec::new();
        loop {
            self.skip_blank();
            match self.peek_reserved() {
                Some("elif") => {
                    self.expect_reserved("elif")?;
                    let c = self.parse_list(&["then"])?;
                    self.expect_reserved("then")?;
                    let b = self.parse_list(&["elif", "else", "fi"])?;
                    elifs.push((c, b));
                }
                _ => break,
            }
        }
        let else_body = if self.peek_reserved() == Some("else") {
            self.expect_reserved("else")?;
            Some(self.parse_list(&["fi"])?)
        } else {
            None
        };
        self.expect_reserved("fi")?;
        let redirs = self.parse_trailing_redirects()?;
        let clause = IfClause {
            cond,
            then_body,
            elifs,
            else_body,
        };
        Ok(Command::If(clause, redirs, self.cur.span_from(start, line)))
    }

    fn parse_while(&mut self, until: bool, start: usize, line: u32) -> Result<Command, ParseError> {
        self.expect_reserved(if until { "until" } else { "while" })?;
        let cond = self.parse_list(&["do"])?;
        self.expect_reserved("do")?;
        let body = self.parse_list(&["done"])?;
        self.expect_reserved("done")?;
        let redirs = self.parse_trailing_redirects()?;
        let clause = WhileClause { cond, body };
        let span = self.cur.span_from(start, line);
        Ok(if until {
            Command::Until(clause, redirs, span)
        } else {
            Command::While(clause, redirs, span)
        })
    }

    fn parse_for(&mut self, start: usize, line: u32) -> Result<Command, ParseError> {
        self.expect_reserved("for")?;
        self.skip_blank();
        if !self.cur.peek().is_some_and(is_name_start) {
            return Err(self.error_here("expected loop variable name after `for`"));
        }
        let var = self.cur.take_while(is_name_char);
        self.skip_linebreaks()?;
        let words = if self.peek_reserved() == Some("in") {
            self.expect_reserved("in")?;
            let mut words = Vec::new();
            loop {
                self.skip_blank();
                match self.cur.peek() {
                    None | Some(b'\n') | Some(b';') => break,
                    Some(b) if is_word_end(b) => {
                        return Err(self.error_here("unexpected operator in `for` word list"))
                    }
                    Some(_) => words.push(self.parse_word(false)?),
                }
            }
            Some(words)
        } else {
            None
        };
        // Separator before `do`.
        self.skip_blank();
        if self.cur.peek() == Some(b';') && !self.cur.looking_at(";;") {
            self.cur.bump();
        }
        self.skip_linebreaks()?;
        self.expect_reserved("do")?;
        let body = self.parse_list(&["done"])?;
        self.expect_reserved("done")?;
        let redirs = self.parse_trailing_redirects()?;
        Ok(Command::For(
            ForClause { var, words, body },
            redirs,
            self.cur.span_from(start, line),
        ))
    }

    fn parse_case(&mut self, start: usize, line: u32) -> Result<Command, ParseError> {
        self.expect_reserved("case")?;
        self.skip_blank();
        let subject = self.parse_word(false)?;
        self.skip_linebreaks()?;
        self.expect_reserved("in")?;
        let mut arms = Vec::new();
        loop {
            self.skip_linebreaks()?;
            if self.peek_reserved() == Some("esac") {
                self.expect_reserved("esac")?;
                break;
            }
            if self.cur.at_eof() {
                return Err(self.error_here("expected `esac`"));
            }
            if self.cur.peek() == Some(b'(') {
                self.cur.bump();
                self.skip_blank();
            }
            let mut patterns = vec![self.parse_word(false)?];
            loop {
                self.skip_blank();
                if self.cur.peek() == Some(b'|') && !self.cur.looking_at("||") {
                    self.cur.bump();
                    self.skip_blank();
                    patterns.push(self.parse_word(false)?);
                } else {
                    break;
                }
            }
            if !self.cur.eat(")") {
                return Err(self.error_here("expected `)` after case pattern"));
            }
            let body = self.parse_list(&[";;", "esac"])?;
            self.skip_blank();
            if self.cur.looking_at(";;") {
                self.cur.eat(";;");
            }
            arms.push(CaseArm { patterns, body });
        }
        let redirs = self.parse_trailing_redirects()?;
        Ok(Command::Case(
            CaseClause { subject, arms },
            redirs,
            self.cur.span_from(start, line),
        ))
    }

    // -----------------------------------------------------------------
    // Simple commands
    // -----------------------------------------------------------------

    fn parse_simple(&mut self, start: usize, line: u32) -> Result<Command, ParseError> {
        let mut cmd = SimpleCommand::default();
        loop {
            self.skip_blank();
            if self.at_redirect() {
                cmd.redirects.push(self.parse_redirect()?);
                continue;
            }
            match self.cur.peek() {
                None => break,
                Some(b) if is_word_end(b) => break,
                Some(_) => {
                    if cmd.words.is_empty() {
                        if let Some(assign) = self.try_parse_assignment()? {
                            cmd.assignments.push(assign);
                            continue;
                        }
                    }
                    cmd.words.push(self.parse_word(false)?);
                }
            }
        }
        if cmd.assignments.is_empty() && cmd.words.is_empty() && cmd.redirects.is_empty() {
            return Err(self.error_here("expected a command"));
        }
        cmd.span = self.cur.span_from(start, line);
        Ok(Command::Simple(cmd))
    }

    /// If the cursor is at `NAME=…`, parses the assignment.
    fn try_parse_assignment(&mut self) -> Result<Option<Assignment>, ParseError> {
        if !self.cur.peek().is_some_and(is_name_start) {
            return Ok(None);
        }
        let mut i = 1;
        while self.cur.peek_at(i).is_some_and(is_name_char) {
            i += 1;
        }
        if self.cur.peek_at(i) != Some(b'=') {
            return Ok(None);
        }
        let start = self.cur.pos();
        let line = self.cur.line();
        let name = self.cur.take_while(is_name_char);
        self.cur.bump(); // `=`
        let value = if self.cur.peek().is_none_or(is_word_end) {
            Word {
                parts: Vec::new(),
                span: self.cur.span_from(self.cur.pos(), line),
            }
        } else {
            self.parse_word(false)?
        };
        Ok(Some(Assignment {
            name,
            value,
            span: self.cur.span_from(start, line),
        }))
    }

    // -----------------------------------------------------------------
    // Redirections
    // -----------------------------------------------------------------

    /// Is the cursor at the start of a redirection (`<`, `>`, or `3>`)?
    fn at_redirect(&self) -> bool {
        let mut i = 0;
        while self.cur.peek_at(i).is_some_and(|b| b.is_ascii_digit()) {
            i += 1;
        }
        matches!(self.cur.peek_at(i), Some(b'<') | Some(b'>'))
            && (i == 0 || self.cur.peek_at(i).is_some())
    }

    fn parse_redirect(&mut self) -> Result<Redir, ParseError> {
        let start = self.cur.pos();
        let line = self.cur.line();
        let mut fd_digits = String::new();
        while self.cur.peek().is_some_and(|b| b.is_ascii_digit()) {
            fd_digits.push(
                self.cur
                    .bump()
                    .expect("peek saw an ASCII digit, so bump cannot hit EOF") as char,
            );
        }
        let fd = if fd_digits.is_empty() {
            None
        } else {
            fd_digits.parse::<u32>().ok()
        };
        let op = if self.cur.eat("<<-") {
            Some((true, true))
        } else if self.cur.eat("<<") {
            Some((true, false))
        } else {
            None
        };
        if let Some((_, strip)) = op {
            // Here-document: the target word is the delimiter.
            self.skip_blank();
            let target = self.parse_word(false)?;
            let delim = heredoc_delimiter(&target);
            let index = self.heredocs.len();
            self.heredocs.push(String::new());
            self.pending.push(Pending {
                delim,
                strip,
                index,
            });
            return Ok(Redir {
                fd,
                op: RedirOp::HereDoc { strip, body: index },
                target,
                span: self.cur.span_from(start, line),
            });
        }
        let op = if self.cur.eat("<&") {
            RedirOp::DupIn
        } else if self.cur.eat("<>") {
            RedirOp::ReadWrite
        } else if self.cur.eat("<") {
            RedirOp::In
        } else if self.cur.eat(">>") {
            RedirOp::Append
        } else if self.cur.eat(">&") {
            RedirOp::DupOut
        } else if self.cur.eat(">|") {
            RedirOp::Clobber
        } else if self.cur.eat(">") {
            RedirOp::Out
        } else {
            return Err(self.error_here("expected redirection operator"));
        };
        self.skip_blank();
        if self.cur.peek().is_none_or(is_word_end) {
            return Err(self.error_here("expected redirection target"));
        }
        let target = self.parse_word(false)?;
        Ok(Redir {
            fd,
            op,
            target,
            span: self.cur.span_from(start, line),
        })
    }

    // -----------------------------------------------------------------
    // Words
    // -----------------------------------------------------------------

    /// Parses one word. With `in_braces`, the word also ends at `}`
    /// (parameter-expansion operand position).
    fn parse_word(&mut self, in_braces: bool) -> Result<Word, ParseError> {
        let start = self.cur.pos();
        let line = self.cur.line();
        let mut parts: Vec<WordPart> = Vec::new();
        loop {
            let b = match self.cur.peek() {
                None => break,
                Some(b) => b,
            };
            if is_word_end(b) || (in_braces && b == b'}') {
                break;
            }
            match b {
                b'\'' => {
                    self.cur.bump();
                    let text = self.cur.take_while(|c| c != b'\'');
                    if self.cur.bump() != Some(b'\'') {
                        return Err(self.error_here("unterminated single quote"));
                    }
                    parts.push(WordPart::SingleQuoted(text));
                }
                b'"' => {
                    parts.push(WordPart::DoubleQuoted(self.parse_double_quoted()?));
                }
                b'\\' => {
                    self.cur.bump();
                    match self.cur.bump() {
                        None => return Err(self.error_here("trailing backslash")),
                        Some(b'\n') => {} // Line continuation.
                        Some(c) => push_literal(&mut parts, c as char),
                    }
                }
                b'$' => {
                    parts.push(self.parse_dollar()?);
                }
                b'`' => {
                    parts.push(self.parse_backquote()?);
                }
                b'*' | b'?' => {
                    self.cur.bump();
                    parts.push(WordPart::Glob((b as char).to_string()));
                }
                b'[' => {
                    // Glob class if a `]` occurs before the word ends.
                    let mut i = 1;
                    // A `]` or `!`/`^` immediately after `[` is literal.
                    if matches!(self.cur.peek_at(i), Some(b'!') | Some(b'^')) {
                        i += 1;
                    }
                    if self.cur.peek_at(i) == Some(b']') {
                        i += 1;
                    }
                    let mut found = None;
                    while let Some(c) = self.cur.peek_at(i) {
                        if c == b']' {
                            found = Some(i);
                            break;
                        }
                        if is_word_end(c) || c == b'\'' || c == b'"' || c == b'\\' || c == b'$' {
                            break;
                        }
                        i += 1;
                    }
                    match found {
                        Some(end) => {
                            let mut text = String::new();
                            for _ in 0..=end {
                                text.push(
                                    self.cur
                                        .bump()
                                        .expect("bounded by `found`, which peeked Some")
                                        as char,
                                );
                            }
                            parts.push(WordPart::Glob(text));
                        }
                        None => {
                            self.cur.bump();
                            push_literal(&mut parts, '[');
                        }
                    }
                }
                b'~' if parts.is_empty() => {
                    self.cur.bump();
                    let user = self.cur.take_while(|c| {
                        c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.'
                    });
                    parts.push(WordPart::Tilde(if user.is_empty() {
                        None
                    } else {
                        Some(user)
                    }));
                }
                _ => {
                    let text = self.cur.take_while(|c| {
                        !(is_word_end(c)
                            || matches!(c, b'\'' | b'"' | b'\\' | b'$' | b'`' | b'*' | b'?' | b'[')
                            || (in_braces && c == b'}'))
                    });
                    if text.is_empty() {
                        return Err(
                            self.error_here(format!("unexpected character {:?}", b as char))
                        );
                    }
                    push_literal_str(&mut parts, &text);
                }
            }
        }
        if parts.is_empty() && self.cur.pos() == start {
            return Err(self.error_here("expected a word"));
        }
        Ok(Word {
            parts,
            span: self.cur.span_from(start, line),
        })
    }

    fn parse_double_quoted(&mut self) -> Result<Vec<WordPart>, ParseError> {
        debug_assert_eq!(self.cur.peek(), Some(b'"'));
        self.cur.bump();
        let mut parts: Vec<WordPart> = Vec::new();
        loop {
            match self.cur.peek() {
                None => return Err(self.error_here("unterminated double quote")),
                Some(b'"') => {
                    self.cur.bump();
                    break;
                }
                Some(b'$') => parts.push(self.parse_dollar()?),
                Some(b'`') => parts.push(self.parse_backquote()?),
                Some(b'\\') => {
                    self.cur.bump();
                    match self.cur.bump() {
                        None => return Err(self.error_here("trailing backslash")),
                        Some(b'\n') => {}
                        Some(c @ (b'$' | b'`' | b'"' | b'\\')) => {
                            push_literal(&mut parts, c as char)
                        }
                        Some(c) => {
                            // Inside double quotes, `\` before other chars
                            // stays literal.
                            push_literal(&mut parts, '\\');
                            push_literal(&mut parts, c as char);
                        }
                    }
                }
                Some(_) => {
                    let text = self
                        .cur
                        .take_while(|c| !matches!(c, b'"' | b'$' | b'`' | b'\\'));
                    push_literal_str(&mut parts, &text);
                }
            }
        }
        Ok(parts)
    }

    fn parse_dollar(&mut self) -> Result<WordPart, ParseError> {
        debug_assert_eq!(self.cur.peek(), Some(b'$'));
        self.cur.bump();
        match self.cur.peek() {
            Some(b'(') if self.cur.peek_at(1) == Some(b'(') => {
                self.cur.bump();
                self.cur.bump();
                let mut depth = 0usize;
                let mut text = String::new();
                loop {
                    match self.cur.peek() {
                        None => return Err(self.error_here("unterminated arithmetic expansion")),
                        Some(b')') if depth == 0 && self.cur.peek_at(1) == Some(b')') => {
                            self.cur.bump();
                            self.cur.bump();
                            break;
                        }
                        Some(b'(') => {
                            depth += 1;
                            text.push(self.cur.bump().expect("peek returned Some, so bump cannot hit EOF") as char);
                        }
                        Some(b')') => {
                            depth = depth.saturating_sub(1);
                            text.push(self.cur.bump().expect("peek returned Some, so bump cannot hit EOF") as char);
                        }
                        Some(_) => text.push(self.cur.bump().expect("peek returned Some, so bump cannot hit EOF") as char),
                    }
                }
                Ok(WordPart::Arith(text))
            }
            Some(b'(') => {
                self.cur.bump();
                let items = self.parse_list(&[")"])?;
                if !self.cur.eat(")") {
                    return Err(self.error_here("expected `)` to close command substitution"));
                }
                // Inner scripts share the (growing) here-document table;
                // copy its current state so inner indices stay valid.
                let script = Script {
                    items,
                    heredocs: self.heredocs.clone(),
                };
                Ok(WordPart::CmdSub(Box::new(script)))
            }
            Some(b'{') => {
                self.cur.bump();
                let part = self.parse_braced_param()?;
                if self.cur.bump() != Some(b'}') {
                    return Err(self.error_here("expected `}` to close parameter expansion"));
                }
                Ok(part)
            }
            Some(b) if is_name_start(b) => {
                let name = self.cur.take_while(is_name_char);
                Ok(WordPart::Param(ParamExp::bare(&name)))
            }
            Some(b) if b.is_ascii_digit() => {
                self.cur.bump();
                Ok(WordPart::Param(ParamExp::bare(&(b as char).to_string())))
            }
            Some(b @ (b'#' | b'?' | b'*' | b'@' | b'$' | b'!' | b'-')) => {
                self.cur.bump();
                Ok(WordPart::Param(ParamExp::bare(&(b as char).to_string())))
            }
            _ => Ok(WordPart::Literal("$".to_string())),
        }
    }

    /// Parses the inside of `${…}` up to (but not including) the closing
    /// brace.
    fn parse_braced_param(&mut self) -> Result<WordPart, ParseError> {
        // `${#name}` is string length; `${#}`, `${#-…}` etc. refer to `#`.
        if self.cur.peek() == Some(b'#') {
            let next = self.cur.peek_at(1);
            let is_length = next.is_some_and(|b| is_name_start(b) || b.is_ascii_digit())
                || matches!(
                    next,
                    Some(b'?') | Some(b'*') | Some(b'@') | Some(b'!') | Some(b'$')
                );
            if is_length {
                self.cur.bump();
                let name = self.read_param_name()?;
                return Ok(WordPart::Param(ParamExp {
                    name,
                    op: Some(ParamOp::Length),
                }));
            }
        }
        let name = self.read_param_name()?;
        if self.cur.peek() == Some(b'}') {
            return Ok(WordPart::Param(ParamExp { name, op: None }));
        }
        let colon = self.cur.peek() == Some(b':');
        if colon {
            self.cur.bump();
        }
        let op = match self.cur.peek() {
            Some(b'-') => {
                self.cur.bump();
                ParamOp::Default(self.parse_param_word()?, colon)
            }
            Some(b'=') => {
                self.cur.bump();
                ParamOp::Assign(self.parse_param_word()?, colon)
            }
            Some(b'?') => {
                self.cur.bump();
                let w = if self.cur.peek() == Some(b'}') {
                    None
                } else {
                    Some(self.parse_param_word()?)
                };
                ParamOp::Error(w, colon)
            }
            Some(b'+') => {
                self.cur.bump();
                ParamOp::Alt(self.parse_param_word()?, colon)
            }
            Some(b'%') if !colon => {
                self.cur.bump();
                if self.cur.peek() == Some(b'%') {
                    self.cur.bump();
                    ParamOp::RemoveLargestSuffix(self.parse_param_word()?)
                } else {
                    ParamOp::RemoveSmallestSuffix(self.parse_param_word()?)
                }
            }
            Some(b'#') if !colon => {
                self.cur.bump();
                if self.cur.peek() == Some(b'#') {
                    self.cur.bump();
                    ParamOp::RemoveLargestPrefix(self.parse_param_word()?)
                } else {
                    ParamOp::RemoveSmallestPrefix(self.parse_param_word()?)
                }
            }
            other => {
                return Err(self.error_here(format!(
                    "unexpected {:?} in parameter expansion",
                    other.map(|b| b as char)
                )))
            }
        };
        Ok(WordPart::Param(ParamExp { name, op: Some(op) }))
    }

    /// The operand word of a `${x op word}` expansion; may be empty.
    fn parse_param_word(&mut self) -> Result<Word, ParseError> {
        if self.cur.peek() == Some(b'}') {
            return Ok(Word {
                parts: Vec::new(),
                span: Span::new(self.cur.pos(), self.cur.pos(), self.cur.line()),
            });
        }
        self.parse_word(true)
    }

    fn read_param_name(&mut self) -> Result<String, ParseError> {
        match self.cur.peek() {
            Some(b) if is_name_start(b) => Ok(self.cur.take_while(is_name_char)),
            Some(b) if b.is_ascii_digit() => Ok(self.cur.take_while(|c| c.is_ascii_digit())),
            Some(b @ (b'#' | b'?' | b'*' | b'@' | b'$' | b'!' | b'-')) => {
                self.cur.bump();
                Ok((b as char).to_string())
            }
            other => Err(self.error_here(format!(
                "expected parameter name, found {:?}",
                other.map(|b| b as char)
            ))),
        }
    }

    fn parse_backquote(&mut self) -> Result<WordPart, ParseError> {
        debug_assert_eq!(self.cur.peek(), Some(b'`'));
        let start_line = self.cur.line();
        self.cur.bump();
        let mut text = String::new();
        loop {
            match self.cur.bump() {
                None => return Err(self.error_here("unterminated backquote substitution")),
                Some(b'`') => break,
                Some(b'\\') => match self.cur.bump() {
                    Some(c @ (b'$' | b'`' | b'\\')) => text.push(c as char),
                    Some(c) => {
                        text.push('\\');
                        text.push(c as char);
                    }
                    None => return Err(self.error_here("trailing backslash in backquotes")),
                },
                Some(c) => text.push(c as char),
            }
        }
        let script = parse_script(&text).map_err(|mut e| {
            e.message = format!("in backquote substitution: {}", e.message);
            e.span.line = start_line;
            e
        })?;
        Ok(WordPart::CmdSub(Box::new(script)))
    }
}

/// Appends a literal character, merging with a trailing literal part.
fn push_literal(parts: &mut Vec<WordPart>, c: char) {
    if let Some(WordPart::Literal(s)) = parts.last_mut() {
        s.push(c);
    } else {
        parts.push(WordPart::Literal(c.to_string()));
    }
}

/// Appends literal text, merging with a trailing literal part.
fn push_literal_str(parts: &mut Vec<WordPart>, text: &str) {
    if text.is_empty() {
        return;
    }
    if let Some(WordPart::Literal(s)) = parts.last_mut() {
        s.push_str(text);
    } else {
        parts.push(WordPart::Literal(text.to_string()));
    }
}

/// The delimiter string of a here-document target word (quotes removed;
/// we do not model the expansion/no-expansion distinction).
fn heredoc_delimiter(word: &Word) -> String {
    let mut out = String::new();
    for part in &word.parts {
        match part {
            WordPart::Literal(s) | WordPart::SingleQuoted(s) => out.push_str(s),
            WordPart::DoubleQuoted(inner) => {
                for p in inner {
                    if let WordPart::Literal(s) = p {
                        out.push_str(s);
                    }
                }
            }
            _ => {}
        }
    }
    out
}
