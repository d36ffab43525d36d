//! Pretty-printing the AST back to executable shell syntax.
//!
//! Diagnostics quote reconstructed commands, the corpus generators build
//! scripts from ASTs, and the round-trip property (parse → print → parse
//! yields an equal tree, modulo spans) is a strong structural test of the
//! parser itself.

use crate::ast::{
    AndOr, AndOrOp, Command, ListItem, ParamExp, ParamOp, Pipeline, Redir, RedirOp, Script,
    SimpleCommand, Word, WordPart,
};
use std::fmt::Write as _;

impl Script {
    /// Renders the script as shell source. Here-document bodies are
    /// emitted after the command line that opens them, as the shell
    /// grammar requires.
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        let mut pending = Vec::new();
        write_items(&mut out, &self.items, 0, self, &mut pending);
        out
    }
}

/// A here-document whose body must be emitted after the current line:
/// (rendered delimiter, body index).
type PendingHeredoc = (String, usize);

/// The canonical rendering of one top-level statement: the
/// pretty-printed `and_or` (plus `&` for background jobs) followed by
/// any here-document bodies the statement opens. It is built from the
/// AST, never from byte spans: the bodies, which live outside the
/// statement's own span, are part of it, and whitespace and comments
/// are not.
pub fn canonical_item(script: &Script, item: &ListItem) -> String {
    let mut out = String::new();
    let mut pending = Vec::new();
    write_and_or(&mut out, &item.and_or, 0, script, &mut pending);
    if item.background {
        out.push_str(" &");
    }
    out.push('\n');
    for (delim, body) in pending.drain(..) {
        out.push_str(script.heredoc_body(body));
        out.push_str(&delim);
        out.push('\n');
    }
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn write_items(
    out: &mut String,
    items: &[ListItem],
    level: usize,
    script: &Script,
    pending: &mut Vec<PendingHeredoc>,
) {
    for item in items {
        indent(out, level);
        write_and_or(out, &item.and_or, level, script, pending);
        if item.background {
            out.push_str(" &");
        }
        out.push('\n');
        // Emit here-document bodies opened on this line.
        for (delim, body) in pending.drain(..) {
            out.push_str(script.heredoc_body(body));
            out.push_str(&delim);
            out.push('\n');
        }
    }
}

fn write_and_or(
    out: &mut String,
    and_or: &AndOr,
    level: usize,
    script: &Script,
    pending: &mut Vec<PendingHeredoc>,
) {
    write_pipeline(out, &and_or.first, level, script, pending);
    for (op, p) in &and_or.rest {
        out.push_str(match op {
            AndOrOp::And => " && ",
            AndOrOp::Or => " || ",
        });
        write_pipeline(out, p, level, script, pending);
    }
}

fn write_pipeline(
    out: &mut String,
    p: &Pipeline,
    level: usize,
    script: &Script,
    pending: &mut Vec<PendingHeredoc>,
) {
    if p.negated {
        out.push_str("! ");
    }
    for (i, c) in p.commands.iter().enumerate() {
        if i > 0 {
            out.push_str(" | ");
        }
        write_command(out, c, level, script, pending);
    }
}

fn write_command(
    out: &mut String,
    c: &Command,
    level: usize,
    script: &Script,
    pending: &mut Vec<PendingHeredoc>,
) {
    match c {
        Command::Simple(s) => write_simple(out, s, script, pending),
        Command::BraceGroup(items, redirs, _) => {
            out.push_str("{\n");
            write_items(out, items, level + 1, script, pending);
            indent(out, level);
            out.push('}');
            write_redirs(out, redirs, script, pending);
        }
        Command::Subshell(items, redirs, _) => {
            out.push_str("(\n");
            write_items(out, items, level + 1, script, pending);
            indent(out, level);
            out.push(')');
            write_redirs(out, redirs, script, pending);
        }
        Command::If(clause, redirs, _) => {
            out.push_str("if\n");
            write_items(out, &clause.cond, level + 1, script, pending);
            indent(out, level);
            out.push_str("then\n");
            write_items(out, &clause.then_body, level + 1, script, pending);
            for (cond, body) in &clause.elifs {
                indent(out, level);
                out.push_str("elif\n");
                write_items(out, cond, level + 1, script, pending);
                indent(out, level);
                out.push_str("then\n");
                write_items(out, body, level + 1, script, pending);
            }
            if let Some(e) = &clause.else_body {
                indent(out, level);
                out.push_str("else\n");
                write_items(out, e, level + 1, script, pending);
            }
            indent(out, level);
            out.push_str("fi");
            write_redirs(out, redirs, script, pending);
        }
        Command::While(clause, redirs, _) | Command::Until(clause, redirs, _) => {
            out.push_str(if matches!(c, Command::While(..)) {
                "while\n"
            } else {
                "until\n"
            });
            write_items(out, &clause.cond, level + 1, script, pending);
            indent(out, level);
            out.push_str("do\n");
            write_items(out, &clause.body, level + 1, script, pending);
            indent(out, level);
            out.push_str("done");
            write_redirs(out, redirs, script, pending);
        }
        Command::For(clause, redirs, _) => {
            let _ = write!(out, "for {}", clause.var);
            if let Some(words) = &clause.words {
                out.push_str(" in");
                for w in words {
                    out.push(' ');
                    write_word(out, w, script);
                }
            }
            out.push('\n');
            indent(out, level);
            out.push_str("do\n");
            write_items(out, &clause.body, level + 1, script, pending);
            indent(out, level);
            out.push_str("done");
            write_redirs(out, redirs, script, pending);
        }
        Command::Case(clause, redirs, _) => {
            out.push_str("case ");
            write_word(out, &clause.subject, script);
            out.push_str(" in\n");
            for arm in &clause.arms {
                indent(out, level + 1);
                for (i, p) in arm.patterns.iter().enumerate() {
                    if i > 0 {
                        out.push('|');
                    }
                    write_word(out, p, script);
                }
                out.push_str(")\n");
                write_items(out, &arm.body, level + 2, script, pending);
                indent(out, level + 1);
                out.push_str(";;\n");
            }
            indent(out, level);
            out.push_str("esac");
            write_redirs(out, redirs, script, pending);
        }
        Command::FunctionDef { name, body, .. } => {
            let _ = write!(out, "{name}() ");
            write_command(out, body, level, script, pending);
        }
    }
}

fn write_simple(
    out: &mut String,
    s: &SimpleCommand,
    script: &Script,
    pending: &mut Vec<PendingHeredoc>,
) {
    let mut first = true;
    for a in &s.assignments {
        if !first {
            out.push(' ');
        }
        first = false;
        let _ = write!(out, "{}=", a.name);
        write_word(out, &a.value, script);
    }
    for w in &s.words {
        if !first {
            out.push(' ');
        }
        first = false;
        write_word(out, w, script);
    }
    write_redirs(out, &s.redirects, script, pending);
}

fn write_redirs(
    out: &mut String,
    redirs: &[Redir],
    script: &Script,
    pending: &mut Vec<PendingHeredoc>,
) {
    for r in redirs {
        out.push(' ');
        if let Some(fd) = r.fd {
            let _ = write!(out, "{fd}");
        }
        match r.op {
            RedirOp::In => out.push('<'),
            RedirOp::Out => out.push('>'),
            RedirOp::Append => out.push_str(">>"),
            RedirOp::DupIn => out.push_str("<&"),
            RedirOp::DupOut => out.push_str(">&"),
            RedirOp::ReadWrite => out.push_str("<>"),
            RedirOp::Clobber => out.push_str(">|"),
            RedirOp::HereDoc { strip, body } => {
                out.push_str(if strip { "<<-" } else { "<<" });
                write_word(out, &r.target, script);
                let mut delim = String::new();
                write_word(&mut delim, &r.target, script);
                pending.push((delim, body));
                continue;
            }
        }
        write_word(out, &r.target, script);
    }
}

/// Renders a single word.
pub fn write_word(out: &mut String, w: &Word, script: &Script) {
    if w.parts.is_empty() {
        out.push_str("\"\"");
        return;
    }
    for p in &w.parts {
        write_part(out, p, false, script);
    }
}

fn write_part(out: &mut String, p: &WordPart, in_dquotes: bool, script: &Script) {
    match p {
        WordPart::Literal(s) => {
            if in_dquotes {
                for c in s.chars() {
                    if matches!(c, '$' | '`' | '"' | '\\') {
                        out.push('\\');
                    }
                    out.push(c);
                }
            } else {
                for c in s.chars() {
                    if " \t\n;&|<>()'\"\\$`*?[~#=".contains(c) {
                        out.push('\\');
                    }
                    out.push(c);
                }
            }
        }
        WordPart::SingleQuoted(s) => {
            out.push('\'');
            out.push_str(s);
            out.push('\'');
        }
        WordPart::DoubleQuoted(parts) => {
            out.push('"');
            for p in parts {
                write_part(out, p, true, script);
            }
            out.push('"');
        }
        WordPart::Param(p) => write_param(out, p, script),
        WordPart::CmdSub(inner) => {
            out.push_str("$(");
            let src = inner.to_source();
            // Render single-command substitutions inline.
            let trimmed = src.trim_end_matches('\n');
            if trimmed.contains('\n') {
                out.push('\n');
                out.push_str(&src);
            } else {
                out.push_str(trimmed);
            }
            out.push(')');
        }
        WordPart::Arith(text) => {
            let _ = write!(out, "$(({text}))");
        }
        WordPart::Glob(g) => out.push_str(g),
        WordPart::Tilde(user) => {
            out.push('~');
            if let Some(u) = user {
                out.push_str(u);
            }
        }
    }
}

fn write_param(out: &mut String, p: &ParamExp, script: &Script) {
    let Some(op) = &p.op else {
        // Use braces whenever the bare form could be ambiguous.
        if p.name.len() == 1
            || p.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            let _ = write!(out, "${{{}}}", p.name);
        } else {
            let _ = write!(out, "${}", p.name);
        }
        return;
    };
    out.push_str("${");
    if matches!(op, ParamOp::Length) {
        out.push('#');
        out.push_str(&p.name);
        out.push('}');
        return;
    }
    out.push_str(&p.name);
    let word = |out: &mut String, w: &Word| write_word_in_braces(out, w, script);
    match op {
        ParamOp::Default(w, colon) => {
            if *colon {
                out.push(':');
            }
            out.push('-');
            word(out, w);
        }
        ParamOp::Assign(w, colon) => {
            if *colon {
                out.push(':');
            }
            out.push('=');
            word(out, w);
        }
        ParamOp::Error(w, colon) => {
            if *colon {
                out.push(':');
            }
            out.push('?');
            if let Some(w) = w {
                word(out, w);
            }
        }
        ParamOp::Alt(w, colon) => {
            if *colon {
                out.push(':');
            }
            out.push('+');
            word(out, w);
        }
        ParamOp::RemoveSmallestSuffix(w) => {
            out.push('%');
            word(out, w);
        }
        ParamOp::RemoveLargestSuffix(w) => {
            out.push_str("%%");
            word(out, w);
        }
        ParamOp::RemoveSmallestPrefix(w) => {
            out.push('#');
            word(out, w);
        }
        ParamOp::RemoveLargestPrefix(w) => {
            out.push_str("##");
            word(out, w);
        }
        ParamOp::Length => unreachable!("handled above"),
    }
    out.push('}');
}

/// Renders a word in `${…}` operand position: `}` must be escaped, word
/// terminators need no quoting.
fn write_word_in_braces(out: &mut String, w: &Word, script: &Script) {
    for p in &w.parts {
        match p {
            WordPart::Literal(s) => {
                for c in s.chars() {
                    if matches!(c, '}' | '\\' | '\'' | '"' | '$' | '`') {
                        out.push('\\');
                    }
                    out.push(c);
                }
            }
            other => write_part(out, other, false, script),
        }
    }
}
