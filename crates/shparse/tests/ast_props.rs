//! Property-based round-trip testing of the parser/printer pair over
//! *generated* syntax trees (on the in-repo seeded harness): print a
//! random AST, parse the result, and the re-printed form must be
//! identical. This covers combinations no hand-written corpus reaches.

use shoal_obs::prop::{run_cases, Gen};
use shoal_shparse::{
    parse_script, AndOr, Assignment, CaseArm, CaseClause, Command, ForClause, IfClause, ListItem,
    ParamExp, ParamOp, Pipeline, Script, SimpleCommand, Span, WhileClause, Word, WordPart,
};

const RESERVED: &[&str] = &[
    "if", "then", "else", "elif", "fi", "do", "done", "while", "until", "for", "case", "esac",
    "in", "function",
];

fn ident(g: &mut Gen) -> String {
    loop {
        let mut s = g.string_of("abcdefghijklmnopqrstuvwxyz", 1..2);
        s.push_str(&g.string_of("abcdefghijklmnopqrstuvwxyz0123456789_", 0..6));
        // Reserved words are valid *arguments* but not command names or
        // for-variables; keep the generator in the unambiguous subset.
        if !RESERVED.contains(&s.as_str()) {
            return s;
        }
    }
}

fn safe_text(g: &mut Gen) -> String {
    g.string_of("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_./:=+,-", 1..9)
}

fn quoted_text(g: &mut Gen) -> String {
    g.string_of("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _./-", 0..9)
}

fn param(g: &mut Gen) -> ParamExp {
    let name = match g.usize(0..5) {
        0 => "1".to_string(),
        1 => "0".to_string(),
        2 => "#".to_string(),
        3 => "?".to_string(),
        _ => ident(g),
    };
    let op = match g.usize(0..7) {
        0 => None,
        1 => Some(ParamOp::Default(word_flat(g), g.bool())),
        2 => Some(ParamOp::Assign(word_flat(g), g.bool())),
        3 => Some(ParamOp::Alt(word_flat(g), g.bool())),
        4 => Some(ParamOp::RemoveSmallestSuffix(word_flat(g))),
        5 => Some(ParamOp::RemoveLargestPrefix(word_flat(g))),
        _ => Some(ParamOp::Length),
    };
    // `${#name}` only supports plain names/digits.
    let op = if matches!(op, Some(ParamOp::Length))
        && !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        None
    } else {
        op
    };
    ParamExp { name, op }
}

/// A word made only of simple parts (for use inside `${x:-…}` operands).
fn word_flat(g: &mut Gen) -> Word {
    let parts = g.vec_of(1..2, |g| {
        if g.bool() {
            WordPart::Literal(safe_text(g))
        } else {
            WordPart::SingleQuoted(quoted_text(g))
        }
    });
    Word {
        parts,
        span: Span::default(),
    }
}

fn word(g: &mut Gen) -> Word {
    let parts = g.vec_of(1..3, |g| match g.weighted(&[4, 2, 2, 1, 1]) {
        0 => WordPart::Literal(safe_text(g)),
        1 => WordPart::SingleQuoted(quoted_text(g)),
        2 => WordPart::Param(param(g)),
        3 => WordPart::DoubleQuoted(g.vec_of(1..3, |g| {
            if g.bool() {
                WordPart::Literal(safe_text(g))
            } else {
                WordPart::Param(param(g))
            }
        })),
        _ => WordPart::Glob("*".to_string()),
    });
    Word {
        parts,
        span: Span::default(),
    }
}

fn simple_command(g: &mut Gen) -> Command {
    let name = ident(g);
    let args = g.vec_of(0..3, word);
    let assigns = g.vec_of(0..2, |g| (ident(g), word(g)));
    let mut words = vec![Word {
        parts: vec![WordPart::Literal(name)],
        span: Span::default(),
    }];
    words.extend(args);
    Command::Simple(SimpleCommand {
        assignments: assigns
            .into_iter()
            .map(|(name, value)| Assignment {
                name,
                value,
                span: Span::default(),
            })
            .collect(),
        words,
        redirects: Vec::new(),
        span: Span::default(),
    })
}

fn item_of(cmd: Command) -> ListItem {
    ListItem {
        and_or: AndOr::single(Pipeline {
            negated: false,
            commands: vec![cmd],
        }),
        background: false,
    }
}

fn items(g: &mut Gen, depth: usize) -> Vec<ListItem> {
    g.vec_of(1..3, |g| item_of(command(g, depth)))
}

fn command(g: &mut Gen, depth: usize) -> Command {
    if depth == 0 || g.ratio(0.35) {
        return simple_command(g);
    }
    match g.usize(0..7) {
        0 => {
            // Wrap a multi-command pipeline back into a brace group so
            // the recursion type stays Command.
            let cmds = g.vec_of(1..3, |g| command(g, depth - 1));
            let neg = g.bool();
            Command::BraceGroup(
                vec![ListItem {
                    and_or: AndOr::single(Pipeline {
                        negated: neg,
                        commands: cmds,
                    }),
                    background: false,
                }],
                Vec::new(),
                Span::default(),
            )
        }
        1 => {
            let t = items(g, depth - 1);
            let e = items(g, depth - 1);
            Command::If(
                IfClause {
                    cond: t.clone(),
                    then_body: e,
                    elifs: Vec::new(),
                    else_body: Some(t),
                },
                Vec::new(),
                Span::default(),
            )
        }
        2 => {
            let c = items(g, depth - 1);
            let b = items(g, depth - 1);
            Command::While(WhileClause { cond: c, body: b }, Vec::new(), Span::default())
        }
        3 => {
            let var = ident(g);
            let words = g.vec_of(0..3, word);
            let body = items(g, depth - 1);
            Command::For(
                ForClause {
                    var,
                    words: if words.is_empty() { None } else { Some(words) },
                    body,
                },
                Vec::new(),
                Span::default(),
            )
        }
        4 => {
            let subject = word(g);
            let arms = g.vec_of(1..3, |g| (word_flat(g), items(g, depth - 1)));
            Command::Case(
                CaseClause {
                    subject,
                    arms: arms
                        .into_iter()
                        .map(|(p, body)| CaseArm {
                            patterns: vec![p],
                            body,
                        })
                        .collect(),
                },
                Vec::new(),
                Span::default(),
            )
        }
        5 => Command::Subshell(items(g, depth - 1), Vec::new(), Span::default()),
        _ => {
            let name = ident(g);
            let body = command(g, depth - 1);
            Command::FunctionDef {
                name,
                body: std::sync::Arc::new(Command::BraceGroup(
                    vec![item_of(body)],
                    Vec::new(),
                    Span::default(),
                )),
                span: Span::default(),
            }
        }
    }
}

fn script(g: &mut Gen) -> Script {
    Script {
        items: g.vec_of(1..4, |g| item_of(command(g, 3))),
        heredocs: Vec::new(),
    }
}

#[test]
fn printed_ast_reparses_to_fixpoint() {
    run_cases("printed_ast_reparses_to_fixpoint", 192, |g| {
        let ast = script(g);
        let printed = ast.to_source();
        let reparsed = parse_script(&printed)
            .unwrap_or_else(|e| panic!("printed AST failed to parse: {e}\n---\n{printed}"));
        let reprinted = reparsed.to_source();
        assert_eq!(
            printed, reprinted,
            "print→parse→print not a fixpoint\n---\n{printed}"
        );
    });
}

#[test]
fn printed_words_survive() {
    run_cases("printed_words_survive", 192, |g| {
        // Embed a word as an argument and round-trip it.
        let w = word(g);
        let script = Script {
            items: vec![item_of(Command::Simple(SimpleCommand {
                assignments: Vec::new(),
                words: vec![
                    Word {
                        parts: vec![WordPart::Literal("cmd".to_string())],
                        span: Span::default(),
                    },
                    w,
                ],
                redirects: Vec::new(),
                span: Span::default(),
            }))],
            heredocs: Vec::new(),
        };
        let printed = script.to_source();
        let reparsed = parse_script(&printed)
            .unwrap_or_else(|e| panic!("word failed to parse: {e}\n---\n{printed}"));
        assert_eq!(printed, reparsed.to_source(), "{printed}");
    });
}

#[test]
fn random_text_never_panics_the_parser() {
    run_cases("random_text_never_panics_the_parser", 256, |g| {
        // Any byte soup either parses or errors; no panics, no hangs.
        let n = g.usize(0..81);
        let src: String = (0..n)
            .map(|_| {
                // Printable ASCII plus newline, like the old "[ -~\n]".
                let c = g.usize(0..96);
                if c == 95 {
                    '\n'
                } else {
                    (b' ' + c as u8) as char
                }
            })
            .collect();
        let _ = parse_script(&src);
    });
}
