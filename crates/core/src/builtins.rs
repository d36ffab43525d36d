//! Built-in command models.
//!
//! §3: the engine "models the behavior of key built-in commands, such as
//! `cd` and `[`, analogously to primitive functions in other programming
//! languages". The models here do three jobs:
//!
//! * **state transformation** — `cd` moves the working directory,
//!   assignments bind, `exit` halts;
//! * **forking with refinement** — `[`/`test` splits the world per
//!   outcome and *narrows symbol constraints* on each side, so a check
//!   like `[ "$x" != "/" ]` genuinely protects the then-branch (the
//!   Fig. 2 / Fig. 3 distinction);
//! * **output modeling** — `echo`/`printf`/`pwd` produce precise stdout
//!   values into command-substitution captures, and `realpath` relates
//!   its normalized output to its argument via critical-value splitting
//!   on `""` and `"/"`.

use crate::diag::{DiagCode, Diagnostic, Severity};
use crate::engine::Engine;
use crate::expand::Field;
use crate::langs;
use crate::provenance::TrailKind;
use crate::value::SymStr;
use crate::world::{ExitStatus, World};
use shoal_relang::Regex;
use shoal_shparse::Span;
use shoal_symfs::normalize_lexical;
use shoal_symfs::state::{NodeState, Require};

/// Is `name` handled by the built-in models?
pub fn is_builtin(name: &str) -> bool {
    matches!(
        name,
        "cd" | "echo"
            | "printf"
            | "pwd"
            | "exit"
            | "test"
            | "["
            | ":"
            | "true"
            | "false"
            | "export"
            | "readonly"
            | "unset"
            | "set"
            | "shift"
            | "read"
            | "realpath"
            | "eval"
            | "wait"
            | "umask"
            | "trap"
    )
}

/// Executes a built-in. `fields` excludes the command name.
pub fn exec_builtin(
    eng: &Engine,
    world: World,
    name: &str,
    fields: &[Field],
    span: Span,
) -> Vec<World> {
    match name {
        ":" | "true" | "wait" | "umask" | "trap" | "readonly" => ok(world),
        "false" => {
            let mut w = world;
            w.last_exit = ExitStatus::NonZero;
            vec![w]
        }
        "echo" => exec_echo(world, fields, false),
        "printf" => exec_echo(world, fields, true),
        "pwd" => {
            let mut w = world;
            let cwd = w.cwd.clone();
            w.emit_stdout(cwd.concat(&SymStr::lit("\n")));
            w.last_exit = ExitStatus::Zero;
            vec![w]
        }
        "exit" => {
            let mut w = world;
            w.halted = true;
            w.last_exit = match fields.first().and_then(|f| f.as_literal()) {
                Some(code) if code == "0" => ExitStatus::Zero,
                Some(_) => ExitStatus::NonZero,
                None => w.last_exit,
            };
            vec![w]
        }
        "cd" => exec_cd(eng, world, fields, span),
        "test" | "[" => {
            let mut args: Vec<&Field> = fields.iter().collect();
            if name == "[" {
                match args.last().map(|f| f.as_literal()) {
                    Some(Some(ref s)) if s == "]" => {
                        args.pop();
                    }
                    _ => {
                        let mut w = world;
                        w.last_exit = ExitStatus::NonZero;
                        return vec![w];
                    }
                }
            }
            exec_test(eng, world, &args, span)
        }
        "export" => {
            // `export X=v` assignments were already applied by the
            // caller's assignment handling; `export X` is a no-op here.
            ok(world)
        }
        "unset" => {
            let mut w = world;
            for f in fields {
                if let Some(n) = f.as_literal() {
                    w.vars.remove(&n);
                }
            }
            w.last_exit = ExitStatus::Zero;
            vec![w]
        }
        "set" => ok(world),
        "shift" => {
            let mut w = world;
            let n: usize = fields
                .first()
                .and_then(|f| f.as_literal())
                .and_then(|s| s.parse().ok())
                .unwrap_or(1);
            // With the lazy-positional model the argument count is
            // unbounded; shifting always succeeds.
            w.shift_positional(n);
            w.last_exit = ExitStatus::Zero;
            vec![w]
        }
        "read" => {
            let mut w = world;
            for f in fields {
                if let Some(n) = f.as_literal() {
                    if !n.starts_with('-') {
                        let v = w.fresh_sym(Regex::any_line(), &format!("read:{n}"));
                        w.set_var(&n, v);
                    }
                }
            }
            w.last_exit = ExitStatus::Unknown;
            vec![w]
        }
        "realpath" => exec_realpath(eng, world, fields, span),
        "eval" => {
            // Dynamic evaluation is the analyzer's hard boundary: havoc.
            let mut w = world;
            w.report(Diagnostic::new(
                DiagCode::AnalysisIncomplete,
                Severity::Note,
                span,
                "`eval` executes dynamically-constructed code; analysis does not follow it",
            )
            .with_origin("builtin:eval"));
            w.last_exit = ExitStatus::Unknown;
            vec![w]
        }
        other => {
            debug_assert!(!is_builtin(other), "missing dispatch arm for {other}");
            ok(world)
        }
    }
}

fn ok(mut world: World) -> Vec<World> {
    world.last_exit = ExitStatus::Zero;
    vec![world]
}

fn exec_echo(mut world: World, fields: &[Field], printf: bool) -> Vec<World> {
    let mut args: Vec<SymStr> = fields.iter().map(|f| f.value()).collect();
    let mut newline = !printf;
    if !printf {
        if args.first().and_then(SymStr::as_literal).as_deref() == Some("-n") {
            newline = false;
            args.remove(0);
        }
    } else if !args.is_empty() {
        // `printf FMT ARGS…`: approximate the output as the format with
        // the arguments substituted positionally — precise only when the
        // format is `%s`-like; otherwise degrade to concatenation.
        args = vec![args.iter().skip(1).fold(
            match args[0].as_literal() {
                Some(fmt) => SymStr::lit(fmt.split('%').next().unwrap_or("")),
                None => args[0].clone(),
            },
            |acc, a| acc.concat(a),
        )];
    }
    let mut out = SymStr::empty();
    for (i, v) in args.iter().enumerate() {
        if i > 0 {
            out = out.concat(&SymStr::lit(" "));
        }
        out = out.concat(v);
    }
    if newline {
        out = out.concat(&SymStr::lit("\n"));
    }
    world.emit_stdout(out);
    world.last_exit = ExitStatus::Zero;
    vec![world]
}

fn exec_cd(eng: &Engine, world: World, fields: &[Field], span: Span) -> Vec<World> {
    let mut out = Vec::new();
    let target = match fields.first() {
        Some(f) => f.value(),
        None => {
            // `cd` alone goes to $HOME.
            let mut w = world;
            let home = match w.get_var("HOME").cloned() {
                Some(h) => h,
                None => {
                    let v = w.fresh_sym(langs::ABSOLUTE_PATH.clone(), "$HOME");
                    w.set_var("HOME", v.clone());
                    v
                }
            };
            w.cwd = home;
            w.last_exit = ExitStatus::Zero;
            return vec![w];
        }
    };
    // `cd ""` fails in most shells without changing directory.
    if target.is_literal_empty() {
        let mut w = world;
        w.last_exit = ExitStatus::NonZero;
        return vec![w];
    }
    let mut w0 = world;
    // A target that *may* expand to the empty string is a likely bug in
    // its own right (the empty expansion silently fails or, in some
    // shells, goes to $HOME) — note it once.
    if target.as_literal().is_none() && target.may_be_empty() {
        w0.report(Diagnostic::new(
            DiagCode::MaybeEmptyExpansion,
            Severity::Note,
            span,
            format!(
                "cd target {} may expand to the empty string; cd then fails (and some \
                 shells go to $HOME instead)",
                target.describe()
            ),
        )
        .with_origin("builtin:cd"));
    }
    let key = w0.fs_key(&target);
    let parent = w0.id;
    // Success world: target is a directory (and in particular not the
    // empty string — `cd ""` fails).
    {
        let mut w = w0.clone();
        let mut feasible = match &key {
            Some(k) => w.fs.require(k, NodeState::Dir).ok(),
            None => true,
        };
        let mut target = target.clone();
        if let Some((id, constraint)) = target.as_single_sym() {
            if constraint.nullable() && eng.opts.enable_pruning {
                let nonempty = Regex::any_byte().then(&Regex::anything());
                feasible = feasible && w.refine_sym(id, &nonempty);
                target.refine_sym(id, &nonempty);
                target.concretize();
            }
        }
        let text = format!("cd {} succeeds", target.describe());
        if feasible {
            w.cwd = absolutize(&w, &target);
            eng.branch_child(parent, &mut w, "cd", span, TrailKind::Branch, text);
            w.last_exit = ExitStatus::Zero;
            out.push(w);
        } else {
            eng.branch_pruned(parent, "cd", span, text);
        }
    }
    // Failure world: target is absent or not a directory.
    {
        let mut w = w0.clone();
        let feasible = match &key {
            Some(k) => {
                let mut probe = w.fs.clone();
                match probe.require(k, NodeState::Absent) {
                    Require::Contradiction(_) => {
                        // Could still be a file.
                        !matches!(w.fs.require(k, NodeState::File), Require::Contradiction(_))
                    }
                    _ => {
                        w.fs = probe;
                        true
                    }
                }
            }
            None => true,
        };
        let text = format!("cd {} fails", target.describe());
        if feasible {
            eng.branch_child(parent, &mut w, "cd", span, TrailKind::Branch, text);
            w.last_exit = ExitStatus::NonZero;
            out.push(w);
        } else {
            eng.branch_pruned(parent, "cd", span, text);
        }
    }
    if out.is_empty() {
        w0.last_exit = ExitStatus::Unknown;
        out.push(w0);
    }
    out
}

/// Makes a cd target into the new cwd value: literals join; symbolic
/// absolutish values are taken as-is.
fn absolutize(world: &World, target: &SymStr) -> SymStr {
    if let Some(text) = target.as_literal() {
        if text.starts_with('/') {
            return SymStr::lit(&normalize_lexical(&text));
        }
        if let Some(cwd) = world.cwd.as_literal() {
            return SymStr::lit(&shoal_symfs::join(&cwd, &text));
        }
        return world.cwd.concat(&SymStr::lit(&format!("/{text}")));
    }
    target.clone()
}

/// Models `realpath ARG` with critical-value splitting (see crate docs):
/// the output is related to the input at exactly the values that matter
/// for root-wipe reasoning: `""` and `"/"`.
fn exec_realpath(eng: &Engine, world: World, fields: &[Field], span: Span) -> Vec<World> {
    let Some(f) = fields.iter().find(|f| {
        f.value()
            .as_literal()
            .map(|t| !t.starts_with('-'))
            .unwrap_or(true)
    }) else {
        let mut w = world;
        w.last_exit = ExitStatus::NonZero;
        return vec![w];
    };
    let arg = f.value();
    if let Some(text) = arg.as_literal() {
        let mut w = world;
        let resolved = if text.starts_with('/') {
            normalize_lexical(&text)
        } else if let Some(cwd) = w.cwd.as_literal() {
            shoal_symfs::join(&cwd, &text)
        } else {
            // Unknown cwd: symbolic absolute output.
            let v = w.fresh_sym(langs::ABSOLUTE_PATH.clone(), &format!("realpath {}", text));
            w.emit_stdout(v.concat(&SymStr::lit("\n")));
            w.last_exit = ExitStatus::Zero;
            return vec![w];
        };
        w.emit_stdout(SymStr::lit(&format!("{resolved}\n")));
        w.last_exit = ExitStatus::Zero;
        return vec![w];
    }
    // Symbolic argument: split at the critical values. The argument is
    // usually `⟨sym⟩` or `⟨sym⟩/` (Fig. 2 appends a slash). With pruning
    // disabled (the E9 ablation) the correlation is dropped entirely.
    let mut out = Vec::new();
    if !eng.opts.enable_pruning {
        let mut w = world;
        let v = w.fresh_sym(
            langs::ABSOLUTE_PATH.clone(),
            &format!("realpath {}", arg.describe()),
        );
        w.emit_stdout(v.concat(&SymStr::lit("\n")));
        w.last_exit = ExitStatus::Zero;
        return vec![w];
    }
    let sym = arg.segs().iter().find_map(|s| match s {
        crate::value::Seg::Sym { id, .. } => Some(*id),
        _ => None,
    });
    let suffix: String = arg
        .segs()
        .iter()
        .skip_while(|s| !matches!(s, crate::value::Seg::Sym { .. }))
        .filter_map(|s| match s {
            crate::value::Seg::Lit(t) => Some(t.as_str()),
            _ => None,
        })
        .collect();
    let critical = ["", "/"];
    let parent = world.id;
    if let Some(id) = sym {
        for crit in critical {
            let mut w = world.clone();
            let text = format!("{} = {:?}", arg.describe(), crit);
            if !w.refine_sym(id, &Regex::lit(crit)) {
                eng.branch_pruned(parent, "realpath", span, text);
                continue;
            }
            let resolved = normalize_lexical(&format!("{crit}{suffix}"));
            let resolved = if resolved.starts_with('/') {
                resolved
            } else {
                "/".to_string()
            };
            eng.branch_child(parent, &mut w, "realpath", span, TrailKind::Constraint, text);
            w.emit_stdout(SymStr::lit(&format!("{resolved}\n")));
            w.last_exit = ExitStatus::Zero;
            out.push(w);
        }
        // The non-critical world: output is an absolute path ≠ "/".
        let mut w = world.clone();
        let neither = Regex::lit("").or(&Regex::lit("/")).complement();
        let text = format!("{} is neither \"\" nor \"/\"", arg.describe());
        if w.refine_sym(id, &neither) {
            let v = w.fresh_sym(
                langs::NON_ROOT_PATH.clone(),
                &format!("realpath {}", arg.describe()),
            );
            eng.branch_child(parent, &mut w, "realpath", span, TrailKind::Constraint, text);
            w.emit_stdout(v.concat(&SymStr::lit("\n")));
            w.last_exit = ExitStatus::Zero;
            out.push(w);
        } else {
            eng.branch_pruned(parent, "realpath", span, text);
        }
    }
    if out.is_empty() {
        let mut w = world;
        let v = w.fresh_sym(
            langs::ABSOLUTE_PATH.clone(),
            &format!("realpath {}", arg.describe()),
        );
        w.emit_stdout(v.concat(&SymStr::lit("\n")));
        w.last_exit = ExitStatus::Zero;
        out.push(w);
    }
    out
}

/// Evaluates `test` arguments, forking per outcome with refinement.
fn exec_test(eng: &Engine, world: World, args: &[&Field], span: Span) -> Vec<World> {
    let vals: Vec<SymStr> = args.iter().map(|f| f.value()).collect();
    let lits: Vec<Option<String>> = vals.iter().map(SymStr::as_literal).collect();
    match vals.len() {
        0 => {
            let mut w = world;
            w.last_exit = ExitStatus::NonZero;
            vec![w]
        }
        1 => {
            // `test STRING`: true iff non-empty.
            fork_on_emptiness(eng, world, &vals[0], /* true_when_empty */ false, span)
        }
        2 => {
            let op = lits[0].as_deref();
            match op {
                Some("-z") => fork_on_emptiness(eng, world, &vals[1], true, span),
                Some("-n") => fork_on_emptiness(eng, world, &vals[1], false, span),
                Some("!") => negate_all(exec_test(eng, world, &args[1..], span)),
                Some("-e") => fork_on_fs(eng, world, &vals[1], NodeState::Exists, span),
                Some("-f") | Some("-s") | Some("-r") | Some("-w") | Some("-x") => {
                    fork_on_fs(eng, world, &vals[1], NodeState::File, span)
                }
                Some("-d") => fork_on_fs(eng, world, &vals[1], NodeState::Dir, span),
                _ => fork_on_emptiness(eng, world, &vals[1], false, span),
            }
        }
        3 => {
            if lits[0].as_deref() == Some("!") {
                return negate_all(exec_test(eng, world, &args[1..], span));
            }
            let op = lits[1].as_deref();
            match op {
                Some("=") | Some("==") => fork_on_equality(eng, world, &vals[0], &vals[2], false, span),
                Some("!=") => fork_on_equality(eng, world, &vals[0], &vals[2], true, span),
                Some(num_op @ ("-eq" | "-ne" | "-lt" | "-le" | "-gt" | "-ge")) => {
                    let result = match (&lits[0], &lits[2]) {
                        (Some(a), Some(b)) => {
                            match (a.trim().parse::<i64>(), b.trim().parse::<i64>()) {
                                (Ok(a), Ok(b)) => Some(match num_op {
                                    "-eq" => a == b,
                                    "-ne" => a != b,
                                    "-lt" => a < b,
                                    "-le" => a <= b,
                                    "-gt" => a > b,
                                    _ => a >= b,
                                }),
                                _ => None,
                            }
                        }
                        _ => None,
                    };
                    let mut w = world;
                    w.last_exit = match result {
                        Some(true) => ExitStatus::Zero,
                        Some(false) => ExitStatus::NonZero,
                        None => ExitStatus::Unknown,
                    };
                    vec![w]
                }
                _ => {
                    let mut w = world;
                    w.last_exit = ExitStatus::Unknown;
                    vec![w]
                }
            }
        }
        _ => {
            if lits[0].as_deref() == Some("!") {
                return negate_all(exec_test(eng, world, &args[1..], span));
            }
            // `-a` / `-o` and longer forms: give up precisely, stay sound.
            let mut w = world;
            w.last_exit = ExitStatus::Unknown;
            vec![w]
        }
    }
}

fn negate_all(mut worlds: Vec<World>) -> Vec<World> {
    for w in worlds.iter_mut() {
        w.last_exit = w.last_exit.negate();
    }
    worlds
}

/// Forks on a value being empty vs. non-empty, refining constraints.
fn fork_on_emptiness(
    eng: &Engine,
    world: World,
    v: &SymStr,
    true_when_empty: bool,
    span: Span,
) -> Vec<World> {
    let status = |empty: bool| {
        if empty == true_when_empty {
            ExitStatus::Zero
        } else {
            ExitStatus::NonZero
        }
    };
    if v.is_literal_empty() {
        let mut w = world;
        w.last_exit = status(true);
        return vec![w];
    }
    if v.must_be_nonempty() {
        let mut w = world;
        w.last_exit = status(false);
        return vec![w];
    }
    let mut out = Vec::new();
    let sym = v.as_single_sym().map(|(id, _)| id);
    let parent = world.id;
    // Empty world.
    {
        let mut w = world.clone();
        let feasible = match (sym, eng.opts.enable_pruning) {
            (Some(id), true) => w.refine_sym(id, &Regex::eps()),
            _ => true,
        };
        let text = format!("{} is empty", v.describe());
        if feasible {
            eng.branch_child(parent, &mut w, "test_empty", span, TrailKind::Constraint, text);
            w.last_exit = status(true);
            out.push(w);
        } else {
            eng.branch_pruned(parent, "test_empty", span, text);
        }
    }
    // Non-empty world.
    {
        let mut w = world;
        let nonempty = Regex::any_byte().then(&Regex::anything());
        let feasible = match (sym, eng.opts.enable_pruning) {
            (Some(id), true) => w.refine_sym(id, &nonempty),
            _ => true,
        };
        let text = format!("{} is non-empty", v.describe());
        if feasible {
            eng.branch_child(parent, &mut w, "test_empty", span, TrailKind::Constraint, text);
            w.last_exit = status(false);
            out.push(w);
        } else {
            eng.branch_pruned(parent, "test_empty", span, text);
        }
    }
    out
}

/// Forks on string (in)equality, refining single-symbol sides against
/// literal sides.
fn fork_on_equality(
    eng: &Engine,
    world: World,
    a: &SymStr,
    b: &SymStr,
    negated: bool,
    span: Span,
) -> Vec<World> {
    let status = |eq: bool| {
        if eq != negated {
            ExitStatus::Zero
        } else {
            ExitStatus::NonZero
        }
    };
    if let (Some(x), Some(y)) = (a.as_literal(), b.as_literal()) {
        let mut w = world;
        w.last_exit = status(x == y);
        return vec![w];
    }
    // One side symbolic: decide definite cases via languages.
    let la = a.to_regex();
    let lb = b.to_regex();
    if la.disjoint(&lb) {
        let mut w = world;
        w.last_exit = status(false);
        return vec![w];
    }
    // Refinement is possible when one side is a single symbol and the
    // other is literal.
    let (sym_side, lit_side) = match (
        a.as_single_sym(),
        b.as_literal(),
        b.as_single_sym(),
        a.as_literal(),
    ) {
        (Some((id, _)), Some(lit), _, _) => (Some(id), Some(lit)),
        (_, _, Some((id, _)), Some(lit)) => (Some(id), Some(lit)),
        _ => (None, None),
    };
    let mut out = Vec::new();
    let parent = world.id;
    // Equal world.
    {
        let mut w = world.clone();
        let feasible = match (&sym_side, &lit_side, eng.opts.enable_pruning) {
            (Some(id), Some(lit), true) => w.refine_sym(*id, &Regex::lit(lit)),
            _ => true,
        };
        let text = format!("{} = {}", a.describe(), b.describe());
        if feasible {
            eng.branch_child(parent, &mut w, "test_eq", span, TrailKind::Constraint, text);
            w.last_exit = status(true);
            out.push(w);
        } else {
            eng.branch_pruned(parent, "test_eq", span, text);
        }
    }
    // Unequal world.
    {
        let mut w = world;
        let feasible = match (&sym_side, &lit_side, eng.opts.enable_pruning) {
            (Some(id), Some(lit), true) => w.refine_sym(*id, &Regex::lit(lit).complement()),
            _ => true,
        };
        let text = format!("{} != {}", a.describe(), b.describe());
        if feasible {
            eng.branch_child(parent, &mut w, "test_eq", span, TrailKind::Constraint, text);
            w.last_exit = status(false);
            out.push(w);
        } else {
            eng.branch_pruned(parent, "test_eq", span, text);
        }
    }
    out
}

/// Forks on a file-system predicate, refining the symbolic heap.
fn fork_on_fs(eng: &Engine, world: World, v: &SymStr, want: NodeState, span: Span) -> Vec<World> {
    let mut w0 = world;
    let key = w0.fs_key(v);
    let Some(key) = key else {
        w0.last_exit = ExitStatus::Unknown;
        return vec![w0];
    };
    let mut out = Vec::new();
    let parent = w0.id;
    // True world.
    {
        let mut w = w0.clone();
        let text = format!("{key} is {want}");
        if w.fs.require(&key, want).ok() {
            eng.branch_child(parent, &mut w, "test_fs", span, TrailKind::FsState, text);
            w.last_exit = ExitStatus::Zero;
            out.push(w);
        } else {
            eng.branch_pruned(parent, "test_fs", span, text);
        }
    }
    // False world: the complementary states.
    let complements: &[NodeState] = match want {
        NodeState::Exists => &[NodeState::Absent],
        NodeState::File => &[NodeState::Absent, NodeState::Dir],
        NodeState::Dir => &[NodeState::Absent, NodeState::File],
        NodeState::Absent => &[NodeState::Exists],
    };
    for &c in complements {
        let mut w = w0.clone();
        let text = format!("{key} is {c}");
        if w.fs.require(&key, c).ok() {
            eng.branch_child(parent, &mut w, "test_fs", span, TrailKind::FsState, text);
            w.last_exit = ExitStatus::NonZero;
            out.push(w);
        } else {
            eng.branch_pruned(parent, "test_fs", span, text);
        }
    }
    if out.is_empty() {
        w0.last_exit = ExitStatus::Unknown;
        out.push(w0);
    }
    out
}
