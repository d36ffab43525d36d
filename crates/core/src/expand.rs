//! Symbolic word expansion.
//!
//! Expansion is where the shell's dynamicity lives, and where the engine
//! earns its keep: a single word like `"$(cd "${0%/*}" && echo $PWD)"`
//! forks the world several ways (did the `%` pattern match? did `cd`
//! succeed?), and each resulting world carries a differently-constrained
//! value. [`expand_word`] is the monadic workhorse: it returns one
//! `(world, fields)` pair per feasible combination.
//!
//! Expansion also tracks *glob activity*: which chunks of a field came
//! from unquoted positions (where `*` is live). This is what makes the
//! analysis "robust to semantically-equivalent syntactic variants" (§3):
//! `"$STEAMROOT"/*` and `c="/*"; … $STEAMROOT$c` produce the same
//! (base, active `/*` tail) shape.

use crate::engine::Engine;
use crate::glob::{remove_affix, word_pattern_to_regex, Affix};
use crate::langs;
use crate::provenance::TrailKind;
use crate::value::{Seg, SymStr};
use crate::world::World;
use shoal_relang::Regex;
use shoal_shparse::{ParamExp, ParamOp, Span, Word, WordPart};

/// Worlds paired with a per-world result.
pub type Branches<T> = Vec<(World, T)>;

/// One chunk of an expanded field: the value plus whether glob
/// metacharacters inside it are active (unquoted).
#[derive(Debug, Clone)]
pub struct Chunk {
    /// The text value.
    pub value: SymStr,
    /// True when the chunk came from an unquoted position.
    pub glob_active: bool,
    /// True when the chunk is an unquoted expansion result, subject to
    /// field splitting.
    pub splittable_expansion: bool,
}

/// One expanded command-line field.
#[derive(Debug, Clone, Default)]
pub struct Field {
    /// Chunks in order.
    pub chunks: Vec<Chunk>,
}

impl Field {
    /// The whole field as one value (glob characters as literal text).
    pub fn value(&self) -> SymStr {
        let mut out = SymStr::empty();
        for c in &self.chunks {
            out = out.concat(&c.value);
        }
        out
    }

    /// The field's text when it is fully literal (what
    /// `self.value().as_literal()` is, without building the value).
    pub fn as_literal(&self) -> Option<String> {
        let mut out = String::new();
        for c in &self.chunks {
            for seg in c.value.segs() {
                match seg {
                    Seg::Lit(s) => out.push_str(s),
                    Seg::Sym { .. } => return None,
                }
            }
        }
        Some(out)
    }

    /// Splits the field into a base value and a trailing *active glob
    /// tail*: the longest suffix of literal, glob-active text containing
    /// a metacharacter. `rm -fr "$STEAMROOT"/*` and the `$STEAMROOT$c`
    /// variant both yield (`$STEAMROOT`, Some("/*")).
    pub fn split_trailing_glob(&self) -> (SymStr, Option<String>) {
        let mut tail = String::new();
        let mut split_at = self.chunks.len();
        for (i, c) in self.chunks.iter().enumerate().rev() {
            match (c.glob_active, c.value.as_literal()) {
                (true, Some(text)) => {
                    tail.insert_str(0, &text);
                    split_at = i;
                }
                _ => break,
            }
        }
        if tail.contains('*') || tail.contains('?') || tail.contains('[') {
            let mut base = SymStr::empty();
            for c in &self.chunks[..split_at] {
                base = base.concat(&c.value);
            }
            (base, Some(tail))
        } else {
            (self.value(), None)
        }
    }

    /// Shorthand used by diagnostics.
    pub fn describe(&self) -> String {
        self.value().describe()
    }
}

/// Expands a word into fields (with field splitting of unquoted literal
/// expansions).
pub fn expand_word(eng: &Engine, world: World, word: &Word) -> Branches<Vec<Field>> {
    let chunked = expand_chunks(eng, world, word);
    chunked
        .into_iter()
        .map(|(w, chunks)| (w, split_fields(chunks)))
        .collect()
}

/// Expands a word into a single value (no field splitting): assignment
/// values, `case` subjects, redirect targets, `${x:-w}` operands.
pub fn expand_word_single(eng: &Engine, world: World, word: &Word) -> Branches<SymStr> {
    expand_chunks(eng, world, word)
        .into_iter()
        .map(|(w, chunks)| (w, concat_chunks(&chunks)))
        .collect()
}

/// The fields of a *static* word — one made only of literal text,
/// quotes and glob characters — which expands the same way in every
/// world without reading or changing it. `None` when the word has a
/// parameter, command substitution, tilde or arithmetic part.
pub fn static_fields(word: &Word) -> Option<Vec<Field>> {
    static_chunks(word).map(split_fields)
}

/// The value of a static word (see [`static_fields`]) as
/// [`expand_word_single`] would produce it.
pub fn static_value(word: &Word) -> Option<SymStr> {
    static_chunks(word).map(|chunks| concat_chunks(&chunks))
}

fn concat_chunks(chunks: &[Chunk]) -> SymStr {
    let mut v = SymStr::empty();
    for c in chunks {
        v = v.concat(&c.value);
    }
    v
}

/// The chunks [`expand_chunks`] yields for a static word, in its one
/// branch.
fn static_chunks(word: &Word) -> Option<Vec<Chunk>> {
    let mut chunks = Vec::new();
    for part in &word.parts {
        match part {
            WordPart::DoubleQuoted(inner) => {
                for p in inner {
                    chunks.push(literal_chunk(p, true)?);
                }
            }
            p => chunks.push(literal_chunk(p, false)?),
        }
    }
    Some(chunks)
}

/// The chunk of a literal, single-quoted or glob part; `None` for any
/// other part.
fn literal_chunk(part: &WordPart, quoted: bool) -> Option<Chunk> {
    let (text, glob_active) = match part {
        WordPart::Literal(s) | WordPart::Glob(s) => (s, !quoted),
        WordPart::SingleQuoted(s) => (s, false),
        _ => return None,
    };
    Some(Chunk {
        value: SymStr::lit(text),
        glob_active,
        splittable_expansion: false,
    })
}

/// Field-splits a chunk sequence: unquoted literal chunks containing
/// whitespace split fields; everything else concatenates. (Splitting of
/// *symbolic* unquoted values is approximated as no-split; see
/// DESIGN.md.)
fn split_fields(chunks: Vec<Chunk>) -> Vec<Field> {
    let mut fields: Vec<Field> = Vec::new();
    let mut current: Option<Field> = None;
    for chunk in chunks {
        match chunk.splittable_text() {
            Some(text) if text.chars().any(|c| c.is_ascii_whitespace()) => {
                let leading = text.starts_with(|c: char| c.is_ascii_whitespace());
                let trailing = text.ends_with(|c: char| c.is_ascii_whitespace());
                if leading {
                    if let Some(f) = current.take() {
                        fields.push(f);
                    }
                }
                let pieces: Vec<&str> = text.split_ascii_whitespace().collect();
                for (i, piece) in pieces.iter().enumerate() {
                    if i > 0 {
                        if let Some(f) = current.take() {
                            fields.push(f);
                        }
                    }
                    current
                        .get_or_insert_with(Field::default)
                        .chunks
                        .push(Chunk {
                            value: SymStr::lit(piece),
                            glob_active: chunk.glob_active,
                            splittable_expansion: false,
                        });
                }
                if trailing {
                    if let Some(f) = current.take() {
                        fields.push(f);
                    }
                }
            }
            _ => {
                current
                    .get_or_insert_with(Field::default)
                    .chunks
                    .push(chunk);
            }
        }
    }
    if let Some(f) = current {
        fields.push(f);
    }
    fields
}

impl Chunk {
    /// The literal text of a *splittable* chunk: from an unquoted
    /// expansion whose value is known. `None` for quoted or symbolic
    /// chunks (which never split).
    fn splittable_text(&self) -> Option<String> {
        if self.splittable_expansion {
            self.value.as_literal()
        } else {
            None
        }
    }
}

/// Expands a word to chunks without splitting.
fn expand_chunks(eng: &Engine, world: World, word: &Word) -> Branches<Vec<Chunk>> {
    let mut states: Branches<Vec<Chunk>> = vec![(world, Vec::new())];
    for part in &word.parts {
        let mut next: Branches<Vec<Chunk>> = Vec::new();
        for (w, chunks) in states {
            for (w2, mut new_chunks) in expand_part(eng, w, part, false) {
                let mut all = chunks.clone();
                all.append(&mut new_chunks);
                next.push((w2, all));
            }
        }
        states = next;
    }
    states
}

fn expand_part(eng: &Engine, world: World, part: &WordPart, quoted: bool) -> Branches<Vec<Chunk>> {
    match part {
        WordPart::Literal(_) | WordPart::SingleQuoted(_) | WordPart::Glob(_) => {
            vec![(world, literal_chunk(part, quoted).into_iter().collect())]
        }
        WordPart::Tilde(user) => {
            let mut w = world;
            let label = match user {
                Some(u) => format!("~{u}"),
                None => "$HOME".to_string(),
            };
            let home = match w.get_var("HOME").cloned() {
                Some(h) if user.is_none() => h,
                _ => {
                    let v = w.fresh_sym(langs::ABSOLUTE_PATH.clone(), &label);
                    if user.is_none() {
                        w.set_var("HOME", v.clone());
                    }
                    v
                }
            };
            vec![(
                w,
                vec![Chunk {
                    value: home,
                    glob_active: false,
                    splittable_expansion: false,
                }],
            )]
        }
        WordPart::DoubleQuoted(inner) => {
            let mut states: Branches<Vec<Chunk>> = vec![(world, Vec::new())];
            for p in inner {
                let mut next = Vec::new();
                for (w, chunks) in states {
                    for (w2, mut produced) in expand_part(eng, w, p, true) {
                        let mut all = chunks.clone();
                        for c in produced.iter_mut() {
                            c.glob_active = false;
                            c.splittable_expansion = false;
                        }
                        all.append(&mut produced);
                        next.push((w2, all));
                    }
                }
                states = next;
            }
            states
        }
        WordPart::Param(pe) => expand_param(eng, world, pe, quoted)
            .into_iter()
            .map(|(w, v)| {
                (
                    w,
                    vec![Chunk {
                        value: v,
                        glob_active: !quoted,
                        splittable_expansion: !quoted,
                    }],
                )
            })
            .collect(),
        WordPart::CmdSub(script) => eng
            .exec_capture(world, script)
            .into_iter()
            .map(|(w, v)| {
                (
                    w,
                    vec![Chunk {
                        value: v,
                        glob_active: !quoted,
                        splittable_expansion: !quoted,
                    }],
                )
            })
            .collect(),
        WordPart::Arith(_) => {
            let mut w = world;
            let v = w.fresh_sym(langs::INTEGER.clone(), "$((…))");
            vec![(
                w,
                vec![Chunk {
                    value: v,
                    glob_active: !quoted,
                    splittable_expansion: false,
                }],
            )]
        }
    }
}

/// Expands one parameter expansion, forking per feasible case.
pub fn expand_param(
    eng: &Engine,
    mut world: World,
    pe: &ParamExp,
    quoted: bool,
) -> Branches<SymStr> {
    let current = world.param(&pe.name);
    match &pe.op {
        None => {
            let v = current.unwrap_or_default();
            vec![(world, v)]
        }
        Some(ParamOp::Length) => {
            let v = match current.and_then(|v| v.as_literal()) {
                Some(text) => SymStr::lit(&text.len().to_string()),
                None => world.fresh_sym(langs::DECIMAL.clone(), &format!("${{#{}}}", pe.name)),
            };
            vec![(world, v)]
        }
        Some(ParamOp::Default(word, colon)) => split_on_unset(
            eng,
            world,
            &pe.name,
            current,
            *colon,
            |w, v| vec![(w, v)],
            |eng, w| expand_word_single(eng, w, word),
        ),
        Some(ParamOp::Assign(word, colon)) => {
            let name = pe.name.clone();
            split_on_unset(
                eng,
                world,
                &pe.name,
                current,
                *colon,
                |w, v| vec![(w, v)],
                move |eng, w| {
                    expand_word_single(eng, w, word)
                        .into_iter()
                        .map(|(mut w2, v)| {
                            w2.set_var(&name, v.clone());
                            (w2, v)
                        })
                        .collect()
                },
            )
        }
        Some(ParamOp::Alt(word, colon)) => {
            // `${x:+w}`: the *inverse* of default.
            split_on_unset(
                eng,
                world,
                &pe.name,
                current,
                *colon,
                |w, _v| {
                    // Set (and nonempty, with colon): use the alternative.
                    expand_word_single(eng, w, word)
                },
                |_eng, w| vec![(w, SymStr::empty())],
            )
        }
        Some(ParamOp::Error(msg, colon)) => {
            let name = pe.name.clone();
            let msg_text = msg
                .as_ref()
                .and_then(|m| m.as_literal())
                .unwrap_or_else(|| "parameter null or not set".to_string());
            split_on_unset(
                eng,
                world,
                &pe.name,
                current,
                *colon,
                |w, v| vec![(w, v)],
                move |_eng, mut w| {
                    // The shell aborts here.
                    w.assume(format!("${{{name}:?}} aborted: {msg_text}"));
                    w.halted = true;
                    w.last_exit = crate::world::ExitStatus::NonZero;
                    vec![(w, SymStr::empty())]
                },
            )
        }
        Some(
            op @ (ParamOp::RemoveSmallestSuffix(pat)
            | ParamOp::RemoveLargestSuffix(pat)
            | ParamOp::RemoveSmallestPrefix(pat)
            | ParamOp::RemoveLargestPrefix(pat)),
        ) => {
            let _ = quoted;
            let (affix, longest) = match op {
                ParamOp::RemoveSmallestSuffix(_) => (Affix::Suffix, false),
                ParamOp::RemoveLargestSuffix(_) => (Affix::Suffix, true),
                ParamOp::RemoveSmallestPrefix(_) => (Affix::Prefix, false),
                ParamOp::RemoveLargestPrefix(_) => (Affix::Prefix, true),
                _ => unreachable!("outer match"),
            };
            let value = current.unwrap_or_default();
            // The pattern itself may expand; handle the common literal
            // case precisely, everything else as "unknown pattern".
            let pattern = word_pattern_to_regex(pat);
            let source_sym = value.as_single_sym().map(|(id, _)| id);
            let mut out = Vec::new();
            let mut fresh_world = world.clone();
            let mut fresh = || fresh_world.fresh_sym_id();
            let cases = remove_affix(&value, &pattern, affix, longest, &mut fresh);
            let consumed = fresh_world;
            let parent = consumed.id;
            let forked = cases.len() > 1;
            for case in cases {
                let mut w = consumed.clone();
                let text = if case.condition.is_empty() {
                    "affix removal".to_string()
                } else {
                    case.condition.clone()
                };
                if let (Some(id), Some(refine), true) = (
                    source_sym,
                    case.source_refinement.as_ref(),
                    eng.opts.enable_pruning,
                ) {
                    if !w.refine_sym(id, refine) {
                        // Infeasible case.
                        eng.branch_pruned(parent, "remove_affix", Span::new(0, 0, 0), text);
                        continue;
                    }
                }
                if forked {
                    eng.branch_child(
                        parent,
                        &mut w,
                        "remove_affix",
                        Span::new(0, 0, 0),
                        TrailKind::Constraint,
                        text,
                    );
                } else if !case.condition.is_empty() {
                    w.assume(case.condition.clone());
                }
                out.push((w, case.result));
            }
            if out.is_empty() {
                out.push((world, SymStr::empty()));
            }
            out
        }
    }
}

/// Forks on "parameter is set (and nonempty with `colon`)" vs. not.
/// `on_set` receives the current value; `on_unset` computes the
/// replacement.
fn split_on_unset(
    eng: &Engine,
    world: World,
    name: &str,
    current: Option<SymStr>,
    colon: bool,
    on_set: impl FnOnce(World, SymStr) -> Branches<SymStr>,
    on_unset: impl FnOnce(&Engine, World) -> Branches<SymStr>,
) -> Branches<SymStr> {
    match current {
        None => on_unset(eng, world),
        Some(v) => {
            if !colon {
                return on_set(world, v);
            }
            // With colon, empty counts as unset.
            if v.is_literal_empty() {
                return on_unset(eng, world);
            }
            if v.must_be_nonempty() {
                return on_set(world, v);
            }
            // May be either: fork with refinement.
            let mut out = Vec::new();
            let sym = v.as_single_sym().map(|(id, _)| id);
            let mut set_world = world.clone();
            let mut set_val = v.clone();
            let mut feasible = true;
            if let (Some(id), true) = (sym, eng.opts.enable_pruning) {
                let nonempty = Regex::any_byte().then(&Regex::anything());
                feasible = set_world.refine_sym(id, &nonempty);
                set_val.refine_sym(id, &nonempty);
                set_val.concretize();
            }
            let mut unset_world = world;
            let mut unset_ok = true;
            if let (Some(id), true) = (sym, eng.opts.enable_pruning) {
                unset_ok = unset_world.refine_sym(id, &Regex::eps());
            }
            let parent = unset_world.id;
            let set_text = format!("${name} is non-empty");
            if feasible {
                eng.branch_child(
                    parent,
                    &mut set_world,
                    "param_split",
                    Span::new(0, 0, 0),
                    TrailKind::Constraint,
                    set_text,
                );
                out.extend(on_set(set_world, set_val));
            } else {
                eng.branch_pruned(parent, "param_split", Span::new(0, 0, 0), set_text);
            }
            let unset_text = format!("${name} is empty");
            if unset_ok {
                eng.branch_child(
                    parent,
                    &mut unset_world,
                    "param_split",
                    Span::new(0, 0, 0),
                    TrailKind::Constraint,
                    unset_text,
                );
                out.extend(on_unset(eng, unset_world));
            } else {
                eng.branch_pruned(parent, "param_split", Span::new(0, 0, 0), unset_text);
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::AnalysisOptions;
    use crate::engine::Engine;
    use shoal_shparse::parse_script;

    fn eng() -> Engine<'static> {
        Engine::new(AnalysisOptions::default())
    }

    /// Expands the words of `cmd` (a one-command script) in a fresh
    /// world, returning the fields of the first branch.
    fn fields_of(cmd: &str) -> Vec<Field> {
        let script = parse_script(cmd).unwrap();
        let shoal_shparse::Command::Simple(sc) = &script.items[0].and_or.first.commands[0] else {
            panic!("expected simple command");
        };
        let engine = eng();
        let mut world = World::initial();
        let mut all = Vec::new();
        for word in &sc.words {
            let branches = expand_word(&engine, world, word);
            let (w, fs) = branches.into_iter().next().expect("at least one branch");
            world = w;
            all.extend(fs);
        }
        all
    }

    #[test]
    fn literal_words_expand_to_literal_fields() {
        let fields = fields_of("echo one two");
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[1].value().as_literal().as_deref(), Some("one"));
    }

    #[test]
    fn quoted_variable_is_single_field() {
        let fields = fields_of("rm \"$1\"");
        assert_eq!(fields.len(), 2);
        assert!(fields[1].value().as_literal().is_none());
    }

    #[test]
    fn field_splitting_of_literal_expansion() {
        let fields = fields_of("x=\"a b  c\"\nuse $x");
        // `fields_of` looks at the first command; do it manually here.
        let script = parse_script("x=\"a b  c\"\nuse $x").unwrap();
        let engine = eng();
        let worlds = engine.exec_items(vec![World::initial()], &script.items[..1]);
        let world = worlds.into_iter().next().unwrap();
        let shoal_shparse::Command::Simple(sc) = &script.items[1].and_or.first.commands[0] else {
            panic!()
        };
        let branches = expand_word(&engine, world, &sc.words[1]);
        let (_, fs) = branches.into_iter().next().unwrap();
        let texts: Vec<String> = fs.iter().filter_map(|f| f.value().as_literal()).collect();
        assert_eq!(texts, vec!["a", "b", "c"]);
        let _ = fields;
    }

    #[test]
    fn quoted_expansion_does_not_split() {
        let script = parse_script("x=\"a b\"\nuse \"$x\"").unwrap();
        let engine = eng();
        let worlds = engine.exec_items(vec![World::initial()], &script.items[..1]);
        let world = worlds.into_iter().next().unwrap();
        let shoal_shparse::Command::Simple(sc) = &script.items[1].and_or.first.commands[0] else {
            panic!()
        };
        let branches = expand_word(&engine, world, &sc.words[1]);
        let (_, fs) = branches.into_iter().next().unwrap();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].value().as_literal().as_deref(), Some("a b"));
    }

    #[test]
    fn glob_tail_detection_quoted_var() {
        // "$STEAMROOT"/* : base is the quoted value, tail is the active /*.
        let fields = fields_of("rm \"$1\"/*");
        let (base, tail) = fields[1].split_trailing_glob();
        assert_eq!(tail.as_deref(), Some("/*"));
        assert!(base.as_literal().is_none());
    }

    #[test]
    fn glob_tail_detection_split_variable() {
        // c="/*"; rm $1$c — the tail arrives through an expansion.
        let script = parse_script("c=\"/*\"\nrm $1$c").unwrap();
        let engine = eng();
        let worlds = engine.exec_items(vec![World::initial()], &script.items[..1]);
        let world = worlds.into_iter().next().unwrap();
        let shoal_shparse::Command::Simple(sc) = &script.items[1].and_or.first.commands[0] else {
            panic!()
        };
        let branches = expand_word(&engine, world, &sc.words[1]);
        let (_, fs) = branches.into_iter().next().unwrap();
        let (base, tail) = fs[0].split_trailing_glob();
        assert_eq!(tail.as_deref(), Some("/*"));
        assert!(base.as_literal().is_none());
    }

    #[test]
    fn no_glob_tail_when_quoted() {
        // rm "$1/*" — the star is inside quotes: no active glob.
        let fields = fields_of("rm \"$1/*\"");
        let (_, tail) = fields[1].split_trailing_glob();
        assert_eq!(tail, None);
    }

    #[test]
    fn default_value_expansion_forks() {
        // ${x:-d} on an unset variable takes the default.
        let script = parse_script("echo ${x:-fallback}").unwrap();
        let shoal_shparse::Command::Simple(sc) = &script.items[0].and_or.first.commands[0] else {
            panic!()
        };
        let engine = eng();
        let branches = expand_word(&engine, World::initial(), &sc.words[1]);
        assert_eq!(branches.len(), 1);
        assert_eq!(
            branches[0].1[0].value().as_literal().as_deref(),
            Some("fallback")
        );
    }

    #[test]
    fn assign_default_sets_variable() {
        let script = parse_script("echo ${x:=assigned}").unwrap();
        let shoal_shparse::Command::Simple(sc) = &script.items[0].and_or.first.commands[0] else {
            panic!()
        };
        let engine = eng();
        let branches = expand_word(&engine, World::initial(), &sc.words[1]);
        let (w, fs) = branches.into_iter().next().unwrap();
        assert_eq!(fs[0].value().as_literal().as_deref(), Some("assigned"));
        assert_eq!(
            w.get_var("x").unwrap().as_literal().as_deref(),
            Some("assigned")
        );
    }

    #[test]
    fn error_expansion_halts_on_unset() {
        let script = parse_script("echo ${x:?boom}").unwrap();
        let shoal_shparse::Command::Simple(sc) = &script.items[0].and_or.first.commands[0] else {
            panic!()
        };
        let engine = eng();
        let branches = expand_word(&engine, World::initial(), &sc.words[1]);
        assert!(branches.iter().all(|(w, _)| w.halted));
    }

    #[test]
    fn alt_value_expansion() {
        // ${x:+alt} is empty when x is unset, `alt` when set non-empty.
        let engine = eng();
        let script = parse_script("echo ${x:+alt}").unwrap();
        let shoal_shparse::Command::Simple(sc) = &script.items[0].and_or.first.commands[0] else {
            panic!()
        };
        let unset = expand_word(&engine, World::initial(), &sc.words[1]);
        assert!(unset[0].1[0].value().is_literal_empty());
        let mut w = World::initial();
        w.set_var("x", SymStr::lit("v"));
        let set = expand_word(&engine, w, &sc.words[1]);
        assert_eq!(set[0].1[0].value().as_literal().as_deref(), Some("alt"));
    }

    #[test]
    fn suffix_removal_on_literal() {
        let engine = eng();
        let mut w = World::initial();
        w.set_var("p", SymStr::lit("/home/u/.steam/upd.sh"));
        let script = parse_script("echo ${p%/*}").unwrap();
        let shoal_shparse::Command::Simple(sc) = &script.items[0].and_or.first.commands[0] else {
            panic!()
        };
        let branches = expand_word(&engine, w, &sc.words[1]);
        assert_eq!(branches.len(), 1);
        assert_eq!(
            branches[0].1[0].value().as_literal().as_deref(),
            Some("/home/u/.steam")
        );
    }

    #[test]
    fn suffix_removal_on_symbol_forks_two_worlds() {
        // ${0%/*}: the paper's split into directory-ish vs filename-ish.
        let engine = eng();
        let script = parse_script("echo ${0%/*}").unwrap();
        let shoal_shparse::Command::Simple(sc) = &script.items[0].and_or.first.commands[0] else {
            panic!()
        };
        let branches = expand_word(&engine, World::initial(), &sc.words[1]);
        assert_eq!(branches.len(), 2, "matched and unmatched worlds");
    }

    #[test]
    fn command_substitution_value_captured() {
        let engine = eng();
        let script = parse_script("v=$(echo hello)").unwrap();
        let worlds = engine.exec_items(vec![World::initial()], &script.items);
        assert_eq!(worlds.len(), 1);
        assert_eq!(
            worlds[0].get_var("v").unwrap().as_literal().as_deref(),
            Some("hello")
        );
    }

    #[test]
    fn command_substitution_strips_trailing_newline_only() {
        let engine = eng();
        let script = parse_script("v=$(printf 'a\\n\\n')").unwrap();
        let worlds = engine.exec_items(vec![World::initial()], &script.items);
        let v = worlds[0].get_var("v").unwrap().as_literal().unwrap();
        assert!(!v.ends_with('\n'));
    }

    #[test]
    fn tilde_expands_to_home_symbol() {
        let fields = fields_of("ls ~");
        assert!(fields[1].value().as_literal().is_none());
        assert!(fields[1].value().describe().contains("HOME"));
    }

    #[test]
    fn length_of_literal() {
        let engine = eng();
        let mut w = World::initial();
        w.set_var("s", SymStr::lit("abcde"));
        let script = parse_script("echo ${#s}").unwrap();
        let shoal_shparse::Command::Simple(sc) = &script.items[0].and_or.first.commands[0] else {
            panic!()
        };
        let branches = expand_word(&engine, w, &sc.words[1]);
        assert_eq!(branches[0].1[0].value().as_literal().as_deref(), Some("5"));
    }
}
