//! What the engine works out once per analysis instead of once per
//! call or per world.
//!
//! A simple command's static words, assignment values and redirect
//! targets, what its name resolves to and, for a spec'd command with
//! static argv, its classified invocation and cases depend only on the
//! AST and the spec library ([`SimplePlan`]). A multi-stage pipeline's
//! stream check (Fig. 5) depends only on its text, the spec library and
//! the inline annotations ([`crate::engine::StreamCheck`]). The engine
//! runs each of them many times: once per call of the enclosing
//! function, once per world that reaches a `$(…)`, once per world of a
//! pipeline stage. [`PlanTable`] does each once per analysis.
//!
//! The table is keyed by node address and filled only from the script
//! the engine analyzes, which it borrows for its whole life: no node
//! in the table can be freed, and no other node can take its address,
//! while a lookup can happen. Any other node — a function body that
//! incremental replay restored from an older parse, or a script the
//! caller runs by hand — misses and gets a plan of its own per call, as
//! if there were no table. An entry is built on its node's first use
//! and replays the relang approximation events recorded while it was
//! built on every later use, the way the relang memo does, so the
//! report counts the same events whether a plan was built or reused.

use crate::expand::{static_fields, static_value, Field};
use crate::value::SymStr;
use crate::world::World;
use shoal_obs::hash::FxBuildHasher;
use shoal_relang::{capture_approx_hits, replay_approx_hits, ApproxReason};
use shoal_shparse::{
    Command, ListItem, ParamExp, ParamOp, Pipeline, Script, SimpleCommand, Word, WordPart,
};
use shoal_spec::hoare::ExitSpec;
use shoal_spec::{CommandSpec, Invocation, SpecCase, SpecLibrary};
use shoal_symfs::FsKey;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The per-analysis plans of one script: an entry per simple command
/// and per multi-stage pipeline, built on first use.
#[derive(Default)]
pub(crate) struct PlanTable<'s> {
    simple: NodeMap<'s, SimpleCommand, SimplePlan>,
    pipes: NodeMap<'s, Pipeline, crate::engine::StreamCheck>,
}

/// Entries are boxed: a plan is a few hundred bytes, and a table of
/// them inline costs every analysis large allocations as it grows,
/// which took more time than planning saved on short scripts.
type NodeMap<'s, N, T> = HashMap<ByAddr<'s, N>, OnceCell<Box<Planned<T>>>, FxBuildHasher>;

/// A node reference that hashes and compares by address.
struct ByAddr<'s, N>(&'s N);

impl<N> PartialEq for ByAddr<'_, N> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl<N> Eq for ByAddr<'_, N> {}

impl<N> Hash for ByAddr<'_, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::ptr::hash(self.0, state);
    }
}

/// A built entry and the approximation events its build recorded.
struct Planned<T> {
    value: T,
    approx: Vec<ApproxReason>,
}

impl<'s> PlanTable<'s> {
    /// An empty entry for every simple command and multi-stage pipeline
    /// of `script` that can run more than once: everything in command
    /// substitutions, compound commands, function bodies and pipelines
    /// of several stages. A simple command that makes up a whole
    /// top-level pipeline runs once per analysis, over every live world
    /// at once, so it gets no entry: one could never be reused.
    pub(crate) fn new(script: &'s Script) -> PlanTable<'s> {
        let mut table = PlanTable::default();
        for pipe in script.items.iter().flat_map(pipelines) {
            match pipe.commands.as_slice() {
                [Command::Simple(sc)] => table.words_of(sc),
                _ => table.pipe(pipe),
            }
        }
        table
    }

    /// The plan of `sc`: its table entry, built by `build` on first
    /// use, or for a node outside the table a fresh `build()`.
    pub(crate) fn simple<'a>(
        &'a self,
        sc: &'a SimpleCommand,
        build: impl FnOnce() -> SimplePlan,
    ) -> Cow<'a, SimplePlan> {
        lookup(&self.simple, sc, build)
    }

    /// The stream check of `pipe`, as [`PlanTable::simple`].
    pub(crate) fn pipeline<'a>(
        &'a self,
        pipe: &'a Pipeline,
        build: impl FnOnce() -> crate::engine::StreamCheck,
    ) -> Cow<'a, crate::engine::StreamCheck> {
        lookup(&self.pipes, pipe, build)
    }

    fn items(&mut self, items: &'s [ListItem]) {
        for pipe in items.iter().flat_map(pipelines) {
            self.pipe(pipe);
        }
    }

    fn pipe(&mut self, pipe: &'s Pipeline) {
        if pipe.commands.len() > 1 {
            self.pipes.insert(ByAddr(pipe), OnceCell::new());
        }
        for cmd in &pipe.commands {
            self.command(cmd);
        }
    }

    fn command(&mut self, cmd: &'s Command) {
        match cmd {
            Command::Simple(sc) => {
                self.simple.insert(ByAddr(sc), OnceCell::new());
                self.words_of(sc);
                return;
            }
            Command::BraceGroup(items, _, _) | Command::Subshell(items, _, _) => self.items(items),
            Command::If(c, _, _) => {
                self.items(&c.cond);
                self.items(&c.then_body);
                for (cond, body) in &c.elifs {
                    self.items(cond);
                    self.items(body);
                }
                if let Some(body) = &c.else_body {
                    self.items(body);
                }
            }
            Command::While(c, _, _) | Command::Until(c, _, _) => {
                self.items(&c.cond);
                self.items(&c.body);
            }
            Command::For(c, _, _) => {
                c.words.iter().flatten().for_each(|w| self.word(w));
                self.items(&c.body);
            }
            Command::Case(c, _, _) => {
                self.word(&c.subject);
                for arm in &c.arms {
                    arm.patterns.iter().for_each(|w| self.word(w));
                    self.items(&arm.body);
                }
            }
            Command::FunctionDef { body, .. } => self.command(body),
        }
        cmd.redirects().iter().for_each(|r| self.word(&r.target));
    }

    /// The words of a simple command, for the scripts they substitute.
    fn words_of(&mut self, sc: &'s SimpleCommand) {
        let assigned = sc.assignments.iter().map(|a| &a.value);
        let targets = sc.redirects.iter().map(|r| &r.target);
        for w in assigned.chain(&sc.words).chain(targets) {
            self.word(w);
        }
    }

    fn word(&mut self, word: &'s Word) {
        self.parts(&word.parts);
    }

    fn parts(&mut self, parts: &'s [WordPart]) {
        for part in parts {
            match part {
                WordPart::DoubleQuoted(inner) => self.parts(inner),
                WordPart::CmdSub(script) => self.items(&script.items),
                WordPart::Param(ParamExp {
                    op:
                        Some(
                            ParamOp::Default(w, _)
                            | ParamOp::Assign(w, _)
                            | ParamOp::Error(Some(w), _)
                            | ParamOp::Alt(w, _)
                            | ParamOp::RemoveSmallestSuffix(w)
                            | ParamOp::RemoveLargestSuffix(w)
                            | ParamOp::RemoveSmallestPrefix(w)
                            | ParamOp::RemoveLargestPrefix(w),
                        ),
                    ..
                }) => self.word(w),
                _ => {}
            }
        }
    }
}

/// The pipelines of a list item, in order.
fn pipelines(item: &ListItem) -> impl Iterator<Item = &Pipeline> {
    std::iter::once(&item.and_or.first).chain(item.and_or.rest.iter().map(|(_, p)| p))
}

fn lookup<'a, N, T: Clone>(
    map: &'a NodeMap<'a, N, T>,
    node: &'a N,
    build: impl FnOnce() -> T,
) -> Cow<'a, T> {
    let Some(cell) = map.get(&ByAddr(node)) else {
        return Cow::Owned(build());
    };
    if let Some(planned) = cell.get() {
        replay_approx_hits(&planned.approx);
        return Cow::Borrowed(&planned.value);
    }
    let (value, approx) = capture_approx_hits(build);
    Cow::Borrowed(&cell.get_or_init(|| Box::new(Planned { value, approx })).value)
}

/// The world-independent part of a simple command. Building it reads
/// only the AST and the spec library: it allocates no world id and no
/// symbol, and moves no counter.
#[derive(Clone)]
pub(crate) struct SimplePlan {
    /// Per assignment, its value when static.
    pub assigns: Vec<Option<SymStr>>,
    /// Per word, its fields when static; empty when every word is.
    pub words: Vec<Option<Vec<Field>>>,
    /// Every field, when every word is static.
    pub fields: Option<Vec<Field>>,
    /// Per redirect, its target when static.
    pub redirs: Vec<Option<PathArg>>,
    /// The command name and what it resolves to, when static words
    /// decide it.
    pub name: Option<(String, Resolved)>,
}

impl SimplePlan {
    pub(crate) fn new(specs: &SpecLibrary, sc: &SimpleCommand) -> SimplePlan {
        let mut words: Vec<Option<Vec<Field>>> = sc.words.iter().map(static_fields).collect();
        // The name is the first field; static words decide it when the
        // first word to yield a field, and every word before it, are
        // static.
        let name = words
            .iter()
            .find(|fs| fs.as_ref().is_none_or(|fs| !fs.is_empty()))
            .and_then(|fs| fs.as_ref()?[0].as_literal());
        let fields = if words.iter().all(Option::is_some) {
            Some(words.drain(..).flatten().flatten().collect::<Vec<Field>>())
        } else {
            None
        };
        let name = name.map(|n| {
            let resolved = match (Resolved::of(specs, &n), &fields) {
                (Resolved::Spec(spec), Some(fields)) => {
                    // Static argv: every field is literal.
                    let argv: Vec<String> =
                        fields[1..].iter().filter_map(Field::as_literal).collect();
                    Resolved::Classified(SpecCases::classify(spec, &argv, &[]))
                }
                (resolved, _) => resolved,
            };
            (n, resolved)
        });
        SimplePlan {
            assigns: sc
                .assignments
                .iter()
                .map(|a| static_value(&a.value))
                .collect(),
            words,
            fields,
            redirs: sc
                .redirects
                .iter()
                .map(|r| static_value(&r.target).map(PathArg::new))
                .collect(),
            name,
        }
    }
}

/// What a command name resolves to, functions aside (those are
/// per-world state and are looked up first).
#[derive(Clone)]
pub(crate) enum Resolved {
    Builtin,
    Rm,
    /// A spec'd command whose argv is classified per world.
    Spec(Arc<CommandSpec>),
    /// A spec'd command with static argv, classified once; `None` when
    /// its argv does not classify or no case applies (exit unknown).
    Classified(Option<SpecCases>),
    Unknown,
}

impl Resolved {
    pub(crate) fn of(specs: &SpecLibrary, name: &str) -> Resolved {
        if crate::builtins::is_builtin(name) {
            Resolved::Builtin
        } else if name == "rm" {
            Resolved::Rm
        } else {
            specs.shared(name).map_or(Resolved::Unknown, Resolved::Spec)
        }
    }
}

/// A classified invocation of a spec'd command with the cases that
/// apply to it.
#[derive(Clone)]
pub(crate) struct SpecCases {
    spec: Arc<CommandSpec>,
    pub inv: Invocation,
    /// One per operand of `inv`: symbolic where argv had a symbolic
    /// value.
    pub operands: Vec<PathArg>,
    /// Indices of the applicable cases in `spec.cases`.
    applicable: Vec<usize>,
    /// The world-tree label of each case; empty for a single case,
    /// which never forks.
    pub labels: Vec<String>,
}

impl SpecCases {
    /// Classifies `argv`, in which the symbolic values stand as marker
    /// strings; `None` when it does not classify or no case applies.
    pub(crate) fn classify(
        spec: Arc<CommandSpec>,
        argv: &[String],
        symbolic: &[(String, SymStr)],
    ) -> Option<SpecCases> {
        let inv = spec.syntax.classify(argv).ok()?;
        let applicable: Vec<usize> = (0..spec.cases.len())
            .filter(|&i| spec.cases[i].guard.matches(&inv))
            .collect();
        if applicable.is_empty() {
            return None;
        }
        let operands = inv
            .operands
            .iter()
            .map(|text| match symbolic.iter().find(|(m, _)| m == text) {
                Some((_, v)) => PathArg::new(v.clone()),
                None => PathArg::new(SymStr::lit(text)),
            })
            .collect();
        let labels = if applicable.len() > 1 {
            applicable
                .iter()
                .map(|&i| {
                    let outcome = match spec.cases[i].exit {
                        ExitSpec::Success => "succeeds",
                        ExitSpec::Failure => "fails",
                        ExitSpec::Unknown => "exits either way",
                    };
                    format!("`{inv}` {outcome}")
                })
                .collect()
        } else {
            Vec::new()
        };
        Some(SpecCases {
            spec,
            inv,
            operands,
            applicable,
            labels,
        })
    }

    /// The applicable cases, in spec order.
    pub(crate) fn cases(&self) -> impl ExactSizeIterator<Item = &SpecCase> {
        self.applicable.iter().map(|&i| &self.spec.cases[i])
    }

    /// The key of operand `idx` in world `w`.
    pub(crate) fn key(&self, w: &mut World, idx: usize) -> Option<FsKey> {
        self.operands.get(idx)?.key(w)
    }
}

/// A path-valued argument, with its file-system key when that key is
/// the same in every world (an absolute literal path).
#[derive(Clone)]
pub(crate) struct PathArg {
    pub value: SymStr,
    pub fixed: Option<FsKey>,
}

impl PathArg {
    pub(crate) fn new(value: SymStr) -> PathArg {
        let fixed = value.as_literal().and_then(|t| FsKey::absolute(&t));
        PathArg { value, fixed }
    }

    /// The key in world `w`, as [`World::fs_key`] resolves it.
    pub(crate) fn key(&self, w: &mut World) -> Option<FsKey> {
        match &self.fixed {
            Some(k) => Some(k.clone()),
            None => w.fs_key(&self.value),
        }
    }
}
