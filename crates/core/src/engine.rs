//! The symbolic executor.
//!
//! [`Engine::exec_items`] walks the AST over *sets of worlds*,
//! implementing the shell's composition semantics: `&&`/`||`
//! short-circuiting on symbolic exit statuses, pipelines (with stream
//! typing), conditionals and loops with success/failure forking, `case`
//! with match-verdict refinement, subshells, functions, and
//! command-substitution capture. Spec-driven transfer functions apply
//! external commands' Hoare cases to the symbolic file system; the
//! checkers run inline where the relevant state is at hand.

use crate::analyze::AnalysisOptions;
use crate::builtins::exec_builtin;
use crate::checkers::{classify_delete, delete_diag, is_platform_source};
use crate::diag::{DiagCode, Diagnostic, Severity};
use crate::expand::{expand_word, expand_word_single, Field};
use crate::glob::{match_verdict, word_pattern_to_regex, MatchVerdict};
use crate::plan::{PathArg, PlanTable, Resolved, SimplePlan, SpecCases};
use crate::provenance::{TrailKind, WorldId, WorldTree};
use crate::stats::{CapReason, EngineStats};
use crate::value::{Seg, SymStr};
use crate::world::{ExitStatus, World};
use shoal_relang::Regex;
use shoal_shparse::{
    AndOr, AndOrOp, CaseClause, Command, ForClause, IfClause, ListItem, Pipeline, RedirOp, Script,
    SimpleCommand, Span, WhileClause,
};
use shoal_spec::hoare::{operand_indices, Cond, Effect, ExitSpec, NodeReq};
use shoal_spec::{CommandSpec, Invocation, SpecCase, SpecLibrary};
use shoal_streamty::pipeline::{check_pipeline, StageVerdict};
use shoal_streamty::sig_for;
use shoal_symfs::state::{NodeState, Require};
use shoal_symfs::FsKey;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

/// Fuel/deadline accounting (interior-mutable like [`EngineStats`]).
///
/// Each statement executed over `n` live worlds charges `n` units. Fuel
/// is an exact decrementing counter; the deadline is polled with one
/// `Instant::now()` per [`Budget::POLL_EVERY`] charges so the common
/// case costs a couple of arithmetic ops. Once exhausted, every later
/// charge reports the same reason, so nested `exec_items` loops unwind
/// without re-reporting.
struct Budget {
    fuel_left: Cell<Option<u64>>,
    deadline: Option<Instant>,
    polls: Cell<u32>,
    exhausted: Cell<Option<CapReason>>,
    /// The exhaustion diagnostic/cap-hit has been recorded.
    reported: Cell<bool>,
}

impl Budget {
    const POLL_EVERY: u32 = 64;

    fn new(opts: &AnalysisOptions) -> Budget {
        Budget {
            fuel_left: Cell::new(opts.fuel),
            deadline: opts.deadline.map(|d| Instant::now() + d),
            polls: Cell::new(0),
            exhausted: Cell::new(None),
            reported: Cell::new(false),
        }
    }

    /// Charges `n` units; returns the cap reason once the budget is
    /// gone. Deadline expiry is checked on the first charge and then
    /// every `POLL_EVERY` charges.
    fn charge(&self, n: u64) -> Option<CapReason> {
        if let Some(reason) = self.exhausted.get() {
            return Some(reason);
        }
        if let Some(fuel) = self.fuel_left.get() {
            if fuel < n {
                self.fuel_left.set(Some(0));
                self.exhausted.set(Some(CapReason::Fuel));
                return Some(CapReason::Fuel);
            }
            self.fuel_left.set(Some(fuel - n));
        }
        if let Some(deadline) = self.deadline {
            let polls = self.polls.get();
            self.polls.set(polls.wrapping_add(1));
            if polls.is_multiple_of(Self::POLL_EVERY) && Instant::now() >= deadline {
                self.exhausted.set(Some(CapReason::Deadline));
                return Some(CapReason::Deadline);
            }
        }
        None
    }
}

/// The analysis engine: specification library plus options. `'s` is
/// the script it plans ([`Engine::for_script`]); the engine borrows it
/// for its whole life.
pub struct Engine<'s> {
    /// Command specifications.
    pub specs: SpecLibrary,
    /// Analysis options (bounds, ablation switches).
    pub opts: AnalysisOptions,
    /// Inline `#@` annotations in effect (§4 "Ergonomic annotations").
    pub annotations: crate::annotations::Annotations,
    /// Exploration accounting (exact fork/prune/cap counters).
    pub stats: EngineStats,
    /// The world tree recorded during exploration: every fork site adds
    /// child nodes here, and [`crate::analyze`] closes the terminal
    /// leaves (provenance layer).
    pub tree: RefCell<WorldTree>,
    /// Fuel/deadline budget built from the options.
    budget: Budget,
    /// Coverage/precision-loss recorder, written only when
    /// [`AnalysisOptions::audit`] is set: the disabled path holds empty
    /// containers and is never touched (no allocation, no clock reads).
    pub audit: RefCell<crate::audit::AuditRecorder>,
    /// Per-analysis plans of the script's commands and pipelines
    /// ([`crate::plan`]).
    plans: PlanTable<'s>,
}

impl Engine<'static> {
    /// Creates an engine with the built-in spec library and no planned
    /// script: every command and pipeline is planned per call.
    pub fn new(opts: AnalysisOptions) -> Engine<'static> {
        Engine::with_plans(opts, PlanTable::default())
    }
}

impl<'s> Engine<'s> {
    /// Creates an engine with the built-in spec library that plans each
    /// simple command and multi-stage pipeline of `script` once for the
    /// whole analysis, however many calls and worlds reach it.
    pub fn for_script(opts: AnalysisOptions, script: &'s Script) -> Engine<'s> {
        Engine::with_plans(opts, PlanTable::new(script))
    }

    fn with_plans(opts: AnalysisOptions, plans: PlanTable<'s>) -> Engine<'s> {
        let budget = Budget::new(&opts);
        Engine {
            specs: SpecLibrary::builtin(),
            opts,
            annotations: crate::annotations::Annotations::default(),
            stats: EngineStats::default(),
            tree: RefCell::new(WorldTree::new()),
            budget,
            audit: RefCell::new(crate::audit::AuditRecorder::default()),
            plans,
        }
    }

    /// Records a command occurrence at a call site iff auditing is on
    /// (deduped per (name, line) by the recorder, never per world).
    fn audit_command(&self, name: &str, line: u32, has_spec: bool) {
        if self.opts.audit {
            self.audit.borrow_mut().record_command(name, line, has_spec);
        }
    }

    /// Records budget exhaustion exactly once: a machine-readable cap
    /// hit plus an [`DiagCode::AnalysisIncomplete`] note on the first
    /// surviving world (the cap hit alone marks the report incomplete
    /// when no world survives to carry the note).
    fn note_budget_exhausted(&self, reason: CapReason, span: Span, worlds: &mut [World]) {
        if self.budget.reported.replace(true) {
            return;
        }
        self.stats.note_cap(reason, span.line, 0);
        shoal_obs::event!("budget_exhausted", reason = reason.as_str(), line = span.line);
        let message = match reason {
            CapReason::Fuel => format!(
                "fuel budget ({}) exhausted; statements from line {} on were not analyzed",
                self.opts.fuel.unwrap_or(0),
                span.line
            ),
            CapReason::Deadline => format!(
                "deadline ({} ms) expired; statements from line {} on were not analyzed",
                self.opts
                    .deadline
                    .map(|d| d.as_millis())
                    .unwrap_or_default(),
                span.line
            ),
            other => format!("{other} budget exhausted at line {}", span.line),
        };
        if let Some(w) = worlds.first_mut() {
            w.report(
                Diagnostic::new(DiagCode::AnalysisIncomplete, Severity::Note, span, message)
                    .with_cap(reason)
                    .with_origin("engine:budget"),
            );
        }
    }

    /// Registers `w` as a fork child of world `parent` created at
    /// `site`: assigns its stable id in the world tree and records the
    /// added constraint both on the tree edge and as a typed trail
    /// entry on the world.
    pub(crate) fn branch_child(
        &self,
        parent: WorldId,
        w: &mut World,
        site: &'static str,
        span: Span,
        kind: TrailKind,
        constraint: impl Into<String>,
    ) {
        let text = constraint.into();
        w.id = self
            .tree
            .borrow_mut()
            .fork_child(parent, site, span.line, text.clone());
        w.assume_at(span, kind, text);
    }

    /// Records a fork candidate of world `parent` that refinement
    /// discarded as infeasible.
    pub(crate) fn branch_pruned(
        &self,
        parent: WorldId,
        site: &'static str,
        span: Span,
        constraint: impl Into<String>,
    ) {
        self.tree
            .borrow_mut()
            .mark_pruned(parent, site, span.line, constraint);
    }

    /// Caps a live world set at `max_worlds` (see [`Engine::truncate`]).
    fn cap(&self, worlds: Vec<World>, span: Span) -> Vec<World> {
        self.truncate(worlds, span, CapReason::MaxWorlds, |w| w)
    }

    /// Truncates a set of worlds (or of `(world, payload)` pairs, via
    /// `world_of`) to `max_worlds`, closing the dropped worlds in the
    /// world tree and attaching one incompleteness note per site.
    /// `reason` is [`CapReason::MaxWorlds`] for live world sets and
    /// [`CapReason::Expansion`] for word-expansion results.
    fn truncate<T>(
        &self,
        mut items: Vec<T>,
        span: Span,
        reason: CapReason,
        world_of: fn(&mut T) -> &mut World,
    ) -> Vec<T> {
        self.stats.note_live(items.len());
        let max = self.opts.max_worlds;
        if items.len() <= max {
            return items;
        }
        let dropped = items.len() - max;
        {
            let mut tree = self.tree.borrow_mut();
            for item in &mut items[max..] {
                tree.mark_cap_dropped(world_of(item).id);
            }
        }
        items.truncate(max);
        self.stats.note_cap(reason, span.line, dropped);
        let what = match reason {
            CapReason::Expansion => "expansion explosion: capped at",
            _ => "path explosion: exploration capped at",
        };
        if let Some(w) = items.first_mut().map(world_of) {
            let already = w
                .diags
                .iter()
                .any(|d| d.span == span && d.cap_reason == Some(reason));
            if !already {
                w.report(
                    Diagnostic::new(
                        DiagCode::AnalysisIncomplete,
                        Severity::Note,
                        span,
                        format!("{what} {max} worlds"),
                    )
                    .with_cap(reason)
                    .with_origin("engine:cap"),
                );
            }
        }
        items
    }

    /// Folds each class of joinable worlds ([`World::joinable`]) into
    /// its lowest-id member, which keeps the slot of the class's first
    /// member. Classification is one hash bucket per world plus
    /// structural comparisons that skip shared COW structure, so a
    /// boundary costs O(live worlds) on top of the worlds' divergence.
    /// Each folded world becomes a `merged` leaf of the world tree.
    fn join_worlds(&self, worlds: Vec<World>, line: u32) -> Vec<World> {
        if worlds.len() < 2 {
            return worlds;
        }
        let mut classes: Vec<World> = Vec::with_capacity(worlds.len());
        // Bucket key → newest class with that key; `older[c]` chains
        // each class to the previous one in its bucket.
        let mut newest: std::collections::HashMap<u64, usize, shoal_obs::hash::FxBuildHasher> =
            Default::default();
        let mut older: Vec<Option<usize>> = Vec::with_capacity(worlds.len());
        let mut merged = 0u64;
        for mut w in worlds {
            let key = w.join_key();
            let mut cursor = newest.get(&key).copied();
            while let Some(c) = cursor.filter(|&c| !classes[c].joinable(&w)) {
                cursor = older[c];
            }
            match cursor {
                Some(c) => {
                    if w.id < classes[c].id {
                        std::mem::swap(&mut classes[c], &mut w);
                    }
                    self.tree.borrow_mut().mark_merged(w.id);
                    classes[c].absorb(w);
                    merged += 1;
                }
                None => {
                    older.push(newest.insert(key, classes.len()));
                    classes.push(w);
                }
            }
        }
        if merged > 0 {
            shoal_obs::event!("merge", line = line, merged = merged, live = classes.len());
        }
        classes
    }

    /// Executes a list of items over a set of worlds.
    pub fn exec_items(&self, worlds: Vec<World>, items: &[ListItem]) -> Vec<World> {
        let mut worlds = worlds;
        self.stats.note_live(worlds.len());
        for item in items {
            let (next, keep_going) = self.step(worlds, item);
            worlds = next;
            if !keep_going {
                break;
            }
        }
        worlds
    }

    /// The per-statement transition function: executes one top-level
    /// statement over the live world set and returns the successor set.
    /// This is the resumable unit the incremental engine
    /// ([`crate::incr`]) checkpoints at — statement boundaries are the
    /// only points where the full engine state (worlds, tree, stats,
    /// audit) is a well-defined snapshot. The boolean is false when the
    /// fuel/deadline budget ran out *before* the statement, in which
    /// case the statement was not executed and the remaining statements
    /// must be skipped (every world — and every diagnostic already
    /// found — survives to the report).
    pub fn step(&self, worlds: Vec<World>, item: &ListItem) -> (Vec<World>, bool) {
        let mut worlds = worlds;
        let span = item.and_or.span();
        // Budget check *before* the statement: on exhaustion the
        // remaining statements are skipped but every world — and
        // every diagnostic already found — survives to the report.
        if let Some(reason) = self.budget.charge(worlds.len().max(1) as u64) {
            self.note_budget_exhausted(reason, span, &mut worlds);
            return (worlds, false);
        }
        let (halted, active): (Vec<World>, Vec<World>) =
            worlds.into_iter().partition(|w| w.halted);
        let mut next = halted;
        next.extend(self.exec_and_or(active, &item.and_or));
        if item.background {
            for w in next.iter_mut().filter(|w| !w.halted) {
                w.last_exit = ExitStatus::Zero;
            }
        }
        let joined = self.join_worlds(next, span.line);
        (self.cap(joined, span), true)
    }

    fn exec_and_or(&self, worlds: Vec<World>, and_or: &AndOr) -> Vec<World> {
        let mut current = self.exec_pipeline(worlds, &and_or.first);
        for (op, pipe) in &and_or.rest {
            let mut next = Vec::new();
            let mut run = Vec::new();
            for w in current {
                if w.halted {
                    next.push(w);
                    continue;
                }
                match (op, w.last_exit) {
                    (AndOrOp::And, ExitStatus::Zero) | (AndOrOp::Or, ExitStatus::NonZero) => {
                        run.push(w)
                    }
                    (AndOrOp::And, ExitStatus::NonZero) | (AndOrOp::Or, ExitStatus::Zero) => {
                        next.push(w)
                    }
                    (_, ExitStatus::Unknown) => {
                        let parent = w.id;
                        let mut skip = w.clone();
                        self.branch_child(
                            parent,
                            &mut skip,
                            "and_or",
                            pipe.span(),
                            TrailKind::Branch,
                            match op {
                                AndOrOp::And => "left side failed",
                                AndOrOp::Or => "left side succeeded",
                            },
                        );
                        next.push(skip);
                        let mut go = w;
                        self.branch_child(
                            parent,
                            &mut go,
                            "and_or",
                            pipe.span(),
                            TrailKind::Branch,
                            match op {
                                AndOrOp::And => "left side succeeded",
                                AndOrOp::Or => "left side failed",
                            },
                        );
                        run.push(go);
                    }
                }
            }
            next.extend(self.exec_pipeline(run, pipe));
            current = self.cap(next, pipe.span());
        }
        current
    }

    /// Runs a pipeline over live worlds (statements and `&&`/`||` keep
    /// halted worlds away from it). A lone simple command runs over the
    /// whole set at once; anything else runs world by world.
    fn exec_pipeline(&self, worlds: Vec<World>, pipe: &Pipeline) -> Vec<World> {
        debug_assert!(worlds.iter().all(|w| !w.halted));
        let mut out: Vec<World> = match pipe.commands.as_slice() {
            [Command::Simple(sc)] => self.exec_simple(worlds, sc),
            [cmd] => worlds
                .into_iter()
                .flat_map(|w| self.exec_command(w, cmd))
                .collect(),
            _ => worlds
                .into_iter()
                .flat_map(|w| self.exec_multi_stage(w, pipe))
                .collect(),
        };
        if pipe.negated {
            for w in out.iter_mut() {
                w.last_exit = w.last_exit.negate();
            }
        }
        self.cap(out, pipe.span())
    }

    /// A multi-command pipeline: stream-type it, then run the stages for
    /// their file-system effects.
    fn exec_multi_stage(&self, mut world: World, pipe: &Pipeline) -> Vec<World> {
        if self.opts.enable_stream_types {
            // The check depends only on the pipeline's text; its
            // findings go on every world that reaches it.
            let check = self.plans.pipeline(pipe, || {
                shoal_obs::counter_add("engine.pipeline_checks", 1);
                self.stream_check_pipeline(pipe)
            });
            for d in &check.findings {
                world.report(d.clone());
            }
        }
        let mut worlds = vec![world];
        // Effects: run stages in sequence; only the last stage's stdout
        // reaches a surrounding capture.
        for (i, cmd) in pipe.commands.iter().enumerate() {
            let last = i == pipe.commands.len() - 1;
            let mut next = Vec::new();
            for mut w in worlds {
                let saved = if last { None } else { w.capture.take() };
                let mut rs = self.exec_command(w, cmd);
                if !last {
                    for r in rs.iter_mut() {
                        r.capture = saved.clone();
                    }
                }
                next.extend(rs);
            }
            worlds = self.cap(next, cmd.span());
        }
        worlds
    }

    /// Runs the stream-type checker over a pipeline's stages: its dead
    /// pipes and type mismatches, in stage order, and the final output
    /// line type when it could be computed. The outcome depends only on
    /// the pipeline, the spec library and the annotations.
    pub fn stream_check_pipeline(&self, pipe: &Pipeline) -> StreamCheck {
        let mut check = StreamCheck {
            findings: Vec::new(),
            output: None,
        };
        // Build (label, sig) stages from literal invocations; the first
        // producer contributes the initial type instead of a sig.
        let mut stages = Vec::new();
        let mut input = Regex::any_line();
        for (i, cmd) in pipe.commands.iter().enumerate() {
            let Command::Simple(sc) = cmd else {
                return check;
            };
            let Some(inv) = self.literal_invocation(sc) else {
                return check;
            };
            if let Some(sig) = self.annotations.cmd_sigs.get(&inv.name) {
                // An inline `#@ cmd NAME :: IN -> OUT` annotation takes
                // precedence: the user vouched for this command's type.
                stages.push((inv.to_string(), sig.clone(), sc.span));
            } else if let Some(sig) = sig_for(&inv) {
                stages.push((inv.to_string(), sig, sc.span));
            } else if i == 0 {
                // A producer: take its spec's stdout type as the input.
                if let Some(line) = self.spec_stdout_type(&inv) {
                    input = line;
                } else {
                    input = Regex::any_line();
                }
            } else {
                // Unknown mid-pipeline stage: type information is cut.
                return check;
            }
        }
        if stages.is_empty() {
            check.output = Some(input);
            return check;
        }
        let named: Vec<(String, shoal_streamty::Sig)> = stages
            .iter()
            .map(|(n, s, _)| (n.clone(), s.clone()))
            .collect();
        let reports = check_pipeline(&input, &named);
        for (report, (_, _, span)) in reports.iter().zip(stages.iter()) {
            match &report.verdict {
                StageVerdict::Ok => {}
                StageVerdict::DeadOutput => {
                    check.findings.push(
                        Diagnostic::new(
                            DiagCode::DeadPipe,
                            Severity::Warning,
                            *span,
                            format!(
                                "`{}` can never produce output here: its input has line type {} \
                                 and the intersection is empty",
                                report.name, report.input
                            ),
                        )
                        .with_origin("checker:streamty"),
                    );
                }
                StageVerdict::InputMismatch { expected, witness } => {
                    let mut msg = format!(
                        "`{}` expects input lines matching {} but receives {}",
                        report.name, expected, report.input
                    );
                    if let Some(wit) = witness {
                        msg.push_str(&format!(" (e.g. {wit:?})"));
                    }
                    check.findings.push(
                        Diagnostic::new(
                            DiagCode::StreamTypeMismatch,
                            Severity::Warning,
                            *span,
                            msg,
                        )
                        .with_origin("checker:streamty"),
                    );
                }
            }
        }
        check.output = reports.last().map(|r| r.output.clone());
        check
    }

    /// A purely literal invocation of a simple command, if every word is
    /// static text.
    fn literal_invocation(&self, sc: &SimpleCommand) -> Option<Invocation> {
        let name = sc.name_literal()?;
        let args: Vec<String> = sc.words[1..]
            .iter()
            .map(|w| w.as_literal())
            .collect::<Option<_>>()?;
        match self.specs.get(&name) {
            Some(spec) => spec.syntax.classify(&args).ok(),
            None => {
                // Unknown commands still get a rough invocation: flags by
                // shape (needed for sig_for of, e.g., a filter we know by
                // name but have no spec for).
                let mut flags = Vec::new();
                let mut operands = Vec::new();
                for a in &args {
                    if let Some(f) = a.strip_prefix('-') {
                        flags.extend(f.chars());
                    } else {
                        operands.push(a.as_str());
                    }
                }
                Some(Invocation::new(&name, &flags, &operands.to_vec()))
            }
        }
    }

    /// The stdout line type of a command per its spec.
    fn spec_stdout_type(&self, inv: &Invocation) -> Option<Regex> {
        let spec = self.specs.get(&inv.name)?;
        let mut types = Vec::new();
        for case in spec.applicable(inv) {
            if let Some(pat) = &case.stdout_line {
                types.push(Regex::parse(pat).ok()?);
            }
        }
        if types.is_empty() {
            None
        } else {
            Some(Regex::alt(types))
        }
    }

    // -----------------------------------------------------------------
    // Commands
    // -----------------------------------------------------------------

    fn exec_command(&self, world: World, cmd: &Command) -> Vec<World> {
        match cmd {
            Command::Simple(sc) => self.exec_simple(vec![world], sc),
            Command::BraceGroup(items, _, _) => self.exec_items(vec![world], items),
            Command::Subshell(items, _, _) => self.exec_subshell(world, items),
            Command::If(clause, _, span) => self.exec_if(vec![world], clause, *span),
            Command::While(clause, _, span) => self.exec_while(vec![world], clause, false, *span),
            Command::Until(clause, _, span) => self.exec_while(vec![world], clause, true, *span),
            Command::For(clause, _, span) => self.exec_for(world, clause, *span),
            Command::Case(clause, _, span) => self.exec_case(world, clause, *span),
            Command::FunctionDef { name, body, .. } => {
                let mut w = world;
                w.functions.insert(name.clone(), Arc::clone(body));
                w.last_exit = ExitStatus::Zero;
                vec![w]
            }
        }
    }

    fn exec_subshell(&self, world: World, items: &[ListItem]) -> Vec<World> {
        let parent_cwd = world.cwd.clone();
        let parent_positional = world.positional.clone();
        let results = self.exec_items(vec![world], items);
        results
            .into_iter()
            .map(|mut r| {
                // A subshell cannot change the parent's cwd, positional
                // parameters, or halt it. Variable *refinements* are kept
                // (see DESIGN.md on the write-leak approximation).
                r.cwd = parent_cwd.clone();
                r.positional = parent_positional.clone();
                r.halted = false;
                r
            })
            .collect()
    }

    /// Runs a script capturing stdout — the implementation of `$(…)`.
    pub fn exec_capture(&self, world: World, script: &Script) -> Vec<(World, SymStr)> {
        let parent_cwd = world.cwd.clone();
        let parent_positional = world.positional.clone();
        let parent_capture = world.capture.clone();
        let mut sub = world;
        sub.capture = Some(SymStr::empty());
        let results = self.exec_items(vec![sub], &script.items);
        results
            .into_iter()
            .map(|mut r| {
                let mut captured = r.capture.take().unwrap_or_default();
                captured.strip_trailing_newlines();
                r.cwd = parent_cwd.clone();
                r.positional = parent_positional.clone();
                r.capture = parent_capture.clone();
                r.halted = false;
                (r, captured)
            })
            .collect()
    }

    fn exec_if(&self, worlds: Vec<World>, clause: &IfClause, span: Span) -> Vec<World> {
        let after_cond = self.exec_items(worlds, &clause.cond);
        let mut out = Vec::new();
        let mut then_worlds = Vec::new();
        let mut else_worlds = Vec::new();
        for w in after_cond {
            if w.halted {
                out.push(w);
                continue;
            }
            match w.last_exit {
                ExitStatus::Zero => then_worlds.push(w),
                ExitStatus::NonZero => else_worlds.push(w),
                ExitStatus::Unknown => {
                    let parent = w.id;
                    let mut t = w.clone();
                    self.branch_child(
                        parent,
                        &mut t,
                        "if",
                        span,
                        TrailKind::Branch,
                        "condition succeeded",
                    );
                    then_worlds.push(t);
                    let mut e = w;
                    self.branch_child(
                        parent,
                        &mut e,
                        "if",
                        span,
                        TrailKind::Branch,
                        "condition failed",
                    );
                    else_worlds.push(e);
                }
            }
        }
        out.extend(self.exec_items(then_worlds, &clause.then_body));
        // Elifs chain on the else side.
        let mut rest = else_worlds;
        for (cond, body) in &clause.elifs {
            let after = self.exec_items(rest, cond);
            let mut next_rest = Vec::new();
            let mut taken = Vec::new();
            for w in after {
                if w.halted {
                    out.push(w);
                    continue;
                }
                match w.last_exit {
                    ExitStatus::Zero => taken.push(w),
                    ExitStatus::NonZero => next_rest.push(w),
                    ExitStatus::Unknown => {
                        let parent = w.id;
                        let mut t = w.clone();
                        self.branch_child(
                            parent,
                            &mut t,
                            "elif",
                            span,
                            TrailKind::Branch,
                            "elif condition succeeded",
                        );
                        taken.push(t);
                        let mut e = w;
                        self.branch_child(
                            parent,
                            &mut e,
                            "elif",
                            span,
                            TrailKind::Branch,
                            "elif condition failed",
                        );
                        next_rest.push(e);
                    }
                }
            }
            out.extend(self.exec_items(taken, body));
            rest = next_rest;
        }
        match &clause.else_body {
            Some(body) => out.extend(self.exec_items(rest, body)),
            None => {
                for mut w in rest {
                    w.last_exit = ExitStatus::Zero;
                    out.push(w);
                }
            }
        }
        out
    }

    fn exec_while(
        &self,
        worlds: Vec<World>,
        clause: &WhileClause,
        until: bool,
        span: Span,
    ) -> Vec<World> {
        let mut exited: Vec<World> = Vec::new();
        let mut active = worlds;
        for _ in 0..self.opts.loop_bound {
            if active.is_empty() {
                break;
            }
            let after_cond = self.exec_items(active, &clause.cond);
            let mut looping = Vec::new();
            for w in after_cond {
                if w.halted {
                    exited.push(w);
                    continue;
                }
                let continues = match (w.last_exit, until) {
                    (ExitStatus::Zero, false) | (ExitStatus::NonZero, true) => Some(true),
                    (ExitStatus::NonZero, false) | (ExitStatus::Zero, true) => Some(false),
                    (ExitStatus::Unknown, _) => None,
                };
                match continues {
                    Some(true) => looping.push(w),
                    Some(false) => {
                        let mut w = w;
                        w.last_exit = ExitStatus::Zero;
                        exited.push(w);
                    }
                    None => {
                        let parent = w.id;
                        let mut stop = w.clone();
                        self.branch_child(
                            parent,
                            &mut stop,
                            "while",
                            span,
                            TrailKind::Branch,
                            "loop condition ended",
                        );
                        stop.last_exit = ExitStatus::Zero;
                        exited.push(stop);
                        let mut go = w;
                        self.branch_child(
                            parent,
                            &mut go,
                            "while",
                            span,
                            TrailKind::Branch,
                            "loop condition held",
                        );
                        looping.push(go);
                    }
                }
            }
            active = self.exec_items(looping, &clause.body);
        }
        // Beyond the unrolling bound: havoc body-assigned variables and
        // assume the loop eventually exits.
        if !active.is_empty() {
            self.stats.note_cap(CapReason::LoopBound, span.line, 0);
        }
        for mut w in active {
            havoc_assigned(&mut w, &clause.body);
            w.assume_at(
                span,
                TrailKind::Widen,
                format!(
                    "loop at {span} ran more than {} times",
                    self.opts.loop_bound
                ),
            );
            w.last_exit = ExitStatus::Zero;
            exited.push(w);
        }
        exited
    }

    fn exec_for(&self, world: World, clause: &ForClause, span: Span) -> Vec<World> {
        let branches: Vec<(World, Vec<Field>)> = match &clause.words {
            Some(words) => {
                let mut states = vec![(world, Vec::new())];
                for word in words {
                    let mut next = Vec::new();
                    for (w, fields) in states {
                        for (w2, fs) in expand_word(self, w, word) {
                            let mut all: Vec<Field> = fields.clone();
                            all.extend(fs);
                            next.push((w2, all));
                        }
                    }
                    states = next;
                }
                states
            }
            None => {
                let fields = world
                    .positional
                    .iter()
                    .map(|v| {
                        let mut f = Field::default();
                        f.chunks.push(crate::expand::Chunk {
                            value: v.clone(),
                            glob_active: true,
                            splittable_expansion: false,
                        });
                        f
                    })
                    .collect();
                vec![(world, fields)]
            }
        };
        let mut out = Vec::new();
        for (w, fields) in branches {
            if fields.len() > self.opts.loop_bound.max(8) {
                // Too many iterations to enumerate: havoc the variable.
                self.stats.note_cap(CapReason::LoopBound, span.line, 0);
                let mut w = w;
                let v = w.fresh_sym(Regex::any_line(), &format!("${}", clause.var));
                w.set_var(&clause.var, v);
                let mut worlds = self.exec_items(vec![w], &clause.body);
                for x in worlds.iter_mut() {
                    x.assume_at(
                        span,
                        TrailKind::Widen,
                        format!("for loop at {span} iterated many times"),
                    );
                }
                out.extend(worlds);
                continue;
            }
            let mut worlds = vec![w];
            for field in &fields {
                for x in worlds.iter_mut() {
                    x.set_var(&clause.var, field.value());
                }
                worlds = self.exec_items(worlds, &clause.body);
            }
            if fields.is_empty() {
                for x in worlds.iter_mut() {
                    x.last_exit = ExitStatus::Zero;
                }
            }
            out.extend(worlds);
        }
        out
    }

    fn exec_case(&self, world: World, clause: &CaseClause, span: Span) -> Vec<World> {
        let subjects = expand_word_single(self, world, &clause.subject);
        let mut out = Vec::new();
        for (mut w, subject) in subjects {
            // Platform-dependence: branching on uname/lsb_release output.
            let platform = subject.segs().iter().any(|s| match s {
                Seg::Sym { label, .. } => is_platform_source(label),
                _ => false,
            });
            if platform {
                w.report(Diagnostic::new(
                    DiagCode::PlatformDependent,
                    Severity::Note,
                    span,
                    format!(
                        "control flow depends on platform-specific output ({})",
                        subject.describe()
                    ),
                )
                .with_origin("checker:platform"));
            }
            let mut remaining = Some(w);
            for arm in &clause.arms {
                let Some(current) = remaining.take() else {
                    break;
                };
                let pattern = Regex::alt(arm.patterns.iter().map(word_pattern_to_regex).collect());
                match match_verdict(&subject, &pattern) {
                    MatchVerdict::Always => {
                        out.extend(self.exec_items(vec![current], &arm.body));
                    }
                    MatchVerdict::Never => {
                        remaining = Some(current);
                    }
                    MatchVerdict::Maybe => {
                        // Fork: matched world (refined) runs the arm;
                        // unmatched continues.
                        let sym = subject.as_single_sym().map(|(id, _)| id);
                        let parent = current.id;
                        let mut matched = current.clone();
                        let mut unmatched = current;
                        let mut feasible = true;
                        let mut un_feasible = true;
                        if let (Some(id), true) = (sym, self.opts.enable_pruning) {
                            feasible = matched.refine_sym(id, &pattern);
                            un_feasible = unmatched.refine_sym(id, &pattern.complement());
                        }
                        let match_text = format!("{} matches case pattern", subject.describe());
                        let unmatch_text =
                            format!("{} does not match case pattern", subject.describe());
                        if feasible {
                            self.branch_child(
                                parent,
                                &mut matched,
                                "case",
                                span,
                                TrailKind::Constraint,
                                match_text,
                            );
                            out.extend(self.exec_items(vec![matched], &arm.body));
                        } else {
                            self.branch_pruned(parent, "case", span, match_text);
                        }
                        if un_feasible {
                            self.branch_child(
                                parent,
                                &mut unmatched,
                                "case",
                                span,
                                TrailKind::Constraint,
                                unmatch_text,
                            );
                            remaining = Some(unmatched);
                        } else {
                            self.branch_pruned(parent, "case", span, unmatch_text);
                        }
                    }
                }
            }
            if let Some(mut no_match) = remaining {
                no_match.last_exit = ExitStatus::Zero;
                out.push(no_match);
            }
        }
        self.cap(out, span)
    }

    // -----------------------------------------------------------------
    // Simple commands
    // -----------------------------------------------------------------

    /// Runs a simple command over a live world set. What depends only
    /// on the AST — static words, assignment values and redirect
    /// targets, the command name and what it resolves to, and for a
    /// spec'd command with static argv its invocation and cases — is
    /// planned once per analysis ([`SimplePlan`], [`crate::plan`]). Each
    /// world then runs the rest alone and in order, so world ids,
    /// symbols and counters come out as if every world had run the
    /// whole command by itself.
    fn exec_simple(&self, worlds: Vec<World>, sc: &SimpleCommand) -> Vec<World> {
        if worlds.is_empty() {
            return worlds;
        }
        let plan = self.plans.simple(sc, || SimplePlan::new(&self.specs, sc));
        let mut out = Vec::new();
        for world in worlds {
            self.exec_simple_in(world, sc, &plan, &mut out);
        }
        out
    }

    /// The per-world part of [`Engine::exec_simple`].
    fn exec_simple_in(
        &self,
        world: World,
        sc: &SimpleCommand,
        plan: &SimplePlan,
        out: &mut Vec<World>,
    ) {
        // 1. Assignments (values expand in the current world).
        let mut states = vec![world];
        for (assign, value) in sc.assignments.iter().zip(&plan.assigns) {
            if let Some(v) = value {
                // Static: nothing to expand, no empty-value provenance.
                for w in states.iter_mut() {
                    w.set_var(&assign.name, v.clone());
                }
                continue;
            }
            let mut next = Vec::new();
            for w in states {
                for (mut w2, v) in expand_word_single(self, w, &assign.value) {
                    // Provenance: a computed value that is (or may be)
                    // empty is the seed of the Fig. 1 class of bugs —
                    // record it on the witness trail by variable name.
                    if assign.value.has_expansion() {
                        if v.as_literal().is_some_and(|l| l.is_empty()) {
                            w2.assume_at(
                                assign.value.span,
                                TrailKind::Constraint,
                                format!("${} expands to the empty string", assign.name),
                            );
                        } else if v.may_be_empty() {
                            w2.assume_at(
                                assign.value.span,
                                TrailKind::Constraint,
                                format!("${} may expand to the empty string", assign.name),
                            );
                        }
                    }
                    w2.set_var(&assign.name, v);
                    next.push(w2);
                }
            }
            states = next;
        }
        // 2. Words.
        let mut expanded: Vec<(World, Cow<[Field]>)>;
        match &plan.fields {
            Some(fields) if !sc.words.is_empty() => {
                // Static words never fork, so one truncation does the
                // work of one per word.
                expanded = states
                    .into_iter()
                    .map(|w| (w, Cow::Borrowed(&fields[..])))
                    .collect();
                expanded = self.truncate(expanded, sc.span, CapReason::Expansion, |p| &mut p.0);
            }
            _ => {
                expanded = states
                    .into_iter()
                    .map(|w| (w, Cow::Owned(Vec::new())))
                    .collect();
                for (word, fixed) in sc.words.iter().zip(&plan.words) {
                    match fixed {
                        Some(fs) => {
                            for (_, fields) in expanded.iter_mut() {
                                fields.to_mut().extend_from_slice(fs);
                            }
                        }
                        None => {
                            let mut next = Vec::new();
                            for (w, fields) in expanded {
                                for (w2, fs) in expand_word(self, w, word) {
                                    let mut all = fields.clone();
                                    all.to_mut().extend(fs);
                                    next.push((w2, all));
                                }
                            }
                            expanded = next;
                        }
                    }
                    expanded = self.truncate(expanded, sc.span, CapReason::Expansion, |p| &mut p.0);
                }
            }
        }
        // 3. Redirections: output redirects create/truncate their
        // targets; input redirects require them.
        if !sc.redirects.is_empty() {
            let mut redirected = Vec::new();
            for (w, fields) in expanded {
                let mut states = vec![w];
                for (redir, fixed) in sc.redirects.iter().zip(&plan.redirs) {
                    let mut next = Vec::new();
                    for mut w2 in states {
                        match fixed {
                            Some(target) => {
                                redirect_effect(&mut w2, redir.op, target);
                                next.push(w2);
                            }
                            None => {
                                for (mut w3, target) in expand_word_single(self, w2, &redir.target)
                                {
                                    redirect_effect(&mut w3, redir.op, &PathArg::new(target));
                                    next.push(w3);
                                }
                            }
                        }
                    }
                    states = next;
                }
                for w2 in states {
                    redirected.push((w2, fields.clone()));
                }
            }
            expanded = redirected;
        }
        let expanded = self.truncate(expanded, sc.span, CapReason::Expansion, |p| &mut p.0);
        // 4. Dispatch on the command name.
        for (mut w, fields) in expanded {
            if w.halted {
                out.push(w);
                continue;
            }
            if fields.is_empty() {
                w.last_exit = ExitStatus::Zero;
                out.push(w);
                continue;
            }
            let dynamic;
            let (name, resolved) = match &plan.name {
                Some((n, r)) => (n.as_str(), r),
                None => {
                    let Some(n) = fields[0].as_literal() else {
                        w.last_exit = ExitStatus::Unknown;
                        out.push(w);
                        continue;
                    };
                    dynamic = (Resolved::of(&self.specs, &n), n);
                    (dynamic.1.as_str(), &dynamic.0)
                }
            };
            let args = &fields[1..];
            if w.functions.contains_key(name) {
                out.extend(self.exec_function(w, name, args));
                continue;
            }
            match resolved {
                Resolved::Builtin => {
                    self.audit_command(name, sc.span.line, true);
                    out.extend(exec_builtin(self, w, name, args, sc.span));
                }
                Resolved::Rm => {
                    self.audit_command("rm", sc.span.line, true);
                    out.extend(self.exec_rm(w, args, sc.span));
                }
                Resolved::Spec(spec) => {
                    self.audit_command(name, sc.span.line, true);
                    out.extend(self.exec_specified(w, name, spec, args, sc.span));
                }
                Resolved::Classified(cases) => {
                    self.audit_command(name, sc.span.line, true);
                    match cases {
                        Some(cases) => out.extend(self.exec_spec_cases(w, name, cases, sc.span)),
                        None => {
                            w.last_exit = ExitStatus::Unknown;
                            out.push(w);
                        }
                    }
                }
                Resolved::Unknown => {
                    // Unknown command: unknown status; a capture gets
                    // an unconstrained value. The audit recorder
                    // dedupes by call site, so however many live
                    // worlds pass through here, the missing-spec
                    // ranking counts this (name, line) once.
                    self.audit_command(name, sc.span.line, false);
                    if w.capture.is_some() {
                        let v = w.fresh_sym(Regex::anything(), &format!("$({name} …)"));
                        w.emit_stdout(v);
                    }
                    w.last_exit = ExitStatus::Unknown;
                    out.push(w);
                }
            }
        }
    }

    fn exec_function(&self, mut world: World, name: &str, args: &[Field]) -> Vec<World> {
        if world.call_depth >= 4 {
            world.last_exit = ExitStatus::Unknown;
            return vec![world];
        }
        let body = world
            .functions
            .get(name)
            .cloned()
            .expect("exec_function is reached only for names just looked up in world.functions");
        let saved = world.positional.clone();
        world.positional = args.iter().map(Field::value).collect();
        world.call_depth += 1;
        let results = self.exec_command(world, &body);
        results
            .into_iter()
            .map(|mut r| {
                r.positional = saved.clone();
                r.call_depth = r.call_depth.saturating_sub(1);
                r
            })
            .collect()
    }

    /// `rm` gets a dedicated model because its arguments may carry
    /// *active glob tails* (`"$STEAMROOT"/*`), which the generic
    /// spec path cannot see. This is where Figs. 1 and 3 are caught.
    fn exec_rm(&self, world: World, args: &[Field], span: Span) -> Vec<World> {
        let mut recursive = false;
        let mut force = false;
        let mut operands: Vec<&Field> = Vec::new();
        for f in args {
            match f.as_literal() {
                Some(t) if t.starts_with('-') && t.len() > 1 && operands.is_empty() => {
                    for c in t.chars().skip(1) {
                        match c {
                            'r' | 'R' => recursive = true,
                            'f' => force = true,
                            _ => {}
                        }
                    }
                }
                _ => operands.push(f),
            }
        }
        let mut worlds = vec![world];
        for f in operands {
            let (base, glob_tail) = f.split_trailing_glob();
            // Danger check first — this is the headline Fig. 1 verdict.
            for w in worlds.iter_mut() {
                if let Some(danger) = classify_delete(&base, glob_tail.as_deref()) {
                    w.report(delete_diag(danger, &f.describe(), span));
                }
            }
            // Effects per world.
            let mut next = Vec::new();
            for mut w in worlds {
                let key = w.fs_key(&base);
                match (key, glob_tail.as_deref()) {
                    (Some(k), Some(_)) => {
                        // BASE/*: children removed, node kept.
                        let feasible = w.fs.require(&k, NodeState::Dir).ok();
                        if feasible || force {
                            w.fs.delete_children(&k);
                            w.last_exit = ExitStatus::Zero;
                        } else {
                            w.last_exit = ExitStatus::NonZero;
                        }
                        next.push(w);
                    }
                    (Some(k), None) => {
                        // Whole node. Fork on existence unless -f.
                        let parent = w.id;
                        let want = if recursive {
                            NodeState::Exists
                        } else {
                            NodeState::File
                        };
                        let mut exists_w = w.clone();
                        let require_outcome = exists_w.fs.require(&k, want);
                        let exists_ok = require_outcome.ok();
                        if exists_ok {
                            self.branch_child(
                                parent,
                                &mut exists_w,
                                "rm",
                                span,
                                TrailKind::FsState,
                                format!("{k} exists"),
                            );
                            // Without -f, rm succeeds only while the
                            // target exists — and we are about to delete
                            // it: idempotence-sensitive.
                            if !force
                                && matches!(require_outcome, shoal_symfs::state::Require::Assumed)
                            {
                                exists_w.fragile_assumptions.push((k.clone(), want, span));
                            }
                            exists_w.fs.delete_tree(&k);
                            exists_w.last_exit = ExitStatus::Zero;
                            next.push(exists_w);
                        } else {
                            self.branch_pruned(parent, "rm", span, format!("{k} exists"));
                        }
                        let mut absent_w = w.clone();
                        let absent_ok = absent_w.fs.require(&k, NodeState::Absent).ok();
                        if absent_ok {
                            self.branch_child(
                                parent,
                                &mut absent_w,
                                "rm",
                                span,
                                TrailKind::FsState,
                                format!("{k} is absent"),
                            );
                            absent_w.last_exit = if force {
                                ExitStatus::Zero
                            } else {
                                ExitStatus::NonZero
                            };
                            next.push(absent_w);
                        } else {
                            self.branch_pruned(parent, "rm", span, format!("{k} is absent"));
                        }
                        if !exists_ok && !absent_ok {
                            // Both impossible: e.g. target is a dir and
                            // -r is missing, after the dir was deleted…
                            w.report(Diagnostic::new(
                                DiagCode::AlwaysFails,
                                Severity::Warning,
                                span,
                                format!("rm {} can never succeed here", base.describe()),
                            )
                            .with_origin("checker:rm"));
                            w.last_exit = ExitStatus::NonZero;
                            next.push(w);
                        } else if !recursive && exists_ok {
                            // A directory without -r fails; we folded
                            // that into the File requirement above.
                        }
                    }
                    (None, _) => {
                        w.last_exit = ExitStatus::Unknown;
                        next.push(w);
                    }
                }
            }
            worlds = next;
        }
        worlds
    }

    /// Generic spec-driven execution of an external command whose argv
    /// varies per world: classifies this world's argv, then runs the
    /// cases that apply.
    fn exec_specified(
        &self,
        world: World,
        name: &str,
        spec: &Arc<CommandSpec>,
        args: &[Field],
        span: Span,
    ) -> Vec<World> {
        // Build argv, remembering which operand slots are symbolic.
        let mut argv: Vec<String> = Vec::new();
        let mut symbolic: Vec<(String, SymStr)> = Vec::new();
        for (i, f) in args.iter().enumerate() {
            match f.as_literal() {
                Some(t) => argv.push(t),
                None => {
                    let marker = format!("\u{1}sym{i}");
                    symbolic.push((marker.clone(), f.value()));
                    argv.push(marker);
                }
            }
        }
        match SpecCases::classify(Arc::clone(spec), &argv, &symbolic) {
            Some(cases) => self.exec_spec_cases(world, name, &cases, span),
            None => {
                let mut w = world;
                w.last_exit = ExitStatus::Unknown;
                vec![w]
            }
        }
    }

    /// Runs the applicable cases of a classified invocation on one
    /// world: one successor per feasible case.
    fn exec_spec_cases(&self, world: World, name: &str, cs: &SpecCases, span: Span) -> Vec<World> {
        let mut out = Vec::new();
        let mut any_feasible = false;
        let mut success_feasible = false;
        let success_possible = cs.cases().any(|c| c.exit != ExitSpec::Failure);
        let multi_case = cs.cases().len() > 1;
        for (i, case) in cs.cases().enumerate() {
            if doomed(&world, cs, case) {
                if multi_case {
                    self.branch_pruned(world.id, "spec", span, cs.labels[i].as_str());
                }
                continue;
            }
            let mut w = world.clone();
            // Preconditions.
            let mut feasible = true;
            for Cond::OperandIs(marker, req) in &case.pre {
                let Some(want) = node_state(*req) else {
                    continue;
                };
                for idx in operand_indices(*marker, cs.inv.operands.len()) {
                    let Some(key) = cs.key(&mut w, idx) else {
                        continue;
                    };
                    match w.fs.require(&key, want) {
                        Require::Contradiction(_) => {
                            feasible = false;
                        }
                        outcome => {
                            w.assume_at(span, TrailKind::FsState, format!("{key} is {want}"));
                            // Idempotence sensitivity: this command's
                            // success hinges on `want`; if no other
                            // success case covers the complementary
                            // state, a re-run after the script flips the
                            // state will fail.
                            if matches!(outcome, Require::Assumed)
                                && case.exit != ExitSpec::Failure
                                && !has_success_case_for_complement(cs, want)
                            {
                                w.fragile_assumptions.push((key.clone(), want, span));
                            }
                        }
                    }
                }
            }
            if !feasible {
                if multi_case {
                    self.branch_pruned(world.id, "spec", span, cs.labels[i].as_str());
                }
                continue;
            }
            if multi_case {
                self.branch_child(
                    world.id,
                    &mut w,
                    "spec",
                    span,
                    TrailKind::FsState,
                    cs.labels[i].as_str(),
                );
            }
            any_feasible = true;
            if case.exit != ExitSpec::Failure {
                success_feasible = true;
            }
            // Effects.
            for effect in &case.effects {
                self.apply_effect(&mut w, effect, cs, case.stdout_line.as_deref());
            }
            w.last_exit = match case.exit {
                ExitSpec::Success => ExitStatus::Zero,
                ExitSpec::Failure => ExitStatus::NonZero,
                ExitSpec::Unknown => ExitStatus::Unknown,
            };
            out.push(w);
        }
        if success_possible && !success_feasible {
            // No *success* behavior is consistent with the current world:
            // the command always fails on this path — the §4
            // `rm $1; cat $1/config` verdict. Only report when the
            // blocking state is the script's *own doing* (an effect);
            // failing on a path where we merely assumed an unlucky
            // initial world is ordinary behavior, not a bug.
            if let Some((message, script_caused)) = first_contradiction(&world, cs) {
                if script_caused {
                    let diag = Diagnostic::new(
                        DiagCode::AlwaysFails,
                        Severity::Warning,
                        span,
                        format!("`{}` can never succeed here: {message}", cs.inv),
                    )
                    .with_origin(format!("spec:{name}"));
                    match out.first_mut() {
                        Some(w) => w.report(diag),
                        None => {
                            let mut w = world.clone();
                            w.report(diag);
                            w.last_exit = ExitStatus::NonZero;
                            out.push(w);
                        }
                    }
                }
            }
            if out.is_empty() {
                let mut w = world;
                w.last_exit = ExitStatus::NonZero;
                out.push(w);
            }
        } else if !any_feasible {
            let mut w = world;
            w.last_exit = ExitStatus::NonZero;
            out.push(w);
        }
        self.cap(out, span)
    }

    fn apply_effect(
        &self,
        w: &mut World,
        effect: &Effect,
        cs: &SpecCases,
        stdout_line: Option<&str>,
    ) {
        let each = |w: &mut World, marker: usize, f: &mut dyn FnMut(&mut World, FsKey)| {
            for idx in operand_indices(marker, cs.inv.operands.len()) {
                if let Some(k) = cs.key(w, idx) {
                    f(w, k);
                }
            }
        };
        match effect {
            Effect::Deletes(m) => each(w, *m, &mut |w, k| w.fs.delete_tree(&k)),
            Effect::DeletesChildren(m) => each(w, *m, &mut |w, k| w.fs.delete_children(&k)),
            Effect::CreatesFile(m) => each(w, *m, &mut |w, k| {
                let _ = w.fs.create_file(&k);
            }),
            Effect::CreatesDir(m) | Effect::CreatesDirChain(m) => each(w, *m, &mut |w, k| {
                let _ = w.fs.create_dir(&k);
            }),
            Effect::Reads(m) | Effect::Writes(m) => each(w, *m, &mut |w, k| {
                let _ = w.fs.require(&k, NodeState::Exists);
            }),
            Effect::CopiesTo { src, dst } => {
                if cs.operands.get(*src).is_some() && cs.operands.get(*dst).is_some() {
                    if let Some(sk) = cs.key(w, *src) {
                        let _ = w.fs.require(&sk, NodeState::Exists);
                    }
                    if let Some(dk) = cs.key(w, *dst) {
                        let _ = w.fs.create_file(&dk);
                    }
                }
            }
            Effect::MovesTo { src, dst } => {
                if cs.operands.get(*src).is_some() && cs.operands.get(*dst).is_some() {
                    if let Some(sk) = cs.key(w, *src) {
                        w.fs.delete_tree(&sk);
                    }
                    if let Some(dk) = cs.key(w, *dst) {
                        let _ = w.fs.create_file(&dk);
                    }
                }
            }
            Effect::ChangesCwdTo(m) => {
                if let Some(idx) = operand_indices(*m, cs.inv.operands.len()).next() {
                    if let Some(v) = cs.operands.get(idx) {
                        w.cwd = v.value.clone();
                    }
                }
            }
            Effect::WritesStdout => {
                if w.capture.is_some() {
                    let line_type = stdout_line
                        .and_then(|p| Regex::parse(p).ok())
                        .unwrap_or_else(Regex::any_line);
                    // Zero or more lines of the given type, without the
                    // final newline ($(…) strips it).
                    let lang =
                        Regex::concat(vec![line_type.then(&Regex::byte(b'\n')).star(), line_type])
                            .opt();
                    let v = w.fresh_sym(lang, &format!("$({})", cs.inv));
                    w.emit_stdout(v);
                }
            }
            Effect::WritesStderr => {}
        }
    }
}

/// The outcome of [`Engine::stream_check_pipeline`].
#[derive(Debug, Clone)]
pub struct StreamCheck {
    /// Dead pipes and type mismatches, in stage order.
    pub findings: Vec<Diagnostic>,
    /// The final output line type; `None` when some stage cannot be
    /// modelled.
    pub output: Option<Regex>,
}

/// A redirection's effect on its target: output redirects create (or
/// truncate) it, input redirects require it.
fn redirect_effect(w: &mut World, op: RedirOp, target: &PathArg) {
    match op {
        RedirOp::Out | RedirOp::Append | RedirOp::Clobber | RedirOp::ReadWrite => {
            if let Some(k) = target.key(w) {
                let _ = w.fs.create_file(&k);
            }
        }
        RedirOp::In => {
            if let Some(k) = target.key(w) {
                let _ = w.fs.require(&k, NodeState::File);
            }
        }
        _ => {}
    }
}

/// The node state a precondition asks for; `None` for no constraint.
fn node_state(req: NodeReq) -> Option<NodeState> {
    match req {
        NodeReq::File => Some(NodeState::File),
        NodeReq::Dir => Some(NodeState::Dir),
        NodeReq::Exists => Some(NodeState::Exists),
        NodeReq::Absent => Some(NodeState::Absent),
        NodeReq::Any => None,
    }
}

/// Does any success case have a precondition compatible with the state
/// complementary to `want`? (Used for idempotence sensitivity: if
/// `want` = Absent and no success case accepts an existing node, the
/// command breaks on re-run once the node exists.)
fn has_success_case_for_complement(cs: &SpecCases, want: NodeState) -> bool {
    let complement_ok = |req: &NodeReq| match want {
        NodeState::Absent => {
            matches!(
                req,
                NodeReq::Exists | NodeReq::File | NodeReq::Dir | NodeReq::Any
            )
        }
        _ => matches!(req, NodeReq::Absent | NodeReq::Any),
    };
    cs.cases().any(|c| {
        c.exit != ExitSpec::Failure
            && c.pre
                .iter()
                .all(|Cond::OperandIs(_, req)| complement_ok(req))
    })
}

/// Does a precondition on a fixed key contradict what `w` knows? Then
/// the case cannot apply: requiring its other preconditions first only
/// narrows the heap, so that one would still contradict.
fn doomed(w: &World, cs: &SpecCases, case: &SpecCase) -> bool {
    case.pre.iter().any(|Cond::OperandIs(marker, req)| {
        node_state(*req).is_some_and(|want| {
            operand_indices(*marker, cs.inv.operands.len())
                .filter_map(|idx| cs.operands.get(idx)?.fixed.as_ref())
                .any(|key| w.fs.contradicts(key, want))
        })
    })
}

/// Finds the blocking precondition for the always-fails message:
/// returns (explanation, script_caused) where `script_caused` is true
/// when the blocking state is an effect the script performed rather
/// than an assumption about the initial world.
fn first_contradiction(w: &World, cs: &SpecCases) -> Option<(String, bool)> {
    for case in cs.cases() {
        if case.exit == ExitSpec::Failure {
            continue;
        }
        let mut probe = w.clone();
        for Cond::OperandIs(marker, req) in &case.pre {
            let Some(want) = node_state(*req) else {
                continue;
            };
            for idx in operand_indices(*marker, cs.inv.operands.len()) {
                let Some(key) = cs.key(&mut probe, idx) else {
                    continue;
                };
                if let Require::Contradiction(c) = probe.fs.require(&key, want) {
                    let assumed = w.fs.determined_by_assumption(&key);
                    return Some((c, !assumed));
                }
            }
        }
    }
    None
}

/// Havocs every variable assigned anywhere in `items` (used after loop
/// widening).
fn havoc_assigned(w: &mut World, items: &[ListItem]) {
    let mut names = Vec::new();
    collect_assigned(items, &mut names);
    for name in names {
        let v = w.fresh_sym(Regex::any_line(), &format!("${name} (loop-widened)"));
        w.set_var(&name, v);
    }
}

fn collect_assigned(items: &[ListItem], out: &mut Vec<String>) {
    for item in items {
        let mut pipes = vec![&item.and_or.first];
        pipes.extend(item.and_or.rest.iter().map(|(_, p)| p));
        for p in pipes {
            for c in &p.commands {
                collect_assigned_cmd(c, out);
            }
        }
    }
}

fn collect_assigned_cmd(cmd: &Command, out: &mut Vec<String>) {
    match cmd {
        Command::Simple(sc) => {
            for a in &sc.assignments {
                out.push(a.name.clone());
            }
            if sc.name_literal().as_deref() == Some("read") {
                for wd in &sc.words[1..] {
                    if let Some(n) = wd.as_literal() {
                        if !n.starts_with('-') {
                            out.push(n);
                        }
                    }
                }
            }
        }
        Command::BraceGroup(items, _, _) | Command::Subshell(items, _, _) => {
            collect_assigned(items, out)
        }
        Command::If(c, _, _) => {
            collect_assigned(&c.cond, out);
            collect_assigned(&c.then_body, out);
            for (cc, bb) in &c.elifs {
                collect_assigned(cc, out);
                collect_assigned(bb, out);
            }
            if let Some(e) = &c.else_body {
                collect_assigned(e, out);
            }
        }
        Command::While(c, _, _) | Command::Until(c, _, _) => {
            collect_assigned(&c.cond, out);
            collect_assigned(&c.body, out);
        }
        Command::For(c, _, _) => {
            out.push(c.var.clone());
            collect_assigned(&c.body, out);
        }
        Command::Case(c, _, _) => {
            for arm in &c.arms {
                collect_assigned(&arm.body, out);
            }
        }
        Command::FunctionDef { body, .. } => collect_assigned_cmd(body, out),
    }
}
