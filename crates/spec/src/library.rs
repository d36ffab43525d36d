//! The hand-written ground-truth specification library.
//!
//! These specifications are the "queryable specification library
//! accompanying the analysis engine" (§3). They are hand-written from
//! the POSIX descriptions of each utility and serve three purposes:
//!
//! 1. the symbolic engine consumes them as transfer functions for
//!    external commands;
//! 2. the miner's output is evaluated against them (experiment E4);
//! 3. they document, in one auditable place, exactly which behaviors the
//!    analysis believes in.
//!
//! Coverage focuses on the utilities the paper's examples exercise, plus
//! the common file-manipulation and filter utilities any real script
//! corpus hits.

use crate::hoare::{CommandSpec, Cond, Effect, ExitSpec, Guard, NodeReq, SpecCase, EACH, REST};
use crate::syntax::{ArgKind, CmdSyntax};
use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock};

/// The queryable spec library.
///
/// A copy-on-write value: clones share one map, and [`Self::insert`]
/// copies it first if another clone still holds it. Each spec sits
/// behind its own `Arc`, so that copy is shallow and a caller can keep
/// a spec ([`Self::shared`]) without borrowing the library. Every
/// [`Self::builtin`] call hands out the same process-wide build, so an
/// analysis pays a refcount bump for it, not a rebuild; a caller that
/// customizes its library (mined specs in place of hand-written ones)
/// gets a private copy and changes no other analysis.
#[derive(Debug, Clone, Default)]
pub struct SpecLibrary {
    specs: Arc<BTreeMap<String, Arc<CommandSpec>>>,
}

/// The built-in library, built on first use.
static BUILTIN: LazyLock<SpecLibrary> = LazyLock::new(|| {
    let mut lib = SpecLibrary::new();
    for spec in builtin_specs() {
        lib.insert(spec);
    }
    lib
});

impl SpecLibrary {
    /// An empty library.
    pub fn new() -> SpecLibrary {
        SpecLibrary::default()
    }

    /// The built-in ground-truth library.
    pub fn builtin() -> SpecLibrary {
        BUILTIN.clone()
    }

    /// Adds or replaces a spec (in this library only).
    pub fn insert(&mut self, spec: CommandSpec) {
        Arc::make_mut(&mut self.specs).insert(spec.name().to_string(), Arc::new(spec));
    }

    /// Looks up a utility by name.
    pub fn get(&self, name: &str) -> Option<&CommandSpec> {
        self.specs.get(name).map(|spec| &**spec)
    }

    /// Looks up a utility by name, as a handle that outlives the
    /// library borrow.
    pub fn shared(&self, name: &str) -> Option<Arc<CommandSpec>> {
        self.specs.get(name).cloned()
    }

    /// All specified utility names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.specs.keys().map(String::as_str).collect()
    }

    /// Number of specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the library is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// A stable fingerprint of the whole spec database, for cache
    /// invalidation: any observable change to any spec — a new utility,
    /// a changed guard, a different exit code — changes the rendered
    /// text ([`crate::text::render_spec`]) and therefore the hash. The
    /// `BTreeMap` iterates in sorted name order, so the fingerprint is
    /// independent of insertion order.
    pub fn fingerprint(&self) -> u64 {
        let mut buf = String::new();
        for (name, spec) in self.specs.iter() {
            buf.push_str(name);
            buf.push('\0');
            buf.push_str(&crate::text::render_spec(spec));
            buf.push('\0');
        }
        shoal_obs::hash::fnv1a64(buf.as_bytes())
    }
}

/// Shorthand constructors used throughout the library definition.
fn case(guard: Guard) -> SpecCase {
    SpecCase::new(guard)
}

fn builtin_specs() -> Vec<CommandSpec> {
    vec![
        rm_spec(),
        rmdir_spec(),
        mkdir_spec(),
        touch_spec(),
        cat_spec(),
        cp_spec(),
        mv_spec(),
        ls_spec(),
        realpath_spec(),
        cd_spec(),
        grep_spec(),
        sed_spec(),
        cut_spec(),
        sort_spec(),
        head_spec(),
        tail_spec(),
        tr_spec(),
        uniq_spec(),
        wc_spec(),
        echo_spec(),
        lsb_release_spec(),
        uname_spec(),
        curl_spec(),
        tee_spec(),
        ln_spec(),
        chmod_spec(),
        find_spec(),
        basename_spec(),
        dirname_spec(),
        date_spec(),
    ]
}

/// `rm` — the paper's running example. The first `[f r]` case is the
/// paper's displayed triple.
fn rm_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("rm", 1, None)
            .flag('f', "ignore nonexistent files, never prompt")
            .flag('r', "remove directories and their contents recursively")
            .flag('R', "equivalent to -r")
            .flag('i', "prompt before every removal")
            .flag('v', "explain what is being done"),
        cases: vec![
            // {(∃ $p) ∧ (arg 0 $p path.FD)} rm -f -r $p {(∄ $p) ∧ exit 0}
            case(Guard::with_flags(&['f', 'r']))
                .pre(Cond::OperandIs(EACH, NodeReq::Any))
                .effect(Effect::Deletes(EACH))
                .exit(ExitSpec::Success),
            case(Guard {
                requires_flags: vec!['r'],
                forbids_flags: vec!['f'],
                operand_count: None,
            })
            .pre(Cond::OperandIs(EACH, NodeReq::Exists))
            .effect(Effect::Deletes(EACH))
            .exit(ExitSpec::Success),
            case(Guard {
                requires_flags: vec!['r'],
                forbids_flags: vec!['f'],
                operand_count: None,
            })
            .pre(Cond::OperandIs(EACH, NodeReq::Absent))
            .effect(Effect::WritesStderr)
            .exit(ExitSpec::Failure),
            case(Guard {
                requires_flags: vec!['f'],
                forbids_flags: vec!['r'],
                operand_count: None,
            })
            .pre(Cond::OperandIs(EACH, NodeReq::File))
            .effect(Effect::Deletes(EACH))
            .exit(ExitSpec::Success),
            case(Guard {
                requires_flags: vec!['f'],
                forbids_flags: vec!['r'],
                operand_count: None,
            })
            .pre(Cond::OperandIs(EACH, NodeReq::Absent))
            .exit(ExitSpec::Success),
            case(Guard::without_flags(&['r', 'f']))
                .pre(Cond::OperandIs(EACH, NodeReq::File))
                .effect(Effect::Deletes(EACH))
                .exit(ExitSpec::Success),
            case(Guard::without_flags(&['r', 'f']))
                .pre(Cond::OperandIs(EACH, NodeReq::Absent))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
            // A directory without -r always fails, -f or not.
            case(Guard::without_flags(&['r']))
                .pre(Cond::OperandIs(EACH, NodeReq::Dir))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
        ],
    }
}

fn rmdir_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("rmdir", 1, None).flag('p', "remove ancestors too"),
        cases: vec![
            case(Guard::always())
                .pre(Cond::OperandIs(EACH, NodeReq::Dir))
                .effect(Effect::Deletes(EACH))
                .exit(ExitSpec::Success),
            case(Guard::always())
                .pre(Cond::OperandIs(EACH, NodeReq::Absent))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
            case(Guard::always())
                .pre(Cond::OperandIs(EACH, NodeReq::File))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
        ],
    }
}

fn mkdir_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("mkdir", 1, None)
            .flag('p', "make parents as needed; no error if existing")
            .option('m', ArgKind::Str, "set file mode"),
        cases: vec![
            case(Guard::with_flags(&['p']))
                .effect(Effect::CreatesDirChain(EACH))
                .exit(ExitSpec::Success),
            case(Guard::without_flags(&['p']))
                .pre(Cond::OperandIs(EACH, NodeReq::Absent))
                .effect(Effect::CreatesDir(EACH))
                .exit(ExitSpec::Success),
            case(Guard::without_flags(&['p']))
                .pre(Cond::OperandIs(EACH, NodeReq::Exists))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
        ],
    }
}

fn touch_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("touch", 1, None)
            .flag('a', "change access time only")
            .flag('m', "change modification time only")
            .flag('c', "do not create"),
        cases: vec![
            case(Guard::without_flags(&['c']))
                .pre(Cond::OperandIs(EACH, NodeReq::Absent))
                .effect(Effect::CreatesFile(EACH))
                .exit(ExitSpec::Success),
            case(Guard::always())
                .pre(Cond::OperandIs(EACH, NodeReq::Exists))
                .effect(Effect::Writes(EACH))
                .exit(ExitSpec::Success),
            case(Guard::with_flags(&['c']))
                .pre(Cond::OperandIs(EACH, NodeReq::Absent))
                .exit(ExitSpec::Success),
        ],
    }
}

fn cat_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("cat", 0, None)
            .flag('u', "unbuffered")
            .flag('n', "number output lines"),
        cases: vec![
            case(Guard {
                operand_count: Some((1, None)),
                ..Guard::default()
            })
            .pre(Cond::OperandIs(EACH, NodeReq::File))
            .effect(Effect::Reads(EACH))
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Success),
            case(Guard {
                operand_count: Some((1, None)),
                ..Guard::default()
            })
            .pre(Cond::OperandIs(EACH, NodeReq::Absent))
            .effect(Effect::WritesStderr)
            .exit(ExitSpec::Failure),
            case(Guard {
                operand_count: Some((1, None)),
                ..Guard::default()
            })
            .pre(Cond::OperandIs(EACH, NodeReq::Dir))
            .effect(Effect::WritesStderr)
            .exit(ExitSpec::Failure),
            // No operands: a pure stdin→stdout filter.
            case(Guard {
                operand_count: Some((0, Some(0))),
                ..Guard::default()
            })
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Success),
        ],
    }
}

fn cp_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("cp", 2, None)
            .flag('r', "copy directories recursively")
            .flag('R', "copy directories recursively")
            .flag('f', "force")
            .flag('p', "preserve attributes"),
        cases: vec![
            case(Guard::with_flags(&['r']))
                .pre(Cond::OperandIs(0, NodeReq::Exists))
                .effect(Effect::CopiesTo { src: 0, dst: 1 })
                .exit(ExitSpec::Success),
            case(Guard::without_flags(&['r', 'R']))
                .pre(Cond::OperandIs(0, NodeReq::File))
                .effect(Effect::CopiesTo { src: 0, dst: 1 })
                .exit(ExitSpec::Success),
            case(Guard::without_flags(&['r', 'R']))
                .pre(Cond::OperandIs(0, NodeReq::Dir))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
            case(Guard::always())
                .pre(Cond::OperandIs(0, NodeReq::Absent))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
        ],
    }
}

fn mv_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("mv", 2, None)
            .flag('f', "force")
            .flag('i', "interactive"),
        cases: vec![
            case(Guard::always())
                .pre(Cond::OperandIs(0, NodeReq::Exists))
                .effect(Effect::MovesTo { src: 0, dst: 1 })
                .exit(ExitSpec::Success),
            case(Guard::always())
                .pre(Cond::OperandIs(0, NodeReq::Absent))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
        ],
    }
}

fn ls_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("ls", 0, None)
            .flag('l', "long listing format")
            .flag('a', "include entries starting with .")
            .flag('1', "one entry per line"),
        cases: vec![
            case(Guard::with_flags(&['l']))
                .pre(Cond::OperandIs(EACH, NodeReq::Exists))
                .effect(Effect::Reads(EACH))
                .effect(Effect::WritesStdout)
                .exit(ExitSpec::Success)
                // The `longlist` descriptive type (§4 "Ergonomic
                // annotations"): mode, links, owner, group, size, date,
                // name.
                .stdout("[-dlbcps][-rwxsStT]{9} +[0-9]+ +[^ ]+ +[^ ]+ +[0-9]+ .*"),
            case(Guard::without_flags(&['l']))
                .pre(Cond::OperandIs(EACH, NodeReq::Exists))
                .effect(Effect::Reads(EACH))
                .effect(Effect::WritesStdout)
                .exit(ExitSpec::Success),
            case(Guard::always())
                .pre(Cond::OperandIs(EACH, NodeReq::Absent))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
        ],
    }
}

fn realpath_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("realpath", 1, None)
            .flag('e', "all components must exist")
            .flag('m', "no components need exist"),
        cases: vec![
            case(Guard::without_flags(&['m']))
                .pre(Cond::OperandIs(EACH, NodeReq::Exists))
                .effect(Effect::WritesStdout)
                .exit(ExitSpec::Success)
                .stdout(r"/([^/\n]+(/[^/\n]+)*)?"),
            case(Guard::without_flags(&['m']))
                .pre(Cond::OperandIs(EACH, NodeReq::Absent))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
            case(Guard::with_flags(&['m']))
                .effect(Effect::WritesStdout)
                .exit(ExitSpec::Success)
                .stdout(r"/([^/\n]+(/[^/\n]+)*)?"),
        ],
    }
}

/// `cd` is a shell built-in; the engine implements it natively, but the
/// spec records the same behavior for the miner to rediscover.
fn cd_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("cd", 0, Some(1)),
        cases: vec![
            case(Guard {
                operand_count: Some((1, Some(1))),
                ..Guard::default()
            })
            .pre(Cond::OperandIs(0, NodeReq::Dir))
            .effect(Effect::ChangesCwdTo(0))
            .exit(ExitSpec::Success),
            case(Guard {
                operand_count: Some((1, Some(1))),
                ..Guard::default()
            })
            .pre(Cond::OperandIs(0, NodeReq::Absent))
            .effect(Effect::WritesStderr)
            .exit(ExitSpec::Failure),
            case(Guard {
                operand_count: Some((1, Some(1))),
                ..Guard::default()
            })
            .pre(Cond::OperandIs(0, NodeReq::File))
            .effect(Effect::WritesStderr)
            .exit(ExitSpec::Failure),
        ],
    }
}

fn grep_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("grep", 1, None)
            .operands_of(ArgKind::Pattern)
            .flag('q', "quiet: exit status only")
            .flag('i', "case-insensitive")
            .flag('v', "invert match")
            .flag('c', "count matching lines")
            .flag('n', "prefix line numbers")
            .flag('o', "print only matching parts")
            .flag('E', "extended regular expressions")
            .flag('F', "fixed strings")
            .option('e', ArgKind::Pattern, "pattern"),
        cases: vec![
            // With file operands (pattern is operand 0, files follow).
            case(Guard {
                operand_count: Some((2, None)),
                ..Guard::default()
            })
            .pre(Cond::OperandIs(REST, NodeReq::File))
            .effect(Effect::Reads(REST))
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Unknown),
            case(Guard {
                operand_count: Some((2, None)),
                ..Guard::default()
            })
            .pre(Cond::OperandIs(REST, NodeReq::Absent))
            .effect(Effect::WritesStderr)
            .exit(ExitSpec::Failure),
            // Pure filter form. Stream types come from shoal-streamty.
            case(Guard {
                operand_count: Some((1, Some(1))),
                ..Guard::default()
            })
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Unknown),
        ],
    }
}

fn sed_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("sed", 1, None)
            .operands_of(ArgKind::Pattern)
            .flag('n', "suppress automatic printing")
            .option('e', ArgKind::Pattern, "script")
            .option('i', ArgKind::Str, "edit in place"),
        cases: vec![
            case(Guard {
                operand_count: Some((2, None)),
                ..Guard::default()
            })
            .pre(Cond::OperandIs(REST, NodeReq::File))
            .effect(Effect::Reads(REST))
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Success),
            case(Guard {
                operand_count: Some((1, Some(1))),
                ..Guard::default()
            })
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Success),
        ],
    }
}

/// A plain stdin→stdout filter with optional file operands.
fn filter_spec(name: &str, syntax: CmdSyntax) -> CommandSpec {
    CommandSpec {
        syntax,
        cases: vec![
            case(Guard {
                operand_count: Some((1, None)),
                ..Guard::default()
            })
            .pre(Cond::OperandIs(EACH, NodeReq::File))
            .effect(Effect::Reads(EACH))
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Success),
            case(Guard {
                operand_count: Some((1, None)),
                ..Guard::default()
            })
            .pre(Cond::OperandIs(EACH, NodeReq::Absent))
            .effect(Effect::WritesStderr)
            .exit(ExitSpec::Failure),
            case(Guard {
                operand_count: Some((0, Some(0))),
                ..Guard::default()
            })
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Success),
        ],
    }
    .rename(name)
}

impl CommandSpec {
    /// Renames the spec (used by the shared filter constructor).
    fn rename(mut self, name: &str) -> CommandSpec {
        self.syntax.name = name.to_string();
        self
    }
}

fn cut_spec() -> CommandSpec {
    filter_spec(
        "cut",
        CmdSyntax::simple("cut", 0, None)
            .option('f', ArgKind::Number, "select fields")
            .option('c', ArgKind::Number, "select characters")
            .option('d', ArgKind::Str, "field delimiter"),
    )
}

fn sort_spec() -> CommandSpec {
    filter_spec(
        "sort",
        CmdSyntax::simple("sort", 0, None)
            .flag('g', "general numeric sort")
            .flag('n', "numeric sort")
            .flag('r', "reverse")
            .flag('u', "unique")
            .option('k', ArgKind::Str, "sort key")
            .option('t', ArgKind::Str, "field separator"),
    )
}

fn head_spec() -> CommandSpec {
    filter_spec(
        "head",
        CmdSyntax::simple("head", 0, None).option('n', ArgKind::Number, "line count"),
    )
}

fn tail_spec() -> CommandSpec {
    filter_spec(
        "tail",
        CmdSyntax::simple("tail", 0, None)
            .flag('f', "follow appended data")
            .option('n', ArgKind::Number, "line count"),
    )
}

fn tr_spec() -> CommandSpec {
    filter_spec(
        "tr",
        CmdSyntax::simple("tr", 0, Some(2))
            .operands_of(ArgKind::Str)
            .flag('d', "delete characters")
            .flag('s', "squeeze repeats"),
    )
}

fn uniq_spec() -> CommandSpec {
    filter_spec(
        "uniq",
        CmdSyntax::simple("uniq", 0, Some(2))
            .flag('c', "prefix counts")
            .flag('d', "only duplicates")
            .flag('u', "only unique lines"),
    )
}

fn wc_spec() -> CommandSpec {
    let mut spec = filter_spec(
        "wc",
        CmdSyntax::simple("wc", 0, None)
            .flag('l', "count lines")
            .flag('w', "count words")
            .flag('c', "count bytes"),
    );
    // Filter form of `wc -l` emits a single number.
    if let Some(c) = spec.cases.last_mut() {
        c.stdout_line = Some(" *[0-9]+".to_string());
    }
    spec
}

fn echo_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("echo", 0, None)
            .operands_of(ArgKind::Str)
            .flag('n', "no trailing newline"),
        cases: vec![case(Guard::always())
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Success)],
    }
}

fn lsb_release_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("lsb_release", 0, Some(0))
            .flag('a', "all information")
            .flag('d', "description only")
            .flag('r', "release only")
            .flag('i', "distributor id only")
            .flag('c', "codename only")
            .flag('s', "short output"),
        cases: vec![
            // The paper's Fig. 5 input: "lines of label-value pairs
            // separated by tabs".
            case(Guard::with_flags(&['a']))
                .effect(Effect::WritesStdout)
                .exit(ExitSpec::Success)
                .stdout(r"(Distributor ID|Description|Release|Codename):\t.*"),
            case(Guard::without_flags(&['a']))
                .effect(Effect::WritesStdout)
                .exit(ExitSpec::Success),
        ],
    }
}

fn uname_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("uname", 0, Some(0))
            .flag('s', "kernel name")
            .flag('a', "all")
            .flag('r', "release")
            .flag('m', "machine"),
        cases: vec![case(Guard::always())
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Success)
            // Platform-dependent output (E12).
            .stdout("(Linux|Darwin|FreeBSD).*")],
    }
}

fn curl_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("curl", 1, None)
            .operands_of(ArgKind::Str)
            .flag('s', "silent")
            .flag('L', "follow redirects")
            .flag('f', "fail on HTTP errors")
            .option('o', ArgKind::Path, "write output to file"),
        cases: vec![case(Guard::always())
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Unknown)],
    }
}

fn tee_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("tee", 0, None).flag('a', "append"),
        cases: vec![case(Guard::always())
            .effect(Effect::CreatesFile(EACH))
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Success)],
    }
}

fn ln_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("ln", 2, Some(2))
            .flag('s', "symbolic link")
            .flag('f', "force"),
        cases: vec![
            case(Guard::always())
                .pre(Cond::OperandIs(0, NodeReq::Exists))
                .effect(Effect::CreatesFile(1))
                .exit(ExitSpec::Success),
            case(Guard::without_flags(&['s']))
                .pre(Cond::OperandIs(0, NodeReq::Absent))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
        ],
    }
}

fn chmod_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("chmod", 2, None).flag('R', "recursive"),
        cases: vec![
            case(Guard::always())
                .pre(Cond::OperandIs(REST, NodeReq::Exists))
                .effect(Effect::Writes(REST))
                .exit(ExitSpec::Success),
            case(Guard::always())
                .pre(Cond::OperandIs(REST, NodeReq::Absent))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
        ],
    }
}

fn find_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("find", 1, None).operands_of(ArgKind::Str),
        cases: vec![
            case(Guard::always())
                .pre(Cond::OperandIs(0, NodeReq::Exists))
                .effect(Effect::Reads(0))
                .effect(Effect::WritesStdout)
                .exit(ExitSpec::Success),
            case(Guard::always())
                .pre(Cond::OperandIs(0, NodeReq::Absent))
                .effect(Effect::WritesStderr)
                .exit(ExitSpec::Failure),
        ],
    }
}

fn basename_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("basename", 1, Some(2)).operands_of(ArgKind::Str),
        cases: vec![case(Guard::always())
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Success)
            .stdout(r"[^/\n]*")],
    }
}

fn dirname_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("dirname", 1, Some(1)).operands_of(ArgKind::Str),
        cases: vec![case(Guard::always())
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Success)],
    }
}

fn date_spec() -> CommandSpec {
    CommandSpec {
        syntax: CmdSyntax::simple("date", 0, Some(1))
            .operands_of(ArgKind::Str)
            .flag('u', "UTC"),
        cases: vec![case(Guard::always())
            .effect(Effect::WritesStdout)
            .exit(ExitSpec::Success)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::Invocation;

    #[test]
    fn library_has_core_utilities() {
        let lib = SpecLibrary::builtin();
        for name in [
            "rm",
            "mkdir",
            "cat",
            "cp",
            "mv",
            "cd",
            "grep",
            "sed",
            "cut",
            "sort",
            "lsb_release",
            "realpath",
            "ls",
            "touch",
            "curl",
            "uname",
        ] {
            assert!(lib.get(name).is_some(), "missing spec for {name}");
        }
        assert!(lib.len() >= 25);
    }

    #[test]
    fn fingerprint_is_stable_and_change_sensitive() {
        let lib = SpecLibrary::builtin();
        let fp = lib.fingerprint();
        assert_eq!(fp, SpecLibrary::builtin().fingerprint(), "deterministic");
        // Any spec change must move the fingerprint: drop one utility.
        let mut smaller = lib.clone();
        Arc::make_mut(&mut smaller.specs).remove("rm");
        assert_ne!(fp, smaller.fingerprint());
        assert_ne!(SpecLibrary::new().fingerprint(), fp);
    }

    #[test]
    fn rm_paper_triple() {
        // The paper's displayed triple: rm -f -r on an existing path
        // deletes it and exits 0.
        let lib = SpecLibrary::builtin();
        let rm = lib.get("rm").unwrap();
        let inv = Invocation::new("rm", &['f', 'r'], &["/some/dir"]);
        let cases: Vec<_> = rm.applicable(&inv).collect();
        assert_eq!(cases.len(), 1, "rm -fr has exactly one applicable case");
        let c = cases[0];
        assert!(c.effects.contains(&Effect::Deletes(EACH)));
        assert_eq!(c.exit, ExitSpec::Success);
    }

    #[test]
    fn rm_without_r_on_dir_fails() {
        let lib = SpecLibrary::builtin();
        let rm = lib.get("rm").unwrap();
        let inv = Invocation::new("rm", &['f'], &["/some/dir"]);
        let dir_case = rm
            .applicable(&inv)
            .find(|c| c.pre.contains(&Cond::OperandIs(EACH, NodeReq::Dir)))
            .expect("dir case applies");
        assert_eq!(dir_case.exit, ExitSpec::Failure);
    }

    #[test]
    fn rm_f_on_missing_succeeds_quietly() {
        let lib = SpecLibrary::builtin();
        let rm = lib.get("rm").unwrap();
        let inv = Invocation::new("rm", &['f'], &["/nope"]);
        let absent_ok = rm.applicable(&inv).any(|c| {
            c.pre.contains(&Cond::OperandIs(EACH, NodeReq::Absent)) && c.exit == ExitSpec::Success
        });
        assert!(absent_ok);
        // But without -f, missing operands fail.
        let inv2 = Invocation::new("rm", &[], &["/nope"]);
        let absent_fails = rm.applicable(&inv2).any(|c| {
            c.pre.contains(&Cond::OperandIs(EACH, NodeReq::Absent)) && c.exit == ExitSpec::Failure
        });
        assert!(absent_fails);
    }

    #[test]
    fn cd_cases_split_on_target_kind() {
        let lib = SpecLibrary::builtin();
        let cd = lib.get("cd").unwrap();
        let inv = Invocation::new("cd", &[], &["/somewhere"]);
        let cases: Vec<_> = cd.applicable(&inv).collect();
        assert_eq!(cases.len(), 3);
        assert!(cases.iter().any(|c| c.exit == ExitSpec::Success));
        assert!(cases.iter().any(|c| c.exit == ExitSpec::Failure));
    }

    #[test]
    fn lsb_release_stream_type_is_the_fig5_one() {
        let lib = SpecLibrary::builtin();
        let lsb = lib.get("lsb_release").unwrap();
        let inv = Invocation::new("lsb_release", &['a'], &[]);
        let c = lsb.applicable(&inv).next().unwrap();
        assert_eq!(
            c.stdout_line.as_deref(),
            Some(r"(Distributor ID|Description|Release|Codename):\t.*")
        );
    }

    #[test]
    fn operand_marker_expansion() {
        use crate::hoare::operand_indices;
        let indices = |marker, count| operand_indices(marker, count).collect::<Vec<usize>>();
        assert_eq!(indices(EACH, 3), vec![0, 1, 2]);
        assert_eq!(indices(REST, 3), vec![1, 2]);
        assert_eq!(indices(REST, 1), Vec::<usize>::new());
        assert_eq!(indices(REST, 0), Vec::<usize>::new());
        assert_eq!(indices(1, 3), vec![1]);
        assert_eq!(indices(5, 3), Vec::<usize>::new());
    }

    #[test]
    fn classify_through_library() {
        let lib = SpecLibrary::builtin();
        let rm = lib.get("rm").unwrap();
        let argv: Vec<String> = vec!["-fr".into(), "/steam".into()];
        let inv = rm.syntax.classify(&argv).unwrap();
        assert!(inv.has_flag('f') && inv.has_flag('r'));
    }
}
