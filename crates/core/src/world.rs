//! Execution worlds: one symbolic state per explored path.
//!
//! A [`World`] is everything the shell interpreter would know at one
//! point of one execution: variable bindings, positional parameters, the
//! working directory, the (symbolic) file system, and the last exit
//! status — plus analyzer bookkeeping: the path condition trail, the
//! diagnostics discovered on this path, and the fresh-symbol counter.
//!
//! The engine explores *sets* of worlds; forking clones a world and
//! refines the two copies differently. Symbols are world-local: `refine`
//! narrows every occurrence of a symbol across the whole state, which is
//! how a check like Fig. 2's `[ "$(realpath …)" != "/" ]` transfers
//! information onto `$STEAMROOT` everywhere it appears.

use crate::diag::Diagnostic;
use crate::langs;
use crate::provenance::{Provenance, Trail, TrailEntry, TrailKind, WorldId};
use crate::value::{Seg, SymId, SymStr};
use shoal_obs::{CowList, CowMap, CowVec};
use shoal_relang::Regex;
use shoal_shparse::{Command, Span};
use shoal_symfs::key::SymBase;
use shoal_symfs::{join, normalize_lexical, FsKey, SymFs};
use std::sync::Arc;

/// The engine's view of an exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitStatus {
    /// Definitely 0.
    Zero,
    /// Definitely non-zero.
    NonZero,
    /// Could be either.
    Unknown,
}

impl ExitStatus {
    /// Negation (`!` pipelines).
    pub fn negate(self) -> ExitStatus {
        match self {
            ExitStatus::Zero => ExitStatus::NonZero,
            ExitStatus::NonZero => ExitStatus::Zero,
            ExitStatus::Unknown => ExitStatus::Unknown,
        }
    }
}

/// One symbolic execution state.
///
/// Every collection-valued field is structurally shared (`Arc`-backed
/// COW containers from `shoal-obs`, plus the persistent map inside
/// [`SymFs`]), and so are the segments of `$0`, the cwd and the
/// capture buffer ([`SymStr`]), so **cloning a world — the engine's
/// fork primitive — is O(1) and allocates nothing**: a dozen refcount
/// bumps instead of a deep copy of state that grows with script length. Mutation stays safe because every write
/// path goes through copy-on-write (`Arc::make_mut`) or persistent
/// path-copying: a forked child never observes, and never leaks writes
/// into, its parent.
#[derive(Debug, Clone)]
pub struct World {
    /// This world's node in the run's world tree (assigned at the fork
    /// site that created it; the initial world is 0). Cloned children
    /// inherit the parent's id until the engine registers the fork.
    pub id: WorldId,
    /// Shell variables.
    pub vars: CowMap<String, SymStr>,
    /// Positional parameters `$1…`.
    pub positional: CowVec<SymStr>,
    /// `$0`.
    pub script_name: SymStr,
    /// The working directory as a symbolic string.
    pub cwd: SymStr,
    /// The symbolic file system.
    pub fs: SymFs,
    /// Status of the last command.
    pub last_exit: ExitStatus,
    /// Typed conjuncts of the path condition, in the order they were
    /// assumed (the provenance trail). A persistent list: pushes are
    /// O(1) even right after a fork, and [`World::report`] shares it
    /// with the diagnostic instead of copying it.
    pub trail: Trail,
    /// Diagnostics found on this path, oldest first. A persistent list
    /// for the same reason as `trail`: sibling worlds share the prefix
    /// they inherited from their fork point, so reporting after a fork
    /// is O(1) instead of a deep copy of everything found so far.
    pub diags: CowList<Diagnostic>,
    /// True after `exit`.
    pub halted: bool,
    /// Captured stdout when evaluating a command substitution.
    pub capture: Option<SymStr>,
    /// Idempotence-sensitive assumption sites: (location, what was
    /// assumed, where) for commands that would *not* succeed on a
    /// second run if the script changes that state (see
    /// `checkers`/analyze's idempotence pass).
    pub fragile_assumptions: CowList<(FsKey, shoal_symfs::state::NodeState, shoal_shparse::Span)>,
    /// Shell functions defined so far (bodies behind `Arc`: calling a
    /// function never copies its AST).
    pub functions: CowMap<String, Arc<Command>>,
    /// Function-call nesting depth (bounds recursion).
    pub call_depth: u32,
    /// Positional parameters beyond `positional`, materialized lazily as
    /// symbols (the analyzed script may be invoked with arguments).
    lazy_positional: CowMap<usize, SymStr>,
    /// Fresh-symbol counter (world-local; ids are only compared within
    /// one world).
    next_sym: SymId,
    /// String symbol → file-system base anchor.
    sym_bases: CowMap<SymId, SymBase>,
    /// Fresh FS base counter.
    next_base: SymBase,
}

impl World {
    /// The initial world: unknown `$0`, unknown environment, symbolic
    /// cwd, empty FS knowledge.
    pub fn initial() -> World {
        let mut w = World {
            id: 0,
            vars: CowMap::new(),
            positional: CowVec::new(),
            script_name: SymStr::empty(),
            cwd: SymStr::empty(),
            fs: SymFs::new(),
            last_exit: ExitStatus::Zero,
            trail: Trail::new(),
            diags: CowList::new(),
            halted: false,
            capture: None,
            fragile_assumptions: CowList::new(),
            functions: CowMap::new(),
            call_depth: 0,
            lazy_positional: CowMap::new(),
            next_sym: 0,
            next_base: 0,
            sym_bases: CowMap::new(),
        };
        // `$0` is a path-shaped string: the script's invocation name.
        let zero = w.fresh_sym(langs::SCRIPT_NAME.clone(), "$0");
        w.script_name = zero;
        // The initial working directory is some absolute path.
        let cwd = w.fresh_sym(langs::ABSOLUTE_PATH.clone(), "$PWD");
        w.cwd = cwd;
        w
    }

    /// Allocates a fresh symbol with a constraint.
    pub fn fresh_sym(&mut self, constraint: Regex, label: &str) -> SymStr {
        let id = self.next_sym;
        self.next_sym += 1;
        SymStr::sym(id, constraint, label)
    }

    /// Allocates a fresh symbol id without building a value.
    pub fn fresh_sym_id(&mut self) -> SymId {
        let id = self.next_sym;
        self.next_sym += 1;
        id
    }

    /// Looks up a variable; unset variables are `None`.
    pub fn get_var(&self, name: &str) -> Option<&SymStr> {
        self.vars.get(name)
    }

    /// Sets a variable.
    pub fn set_var(&mut self, name: &str, value: SymStr) {
        self.vars.insert(name.to_string(), value);
    }

    /// Reads a parameter by its expansion name (`0`–`9`, specials,
    /// variables). Unset variables expand to empty **and are reported by
    /// the caller**, matching shell semantics.
    pub fn param(&mut self, name: &str) -> Option<SymStr> {
        match name {
            "0" => Some(self.script_name.clone()),
            "?" => Some(match self.last_exit {
                ExitStatus::Zero => SymStr::lit("0"),
                ExitStatus::NonZero => self.fresh_sym(langs::NONZERO_DECIMAL.clone(), "$?"),
                ExitStatus::Unknown => self.fresh_sym(langs::DECIMAL.clone(), "$?"),
            }),
            "#" => Some(SymStr::lit(&self.positional.len().to_string())),
            "$" => Some(self.fresh_sym(langs::DECIMAL.clone(), "$$")),
            "!" => Some(self.fresh_sym(langs::DECIMAL.clone(), "$!")),
            "-" => Some(self.fresh_sym(langs::OPTION_LETTERS.clone(), "$-")),
            "*" | "@" => {
                let mut joined = SymStr::empty();
                for (i, p) in self.positional.iter().enumerate() {
                    if i > 0 {
                        joined = joined.concat(&SymStr::lit(" "));
                    }
                    joined = joined.concat(p);
                }
                Some(joined)
            }
            "PWD" => Some(self.cwd.clone()),
            n if n.chars().all(|c| c.is_ascii_digit()) => {
                let idx: usize = n.parse().ok()?;
                if idx == 0 {
                    Some(self.script_name.clone())
                } else if let Some(v) = self.positional.get(idx - 1) {
                    Some(v.clone())
                } else {
                    // The script may be invoked with arguments: model
                    // `$n` as a stable symbol per index.
                    if let Some(v) = self.lazy_positional.get(&idx) {
                        return Some(v.clone());
                    }
                    let v = self.fresh_sym(Regex::any_line(), &format!("${idx}"));
                    self.lazy_positional.insert(idx, v.clone());
                    Some(v)
                }
            }
            n => self.vars.get(n).cloned(),
        }
    }

    /// Refines symbol `id` by intersecting its constraint with `with`
    /// in every value in the world that mentions it, collapsing the
    /// values it pins to one string ([`SymStr::concretize`]). Returns
    /// false if the world becomes infeasible. Containers holding no
    /// such value stay shared with the world's fork siblings.
    pub fn refine_sym(&mut self, id: SymId, with: &Regex) -> bool {
        let mut ok = true;
        let mut refine = |v: &mut SymStr| {
            ok &= v.refine_sym(id, with);
            v.concretize();
        };
        if self.vars.values().any(|v| v.mentions(id)) {
            self.vars
                .to_mut()
                .values_mut()
                .filter(|v| v.mentions(id))
                .for_each(&mut refine);
        }
        if self.positional.iter().any(|v| v.mentions(id)) {
            self.positional
                .to_mut()
                .iter_mut()
                .filter(|v| v.mentions(id))
                .for_each(&mut refine);
        }
        if self.lazy_positional.values().any(|v| v.mentions(id)) {
            self.lazy_positional
                .to_mut()
                .values_mut()
                .filter(|v| v.mentions(id))
                .for_each(&mut refine);
        }
        [&mut self.script_name, &mut self.cwd]
            .into_iter()
            .chain(self.capture.as_mut())
            .filter(|v| v.mentions(id))
            .for_each(refine);
        ok
    }

    /// Shifts positional parameters left by `n` (the `shift` builtin),
    /// including lazily-materialized ones.
    pub fn shift_positional(&mut self, n: usize) {
        let from_known = n.min(self.positional.len());
        self.positional.to_mut().drain(..from_known);
        let old = std::mem::take(&mut self.lazy_positional);
        for (idx, v) in old.iter() {
            if *idx > n {
                self.lazy_positional.insert(idx - n, v.clone());
            }
        }
    }

    /// Records a path-condition conjunct with no structured source
    /// (kind [`TrailKind::Assumption`], no span).
    pub fn assume(&mut self, condition: impl Into<String>) {
        self.trail.push(TrailEntry::new(
            TrailKind::Assumption,
            Span::new(0, 0, 0),
            condition,
        ));
    }

    /// Records a typed path-condition conjunct anchored at `span`.
    pub fn assume_at(&mut self, span: Span, kind: TrailKind, condition: impl Into<String>) {
        self.trail.push(TrailEntry::new(kind, span, condition));
    }

    /// Reports a diagnostic on this path, attaching structured
    /// provenance (witness world id + typed trail). The trail is
    /// *shared* with this world — an O(1) pointer copy, not a
    /// materialized duplicate; the flat path-condition strings are
    /// derived from it on demand by [`Diagnostic::path_condition`].
    pub fn report(&mut self, mut diag: Diagnostic) {
        diag.provenance = Some(Provenance {
            world: self.id,
            trail: self.trail.clone(),
        });
        self.diags.push(diag);
    }

    /// The file-system base anchored to string symbol `id` (allocated on
    /// first use).
    pub fn base_for_sym(&mut self, id: SymId) -> SymBase {
        if let Some(&b) = self.sym_bases.get(&id) {
            return b;
        }
        let b = self.next_base;
        self.next_base += 1;
        self.sym_bases.insert(id, b);
        b
    }

    /// Resolves a path-valued symbolic string to a file-system key, if
    /// the value has a trackable identity.
    pub fn fs_key(&mut self, value: &SymStr) -> Option<FsKey> {
        if let Some(text) = value.as_literal() {
            if text.is_empty() {
                return None;
            }
            if text.starts_with('/') {
                return FsKey::absolute(&text);
            }
            // Relative: anchor at the cwd.
            return match self.cwd.as_literal() {
                Some(cwd) => FsKey::absolute(&join(&cwd, &text)),
                None => match self.cwd.as_single_sym() {
                    Some((cwd_id, _)) => {
                        let base = self.base_for_sym(cwd_id);
                        FsKey::symbolic_with(base, &normalize_lexical(&text))
                    }
                    None => None,
                },
            };
        }
        match value.segs() {
            [Seg::Sym { id, .. }] => {
                let base = self.base_for_sym(*id);
                Some(FsKey::symbolic(base))
            }
            [Seg::Sym { id, .. }, Seg::Lit(suffix)] if suffix.starts_with('/') => {
                let base = self.base_for_sym(*id);
                FsKey::symbolic_with(base, &normalize_lexical(suffix))
            }
            _ => None,
        }
    }

    /// A cheap bucket key for [`World::joinable`]: flags, sizes, the
    /// heap's O(1) shape digest, and shallow digests of the parameters,
    /// cwd, `$0` and capture buffer. Variable values are left out (the
    /// map can be large); joinable worlds always share the key.
    pub fn join_key(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = shoal_obs::hash::FxHasher::default();
        (self.last_exit as u8, self.halted, self.call_depth).hash(&mut h);
        (self.vars.len(), self.functions.len(), self.sym_bases.len()).hash(&mut h);
        self.fs.shape().hash(&mut h);
        for v in self.positional.iter().chain(self.lazy_positional.values()) {
            v.hash_shallow(&mut h);
        }
        for v in [&self.cwd, &self.script_name]
            .into_iter()
            .chain(&self.capture)
        {
            v.hash_shallow(&mut h);
        }
        h.finish()
    }

    /// Can `other` be folded into this world at a statement boundary?
    /// Everything the rest of the script can observe must be equal —
    /// variables, parameters, `$0`, cwd, exit status, halt and capture
    /// state, call depth, symbol bases and function bodies (`Arc`
    /// equality tries the pointer first, then the value, so a body
    /// from an older parse restored by incremental replay joins as it
    /// would cold) — and the two heaps must be [`SymFs::joinable`].
    /// The trail and the findings may differ.
    pub fn joinable(&self, other: &World) -> bool {
        self.last_exit == other.last_exit
            && self.halted == other.halted
            && self.call_depth == other.call_depth
            && self.capture == other.capture
            && self.cwd == other.cwd
            && self.script_name == other.script_name
            && self.vars == other.vars
            && self.positional == other.positional
            && self.lazy_positional == other.lazy_positional
            && self.sym_bases == other.sym_bases
            && self.functions == other.functions
            && self.fs.joinable(&other.fs)
    }

    /// Folds a [`World::joinable`] world into this one. This world's id
    /// and trail stay (it is the witness); the heaps join, and the
    /// other world's findings and fragile assumptions made after the
    /// two last shared them are appended (the report deduplicates
    /// findings, so a finding both made separately is harmless).
    pub fn absorb(&mut self, other: World) {
        self.fs.join(&other.fs);
        self.diags.extend_unshared(&other.diags);
        self.fragile_assumptions
            .extend_unshared(&other.fragile_assumptions);
        // Equal values, but one side may have allocated (and dropped)
        // more fresh symbols; never reuse an id either side handed out.
        self.next_sym = self.next_sym.max(other.next_sym);
    }

    /// Appends to the capture buffer (stdout during command
    /// substitution).
    pub fn emit_stdout(&mut self, chunk: SymStr) {
        if let Some(buf) = self.capture.as_mut() {
            *buf = buf.concat(&chunk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_world_shape() {
        let mut w = World::initial();
        assert!(w.param("0").unwrap().may_be("/home/u/run.sh"));
        assert!(w.param("0").unwrap().may_be("run.sh"));
        assert!(!w.param("0").unwrap().may_be_empty());
        assert!(w.param("PWD").unwrap().may_be("/"));
        assert_eq!(w.param("#").unwrap().as_literal().as_deref(), Some("0"));
        assert_eq!(w.param("UNSET"), None);
    }

    #[test]
    fn positional_params() {
        let mut w = World::initial();
        w.positional = vec![SymStr::lit("a"), SymStr::lit("b")].into();
        assert_eq!(w.param("1").unwrap().as_literal().as_deref(), Some("a"));
        assert_eq!(w.param("2").unwrap().as_literal().as_deref(), Some("b"));
        // Beyond the known arguments, `$3` is a stable fresh symbol.
        let three = w.param("3").unwrap();
        assert!(three.as_literal().is_none());
        assert_eq!(w.param("3").unwrap(), three);
        assert_eq!(w.param("#").unwrap().as_literal().as_deref(), Some("2"));
        assert_eq!(w.param("*").unwrap().as_literal().as_deref(), Some("a b"));
    }

    #[test]
    fn refine_propagates_everywhere() {
        let mut w = World::initial();
        let v = w.fresh_sym(Regex::parse_must("(/|/home)"), "$p");
        let (id, _) = v.as_single_sym().unwrap();
        w.set_var("A", v.clone());
        w.set_var("B", SymStr::lit("x-").concat(&v));
        assert!(w.refine_sym(id, &Regex::lit("/").complement()));
        assert_eq!(
            w.get_var("A").unwrap().as_literal().as_deref(),
            Some("/home")
        );
        assert_eq!(
            w.get_var("B").unwrap().as_literal().as_deref(),
            Some("x-/home")
        );
    }

    #[test]
    fn refine_leaves_unrelated_containers_shared() {
        let mut w = World::initial();
        let p = w.fresh_sym(Regex::parse_must("(/|/home)"), "$p");
        let (id, _) = p.as_single_sym().unwrap();
        w.set_var("A", SymStr::lit("a"));
        w.positional = vec![p.clone()].into();
        let sibling = w.clone();
        assert!(w.refine_sym(id, &Regex::lit("/").complement()));
        // No variable mentions the symbol: the map is not copied.
        assert!(w.vars.ptr_eq(&sibling.vars));
        assert_eq!(w.positional[0].as_literal().as_deref(), Some("/home"));
        assert_eq!(sibling.positional[0], p);
        // A variable that mentions it is rewritten.
        w.set_var("B", SymStr::lit("x-").concat(&p));
        let before = w.clone();
        assert!(w.refine_sym(id, &Regex::lit("/").complement()));
        assert!(!w.vars.ptr_eq(&before.vars));
        assert_eq!(
            w.get_var("B").unwrap().as_literal().as_deref(),
            Some("x-/home")
        );
    }

    #[test]
    fn refine_to_unsat_reports_infeasible() {
        let mut w = World::initial();
        let v = w.fresh_sym(Regex::lit("only"), "$p");
        let (id, _) = v.as_single_sym().unwrap();
        w.set_var("A", v);
        assert!(!w.refine_sym(id, &Regex::lit("other")));
    }

    #[test]
    fn fs_key_literal_paths() {
        let mut w = World::initial();
        let k = w.fs_key(&SymStr::lit("/etc/passwd")).unwrap();
        assert_eq!(k.to_string(), "/etc/passwd");
        assert_eq!(w.fs_key(&SymStr::lit("")), None);
    }

    #[test]
    fn fs_key_relative_joins_cwd() {
        let mut w = World::initial();
        w.cwd = SymStr::lit("/work");
        let k = w.fs_key(&SymStr::lit("sub/file")).unwrap();
        assert_eq!(k.to_string(), "/work/sub/file");
        // Symbolic cwd anchors at its base.
        let mut w2 = World::initial();
        let k2 = w2.fs_key(&SymStr::lit("file")).unwrap();
        assert!(k2.to_string().contains("sym"));
    }

    #[test]
    fn fs_key_symbolic_with_suffix() {
        let mut w = World::initial();
        let p = w.fresh_sym(Regex::any_line(), "$1");
        let val = p.concat(&SymStr::lit("/config"));
        let k = w.fs_key(&val).unwrap();
        assert!(k.to_string().ends_with("/config"));
        // Same symbol → same base.
        let k2 = w.fs_key(&p).unwrap();
        assert!(k2.is_ancestor_or_equal(&k));
    }

    #[test]
    fn capture_accumulates() {
        let mut w = World::initial();
        w.capture = Some(SymStr::empty());
        w.emit_stdout(SymStr::lit("a"));
        w.emit_stdout(SymStr::lit("b\n"));
        assert_eq!(w.capture.unwrap().as_literal().as_deref(), Some("ab\n"));
    }

    #[test]
    fn exit_status_negation() {
        assert_eq!(ExitStatus::Zero.negate(), ExitStatus::NonZero);
        assert_eq!(ExitStatus::NonZero.negate(), ExitStatus::Zero);
        assert_eq!(ExitStatus::Unknown.negate(), ExitStatus::Unknown);
    }
}
