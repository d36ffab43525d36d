//! The symbolic file-system heap.
//!
//! [`SymFs`] tracks what the analysis knows about every file-system
//! location a script touches. Knowledge comes from two places:
//!
//! * **assumptions** about the initial world, recorded when a command's
//!   precondition could be satisfied ("`rm -r $1` succeeded, so `$1` must
//!   have existed") — these are constraints on the environment under
//!   which the current execution path is feasible;
//! * **effects**, the script's own changes ("after `rm -r $1`, `$1` is
//!   gone").
//!
//! Every known location carries one origin bit saying which of the two
//! determines its current state. A requirement that narrows a known
//! state (`Exists` to `Dir`) is an assumption: the script did not make
//! the node a directory, the initial world had to. Joining two heaps
//! ([`SymFs::join`]) keeps a fact assumed only when it was assumed in
//! both.
//!
//! A [`Require::Contradiction`] means the current path *cannot* satisfy a
//! command's precondition no matter what the initial world looked like —
//! the command always fails on this path. That is exactly the paper's §4
//! verdict for `rm -r $1; cat $1/config`.
//!
//! The heap enforces the tree axioms:
//!
//! 1. if a node exists, every ancestor exists and is a directory;
//! 2. if a node is absent, every descendant is absent;
//! 3. a file has no children.

use crate::key::FsKey;
use shoal_obs::Pmap;
use std::fmt;

/// What is known about one location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// A regular file (or at least: not a directory).
    File,
    /// A directory.
    Dir,
    /// Exists, kind unknown (e.g. `test -e` succeeded).
    Exists,
    /// Does not exist.
    Absent,
}

impl NodeState {
    /// Can a node simultaneously satisfy both states?
    pub fn compatible(self, other: NodeState) -> bool {
        use NodeState::*;
        match (self, other) {
            (Absent, Absent) => true,
            (Absent, _) | (_, Absent) => false,
            (File, Dir) | (Dir, File) => false,
            _ => true,
        }
    }

    /// The more specific of two compatible states.
    pub fn refine(self, other: NodeState) -> NodeState {
        use NodeState::*;
        match (self, other) {
            (Exists, s) | (s, Exists) => s,
            (s, _) => s,
        }
    }

    /// True when the node exists in this state.
    pub fn exists(self) -> bool {
        !matches!(self, NodeState::Absent)
    }
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeState::File => "a file",
            NodeState::Dir => "a directory",
            NodeState::Exists => "present",
            NodeState::Absent => "absent",
        };
        write!(f, "{s}")
    }
}

/// Result of requiring a state at a location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Require {
    /// Already known to hold.
    Satisfied,
    /// Unknown before; now assumed about the initial world.
    Assumed,
    /// Impossible on this path: the explanation names the conflicting
    /// knowledge.
    Contradiction(String),
}

impl Require {
    /// True unless the requirement is contradictory.
    pub fn ok(&self) -> bool {
        !matches!(self, Require::Contradiction(_))
    }
}

/// What is known about one location, and where the knowledge came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fact {
    state: NodeState,
    /// True when an assumption about the initial world (not an effect
    /// of the script) determines `state`.
    assumed: bool,
}

/// The symbolic heap. Cloneable: the engine forks it per execution path.
///
/// The map is structurally shared ([`Pmap`]), so a fork is O(1) and
/// post-fork writes path-copy O(log n) nodes instead of duplicating the
/// whole heap — the heap grows with script length, and eager clones
/// made long straight-line scripts quadratic.
#[derive(Debug, Clone, Default)]
pub struct SymFs {
    /// Current knowledge per location (key-sorted for deterministic
    /// output). Written only through [`SymFs::put`] and
    /// [`SymFs::unset`], which keep `shape` in step, and by
    /// [`SymFs::join`], which changes no exists bit.
    entries: Pmap<FsKey, Fact>,
    /// XOR over known locations of a hash of (location, exists): an
    /// O(1) digest of exactly what [`SymFs::joinable`] compares.
    shape: u64,
}

impl SymFs {
    /// An empty heap: nothing known beyond the existence of `/`.
    pub fn new() -> SymFs {
        let mut fs = SymFs::default();
        fs.put(FsKey::root(), Fact::effect(NodeState::Dir));
        fs
    }

    /// Records `fact` at `key`, keeping the shape digest in step.
    fn put(&mut self, key: FsKey, fact: Fact) {
        let kh = key_hash(&key);
        if let Some(old) = self.entries.insert(key, fact) {
            self.shape ^= shape_bit(kh, old.state.exists());
        }
        self.shape ^= shape_bit(kh, fact.state.exists());
    }

    /// Forgets `key`, keeping the shape digest in step.
    fn unset(&mut self, key: &FsKey) {
        if let Some(old) = self.entries.remove(key) {
            self.shape ^= shape_bit(key_hash(key), old.state.exists());
        }
    }

    /// An O(1) digest of the known locations and whether each exists:
    /// heaps that are [`SymFs::joinable`] always have equal shapes.
    pub fn shape(&self) -> u64 {
        self.shape
    }

    /// Direct lookup of what is currently known about `key`, including
    /// knowledge derived from the tree axioms.
    pub fn lookup(&self, key: &FsKey) -> Option<NodeState> {
        if let Some(f) = self.entries.get(key) {
            return Some(f.state);
        }
        // Axiom 2/3: an absent or file-typed ancestor forces absence.
        for anc in key.proper_ancestors() {
            if let Some(Fact {
                state: NodeState::Absent | NodeState::File,
                ..
            }) = self.entries.get(&anc)
            {
                return Some(NodeState::Absent);
            }
        }
        // Axiom 1: a known child forces this node to be a directory.
        let has_known_child = self
            .entries
            .iter_from(key)
            .take_while(|(k, _)| key.is_ancestor_or_equal(k))
            .any(|(k, f)| k != key && f.state.exists());
        if has_known_child {
            return Some(NodeState::Dir);
        }
        None
    }

    /// Requires `state` at `key`. If unknown, assumes it (constraining
    /// the initial world); if known-compatible, refines; if impossible,
    /// reports the contradiction.
    pub fn require(&mut self, key: &FsKey, state: NodeState) -> Require {
        match self.lookup(key) {
            Some(known) if known.compatible(state) => {
                let refined = known.refine(state);
                let fact = Fact {
                    state: refined,
                    assumed: refined != known || self.determined_by_assumption(key),
                };
                // Re-inserting an unchanged fact would path-copy for
                // nothing and unshare the heap from its fork siblings.
                if self.entries.get(key) != Some(&fact) {
                    self.put(key.clone(), fact);
                }
                if state.exists() {
                    // Existence also pins the ancestors as directories.
                    if let Require::Contradiction(c) = self.require_ancestors(key) {
                        return Require::Contradiction(c);
                    }
                }
                Require::Satisfied
            }
            Some(known) => Require::Contradiction(format!(
                "{key} is {known} here, but the command needs it to be {state}"
            )),
            None => {
                if state.exists() {
                    if let Require::Contradiction(c) = self.require_ancestors(key) {
                        return Require::Contradiction(c);
                    }
                }
                self.put(key.clone(), Fact::assumed(state));
                Require::Assumed
            }
        }
    }

    /// Would [`SymFs::require`] of `state` at `key` report a
    /// contradiction? Read-only: a caller can rule a requirement out
    /// before it copies a heap to try it. Exact: `require` also fails
    /// when an ancestor cannot be a directory, but by the tree axioms
    /// the node is then already absent itself.
    pub fn contradicts(&self, key: &FsKey, state: NodeState) -> bool {
        self.lookup(key).is_some_and(|known| !known.compatible(state))
    }

    /// Ancestors of an existing node must be directories. Every
    /// ancestor ends up with an entry of its own, even one that was
    /// already a directory only because a known child exists: which
    /// locations have entries then does not depend on the order in
    /// which their descendants became known (two paths that learned
    /// the same facts in different orders stay [`SymFs::joinable`]),
    /// and the knowledge survives the deletion of that child.
    fn require_ancestors(&mut self, key: &FsKey) -> Require {
        for anc in key.proper_ancestors() {
            if let Some(Fact {
                state: NodeState::Dir,
                ..
            }) = self.entries.get(&anc)
            {
                continue;
            }
            match self.lookup(&anc) {
                Some(other) if other.compatible(NodeState::Dir) => {
                    self.put(anc, Fact::assumed(NodeState::Dir));
                }
                Some(other) => {
                    return Require::Contradiction(format!(
                        "{key} needs {anc} to be a directory, but it is {other} here"
                    ))
                }
                None => {
                    self.put(anc, Fact::assumed(NodeState::Dir));
                }
            }
        }
        Require::Satisfied
    }

    /// Records an effect: the node (and implicitly its subtree) now has
    /// `state`, regardless of what it was.
    pub fn set(&mut self, key: &FsKey, state: NodeState) {
        match state {
            NodeState::Absent => self.delete_tree(key),
            NodeState::File => {
                let _ = self.create_file(key);
            }
            _ => {
                self.put(key.clone(), Fact::effect(state));
            }
        }
    }

    /// Keys in `self`'s subtree (keys with prefix `key` form a contiguous
    /// run in key order, the same fact `lookup` exploits).
    fn subtree_keys(&self, key: &FsKey, include_self: bool) -> Vec<FsKey> {
        self.entries
            .iter_from(key)
            .take_while(|(k, _)| key.is_ancestor_or_equal(k))
            .filter(|(k, _)| include_self || *k != key)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Records the effect of `rm -r`: the node and its entire subtree are
    /// gone.
    pub fn delete_tree(&mut self, key: &FsKey) {
        for k in self.subtree_keys(key, true) {
            self.unset(&k);
        }
        self.put(key.clone(), Fact::effect(NodeState::Absent));
    }

    /// Records the effect of `rm dir/*`: the node's *children* are gone
    /// but the node itself remains.
    pub fn delete_children(&mut self, key: &FsKey) {
        for k in self.subtree_keys(key, false) {
            self.unset(&k);
        }
    }

    /// Creates a file (as `touch` / `>` do), together with its directory
    /// chain. Any previously-known descendants are erased: a file has no
    /// children (axiom 3), so whatever was recorded beneath this key is
    /// gone in the new state.
    pub fn create_file(&mut self, key: &FsKey) -> Require {
        let r = self.require_ancestors(key);
        if r.ok() {
            for k in self.subtree_keys(key, false) {
                self.unset(&k);
            }
            self.put(key.clone(), Fact::effect(NodeState::File));
        }
        r
    }

    /// Creates a directory (as `mkdir -p` does).
    pub fn create_dir(&mut self, key: &FsKey) -> Require {
        let r = self.require_ancestors(key);
        if r.ok() {
            self.put(key.clone(), Fact::effect(NodeState::Dir));
        }
        r
    }

    /// Is the knowledge that currently *determines* `key`'s state an
    /// assumption about the initial world (as opposed to an effect the
    /// script performed)? Used to separate "fails because the script
    /// deleted it" (report-worthy) from "fails on the path where we
    /// assumed it never existed" (ordinary).
    pub fn determined_by_assumption(&self, key: &FsKey) -> bool {
        if let Some(f) = self.entries.get(key) {
            return f.assumed;
        }
        // Derived knowledge: find the ancestor that forces the state.
        for anc in key.proper_ancestors() {
            if let Some(f) = self.entries.get(&anc) {
                if matches!(f.state, NodeState::Absent | NodeState::File) {
                    return f.assumed;
                }
            }
        }
        false
    }

    /// Every location with known state, in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&FsKey, NodeState)> {
        self.entries.iter().map(|(k, f)| (k, f.state))
    }

    /// Can `other` be folded into `self` by [`SymFs::join`]? True when
    /// both know the same locations and agree on whether each exists;
    /// node kinds and origins may differ. Costs the divergence of the
    /// two heaps, not their size (shared subtrees are skipped).
    pub fn joinable(&self, other: &SymFs) -> bool {
        self.entries
            .matches_by(&other.entries, |a, b| a.state.exists() == b.state.exists())
    }

    /// Joins a [`SymFs::joinable`] heap into this one: a location whose
    /// kinds differ becomes [`NodeState::Exists`], and a fact stays
    /// assumed only if it was assumed on both sides (so a state the
    /// script caused on either path still counts as its own doing).
    pub fn join(&mut self, other: &SymFs) {
        self.entries.join_with(&other.entries, |a, b| Fact {
            state: if a.state == b.state {
                a.state
            } else {
                NodeState::Exists
            },
            assumed: a.assumed && b.assumed,
        });
    }
}

fn key_hash(key: &FsKey) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = shoal_obs::hash::FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// One location's contribution to [`SymFs::shape`] (a splitmix64
/// finalizer, so XOR-ing contributions does not cancel structure).
fn shape_bit(key_hash: u64, exists: bool) -> u64 {
    let mut z = key_hash.wrapping_add(if exists { 0x9e37_79b9_7f4a_7c15 } else { 0 });
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Fact {
    fn assumed(state: NodeState) -> Fact {
        Fact {
            state,
            assumed: true,
        }
    }

    fn effect(state: NodeState) -> Fact {
        Fact {
            state,
            assumed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: &str) -> FsKey {
        FsKey::absolute(p).expect("absolute")
    }

    #[test]
    fn require_then_satisfied() {
        let mut fs = SymFs::new();
        assert_eq!(
            fs.require(&key("/etc/passwd"), NodeState::File),
            Require::Assumed
        );
        assert_eq!(
            fs.require(&key("/etc/passwd"), NodeState::File),
            Require::Satisfied
        );
        // The ancestor was forced to a directory.
        assert_eq!(fs.lookup(&key("/etc")), Some(NodeState::Dir));
    }

    #[test]
    fn file_dir_conflict() {
        let mut fs = SymFs::new();
        fs.require(&key("/data"), NodeState::File);
        let r = fs.require(&key("/data"), NodeState::Dir);
        assert!(!r.ok());
    }

    #[test]
    fn exists_refines() {
        let mut fs = SymFs::new();
        fs.require(&key("/x"), NodeState::Exists);
        assert_eq!(fs.require(&key("/x"), NodeState::File), Require::Satisfied);
        assert_eq!(fs.lookup(&key("/x")), Some(NodeState::File));
    }

    #[test]
    fn absent_propagates_down() {
        let mut fs = SymFs::new();
        fs.require(&key("/gone"), NodeState::Absent);
        assert_eq!(fs.lookup(&key("/gone/child/deep")), Some(NodeState::Absent));
        let r = fs.require(&key("/gone/child"), NodeState::File);
        assert!(!r.ok());
    }

    #[test]
    fn file_cannot_have_children() {
        let mut fs = SymFs::new();
        fs.require(&key("/notes.txt"), NodeState::File);
        let r = fs.require(&key("/notes.txt/inner"), NodeState::File);
        assert!(!r.ok(), "a file has no children");
    }

    #[test]
    fn child_implies_dir_parent() {
        let mut fs = SymFs::new();
        fs.require(&key("/a/b"), NodeState::File);
        // `/a` must be a directory: requiring it to be a file conflicts.
        let r = fs.require(&key("/a"), NodeState::File);
        assert!(!r.ok());
    }

    #[test]
    fn rm_then_cat_contradiction() {
        // The paper's §4 composition bug, concrete-path version.
        let mut fs = SymFs::new();
        assert!(fs.require(&key("/work"), NodeState::Exists).ok());
        fs.delete_tree(&key("/work"));
        let r = fs.require(&key("/work/config"), NodeState::File);
        assert!(
            !r.ok(),
            "cat /work/config must always fail after rm -r /work"
        );
    }

    #[test]
    fn rm_then_cat_symbolic() {
        let mut fs = SymFs::new();
        let base = FsKey::symbolic(0);
        assert!(fs.require(&base, NodeState::Exists).ok());
        fs.delete_tree(&base);
        let r = fs.require(&base.child("config"), NodeState::File);
        assert!(!r.ok());
    }

    #[test]
    fn mkdir_then_touch_ok() {
        let mut fs = SymFs::new();
        assert!(fs.create_dir(&key("/build")).ok());
        assert!(fs.create_file(&key("/build/out.o")).ok());
        assert_eq!(fs.lookup(&key("/build")), Some(NodeState::Dir));
        assert_eq!(fs.lookup(&key("/build/out.o")), Some(NodeState::File));
    }

    #[test]
    fn delete_children_keeps_node() {
        let mut fs = SymFs::new();
        fs.create_dir(&key("/steam")).ok();
        fs.create_file(&key("/steam/bin")).ok();
        fs.delete_children(&key("/steam"));
        assert_eq!(fs.lookup(&key("/steam")), Some(NodeState::Dir));
        assert_eq!(fs.lookup(&key("/steam/bin")), None);
    }

    #[test]
    fn recreate_after_delete() {
        // Deleting then recreating is consistent: effects are ordered.
        let mut fs = SymFs::new();
        fs.require(&key("/tmp/f"), NodeState::File);
        fs.delete_tree(&key("/tmp/f"));
        assert!(fs.create_file(&key("/tmp/f")).ok());
        assert_eq!(fs.lookup(&key("/tmp/f")), Some(NodeState::File));
    }

    #[test]
    fn origin_bit_tracks_assumptions_and_effects() {
        let mut fs = SymFs::new();
        // Requiring an unknown node assumes it and its directory chain.
        fs.require(&key("/a/b"), NodeState::File);
        assert!(fs.determined_by_assumption(&key("/a/b")));
        assert!(fs.determined_by_assumption(&key("/a")));
        // Derived knowledge inherits the origin of the forcing fact.
        assert!(fs.determined_by_assumption(&key("/a/b/c")));
        // Effects clear the bit.
        fs.create_dir(&key("/d"));
        assert!(!fs.determined_by_assumption(&key("/d")));
        // A requirement that narrows a known state is an assumption,
        // even when the coarser state came from an effect.
        fs.set(&key("/e"), NodeState::Exists);
        assert!(!fs.determined_by_assumption(&key("/e")));
        assert_eq!(fs.require(&key("/e"), NodeState::Dir), Require::Satisfied);
        assert!(fs.determined_by_assumption(&key("/e")));
        // A satisfied requirement that narrows nothing keeps the origin.
        assert_eq!(
            fs.require(&key("/d"), NodeState::Exists),
            Require::Satisfied
        );
        assert!(!fs.determined_by_assumption(&key("/d")));
        // Effect after assumption: the effect determines the state.
        fs.delete_tree(&key("/a/b"));
        assert!(!fs.determined_by_assumption(&key("/a/b")));
    }

    #[test]
    fn ancestor_entries_do_not_depend_on_learning_order() {
        // The same two facts, learned in either order.
        let mut a = SymFs::new();
        a.require(&key("/a/b"), NodeState::Dir);
        a.require(&key("/a/b/c"), NodeState::File);
        let mut b = SymFs::new();
        b.require(&key("/a/b/c"), NodeState::File);
        b.require(&key("/a/b"), NodeState::Dir);
        assert_eq!(a.shape(), b.shape());
        assert!(a.joinable(&b) && b.joinable(&a));
        assert_eq!(a.entries().count(), b.entries().count());
        // `/a` keeps an entry of its own: deleting the child that
        // forced it to be a directory does not make it unknown, and it
        // stays an assumption about the initial world.
        b.delete_tree(&key("/a/b"));
        assert_eq!(b.lookup(&key("/a")), Some(NodeState::Dir));
        assert!(b.determined_by_assumption(&key("/a")));
    }

    #[test]
    fn join_widens_kinds_and_keeps_assumed_only_when_both_assumed() {
        let mut base = SymFs::new();
        base.require(&key("/w"), NodeState::Dir);
        let mut a = base.clone();
        let mut b = base.clone();
        a.require(&key("/w/f"), NodeState::Exists);
        b.create_file(&key("/w/f"));
        assert!(a.joinable(&b));
        a.join(&b);
        assert_eq!(a.lookup(&key("/w/f")), Some(NodeState::Exists));
        assert!(
            !a.determined_by_assumption(&key("/w/f")),
            "an effect on one side wins"
        );
        assert!(
            a.determined_by_assumption(&key("/w")),
            "assumed on both sides"
        );
        assert_eq!(a.shape(), b.shape(), "joinable heaps share a shape");
        // Existence must agree, and so must the key set.
        let mut gone = base.clone();
        gone.delete_tree(&key("/w/f"));
        assert!(!b.joinable(&gone));
        assert!(!base.joinable(&b));
        assert_ne!(b.shape(), gone.shape());
        assert_ne!(base.shape(), b.shape());
        // The shape depends on the facts, not on how they were reached.
        let mut c = SymFs::new();
        c.create_file(&key("/w/f"));
        c.create_file(&key("/w/g"));
        c.delete_tree(&key("/w/g"));
        let mut d = SymFs::new();
        d.require(&key("/w/g"), NodeState::Absent);
        d.require(&key("/w/f"), NodeState::File);
        assert!(c.joinable(&d));
        assert_eq!(c.shape(), d.shape());
    }

    #[test]
    fn different_sym_bases_do_not_alias() {
        let mut fs = SymFs::new();
        fs.require(&FsKey::symbolic(0), NodeState::File);
        // A different base can still be a directory.
        assert!(fs.require(&FsKey::symbolic(1), NodeState::Dir).ok());
    }
}
