//! File-system location identities.
//!
//! An [`FsKey`] names a location in a way that survives the shell's many
//! spellings of the same path. A key is a *base* — either the file-system
//! root (for fully resolved paths) or a symbolic anchor ("wherever the
//! string in `$1` resolves to") — plus a sequence of known component
//! names. Two accesses with the same key definitely touch the same node;
//! accesses with different symbolic bases may or may not alias (the
//! engine treats them as independent, a documented under-approximation).

use crate::path::{normalize_lexical, split_components};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Identifier of a symbolic path base (allocated by the analysis engine,
/// one per unknown path-valued expression).
pub type SymBase = u32;

/// The anchor of an [`FsKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Base {
    /// The file-system root: the key's components are an absolute path.
    Root,
    /// A symbolic location: "wherever symbolic path #n resolves".
    Sym(SymBase),
}

/// The identity of a file-system location.
///
/// The components are shared: a key is a prefix of a reference-counted
/// component buffer, so cloning a key (every fork of the heap and every
/// path copy of its persistent map does) and stepping to an ancestor
/// are refcount bumps, never string copies. Equality, hashing and
/// ordering see only the components and agree with a `(Base,
/// Vec<String>)` pair, so heap shapes and output order do not depend
/// on which buffer a key shares.
#[derive(Debug, Clone)]
pub struct FsKey {
    /// The anchor.
    pub base: Base,
    /// Component buffer; the key is its first `len` components.
    buf: Arc<[Arc<str>]>,
    len: usize,
}

impl FsKey {
    fn new(base: Base, comps: Vec<Arc<str>>) -> FsKey {
        let len = comps.len();
        FsKey {
            base,
            buf: comps.into(),
            len,
        }
    }

    /// The key with the first `len` of `self`'s components (shares the
    /// buffer).
    fn prefix(&self, len: usize) -> FsKey {
        FsKey {
            base: self.base,
            buf: Arc::clone(&self.buf),
            len,
        }
    }

    /// The root key (`/`).
    pub fn root() -> FsKey {
        FsKey::new(Base::Root, Vec::new())
    }

    /// A key for a concrete absolute path (normalized lexically).
    /// Returns `None` for relative paths.
    pub fn absolute(path: &str) -> Option<FsKey> {
        if !path.starts_with('/') {
            return None;
        }
        let norm = normalize_lexical(path);
        Some(FsKey::new(
            Base::Root,
            split_components(&norm).into_iter().map(Arc::from).collect(),
        ))
    }

    /// A key anchored at symbolic base `sym` with no suffix.
    pub fn symbolic(sym: SymBase) -> FsKey {
        FsKey::new(Base::Sym(sym), Vec::new())
    }

    /// A key anchored at symbolic base `sym` with a relative suffix.
    /// Suffixes containing `..` cannot be anchored (they may escape the
    /// base) and yield `None`.
    pub fn symbolic_with(sym: SymBase, rel: &str) -> Option<FsKey> {
        let comps = split_components(rel);
        if comps.contains(&"..") {
            return None;
        }
        Some(FsKey::new(
            Base::Sym(sym),
            comps.into_iter().map(Arc::from).collect(),
        ))
    }

    /// Component names below the anchor (normalized: no `.`, `..`, or
    /// empty components).
    pub fn comps(&self) -> &[Arc<str>] {
        &self.buf[..self.len]
    }

    /// The key for `self`'s child named `name`.
    pub fn child(&self, name: &str) -> FsKey {
        let mut comps = self.comps().to_vec();
        comps.push(Arc::from(name));
        FsKey::new(self.base, comps)
    }

    /// The parent key, unless `self` is a bare anchor.
    pub fn parent(&self) -> Option<FsKey> {
        match (self.len, self.base) {
            (0, Base::Root) => Some(self.clone()),
            (0, Base::Sym(_)) => None,
            (len, _) => Some(self.prefix(len - 1)),
        }
    }

    /// Is `self` an ancestor of (or equal to) `other`? Keys with
    /// different bases never relate.
    pub fn is_ancestor_or_equal(&self, other: &FsKey) -> bool {
        self.base == other.base
            && self.len <= other.len
            && self.comps() == &other.comps()[..self.len]
    }

    /// Is this the file-system root itself?
    pub fn is_root(&self) -> bool {
        self.base == Base::Root && self.len == 0
    }

    /// All proper ancestors, nearest first, down to and including the
    /// anchor: `/` for an absolute key, the bare symbolic base for a
    /// symbolic one (what `rm -r $1; cat $1/config` needs: `$1` itself
    /// is an ancestor of `$1/config`). Allocates nothing.
    pub fn proper_ancestors(&self) -> impl Iterator<Item = FsKey> + '_ {
        (0..self.len).rev().map(|len| self.prefix(len))
    }
}

impl PartialEq for FsKey {
    fn eq(&self, other: &FsKey) -> bool {
        self.base == other.base && self.comps() == other.comps()
    }
}

impl Eq for FsKey {}

impl Hash for FsKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.base.hash(state);
        self.comps().hash(state);
    }
}

impl PartialOrd for FsKey {
    fn partial_cmp(&self, other: &FsKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FsKey {
    fn cmp(&self, other: &FsKey) -> Ordering {
        self.base
            .cmp(&other.base)
            .then_with(|| self.comps().cmp(other.comps()))
    }
}

impl fmt::Display for FsKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.base {
            Base::Root => {
                if self.len == 0 {
                    write!(f, "/")
                } else {
                    write!(f, "/{}", self.comps().join("/"))
                }
            }
            Base::Sym(n) => {
                write!(f, "<sym{n}>")?;
                for c in self.comps() {
                    write!(f, "/{c}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_keys_normalize() {
        let k = FsKey::absolute("/a//b/./c/../d").unwrap();
        assert_eq!(k.to_string(), "/a/b/d");
        assert_eq!(FsKey::absolute("relative"), None);
        assert!(FsKey::absolute("/").unwrap().is_root());
    }

    #[test]
    fn symbolic_suffixes() {
        let k = FsKey::symbolic_with(3, "config/app.toml").unwrap();
        assert_eq!(k.to_string(), "<sym3>/config/app.toml");
        assert_eq!(FsKey::symbolic_with(3, "../escape"), None);
        assert_eq!(
            FsKey::symbolic_with(3, "./x").unwrap().comps(),
            [Arc::from("x")]
        );
    }

    #[test]
    fn parents_and_ancestors() {
        let k = FsKey::absolute("/a/b/c").unwrap();
        assert_eq!(k.parent().unwrap().to_string(), "/a/b");
        assert_eq!(FsKey::root().parent().unwrap(), FsKey::root());
        assert_eq!(FsKey::symbolic(1).parent(), None);
        let ancestors: Vec<FsKey> = k.proper_ancestors().collect();
        assert_eq!(ancestors.len(), 3);
        assert_eq!(ancestors[0].to_string(), "/a/b");
        assert_eq!(ancestors[2].to_string(), "/");
        assert_eq!(FsKey::root().proper_ancestors().count(), 0);
    }

    #[test]
    fn symbolic_ancestors_include_the_bare_anchor() {
        let k = FsKey::symbolic_with(0, "a/b").unwrap();
        let ancestors: Vec<String> = k.proper_ancestors().map(|a| a.to_string()).collect();
        assert_eq!(ancestors, ["<sym0>/a", "<sym0>"]);
        assert_eq!(FsKey::symbolic(0).proper_ancestors().count(), 0);
    }

    #[test]
    fn hash_and_order_match_owned_components() {
        // Treap priorities and heap order hash and compare keys; they
        // must not change with the representation, nor with which
        // buffer a prefix key shares.
        fn sip<T: Hash>(t: &T) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }
        let owned = |k: &FsKey| {
            (
                k.base,
                k.comps()
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<String>>(),
            )
        };
        let keys = [
            FsKey::root(),
            FsKey::absolute("/a").unwrap(),
            FsKey::absolute("/a/b").unwrap(),
            FsKey::absolute("/ab").unwrap(),
            FsKey::absolute("/a/b/c").unwrap().parent().unwrap(),
            FsKey::symbolic(1),
            FsKey::symbolic_with(1, "x/y").unwrap(),
            FsKey::symbolic(2).child("z"),
        ];
        for a in &keys {
            assert_eq!(sip(a), sip(&owned(a)), "{a}");
            for b in &keys {
                assert_eq!(a.cmp(b), owned(a).cmp(&owned(b)), "{a} vs {b}");
                assert_eq!(a == b, owned(a) == owned(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn ancestry_relation() {
        let a = FsKey::absolute("/a").unwrap();
        let abc = FsKey::absolute("/a/b/c").unwrap();
        assert!(a.is_ancestor_or_equal(&abc));
        assert!(abc.is_ancestor_or_equal(&abc));
        assert!(!abc.is_ancestor_or_equal(&a));
        assert!(FsKey::root().is_ancestor_or_equal(&abc));
        // Different bases never relate.
        assert!(!FsKey::symbolic(1).is_ancestor_or_equal(&abc));
        assert!(!FsKey::symbolic(1).is_ancestor_or_equal(&FsKey::symbolic(2)));
        let s1c = FsKey::symbolic(1).child("c");
        assert!(FsKey::symbolic(1).is_ancestor_or_equal(&s1c));
    }
}
