//! Structurally-shared containers for O(1) state forks.
//!
//! The symbolic engine forks one `World` per explored path; with eagerly
//! cloned `BTreeMap`/`Vec` fields a fork costs O(state), which makes
//! long straight-line scripts quadratic. The containers here make a fork
//! an `Arc` refcount bump and defer copying until a *shared* value is
//! mutated:
//!
//! * [`CowMap`] / [`CowVec`] — `Arc<BTreeMap>` / `Arc<Vec>` with
//!   [`Arc::make_mut`] copy-on-write. Clone is O(1); the first mutation
//!   after a fork copies the whole container. Right for small maps and
//!   for vectors that are mutated rarely relative to forks.
//! * [`CowList`] — a persistent singly-linked list (newest first) with
//!   O(1) push *even while shared*. Right for append-mostly logs (the
//!   execution trail, assumption lists) that grow at every statement in
//!   every world: a CowVec would re-copy the whole log after each fork.
//! * [`Pmap`] — a persistent ordered map (a treap with deterministic
//!   key-hash priorities) with O(log n) path-copying insert/remove even
//!   while shared. Right for the symbolic file-system map, which both
//!   grows with script length and is written by every world between
//!   forks — `make_mut` alone would still copy the whole map once per
//!   fork, keeping straight-line scripts quadratic.
//!
//! All containers are deterministic: iteration order depends only on the
//! contents (key order for [`Pmap`], insertion order for the rest), never
//! on sharing history, so analysis output is byte-identical whether or
//! not forks happened to share structure.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// CowVec
// ---------------------------------------------------------------------------

/// An `Arc<Vec<T>>` with copy-on-write mutation. Clone is O(1); the
/// first mutation of a shared value copies the vector.
pub struct CowVec<T> {
    inner: Arc<Vec<T>>,
}

impl<T> CowVec<T> {
    /// An empty vector. It allocates the shared header (one small
    /// allocation) and no element storage until the first push.
    pub fn new() -> Self {
        CowVec {
            inner: Arc::new(Vec::new()),
        }
    }
}

impl<T: Clone> CowVec<T> {
    /// Mutable access to the underlying vector, copying it first if it is
    /// shared with another `CowVec`.
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        Arc::make_mut(&mut self.inner)
    }

    /// Appends an element (copy-on-write).
    pub fn push(&mut self, value: T) {
        self.to_mut().push(value);
    }
}

impl<T> Deref for CowVec<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.inner
    }
}

impl<T> Clone for CowVec<T> {
    fn clone(&self) -> Self {
        CowVec {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for CowVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: PartialEq> PartialEq for CowVec<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || *self.inner == *other.inner
    }
}

impl<T: Eq> Eq for CowVec<T> {}

impl<T> From<Vec<T>> for CowVec<T> {
    fn from(v: Vec<T>) -> Self {
        CowVec { inner: Arc::new(v) }
    }
}

impl<T> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        CowVec {
            inner: Arc::new(iter.into_iter().collect()),
        }
    }
}

impl<'a, T> IntoIterator for &'a CowVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

// ---------------------------------------------------------------------------
// CowMap
// ---------------------------------------------------------------------------

/// An `Arc<BTreeMap<K, V>>` with copy-on-write mutation. Clone is O(1);
/// the first mutation of a shared value copies the map. Use for small
/// maps mutated rarely relative to forks (variable bindings, function
/// definitions); use [`Pmap`] when the map itself grows with input size.
pub struct CowMap<K, V> {
    inner: Arc<BTreeMap<K, V>>,
}

impl<K: Ord, V> CowMap<K, V> {
    /// An empty map. Like [`CowVec::new`], it allocates the shared
    /// header and no entries until the first insert.
    pub fn new() -> Self {
        CowMap {
            inner: Arc::new(BTreeMap::new()),
        }
    }
}

impl<K: Ord + Clone, V: Clone> CowMap<K, V> {
    /// Mutable access to the underlying map, copying it first if shared.
    pub fn to_mut(&mut self) -> &mut BTreeMap<K, V> {
        Arc::make_mut(&mut self.inner)
    }

    /// Inserts a binding (copy-on-write).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.to_mut().insert(key, value)
    }

    /// Removes a binding (copy-on-write). Borrowed-key lookups go through
    /// [`Deref`]; removal takes `&K` to keep the COW path simple.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.to_mut().remove(key)
    }
}

impl<K, V> CowMap<K, V> {
    /// True when both handles share one underlying map (an O(1)
    /// sufficient condition for equality).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl<K, V> Deref for CowMap<K, V> {
    type Target = BTreeMap<K, V>;
    fn deref(&self) -> &BTreeMap<K, V> {
        &self.inner
    }
}

impl<K, V> Clone for CowMap<K, V> {
    fn clone(&self) -> Self {
        CowMap {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K: Ord, V> Default for CowMap<K, V> {
    fn default() -> Self {
        CowMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for CowMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for CowMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || *self.inner == *other.inner
    }
}

impl<K: Eq, V: Eq> Eq for CowMap<K, V> {}

impl<K: Ord, V> From<BTreeMap<K, V>> for CowMap<K, V> {
    fn from(m: BTreeMap<K, V>) -> Self {
        CowMap { inner: Arc::new(m) }
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for CowMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        CowMap {
            inner: Arc::new(iter.into_iter().collect()),
        }
    }
}

// ---------------------------------------------------------------------------
// CowList
// ---------------------------------------------------------------------------

/// A persistent singly-linked list with O(1) shared push.
///
/// Elements are stored newest-first internally; [`CowList::iter`]
/// presents them oldest-first (chronological order), which costs one
/// O(n) pointer walk per traversal — acceptable for logs that are read
/// only when a finding is rendered. [`CowList::last`] (the newest
/// element) and [`CowList::len`] are O(1).
pub struct CowList<T> {
    head: Option<Arc<ListNode<T>>>,
    len: usize,
}

struct ListNode<T> {
    value: T,
    prev: Option<Arc<ListNode<T>>>,
}

impl<T> CowList<T> {
    /// An empty list.
    pub fn new() -> Self {
        CowList { head: None, len: 0 }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most recently pushed element, O(1).
    pub fn last(&self) -> Option<&T> {
        self.head.as_deref().map(|n| &n.value)
    }

    /// Appends an element in O(1) regardless of sharing: the new node
    /// points at the old head, which other clones keep referencing.
    pub fn push(&mut self, value: T) {
        self.head = Some(Arc::new(ListNode {
            value,
            prev: self.head.take(),
        }));
        self.len += 1;
    }

    /// The elements of `self` and of `other` that are not in their
    /// shared tail (the nodes both lists hold by pointer, i.e. what they
    /// inherited from a common fork point), each oldest first. Costs
    /// the length difference plus the unshared parts, not the full
    /// lists.
    pub fn unshared<'a>(&'a self, other: &'a CowList<T>) -> (Vec<&'a T>, Vec<&'a T>) {
        let (mut a, mut b) = (self.head.as_ref(), other.head.as_ref());
        let (mut la, mut lb) = (self.len, other.len);
        let (mut only_a, mut only_b) = (Vec::new(), Vec::new());
        loop {
            match (a, b) {
                (Some(x), Some(y)) if la == lb && Arc::ptr_eq(x, y) => break,
                (None, None) => break,
                _ => {}
            }
            if la >= lb {
                let x = a.expect("a non-empty list is at least as long as the other");
                only_a.push(&x.value);
                a = x.prev.as_ref();
                la -= 1;
            } else {
                let y = b.expect("the longer list is non-empty");
                only_b.push(&y.value);
                b = y.prev.as_ref();
                lb -= 1;
            }
        }
        only_a.reverse();
        only_b.reverse();
        (only_a, only_b)
    }

    /// Iterates oldest-first. Collects the spine (O(n)) before yielding.
    pub fn iter(&self) -> CowListIter<'_, T> {
        let mut items = Vec::with_capacity(self.len);
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            items.push(&node.value);
            cur = node.prev.as_deref();
        }
        items.reverse();
        CowListIter {
            inner: items.into_iter(),
        }
    }
}

impl<T: Clone> CowList<T> {
    /// Appends, oldest first, the elements of `other` that are not in
    /// the tail it shares with `self` (see [`CowList::unshared`]).
    pub fn extend_unshared(&mut self, other: &CowList<T>) {
        let (_, theirs) = self.unshared(other);
        let theirs: Vec<T> = theirs.into_iter().cloned().collect();
        for value in theirs {
            self.push(value);
        }
    }
}

/// Chronological (oldest-first) iterator over a [`CowList`].
pub struct CowListIter<'a, T> {
    inner: std::vec::IntoIter<&'a T>,
}

impl<'a, T> Iterator for CowListIter<'a, T> {
    type Item = &'a T;
    fn next(&mut self) -> Option<&'a T> {
        self.inner.next()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a, T> ExactSizeIterator for CowListIter<'a, T> {}

impl<'a, T> IntoIterator for &'a CowList<T> {
    type Item = &'a T;
    type IntoIter = CowListIter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T> Clone for CowList<T> {
    fn clone(&self) -> Self {
        CowList {
            head: self.head.clone(),
            len: self.len,
        }
    }
}

impl<T> Default for CowList<T> {
    fn default() -> Self {
        CowList::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for CowList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for CowList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Eq> Eq for CowList<T> {}

impl<T> FromIterator<T> for CowList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = CowList::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

impl<T> Drop for CowList<T> {
    // Default recursive drop of a long uniquely-owned spine could
    // overflow the stack; unlink iteratively, stopping at the first
    // shared node (a sibling clone still owns the rest).
    fn drop(&mut self) {
        let mut cur = self.head.take();
        while let Some(node) = cur {
            match Arc::try_unwrap(node) {
                Ok(mut inner) => cur = inner.prev.take(),
                Err(_) => break,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pmap: persistent ordered map (treap)
// ---------------------------------------------------------------------------

/// A persistent ordered map: clone is O(1) and insert/remove path-copy
/// only O(log n) nodes even while shared.
///
/// Implemented as a treap whose priorities are derived from a hash of
/// the key, so the tree shape is a deterministic function of the key
/// *set* — independent of insertion order and of sharing history.
/// Iteration is in key order, like `BTreeMap`.
pub struct Pmap<K, V> {
    root: Link<K, V>,
    len: usize,
}

type Link<K, V> = Option<Arc<PNode<K, V>>>;

struct PNode<K, V> {
    key: K,
    value: V,
    prio: u64,
    left: Link<K, V>,
    right: Link<K, V>,
}

/// Deterministic per-key treap priority (SipHash then a splitmix64
/// finalizer to decorrelate from key ordering).
fn prio_of<K: Hash>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    let mut z = h.finish().wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<K, V> Pmap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Pmap { root: None, len: 0 }
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<K: Ord, V> Pmap<K, V> {
    /// Looks up a binding.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut cur = self.root.as_deref();
        while let Some(node) = cur {
            match key.cmp(&node.key) {
                std::cmp::Ordering::Less => cur = node.left.as_deref(),
                std::cmp::Ordering::Greater => cur = node.right.as_deref(),
                std::cmp::Ordering::Equal => return Some(&node.value),
            }
        }
        None
    }

    /// Does the map contain `key`?
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// In-order (key-order) iterator over all bindings.
    pub fn iter(&self) -> PmapIter<'_, K, V> {
        let mut iter = PmapIter { stack: Vec::new() };
        iter.push_left_spine(self.root.as_deref());
        iter
    }

    /// In-order iterator over bindings with keys `>= from` (the treap
    /// analogue of `BTreeMap::range(from..)`).
    pub fn iter_from<'a>(&'a self, from: &K) -> PmapIter<'a, K, V> {
        let mut stack = Vec::new();
        let mut cur = self.root.as_deref();
        while let Some(node) = cur {
            match from.cmp(&node.key) {
                std::cmp::Ordering::Less => {
                    stack.push(node);
                    cur = node.left.as_deref();
                }
                std::cmp::Ordering::Greater => cur = node.right.as_deref(),
                std::cmp::Ordering::Equal => {
                    stack.push(node);
                    break;
                }
            }
        }
        PmapIter { stack }
    }

    /// Key-order iterator over keys.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }
}

impl<K: Ord + Clone + Hash, V: Clone> Pmap<K, V> {
    /// Inserts a binding, path-copying O(log n) nodes. Returns the
    /// previous value, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (less, eq, greater) = split(self.root.take(), &key);
        let prio = prio_of(&key);
        let node = Some(Arc::new(PNode {
            key,
            value,
            prio,
            left: None,
            right: None,
        }));
        self.root = merge(merge(less, node), greater);
        match eq {
            Some(old) => Some(old),
            None => {
                self.len += 1;
                None
            }
        }
    }

    /// Removes a binding, path-copying O(log n) nodes.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (less, eq, greater) = split(self.root.take(), key);
        self.root = merge(less, greater);
        if eq.is_some() {
            self.len -= 1;
        }
        eq
    }
}

impl<K: Ord, V> Pmap<K, V> {
    /// True when both maps hold the same key set, in the same tree
    /// shape, with `same` holding for every pair of values under one
    /// key. Subtrees shared by pointer are skipped, so comparing two
    /// forks of one map costs their divergence, not their size. The
    /// shape is a function of the key set (priorities are key hashes),
    /// so a `false` caused by shape alone needs a 64-bit priority tie.
    pub fn matches_by(&self, other: &Self, same: impl Fn(&V, &V) -> bool) -> bool {
        self.len == other.len && links_match(&self.root, &other.root, &same)
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> Pmap<K, V> {
    /// Replaces every value with `join(mine, theirs)`, where `other`
    /// must satisfy [`Pmap::matches_by`] against `self`. Shared subtrees
    /// and nodes whose value does not change are kept, not copied.
    pub fn join_with(&mut self, other: &Self, join: impl Fn(&V, &V) -> V) {
        self.root = join_links(&self.root, &other.root, &join);
    }
}

fn links_match<K: Ord, V>(a: &Link<K, V>, b: &Link<K, V>, same: &impl Fn(&V, &V) -> bool) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            Arc::ptr_eq(x, y)
                || (x.key == y.key
                    && same(&x.value, &y.value)
                    && links_match(&x.left, &y.left, same)
                    && links_match(&x.right, &y.right, same))
        }
        _ => false,
    }
}

fn join_links<K: Ord + Clone, V: Clone + PartialEq>(
    a: &Link<K, V>,
    b: &Link<K, V>,
    join: &impl Fn(&V, &V) -> V,
) -> Link<K, V> {
    let (Some(x), Some(y)) = (a, b) else {
        return a.clone();
    };
    if Arc::ptr_eq(x, y) {
        return a.clone();
    }
    debug_assert!(x.key == y.key, "join_with needs maps of equal shape");
    let value = join(&x.value, &y.value);
    let left = join_links(&x.left, &y.left, join);
    let right = join_links(&x.right, &y.right, join);
    let same_link = |l: &Link<K, V>, r: &Link<K, V>| match (l, r) {
        (Some(l), Some(r)) => Arc::ptr_eq(l, r),
        (None, None) => true,
        _ => false,
    };
    if value == x.value && same_link(&left, &x.left) && same_link(&right, &x.right) {
        return a.clone();
    }
    Some(Arc::new(PNode {
        key: x.key.clone(),
        value,
        prio: x.prio,
        left,
        right,
    }))
}

/// Splits `t` into (keys < k, value at k, keys > k), path-copying.
#[allow(clippy::type_complexity)]
fn split<K: Ord + Clone, V: Clone>(t: Link<K, V>, k: &K) -> (Link<K, V>, Option<V>, Link<K, V>) {
    let Some(node) = t else {
        return (None, None, None);
    };
    match k.cmp(&node.key) {
        std::cmp::Ordering::Less => {
            let (ll, eq, lr) = split(node.left.clone(), k);
            let right = Some(new_node(&node, lr, node.right.clone()));
            (ll, eq, right)
        }
        std::cmp::Ordering::Greater => {
            let (rl, eq, rr) = split(node.right.clone(), k);
            let left = Some(new_node(&node, node.left.clone(), rl));
            (left, eq, rr)
        }
        std::cmp::Ordering::Equal => (node.left.clone(), Some(node.value.clone()), node.right.clone()),
    }
}

/// Merges two treaps where every key in `a` < every key in `b`.
fn merge<K: Ord + Clone, V: Clone>(a: Link<K, V>, b: Link<K, V>) -> Link<K, V> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some(a), Some(b)) => {
            if a.prio >= b.prio {
                let right = merge(a.right.clone(), Some(b));
                Some(new_node(&a, a.left.clone(), right))
            } else {
                let left = merge(Some(a), b.left.clone());
                Some(new_node(&b, left, b.right.clone()))
            }
        }
    }
}

fn new_node<K: Clone, V: Clone>(src: &PNode<K, V>, left: Link<K, V>, right: Link<K, V>) -> Arc<PNode<K, V>> {
    Arc::new(PNode {
        key: src.key.clone(),
        value: src.value.clone(),
        prio: src.prio,
        left,
        right,
    })
}

/// Key-order iterator over a [`Pmap`].
pub struct PmapIter<'a, K, V> {
    stack: Vec<&'a PNode<K, V>>,
}

impl<'a, K, V> PmapIter<'a, K, V> {
    fn push_left_spine(&mut self, mut cur: Option<&'a PNode<K, V>>) {
        while let Some(node) = cur {
            self.stack.push(node);
            cur = node.left.as_deref();
        }
    }
}

impl<'a, K, V> Iterator for PmapIter<'a, K, V> {
    type Item = (&'a K, &'a V);
    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        let node = self.stack.pop()?;
        self.push_left_spine(node.right.as_deref());
        Some((&node.key, &node.value))
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a Pmap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = PmapIter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<K, V> Clone for Pmap<K, V> {
    fn clone(&self) -> Self {
        Pmap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for Pmap<K, V> {
    fn default() -> Self {
        Pmap::new()
    }
}

impl<K: Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for Pmap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + PartialEq, V: PartialEq> PartialEq for Pmap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<K: Ord + Eq, V: Eq> Eq for Pmap<K, V> {}

impl<K: Ord + Clone + Hash, V: Clone> FromIterator<(K, V)> for Pmap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = Pmap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;
    use std::collections::BTreeMap;

    #[test]
    fn cowvec_cow_isolation() {
        let mut a: CowVec<i32> = vec![1, 2, 3].into();
        let b = a.clone();
        a.push(4);
        assert_eq!(&*a, &[1, 2, 3, 4]);
        assert_eq!(&*b, &[1, 2, 3]);
    }

    #[test]
    fn cowmap_cow_isolation() {
        let mut a: CowMap<String, i32> = CowMap::new();
        a.insert("x".into(), 1);
        let mut b = a.clone();
        b.insert("y".into(), 2);
        a.to_mut().insert("x".into(), 10);
        assert_eq!(a.get("x"), Some(&10));
        assert_eq!(a.get("y"), None);
        assert_eq!(b.get("x"), Some(&1));
        assert_eq!(b.get("y"), Some(&2));
    }

    #[test]
    fn cowlist_push_is_shared_and_isolated() {
        let mut a: CowList<i32> = CowList::new();
        a.push(1);
        a.push(2);
        let mut b = a.clone();
        a.push(3);
        b.push(30);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![1, 2, 30]);
        assert_eq!(a.last(), Some(&3));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn cowlist_deep_drop_no_overflow() {
        let mut l: CowList<u64> = CowList::new();
        for i in 0..200_000 {
            l.push(i);
        }
        drop(l);
    }

    #[test]
    fn pmap_matches_btreemap_under_random_ops() {
        let mut rng = XorShift64::seed_from_u64(0xC0FFEE);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut map: Pmap<u64, u64> = Pmap::new();
        for step in 0..4000u64 {
            let k = rng.next_u64() % 257;
            if rng.next_u64().is_multiple_of(4) {
                assert_eq!(map.remove(&k), model.remove(&k));
            } else {
                assert_eq!(map.insert(k, step), model.insert(k, step));
            }
            assert_eq!(map.len(), model.len());
        }
        let got: Vec<_> = map.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        // range-from agrees too
        for lo in [0u64, 1, 100, 256, 300] {
            let got: Vec<_> = map.iter_from(&lo).map(|(k, _)| *k).collect();
            let want: Vec<_> = model.range(lo..).map(|(k, _)| *k).collect();
            assert_eq!(got, want, "iter_from({lo})");
        }
    }

    #[test]
    fn pmap_fork_isolation() {
        let mut a: Pmap<u32, &'static str> = Pmap::new();
        for k in 0..100 {
            a.insert(k, "base");
        }
        let mut b = a.clone();
        b.insert(7, "child");
        b.remove(&50);
        a.insert(200, "parent");
        assert_eq!(a.get(&7), Some(&"base"));
        assert_eq!(a.get(&50), Some(&"base"));
        assert_eq!(b.get(&7), Some(&"child"));
        assert_eq!(b.get(&50), None);
        assert_eq!(b.get(&200), None);
    }

    #[test]
    fn cowlist_unshared_skips_the_common_tail() {
        let mut base: CowList<i32> = CowList::new();
        base.push(1);
        base.push(2);
        let mut a = base.clone();
        let mut b = base.clone();
        a.push(3);
        b.push(30);
        b.push(31);
        let (only_a, only_b) = a.unshared(&b);
        assert_eq!(only_a, vec![&3]);
        assert_eq!(only_b, vec![&30, &31]);
        let (x, y) = base.unshared(&a);
        assert!(x.is_empty());
        assert_eq!(y, vec![&3]);
        // Equal values pushed separately are not shared.
        let c: CowList<i32> = [1, 2].into_iter().collect();
        let (x, y) = base.unshared(&c);
        assert_eq!((x, y), (vec![&1, &2], vec![&1, &2]));
        // Folding b into a appends only what b added after the fork.
        a.extend_unshared(&b);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3, 30, 31]);
    }

    #[test]
    fn pmap_join_with_keeps_shared_structure() {
        let mut a: Pmap<u32, u32> = (0..50).map(|k| (k, k)).collect();
        let mut b = a.clone();
        b.insert(7, 700);
        b.insert(40, 4000);
        assert!(a.matches_by(&b, |_, _| true));
        assert!(!a.matches_by(&b, |x, y| x == y));
        let mut c = b.clone();
        c.insert(99, 1);
        assert!(!a.matches_by(&c, |_, _| true), "different key sets");
        a.join_with(&b, |x, y| *x.max(y));
        assert_eq!(a.get(&7), Some(&700));
        assert_eq!(a.get(&40), Some(&4000));
        assert_eq!(a.get(&8), Some(&8));
        assert_eq!(a.len(), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn pmap_shape_is_insertion_order_independent() {
        let mut a: Pmap<u32, u32> = Pmap::new();
        let mut b: Pmap<u32, u32> = Pmap::new();
        for k in 0..64 {
            a.insert(k, k);
        }
        for k in (0..64).rev() {
            b.insert(k, k);
        }
        assert_eq!(a, b);
        let av: Vec<_> = a.iter().map(|(k, _)| *k).collect();
        let bv: Vec<_> = b.iter().map(|(k, _)| *k).collect();
        assert_eq!(av, bv);
    }
}
