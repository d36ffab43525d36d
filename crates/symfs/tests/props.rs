//! Property-based tests for the symbolic file system (on the in-repo
//! seeded harness): the tree axioms hold under arbitrary operation
//! sequences, and lexical path normalization behaves like a normal form.

use shoal_obs::prop::{run_cases, Gen};
use shoal_symfs::key::FsKey;
use shoal_symfs::state::{NodeState, SymFs};
use shoal_symfs::{is_ancestor_or_equal, join, normalize_lexical};

/// Path components from a small alphabet (plus dot-dot and dot to
/// stress normalization).
fn component(g: &mut Gen) -> String {
    g.pick(&["a", "b", "c", "..", ".", ""]).to_string()
}

fn raw_path(g: &mut Gen) -> String {
    let abs = g.bool();
    let body = g.vec_of(0..6, component).join("/");
    if abs {
        format!("/{body}")
    } else {
        body
    }
}

/// One file-system operation.
#[derive(Debug, Clone)]
enum Op {
    RequireFile(String),
    RequireDir(String),
    RequireAbsent(String),
    CreateFile(String),
    CreateDir(String),
    DeleteTree(String),
    DeleteChildren(String),
}

fn abs_key_path(g: &mut Gen) -> String {
    let comps = g.vec_of(1..4, |g| *g.pick(&["a", "b", "c"]));
    format!("/{}", comps.join("/"))
}

fn op(g: &mut Gen) -> Op {
    let p = abs_key_path(g);
    match g.usize(0..7) {
        0 => Op::RequireFile(p),
        1 => Op::RequireDir(p),
        2 => Op::RequireAbsent(p),
        3 => Op::CreateFile(p),
        4 => Op::CreateDir(p),
        5 => Op::DeleteTree(p),
        _ => Op::DeleteChildren(p),
    }
}

fn apply(fs: &mut SymFs, op: &Op) {
    let key = |p: &str| FsKey::absolute(p).expect("absolute");
    match op {
        Op::RequireFile(p) => {
            let _ = fs.require(&key(p), NodeState::File);
        }
        Op::RequireDir(p) => {
            let _ = fs.require(&key(p), NodeState::Dir);
        }
        Op::RequireAbsent(p) => {
            let _ = fs.require(&key(p), NodeState::Absent);
        }
        Op::CreateFile(p) => {
            let _ = fs.create_file(&key(p));
        }
        Op::CreateDir(p) => {
            let _ = fs.create_dir(&key(p));
        }
        Op::DeleteTree(p) => fs.delete_tree(&key(p)),
        Op::DeleteChildren(p) => fs.delete_children(&key(p)),
    }
}

#[test]
fn normalization_is_idempotent() {
    run_cases("normalization_is_idempotent", 256, |g| {
        let p = raw_path(g);
        let once = normalize_lexical(&p);
        let twice = normalize_lexical(&once);
        assert_eq!(once, twice);
    });
}

#[test]
fn normalized_paths_have_no_dots_or_doubles() {
    run_cases("normalized_paths_have_no_dots_or_doubles", 256, |g| {
        let p = raw_path(g);
        let n = normalize_lexical(&p);
        assert!(!n.contains("//"), "{n}");
        // `.` is the normal form of the empty relative path; no other
        // `.` components survive.
        if n != "." {
            assert!(!n.split('/').any(|c| c == "."), "{n}");
        }
        if n.starts_with('/') {
            assert!(!n.split('/').any(|c| c == ".."), "absolute {n} kept ..");
        }
        if n.len() > 1 {
            assert!(!n.ends_with('/'), "{n}");
        }
    });
}

#[test]
fn join_produces_normalized() {
    run_cases("join_produces_normalized", 256, |g| {
        let b = raw_path(g);
        let r = raw_path(g);
        // Join against an absolute base always yields a normalized
        // absolute path.
        let base = if b.starts_with('/') { b } else { format!("/{b}") };
        let base = normalize_lexical(&base);
        let joined = join(&base, &r);
        assert_eq!(joined.clone(), normalize_lexical(&joined));
        assert!(joined.starts_with('/'));
    });
}

#[test]
fn ancestor_relation_is_a_partial_order() {
    run_cases("ancestor_relation_is_a_partial_order", 256, |g| {
        let a = abs_key_path(g);
        let b = abs_key_path(g);
        let na = normalize_lexical(&a);
        let nb = normalize_lexical(&b);
        assert!(is_ancestor_or_equal(&na, &na));
        if is_ancestor_or_equal(&na, &nb) && is_ancestor_or_equal(&nb, &na) {
            assert_eq!(na, nb);
        }
    });
}

#[test]
fn tree_axioms_hold_after_any_ops() {
    run_cases("tree_axioms_hold_after_any_ops", 256, |g| {
        let ops = g.vec_of(0..24, op);
        let mut fs = SymFs::new();
        for o in &ops {
            apply(&mut fs, o);
        }
        // Axiom: an existing node's ancestors are all directories.
        let entries: Vec<(FsKey, NodeState)> = fs.entries().map(|(k, s)| (k.clone(), s)).collect();
        for (k, s) in &entries {
            if s.exists() {
                for anc in k.proper_ancestors() {
                    let anc_state = fs.lookup(&anc);
                    assert!(
                        anc_state == Some(NodeState::Dir),
                        "{k} is {s} but ancestor {anc} is {anc_state:?} (ops: {ops:?})"
                    );
                }
            }
        }
        // Axiom: nothing exists under an absent or file node.
        for (k, s) in &entries {
            if matches!(s, NodeState::Absent | NodeState::File) {
                for (other, os) in &entries {
                    if other != k && k.is_ancestor_or_equal(other) {
                        assert!(
                            !os.exists(),
                            "{other} is {os} under {k} which is {s} (ops: {ops:?})"
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn require_is_idempotent() {
    run_cases("require_is_idempotent", 256, |g| {
        let ops = g.vec_of(0..12, op);
        let p = abs_key_path(g);
        let mut fs = SymFs::new();
        for o in &ops {
            apply(&mut fs, o);
        }
        let key = FsKey::absolute(&p).unwrap();
        let mut fs2 = fs.clone();
        let first = fs2.require(&key, NodeState::File).ok();
        let state_after_first = fs2.lookup(&key);
        let second = fs2.require(&key, NodeState::File).ok();
        assert_eq!(first, second, "second require changed feasibility");
        assert_eq!(state_after_first, fs2.lookup(&key));
    });
}

#[test]
fn delete_tree_erases_subtree() {
    run_cases("delete_tree_erases_subtree", 256, |g| {
        let ops = g.vec_of(0..12, op);
        let p = abs_key_path(g);
        let mut fs = SymFs::new();
        for o in &ops {
            apply(&mut fs, o);
        }
        let key = FsKey::absolute(&p).unwrap();
        fs.delete_tree(&key);
        assert_eq!(fs.lookup(&key), Some(NodeState::Absent));
        let child = key.child("probe");
        assert_eq!(fs.lookup(&child), Some(NodeState::Absent));
    });
}

#[test]
fn join_over_approximates_both_sides() {
    use std::cell::Cell;
    let joined_cases = Cell::new(0u32);
    run_cases("join_over_approximates_both_sides", 512, |g| {
        let mut base = SymFs::new();
        for o in &g.vec_of(0..10, op) {
            apply(&mut base, o);
        }
        let (mut a, mut b) = (base.clone(), base);
        for o in &g.vec_of(0..3, op) {
            apply(&mut a, o);
        }
        for o in &g.vec_of(0..3, op) {
            apply(&mut b, o);
        }
        if !a.joinable(&b) {
            return;
        }
        joined_cases.set(joined_cases.get() + 1);
        assert_eq!(a.shape(), b.shape(), "joinable heaps share a shape");
        let mut j = a.clone();
        j.join(&b);
        assert_eq!(j.shape(), a.shape(), "a join changes no existence");
        // Every fact of the join holds on both sides, possibly less
        // precisely (a differing kind widens to Exists).
        let holds = |joined: NodeState, side: Option<NodeState>| match side {
            Some(s) => s == joined || (joined == NodeState::Exists && s.exists()),
            None => false,
        };
        for comps in 1..=3 {
            for path in (0..3usize.pow(comps)).map(|mut n| {
                let mut p = String::new();
                for _ in 0..comps {
                    p.push('/');
                    p.push(['a', 'b', 'c'][n % 3]);
                    n /= 3;
                }
                p
            }) {
                let k = FsKey::absolute(&path).expect("absolute");
                if let Some(s) = j.lookup(&k) {
                    let (left, right) = (a.lookup(&k), b.lookup(&k));
                    assert!(holds(s, left), "{k}: join {s}, left {left:?}");
                    assert!(holds(s, right), "{k}: join {s}, right {right:?}");
                }
            }
        }
        // A recorded fact stays assumed only if both sides assumed it.
        for (k, _) in j.entries() {
            assert_eq!(
                j.determined_by_assumption(k),
                a.determined_by_assumption(k) && b.determined_by_assumption(k),
                "{k}"
            );
        }
    });
    let joined = joined_cases.get();
    assert!(joined > 50, "only {joined} joinable cases");
}

fn node_state(g: &mut Gen) -> NodeState {
    *g.pick(&[
        NodeState::File,
        NodeState::Dir,
        NodeState::Exists,
        NodeState::Absent,
    ])
}

#[test]
fn contradicts_predicts_require_exactly() {
    run_cases("contradicts_predicts_require_exactly", 512, |g| {
        let ops = g.vec_of(0..16, op);
        let mut fs = SymFs::new();
        for o in &ops {
            apply(&mut fs, o);
        }
        let key = FsKey::absolute(&abs_key_path(g)).unwrap();
        let want = node_state(g);
        let predicted = fs.contradicts(&key, want);
        let outcome = fs.clone().require(&key, want);
        assert_eq!(
            predicted,
            !outcome.ok(),
            "contradicts({key}, {want}) = {predicted}, require = {outcome:?}, ops = {ops:?}"
        );
        // Requiring other states first only narrows the heap, so a
        // predicted contradiction survives them (what lets the engine
        // rule a spec case out before trying its other preconditions).
        if predicted {
            let mut narrowed = fs.clone();
            for _ in 0..g.usize(0..4) {
                let other = FsKey::absolute(&abs_key_path(g)).unwrap();
                let _ = narrowed.require(&other, node_state(g));
            }
            assert!(
                !narrowed.require(&key, want).ok(),
                "contradiction at {key} ({want}) lost after other requirements, ops = {ops:?}"
            );
        }
    });
}
