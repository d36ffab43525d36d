//! The canonical statement text the incremental engine compares.
//!
//! A statement replays only if its [`canonical_item`] rendering and its
//! raw source slice are unchanged. These tests pin the two properties
//! of the rendering that rule relies on: here-document bodies, which
//! sit outside the raw slice, are part of it, and it is a fixpoint of
//! print∘parse.

use shoal_shparse::{canonical_item, parse_script};

/// Canonical rendering of each statement of a script, in order.
fn texts(src: &str) -> Vec<String> {
    let script = parse_script(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}"));
    script.items.iter().map(|item| canonical_item(&script, item)).collect()
}

#[test]
fn heredoc_bodies_are_part_of_the_canonical_text() {
    let a = texts("cat <<EOF\nalpha\nEOF\n");
    let b = texts("cat <<EOF\nbeta\nEOF\n");
    assert_ne!(a, b, "heredoc body edits must change the canonical text");
    assert!(a[0].contains("alpha\n"), "canonical text embeds the body: {:?}", a[0]);
}

#[test]
fn canonical_text_is_reparse_stable() {
    let src = "for f in a b; do rm \"$f\"; done\ncase $x in a) echo a ;; esac\n\
               cat <<EOF\nbody\nEOF\n";
    for text in texts(src) {
        assert_eq!(texts(&text), std::slice::from_ref(&text), "{text:?} is not reparse-stable");
    }
}
