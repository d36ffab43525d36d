//! Property test for the copy-on-write world representation: a fork is
//! `World::clone()`, and the structural sharing behind it (`CowMap`,
//! `CowVec`, `CowList`, the symbolic-FS `Pmap`) must make that clone a
//! *logical* deep copy — no mutation of the child may ever be observable
//! in the parent, no matter how the two interleave.

use shoal_core::value::{Seg, SymStr};
use shoal_core::{Diagnostic, DiagCode, Severity, World};
use shoal_obs::prop::{run_cases, Gen};
use shoal_relang::Regex;
use shoal_shparse::Span;
use shoal_symfs::{FsKey, NodeState};

/// One random world mutation through the public API, touching every
/// Arc-shared field: vars, positional, trail, diags, FS entries and
/// assumptions, fragile assumptions, functions, symbol bases, and the
/// shared segments of `$0`, the cwd and the capture buffer.
fn mutate(g: &mut Gen, w: &mut World, tag: &str) {
    let key = FsKey::absolute(&format!("/tmp/{}/{}", tag, g.usize(0..4))).unwrap();
    match g.usize(0..13) {
        0 => {
            let name = format!("V{}", g.usize(0..5));
            let val = w.fresh_sym(shoal_relang::Regex::anything(), &format!("{tag}-var"));
            w.set_var(&name, val);
        }
        1 => w.assume(format!("{tag} assumed #{}", g.usize(0..100))),
        2 => w.report(Diagnostic::new(
            DiagCode::DangerousDelete,
            Severity::Warning,
            Span::new(0, 1, (g.usize(0..9) + 1) as u32),
            format!("{tag} diag"),
        )),
        3 => {
            let state = *g.pick(&[NodeState::File, NodeState::Dir, NodeState::Absent]);
            w.fs.set(&key, state);
        }
        4 => w.fs.delete_tree(&key),
        5 => {
            let _ = w.fs.require(&key, NodeState::File);
        }
        6 => {
            let id = w.fresh_sym_id();
            let _ = w.base_for_sym(id);
        }
        7 => {
            let _ = w.param(&format!("{}", g.usize(1..6)));
        }
        8 => w.cwd = w.cwd.concat(&SymStr::lit(&format!("/{tag}"))),
        // Refine the symbol heading `$0` or the cwd (collapsing it
        // when the constraint pins one string).
        9 | 10 => {
            let value = if g.bool() { &w.script_name } else { &w.cwd };
            let id = match value.segs().first() {
                Some(Seg::Sym { id, .. }) => *id,
                _ => return,
            };
            let with = *g.pick(&["/srv", "/srv|/opt", "[a-z/]+"]);
            let _ = w.refine_sym(id, &Regex::parse_must(with));
        }
        11 => {
            let text = *g.pick(&["out\n", "\n\n", "x"]);
            match &mut w.capture {
                Some(buf) => *buf = buf.concat(&SymStr::lit(text)),
                None => w.capture = Some(w.script_name.concat(&SymStr::lit(text))),
            }
        }
        _ => {
            if let Some(buf) = &mut w.capture {
                buf.strip_trailing_newlines();
            }
        }
    }
}

/// A stable observable snapshot of a world. `World` derives `Debug`
/// exhaustively (all fields), so the formatted form pins down every
/// piece of state a mutation could leak into.
fn snapshot(w: &World) -> String {
    format!("{w:?}")
}

#[test]
fn forked_world_mutations_never_leak_into_parent() {
    run_cases("forked_world_mutations_never_leak_into_parent", 64, |g| {
        // Build a random parent first, so the fork happens on shared,
        // non-trivial structures.
        let mut parent = World::initial();
        for i in 0..g.usize(1..12) {
            mutate(g, &mut parent, &format!("p{i}"));
        }
        let before = snapshot(&parent);

        // Fork (exactly what the engine does), then mutate child and
        // parent in random interleaving: writes on either side must not
        // surface on the other retroactively.
        let mut child = parent.clone();
        assert_eq!(snapshot(&child), before, "a fork starts identical");
        let mut expected_parent = before;
        for i in 0..g.usize(1..16) {
            if g.bool() {
                mutate(g, &mut child, &format!("c{i}"));
            } else {
                mutate(g, &mut parent, &format!("q{i}"));
                expected_parent = snapshot(&parent);
            }
            assert_eq!(
                snapshot(&parent),
                expected_parent,
                "child mutation leaked into the parent"
            );
        }

        // The child carries everything the parent had at fork time.
        for (name, val) in parent.vars.iter() {
            if !name.starts_with('V') {
                // Non-random vars (HOME etc.) only change via mutate's
                // tagged writes, so untouched ones must still agree.
                assert_eq!(
                    child.get_var(name).map(|v| format!("{v:?}")),
                    Some(format!("{val:?}")),
                    "untouched var {name} diverged"
                );
            }
        }
    });
}
