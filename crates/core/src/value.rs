//! Symbolic string values.
//!
//! A [`SymStr`] is the engine's value domain: a concatenation of
//! segments, each either literal text or a *symbol* — an unknown string
//! carrying a regular constraint on its possible contents. This is §3's
//! first ingredient ("generate and track relevant constraints on
//! state"): `$0`'s contents "may be file or directory paths … captured
//! by … a regular expression of the form `/?([^/]*/)*[^/]+`".
//!
//! Concatenation-of-segments (rather than a single regex per value)
//! keeps *identity*: after `STEAMROOT="$(…)"`, the engine knows `rm -fr
//! "$STEAMROOT"/*` deletes under the very symbol that the earlier `cd`
//! succeeded on — not just under "some string matching the same regex".

use shoal_relang::Regex;
use std::fmt;
use std::sync::Arc;

/// Identifier of a symbolic string (fresh per unknown value).
pub type SymId = u32;

/// One segment of a symbolic string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seg {
    /// Known text.
    Lit(String),
    /// An unknown string: identity plus a regular constraint on its
    /// possible contents.
    Sym {
        /// Identity (symbols with the same id always denote the same
        /// runtime string within one world).
        id: SymId,
        /// Constraint: the set of strings the symbol may be.
        constraint: Regex,
        /// Human label for diagnostics (e.g. `$0`, `$(cd …)`).
        label: String,
    },
}

/// A symbolic string: concatenation of segments. No segments = the
/// empty string, and no two literal segments are adjacent (every
/// operation that could join two merges them).
///
/// The segments are immutable and shared: cloning a value (and so a
/// world holding it) is a refcount bump, and the operations that
/// derive a new value allocate only when the result differs from an
/// input, so a value that an operation leaves alone stays shared with
/// every fork sibling holding it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymStr {
    /// Segments in order (the empty slice allocates nothing).
    segs: Arc<[Seg]>,
}

/// Appends `seg`, merging it into a literal it follows.
fn push_merged(segs: &mut Vec<Seg>, seg: Seg) {
    match (segs.last_mut(), seg) {
        (Some(Seg::Lit(a)), Seg::Lit(b)) => a.push_str(&b),
        (_, seg) => segs.push(seg),
    }
}

impl SymStr {
    /// The empty string.
    pub fn empty() -> SymStr {
        SymStr::default()
    }

    /// A literal value.
    pub fn lit(s: &str) -> SymStr {
        if s.is_empty() {
            SymStr::empty()
        } else {
            SymStr {
                segs: Arc::new([Seg::Lit(s.to_string())]),
            }
        }
    }

    /// A fresh symbolic value.
    pub fn sym(id: SymId, constraint: Regex, label: &str) -> SymStr {
        SymStr {
            segs: Arc::new([Seg::Sym {
                id,
                constraint,
                label: label.to_string(),
            }]),
        }
    }

    /// The segments in order.
    pub fn segs(&self) -> &[Seg] {
        &self.segs
    }

    /// Feeds a cheap digest of this value to `h`: literal text, symbol
    /// ids and labels, and the outer shape of each constraint (its top
    /// operator and arity, not the whole term). Equal values always
    /// feed equal digests.
    pub fn hash_shallow(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.segs.len().hash(h);
        for seg in self.segs.iter() {
            match seg {
                Seg::Lit(text) => text.hash(h),
                Seg::Sym {
                    id,
                    constraint,
                    label,
                } => {
                    id.hash(h);
                    label.hash(h);
                    std::mem::discriminant(constraint).hash(h);
                    match constraint {
                        Regex::Class(c) => c.hash(h),
                        Regex::Concat(rs) | Regex::Alt(rs) | Regex::And(rs) => rs.len().hash(h),
                        Regex::Star(r) | Regex::Not(r) => std::mem::discriminant(&**r).hash(h),
                        Regex::Empty | Regex::Eps => {}
                    }
                }
            }
        }
    }

    /// Concatenates two values, merging the literals that meet at the
    /// seam. An empty side returns the other side's segments, shared.
    pub fn concat(&self, other: &SymStr) -> SymStr {
        let segs = match (self.segs.split_last(), other.segs.split_first()) {
            (_, None) => return self.clone(),
            (None, _) => return other.clone(),
            (Some((Seg::Lit(a), head)), Some((Seg::Lit(b), tail))) => head
                .iter()
                .cloned()
                .chain(std::iter::once(Seg::Lit(format!("{a}{b}"))))
                .chain(tail.iter().cloned())
                .collect(),
            _ => self.segs.iter().chain(other.segs.iter()).cloned().collect(),
        };
        SymStr { segs }
    }

    /// If fully literal, the concrete string.
    pub fn as_literal(&self) -> Option<String> {
        let mut out = String::new();
        for seg in self.segs.iter() {
            match seg {
                Seg::Lit(s) => out.push_str(s),
                Seg::Sym { .. } => return None,
            }
        }
        Some(out)
    }

    /// True when the value is the literal empty string.
    pub fn is_literal_empty(&self) -> bool {
        self.as_literal().is_some_and(|s| s.is_empty())
    }

    /// The regular language of possible values.
    pub fn to_regex(&self) -> Regex {
        Regex::concat(
            self.segs
                .iter()
                .map(|seg| match seg {
                    Seg::Lit(s) => Regex::lit(s),
                    Seg::Sym { constraint, .. } => constraint.clone(),
                })
                .collect(),
        )
    }

    /// May the value be the empty string?
    pub fn may_be_empty(&self) -> bool {
        self.to_regex().nullable()
    }

    /// May the value be exactly `s`?
    pub fn may_be(&self, s: &str) -> bool {
        self.to_regex().matches(s.as_bytes())
    }

    /// Must the value be exactly `s` (the constraint admits nothing
    /// else)?
    pub fn must_be(&self, s: &str) -> bool {
        self.to_regex().equiv(&Regex::lit(s))
    }

    /// Is the value definitely non-empty?
    pub fn must_be_nonempty(&self) -> bool {
        !self.may_be_empty()
    }

    /// Does symbol `id` occur in the value?
    pub fn mentions(&self, id: SymId) -> bool {
        self.segs
            .iter()
            .any(|seg| matches!(seg, Seg::Sym { id: sid, .. } if *sid == id))
    }

    /// The single symbol id, when the whole value is one bare symbol.
    pub fn as_single_sym(&self) -> Option<(SymId, &Regex)> {
        match &*self.segs {
            [Seg::Sym { id, constraint, .. }] => Some((*id, constraint)),
            _ => None,
        }
    }

    /// Refines every occurrence of symbol `id` with an additional
    /// constraint (intersection). Returns false if the refinement makes
    /// some occurrence unsatisfiable (the whole world is then infeasible).
    /// A value that does not mention `id` keeps its segments.
    pub fn refine_sym(&mut self, id: SymId, with: &Regex) -> bool {
        if !self.mentions(id) {
            return true;
        }
        let mut ok = true;
        self.segs = self
            .segs
            .iter()
            .map(|seg| match seg {
                Seg::Sym {
                    id: sid,
                    constraint,
                    label,
                } if *sid == id => {
                    let refined = constraint.intersect(with);
                    if refined.is_empty() {
                        ok = false;
                    }
                    Seg::Sym {
                        id: *sid,
                        constraint: refined,
                        label: label.clone(),
                    }
                }
                seg => seg.clone(),
            })
            .collect();
        ok
    }

    /// If the refined constraint pins the symbol to exactly one string,
    /// collapse it to a literal (concrete pruning, §3: "pruning via
    /// concrete state whenever possible"), then merge adjacent
    /// literals. A value with nothing to collapse keeps its segments.
    pub fn concretize(&mut self) {
        let mut collapsed: Option<Vec<Seg>> = None;
        for (i, seg) in self.segs.iter().enumerate() {
            let exact = match seg {
                Seg::Sym { constraint, .. } => constraint.exact_literal(),
                Seg::Lit(_) => None,
            };
            match (exact, &mut collapsed) {
                (None, None) => {}
                (None, Some(out)) => push_merged(out, seg.clone()),
                (Some(text), out) => push_merged(
                    out.get_or_insert_with(|| self.segs[..i].to_vec()),
                    Seg::Lit(String::from_utf8_lossy(&text).into_owned()),
                ),
            }
        }
        if let Some(segs) = collapsed {
            self.segs = segs.into();
        }
    }

    /// Strips trailing literal newlines (the `$(…)` rule), dropping the
    /// literal segments that become empty.
    pub fn strip_trailing_newlines(&mut self) {
        if !matches!(self.segs.last(), Some(Seg::Lit(t)) if t.is_empty() || t.ends_with('\n')) {
            return;
        }
        let mut segs = self.segs.to_vec();
        while let Some(Seg::Lit(last)) = segs.last_mut() {
            while last.ends_with('\n') {
                last.pop();
            }
            if last.is_empty() {
                segs.pop();
            } else {
                break;
            }
        }
        self.segs = segs.into();
    }

    /// The value after [`SymStr::concretize`]. Where a symbol is made
    /// from a computed constraint that may admit one string only, this
    /// keeps the value in the collapsed form every later refinement
    /// expects: [`crate::world::World::refine_sym`] collapses only the
    /// values that mention the refined symbol.
    pub fn concretized(mut self) -> SymStr {
        self.concretize();
        self
    }

    /// A short rendering for diagnostics: literals verbatim, symbols as
    /// their labels.
    pub fn describe(&self) -> String {
        if let Some(l) = self.as_literal() {
            return format!("{l:?}");
        }
        let mut out = String::new();
        for seg in self.segs.iter() {
            match seg {
                Seg::Lit(s) => out.push_str(s),
                Seg::Sym { label, .. } => {
                    out.push('⟨');
                    out.push_str(label);
                    out.push('⟩');
                }
            }
        }
        out
    }
}

impl fmt::Display for SymStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_basics() {
        let v = SymStr::lit("hello");
        assert_eq!(v.as_literal().as_deref(), Some("hello"));
        assert!(!v.may_be_empty());
        assert!(v.must_be("hello"));
        assert!(SymStr::empty().is_literal_empty());
        assert!(SymStr::lit("").is_literal_empty());
    }

    #[test]
    fn concat_merges_literals() {
        let v = SymStr::lit("a").concat(&SymStr::lit("b"));
        assert_eq!(v.segs().len(), 1);
        assert_eq!(v.as_literal().as_deref(), Some("ab"));
    }

    #[test]
    fn symbolic_regex_composition() {
        let sym = SymStr::sym(0, Regex::parse("[a-z]+").unwrap(), "$x");
        let v = SymStr::lit("pre-").concat(&sym).concat(&SymStr::lit("/*"));
        assert_eq!(v.as_literal(), None);
        assert!(v.may_be("pre-abc/*"));
        assert!(!v.may_be("pre-/*")); // the symbol is non-empty ([a-z]+)
        assert!(!v.may_be_empty());
    }

    #[test]
    fn may_be_empty_tracks_constraint() {
        let maybe = SymStr::sym(0, Regex::parse("[a-z]*").unwrap(), "$x");
        assert!(maybe.may_be_empty());
        let never = SymStr::sym(1, Regex::parse("[a-z]+").unwrap(), "$y");
        assert!(never.must_be_nonempty());
    }

    #[test]
    fn refine_and_concretize() {
        let mut v = SymStr::sym(7, Regex::parse("(/|/home)").unwrap(), "$p");
        assert!(v.refine_sym(7, &Regex::lit("/").complement()));
        v.concretize();
        assert_eq!(v.as_literal().as_deref(), Some("/home"));
    }

    #[test]
    fn refine_to_unsat() {
        let mut v = SymStr::sym(3, Regex::lit("/"), "$p");
        assert!(!v.refine_sym(3, &Regex::lit("/").complement()));
    }

    #[test]
    fn describe_uses_labels() {
        let v = SymStr::lit("x-").concat(&SymStr::sym(0, Regex::any_line(), "$HOME"));
        assert_eq!(v.describe(), "x-⟨$HOME⟩");
        assert_eq!(SymStr::lit("a b").describe(), "\"a b\"");
    }

    #[test]
    fn steam_root_shape() {
        // STEAMROOT may be "" (cd failed) or an absolute path.
        let v = SymStr::sym(
            0,
            Regex::parse("(/([^/\n]+(/[^/\n]+)*)?)?").unwrap(),
            "$STEAMROOT",
        );
        assert!(v.may_be_empty());
        assert!(v.may_be("/"));
        assert!(v.may_be("/home/jcarb/.steam"));
        let slash_star = v.concat(&SymStr::lit("/*"));
        assert!(slash_star.may_be("/*")); // the root-wipe witness
    }
}
