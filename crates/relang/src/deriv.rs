//! Brzozowski derivatives for extended regular expressions.
//!
//! The derivative of a language `L` with respect to a byte `b` is
//! `{ w | b·w ∈ L }`. Derivatives extend smoothly to intersection and
//! complement, which is exactly why the engine's decision procedures are
//! derivative-based: `And`/`Not` constraints never need to be lowered to
//! plain regexes first.
//!
//! Because the smart constructors in [`crate::ast`] maintain ACI-canonical
//! forms, iterated derivation produces only finitely many distinct regexes
//! (Brzozowski's similarity theorem), so the derivative-state DFA built in
//! [`crate::dfa`] always terminates.
//!
//! [`local_classes`] implements Owens–Reppy *derivative classes*: a
//! partition of the byte alphabet such that all bytes in one block yield
//! the same derivative. Deriving once per block instead of 256 times keeps
//! DFA construction fast even though the alphabet is the full byte range.

use crate::ast::Regex;
use crate::class::ByteClass;

/// The derivative of `r` with respect to byte `b`.
pub fn deriv(r: &Regex, b: u8) -> Regex {
    match r {
        Regex::Empty | Regex::Eps => Regex::Empty,
        Regex::Class(c) => {
            if c.contains(b) {
                Regex::Eps
            } else {
                Regex::Empty
            }
        }
        Regex::Concat(parts) => {
            // d(r₁ r₂ … ) = d(r₁)·rest  |  (if r₁ nullable) d(rest).
            let mut alts = Vec::new();
            let mut prefix_nullable = true;
            for (i, part) in parts.iter().enumerate() {
                if !prefix_nullable {
                    break;
                }
                let mut branch = vec![deriv(part, b)];
                branch.extend(parts[i + 1..].iter().cloned());
                alts.push(Regex::concat(branch));
                prefix_nullable = part.nullable();
            }
            Regex::alt(alts)
        }
        Regex::Alt(parts) => Regex::alt(parts.iter().map(|p| deriv(p, b)).collect()),
        Regex::And(parts) => Regex::and(parts.iter().map(|p| deriv(p, b)).collect()),
        Regex::Star(inner) => deriv(inner, b).then(&inner.star()),
        Regex::Not(inner) => deriv(inner, b).complement(),
    }
}

/// A partition of the byte alphabet into *derivative classes* of `r`:
/// bytes in the same class are guaranteed to produce identical
/// derivatives. The result is a list of disjoint, non-empty classes whose
/// union is the full alphabet.
pub fn local_classes(r: &Regex) -> Vec<ByteClass> {
    let mut partition = vec![ByteClass::ALL];
    refine(r, &mut partition);
    partition
}

/// Refines `partition` so that every transition class of `r` is a union
/// of partition blocks.
fn refine(r: &Regex, partition: &mut Vec<ByteClass>) {
    match r {
        Regex::Empty | Regex::Eps => {}
        Regex::Class(c) => split(partition, c),
        Regex::Concat(parts) => {
            // Only the derivable prefix matters, mirroring `deriv`.
            let mut prefix_nullable = true;
            for part in parts.iter() {
                if !prefix_nullable {
                    break;
                }
                refine(part, partition);
                prefix_nullable = part.nullable();
            }
        }
        Regex::Alt(parts) | Regex::And(parts) => {
            for p in parts.iter() {
                refine(p, partition);
            }
        }
        Regex::Star(inner) | Regex::Not(inner) => refine(inner, partition),
    }
}

/// Splits every block of `partition` along the boundary of `c`.
fn split(partition: &mut Vec<ByteClass>, c: &ByteClass) {
    let mut next = Vec::with_capacity(partition.len() + 1);
    for block in partition.iter() {
        let inside = block.intersect(c);
        let outside = block.difference(c);
        if !inside.is_empty() {
            next.push(inside);
        }
        if !outside.is_empty() {
            next.push(outside);
        }
    }
    *partition = next;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_derivatives() {
        let r = Regex::lit("ab");
        assert_eq!(deriv(&r, b'a'), Regex::byte(b'b'));
        assert_eq!(deriv(&r, b'b'), Regex::Empty);
        assert_eq!(deriv(&Regex::Eps, b'a'), Regex::Empty);
    }

    #[test]
    fn star_derivative() {
        let r = Regex::lit("ab").star();
        let d = deriv(&r, b'a');
        assert!(d.matches(b"b"));
        assert!(d.matches(b"bab"));
        assert!(!d.matches(b""));
    }

    #[test]
    fn concat_with_nullable_head() {
        // (a?)b — derivative by 'b' must skip the nullable head.
        let r = Regex::byte(b'a').opt().then(&Regex::byte(b'b'));
        assert!(deriv(&r, b'b').nullable());
        assert!(deriv(&r, b'a').matches(b"b"));
    }

    #[test]
    fn not_derivative() {
        let r = Regex::lit("ab").complement();
        // After 'a', the remaining language is ¬"b".
        let d = deriv(&r, b'a');
        assert!(d.matches(b""));
        assert!(d.matches(b"bb"));
        assert!(!d.matches(b"b"));
    }

    #[test]
    fn and_derivative() {
        let a_star = Regex::byte(b'a').star();
        let len2 = Regex::any_byte().then(&Regex::any_byte());
        let r = a_star.intersect(&len2);
        let d = deriv(&r, b'a');
        assert!(d.matches(b"a"));
        assert!(!d.matches(b""));
        assert!(!d.matches(b"aa"));
    }

    #[test]
    fn local_classes_partition_alphabet() {
        let r = Regex::parse_must("[a-f]+x|[0-9]*");
        let classes = local_classes(&r);
        let mut total = 0;
        for (i, a) in classes.iter().enumerate() {
            total += a.len();
            for b in classes.iter().skip(i + 1) {
                assert!(a.intersect(b).is_empty(), "blocks must be disjoint");
            }
        }
        assert_eq!(total, 256);
        // All bytes in one block derive identically.
        for block in &classes {
            let rep = block.min_byte().unwrap();
            let d = deriv(&r, rep);
            for b in block.iter().take(8) {
                assert_eq!(deriv(&r, b), d);
            }
        }
    }
}
