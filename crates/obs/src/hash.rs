//! Zero-dependency content hashing for cache keys.
//!
//! The offline build rules out `sha2`/`blake3`; the JIT daemon's
//! content-addressed cache only needs collision resistance against
//! *accidental* collisions (the cache maps a key back to a verdict for
//! the analyzer's own inputs — there is no adversary who profits from
//! forging a key, since a forged hit only mis-answers the forger).
//! A 128-bit composite of two independent FNV-1a streams over the same
//! bytes keeps accidental collisions out of reach for any realistic
//! corpus while staying ~10 lines of arithmetic.

/// FNV-1a 64-bit with the standard offset basis and prime.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a 64-bit from an explicit offset basis (used to derive the
/// second independent stream of [`content_hash128`]).
pub fn fnv1a64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A 128-bit content hash rendered as 32 lowercase hex digits.
///
/// Two FNV-1a streams: the standard one, and one seeded by the
/// length-perturbed complement of the standard offset basis. The
/// length folding means two inputs that collide on both streams must
/// also agree on length, which removes the classic FNV
/// extension-collision family.
pub fn content_hash128(bytes: &[u8]) -> String {
    let a = fnv1a64(bytes);
    let seed = (!0xcbf2_9ce4_8422_2325u64).wrapping_add((bytes.len() as u64).rotate_left(17));
    let b = fnv1a64_seeded(seed, bytes);
    format!("{a:016x}{b:016x}")
}

/// Folds several labeled parts into one 128-bit hex key. Each part is
/// framed as `label '=' len ':' bytes ';'` before hashing, so part
/// boundaries cannot alias (`("ab","c")` never collides with
/// `("a","bc")`).
pub fn keyed_hash128(parts: &[(&str, &[u8])]) -> String {
    let mut buf = Vec::new();
    for (label, bytes) in parts {
        buf.extend_from_slice(label.as_bytes());
        buf.push(b'=');
        buf.extend_from_slice(bytes.len().to_string().as_bytes());
        buf.push(b':');
        buf.extend_from_slice(bytes);
        buf.push(b';');
    }
    content_hash128(&buf)
}

/// A fast, deterministic, non-cryptographic [`std::hash::Hasher`] (the
/// multiply-rotate mix of rustc's `FxHasher`) for in-process bucketing
/// of small keys, where `DefaultHasher`'s SipHash costs more than the
/// work it buckets. Not for anything persisted or adversarial.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap`/`HashSet` builder for [`FxHasher`].
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hasher_is_deterministic_and_separates_inputs() {
        use std::hash::{Hash, Hasher};
        let digest = |v: &dyn Fn(&mut FxHasher)| {
            let mut h = FxHasher::default();
            v(&mut h);
            h.finish()
        };
        let a = digest(&|h| ("abc", 7u32).hash(h));
        assert_eq!(a, digest(&|h| ("abc", 7u32).hash(h)));
        assert_ne!(a, digest(&|h| ("abd", 7u32).hash(h)));
        assert_ne!(a, digest(&|h| ("abc", 8u32).hash(h)));
        assert_ne!(digest(&|h| h.write(b"a")), digest(&|h| h.write(b"a\0")));
    }

    #[test]
    fn known_fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hash_is_stable_and_hex() {
        let h = content_hash128(b"STEAMROOT=x\n");
        assert_eq!(h.len(), 32);
        assert!(h.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(h, content_hash128(b"STEAMROOT=x\n"));
        assert_ne!(h, content_hash128(b"STEAMROOT=y\n"));
    }

    #[test]
    fn keyed_parts_do_not_alias() {
        let ab_c = keyed_hash128(&[("x", b"ab"), ("y", b"c")]);
        let a_bc = keyed_hash128(&[("x", b"a"), ("y", b"bc")]);
        assert_ne!(ab_c, a_bc);
        // Label participates too.
        assert_ne!(
            keyed_hash128(&[("x", b"a")]),
            keyed_hash128(&[("y", b"a")])
        );
    }
}
