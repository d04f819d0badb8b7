//! Hashing utilities: a fast in-memory hasher and a stable content hasher.
//!
//! Two distinct needs live here:
//!
//! * [`MixHasher`] — region keys are small packed integers (`u128` with 8
//!   bits per protected attribute), hashed millions of times during
//!   hierarchy construction. The default SipHash is needlessly slow for
//!   this workload; this multiply-mix hasher (FxHash-style) is an order of
//!   magnitude faster and sufficient for in-memory maps keyed by trusted
//!   data.
//! * [`StableHasher`] — pipeline artifact caching needs keys that are
//!   identical across processes, platforms, and releases. `MixHasher` (and
//!   anything implementing `std::hash::Hasher`) makes no such promise, so
//!   cache keys use FNV-1a/128 with an explicitly specified input encoding
//!   instead.

use remedy_dataset::format::ContentHasher;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` alias using the mix hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// `HashSet` alias using the mix hasher.
pub type FastSet<K> = std::collections::HashSet<K, BuildHasherDefault<MixHasher>>;

/// Multiply-xor hasher in the spirit of FxHash.
#[derive(Debug, Default, Clone)]
pub struct MixHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl MixHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // final avalanche so sequential keys spread across buckets
        let mut x = self.state;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// A process- and platform-stable content hasher (FNV-1a, 128 bit).
///
/// Used to derive pipeline cache keys from stage inputs. Unlike
/// `std::hash::Hasher` implementations, the digest depends only on the
/// byte sequence fed in, so equal inputs hash equally across runs,
/// machines, and compiler versions. Multi-field inputs must be framed by
/// the caller (e.g. via [`StableHasher::write_str`], which appends a
/// separator) so that field boundaries are unambiguous. The byte-level
/// function is the dataset crate's [`ContentHasher`], the same one that
/// digests binary-store headers.
#[derive(Debug, Clone, Default)]
pub struct StableHasher {
    inner: ContentHasher,
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher::default()
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        self.inner.write(bytes);
    }

    /// Absorbs a string followed by a `0x1f` unit separator, so that
    /// `("ab", "c")` and `("a", "bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0x1f]);
    }

    /// Absorbs an integer as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a float by its exact bit pattern (no text rounding).
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.inner.finish()
    }

    /// The digest as 32 lowercase hex digits (cache-directory names).
    pub fn finish_hex(&self) -> String {
        format!("{:032x}", self.finish())
    }
}

/// One-shot stable hash of a byte slice.
pub fn stable_hash(bytes: &[u8]) -> u128 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::format::FNV128_OFFSET;

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u128, usize> = FastMap::default();
        for i in 0..10_000u128 {
            m.insert(i, i as usize * 2);
        }
        for i in 0..10_000u128 {
            assert_eq!(m.get(&i), Some(&(i as usize * 2)));
        }
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn sequential_keys_spread() {
        // crude avalanche check: low bits of hashes of sequential keys
        // should not collide en masse
        use std::hash::{BuildHasher, BuildHasherDefault};
        let bh: BuildHasherDefault<MixHasher> = BuildHasherDefault::default();
        let mut buckets = [0usize; 16];
        for i in 0..1_600u64 {
            let mut h = bh.build_hasher();
            h.write_u64(i);
            buckets[(h.finish() & 15) as usize] += 1;
        }
        for &b in &buckets {
            assert!(b > 40, "bucket underfilled: {buckets:?}");
        }
    }

    #[test]
    fn set_deduplicates() {
        let mut s: FastSet<u64> = FastSet::default();
        s.insert(7);
        s.insert(7);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn stable_hash_known_vectors() {
        // FNV-1a/128 reference digests (spec test vectors)
        assert_eq!(stable_hash(b""), FNV128_OFFSET);
        assert_eq!(stable_hash(b"a"), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    #[test]
    fn stable_hash_matches_dataset_content_digest() {
        // cache hashes and binary-store header digests are one function
        for input in [
            &b""[..],
            b"a",
            b"remedy-dataset v1\nlabel y\n",
            &[0u8, 0xff, 0x80, 0x1f],
        ] {
            assert_eq!(
                stable_hash(input),
                remedy_dataset::format::content_digest(input),
                "digest divergence on {input:?}"
            );
        }
    }

    #[test]
    fn stable_hash_framing_disambiguates() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn stable_hash_is_pure() {
        let mut h1 = StableHasher::new();
        let mut h2 = StableHasher::new();
        for h in [&mut h1, &mut h2] {
            h.write_u64(42);
            h.write_f64(0.1);
            h.write_str("unit");
        }
        assert_eq!(h1.finish(), h2.finish());
        assert_eq!(h1.finish_hex().len(), 32);
    }
}
