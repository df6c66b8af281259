//! A deterministic multiply-rotate hasher for the manager's hot maps.
//!
//! The KV manager keys its slot index and its sharing maps by small
//! integers (sequence ids, prefix groups). The engine's decode step
//! addresses sequences by slot and never hashes, but admission, release,
//! export and prefix lookups hit these maps once or more per request.
//! `std`'s default SipHash is an order of magnitude slower than needed for
//! integer keys and randomly seeded per process; this hasher is the classic
//! Fx-style multiply-rotate mix — fast on word-sized keys and
//! deterministic, which keeps any incidental iteration-order effect
//! identical across runs.
//!
//! Not DoS-resistant — fine here, because every key is simulator-internal.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FastHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "the FastMap definition: std HashMap rekeyed through the deterministic FastHasher"
)]
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: one word, folded multiplicatively per written word.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" + "c" and "a" + "bc" differ.
            self.mix(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let hash = |key: (u64, usize, u8)| {
            let mut h = FastHasher::default();
            std::hash::Hash::hash(&key, &mut h);
            h.finish()
        };
        assert_eq!(hash((7, 3, 1)), hash((7, 3, 1)));
        assert_ne!(hash((7, 3, 1)), hash((7, 3, 0)));
        assert_ne!(hash((7, 3, 1)), hash((3, 7, 1)));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, usize> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i, i as usize * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&500), Some(&1000));
    }

    #[test]
    fn byte_slices_with_different_splits_differ() {
        let hash = |bytes: &[u8]| {
            let mut h = FastHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"abcdefgh1"), hash(b"abcdefgh"));
        assert_ne!(hash(b"a"), hash(b"b"));
    }
}
