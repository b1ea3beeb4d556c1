//! Deterministic fast hash maps for simulator hot paths, and the FNV-1a
//! digest.
//!
//! `std`'s default `SipHash` is robust against adversarial keys but costs
//! tens of cycles per lookup; the simulator hashes its own trusted keys
//! (cache-line indices, page numbers) millions of times per run.  This
//! module provides a fixed-seed multiply-rotate hasher (the `FxHash`
//! construction used by rustc, reimplemented here because the workspace is
//! dependency-free) and a [`FastMap`] alias over it.
//!
//! Determinism: the hasher has no per-process random state, so a `FastMap`
//! built by the same key sequence iterates identically on every run of the
//! same build.  Reports must still never depend on map iteration order —
//! the repo-wide rule (see `lad-lint`) is that anything rendered into a
//! report goes through an ordered structure or a commutative reduction.
//!
//! [`fnv1a`] is the FNV-1a 64 hash behind every stored digest: trace
//! content digests, configuration fingerprints and the seals of durable
//! files.  Those digests are persisted, so its output must never change.
//
// lad-lint: allow(hashmap) — this module exists to wrap HashMap with a
// deterministic hasher; consumers are still linted.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Fixed multiplier from the FxHash construction (a large prime-ish odd
/// constant with well-mixed bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher for trusted keys.
///
/// Mixes each 8-byte word of input as `hash = (rotl5(hash) ^ word) * SEED`.
/// Do not use for keys an adversary controls.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(n as u64);
        self.add_to_hash((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Zero-sized, fixed-seed `BuildHasher` for [`FxHasher`].
pub type FastBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the deterministic [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed by the deterministic [`FxHasher`].
pub type FastSet<K> = HashSet<K, FastBuildHasher>;

/// The FNV-1a 64 offset basis: the hash of no bytes, where every digest
/// starts.
pub const FNV1A_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64 hash `hash` over `bytes`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FastBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic_across_hasher_instances() {
        assert_eq!(hash_of(&0xdead_beefu64), hash_of(&0xdead_beefu64));
        assert_eq!(hash_of(&"cache line"), hash_of(&"cache line"));
        assert_eq!(hash_of(&(3u32, 7u64)), hash_of(&(3u32, 7u64)));
    }

    #[test]
    fn nearby_keys_hash_differently() {
        // Not a statistical test — just a guard against a degenerate
        // implementation (e.g. returning the key itself untouched by byte
        // length, or dropping high bits).
        let hashes: Vec<u64> = (0..64u64).map(|k| hash_of(&k)).collect();
        let distinct: std::collections::BTreeSet<_> = hashes.iter().collect();
        assert_eq!(distinct.len(), hashes.len());
        // Byte strings of different lengths with a shared prefix differ.
        assert_ne!(hash_of(&b"abc".as_slice()), hash_of(&b"abcd".as_slice()));
    }

    #[test]
    fn fast_map_basics() {
        let mut map: FastMap<u64, u64> = FastMap::default();
        for k in 0..100 {
            map.insert(k, k * 2);
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map.get(&42), Some(&84));
        let mut set: FastSet<u64> = FastSet::default();
        set.insert(7);
        assert!(set.contains(&7));
    }
}
