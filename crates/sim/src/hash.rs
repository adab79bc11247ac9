//! One shared fingerprinting helper.
//!
//! Everything in this workspace that needs a 64-bit digest (the engine's
//! [`state_fingerprint`](crate::Engine::state_fingerprint) in the
//! `gdp run --trace` footer, and the hash that places `gdp-mcheck`'s exact
//! state keys in its dedup table) goes through [`fingerprint64`] instead of
//! setting up an ad-hoc hasher at each call site.
//!
//! The hasher is a fixed-key multiply-rotate design (the `FxHash` family):
//! the checker hashes every successor's key, millions per check, and this
//! is ~5× faster than `std`'s `SipHash` `DefaultHasher`.  Fingerprints are
//! deterministic within a build and never persisted.  No verdict rests on
//! fingerprint equality: the checker compares the keys themselves, and
//! [`Engine::is_stuck`](crate::Engine::is_stuck) compares states.

use std::hash::{Hash, Hasher};

/// The multiplier of the FxHash mixing step (the 64-bit golden ratio, as
/// used by rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, fixed-key 64-bit hasher (FxHash-style
/// multiply-rotate), used solely for in-memory state fingerprints.
#[derive(Clone, Debug, Default)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        // One final avalanche round so trailing small writes diffuse into
        // the high bits.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(SEED);
        h ^= h >> 29;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add_to_hash(u64::from(value));
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.add_to_hash(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add_to_hash(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add_to_hash(value);
    }

    #[inline]
    fn write_u128(&mut self, value: u128) {
        self.add_to_hash(value as u64);
        self.add_to_hash((value >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add_to_hash(value as u64);
    }
}

/// Hashes `value` to a deterministic 64-bit fingerprint.
///
/// ```
/// use gdp_sim::fingerprint64;
/// let a = fingerprint64(&("state", 42u64));
/// let b = fingerprint64(&("state", 42u64));
/// assert_eq!(a, b);
/// assert_ne!(a, fingerprint64(&("state", 43u64)));
/// ```
#[must_use]
pub fn fingerprint64<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher64::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(fingerprint64(&[1u8, 2, 3]), fingerprint64(&[1u8, 2, 3]));
        assert_eq!(fingerprint64("abc"), fingerprint64("abc"));
    }

    #[test]
    fn distinct_values_usually_hash_distinct() {
        let fingerprints: std::collections::HashSet<u64> =
            (0u64..100_000).map(|i| fingerprint64(&i)).collect();
        assert_eq!(fingerprints.len(), 100_000);
    }

    #[test]
    fn byte_streams_with_different_lengths_hash_distinct() {
        // Zero-padding in the tail path must not collide with explicit
        // zero bytes.
        assert_ne!(fingerprint64(&[0u8][..]), fingerprint64(&[0u8, 0][..]));
        let empty: &[u8] = &[];
        assert_ne!(fingerprint64(empty), fingerprint64(&[0u8][..]));
    }
}
