//! The workspace's one replacement for `HashMap`'s default SipHash: a
//! deterministic multiplicative hasher for maps keyed by a `u64` the
//! simulator probes several times per simulated access.
//!
//! It has no defence against keys chosen to collide, so it is only for maps
//! whose size something else bounds (an MSHR table never holds more lines
//! than its configuration allows); a map that input can grow without limit
//! stays ordered or keeps the default hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` from `u64` keys hashed by [`IntHasher`].
pub type IntMap<V> = HashMap<u64, V, BuildHasherDefault<IntHasher>>;

/// Fibonacci hashing of one `u64`, the same on every host and in every
/// process. The product's high half is folded onto its low half because
/// `HashMap` indexes buckets by the low bits, which a multiplication leaves
/// as poor as the key's own (line addresses end in zeros).
///
/// # Examples
///
/// ```
/// use gpu_types::IntMap;
///
/// let mut lines: IntMap<&str> = IntMap::default();
/// lines.insert(0x1000, "pending");
/// assert_eq!(lines.get(&0x1000), Some(&"pending"));
/// assert_eq!(lines.get(&0x1080), None);
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, key: u64) {
        let product = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = product ^ (product >> 32);
    }

    /// Keys that are not one `u64` hash eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(key: u64) -> u64 {
        let mut h = IntHasher::default();
        h.write_u64(key);
        h.finish()
    }

    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        // 256 consecutive 128-byte lines land in 256 distinct buckets of a
        // 1024-bucket table more often than not, and never all in one.
        let buckets: std::collections::BTreeSet<u64> = (0..256)
            .map(|i| hash(0x8000_0000 + i * 128) % 1024)
            .collect();
        assert!(buckets.len() > 192, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn hashing_is_a_pure_function_of_the_key() {
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
        let mut map: IntMap<u32> = IntMap::default();
        for k in 0..1000 {
            map.insert(k * 4096, k as u32);
        }
        assert!((0..1000).all(|k| map[&(k * 4096)] == k as u32));
    }
}
