//! Deterministic, fast hashing for hot-path maps.
//!
//! The per-packet maps (network RMS tables, route tables, subtransport
//! stream tables, session tables, the open-span table) are keyed by small integers and looked
//! up several times per simulated event. `std`'s default SipHash is
//! DoS-resistant but costs tens of nanoseconds per lookup, which is pure
//! overhead in a closed simulation: every key is generated internally, so
//! there is no adversarial input to defend against.
//!
//! [`DetHasher`] is a multiply–rotate mixer in the FxHash family: each
//! word is folded into the state with an xor, a multiply by a
//! randomly-chosen odd constant, and a rotate to move the well-mixed high
//! bits down to where `HashMap` reads them. Crucially it is *unseeded*,
//! so iteration order is identical across runs and processes, and a run
//! replays exactly. Iteration order is still arbitrary: it moves when a
//! map's keys or capacity do. So code that *chooses* among a map's entries
//! (which cached carrier a new ST stream rides, which idle carrier is
//! evicted) states its rule — ready first, then the lowest id — or sorts,
//! rather than taking whichever entry iteration meets first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (high bits of 2^64 / phi); any odd constant with
/// a roughly even bit pattern works — this one is the classic Fibonacci
/// hashing multiplier.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Deterministic word-at-a-time hasher for internally-generated keys.
///
/// Not DoS-resistant; never use it on keys an external party controls.
#[derive(Clone, Default)]
pub struct DetHasher {
    state: u64,
}

impl DetHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(MIX).rotate_left(26);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Multiply pushes entropy into the high bits; the xor-shift folds
        // it back down into the low bits `HashMap` masks with. Without the
        // fold, consecutive ids visibly cluster in small tables.
        let x = self.state.wrapping_mul(MIX);
        x ^ (x >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" + "" and "a" + "b" differ.
            self.mix(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.mix(n as u64);
        self.mix((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `HashMap` with the deterministic fast hasher. Drop-in for hot-path
/// tables keyed by simulator-generated ids.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHasher>>;

/// `HashSet` companion to [`DetHashMap`].
pub type DetHashSet<K> = HashSet<K, BuildHasherDefault<DetHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<DetHasher>::default().hash_one(v)
    }

    #[test]
    fn identical_across_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&(3u32, 7u32)), hash_of(&(3u32, 7u32)));
    }

    #[test]
    fn small_keys_spread() {
        // Consecutive small ids (the common key shape) must not cluster
        // in the low bits that a power-of-two table actually uses. A
        // perfectly random function maps 128 balls into 128 bins with
        // ~81 distinct outcomes (128·(1−e⁻¹)); demand at least 70.
        let mut low7 = std::collections::HashSet::new();
        for id in 0u64..128 {
            low7.insert(hash_of(&id) & 0x7f);
        }
        assert!(
            low7.len() > 70,
            "only {} distinct low-7-bit values",
            low7.len()
        );
    }

    #[test]
    fn byte_slices_respect_boundaries() {
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 3, 0][..]));
    }

    #[test]
    fn map_iteration_order_is_stable() {
        let build = || {
            let mut m = DetHashMap::default();
            for id in 0u64..64 {
                m.insert(id, id * 3);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
