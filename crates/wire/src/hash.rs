//! A one-multiply hasher for tables keyed by identifiers this system mints.
//!
//! The standard `HashMap` hashes with SipHash-1-3 under a random key, which
//! is what a table needs when a peer chooses its keys — and a cost per
//! lookup that a table does not need when its keys are log offsets, stream and
//! object ids, segment numbers, request ids or connection tokens: integers
//! that this process or the sequencer counted up, which nobody can aim at a
//! bucket. [`IdHasher`] is for those tables and no others; a table keyed by
//! bytes that arrived from outside (names, payloads) stays on the default.
//!
//! The keys are arithmetic progressions — consecutive offsets, every second
//! local address of a replica set, ids a log apart (2³² or 2⁵⁶) — so the one
//! thing the hash must do is spread a progression of any such stride over
//! both ends of the word: `hashbrown` takes a bucket from the low bits and a
//! 7-bit tag from the high ones. A multiply by an odd constant mixes upward
//! only, so the product is rotated to bring its well-mixed top down.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply–rotate hashing of integer keys (see the module docs for which
/// tables may use it).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// The multiplier: odd, so a multiply is a bijection and two keys never
/// collide in all 64 bits. Picked by search among random odd constants for
/// the spread the tests below pin — 65 536 keys of stride 1, 2, 256 or 2³²
/// land in ≥ 60 000 of 65 536 buckets, against ≈ 41 400 for a random
/// function — not for any meaning of its digits.
const MULTIPLIER: u64 = 0xAB2B_10C1_BE83_52FB;
/// How far `finish` rotates: the product's top 16 bits become the low 16.
const ROTATE: u32 = 16;

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(ROTATE)
    }

    /// Keys of other shapes fold in eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(MULTIPLIER);
    }
}

/// A `HashMap` hashed by [`IdHasher`]. Build one with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` hashed by [`IdHasher`]. Build one with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// The progressions the tables are keyed by — consecutive offsets, one
    /// replica set's local addresses (every second one), page-sized steps,
    /// ids one log apart — fill the buckets (low bits) far more evenly than
    /// chance would, and use the whole range of tags (top 7 bits), wherever
    /// the progression starts.
    #[test]
    fn strided_keys_spread_over_buckets_and_tags() {
        for stride in [1u64, 2, 256, 1 << 32] {
            for base in [0u64, 7, 12_345 << 20, 3 << 56] {
                let hashes = (0..65_536u64).map(|i| hash_of(base + i * stride));
                let (mut buckets, mut tags) = (IdSet::default(), IdSet::default());
                for hash in hashes {
                    buckets.insert(hash & 0xFFFF);
                    tags.insert(hash >> 57);
                }
                assert!(tags.len() >= 120, "stride {stride} from {base}: {} tags", tags.len());
                assert!(
                    buckets.len() >= 60_000,
                    "stride {stride} from {base}: {} of 65 536 buckets",
                    buckets.len()
                );
            }
        }
    }

    /// `ConflictTable::keys` is keyed by `(oid, key hash)`: the same key of
    /// two objects is two entries.
    #[test]
    fn tuples_differing_only_in_the_first_word_do_not_collide() {
        for key in [0u64, 1, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let hashes: IdSet<u64> = (0..4_096u32).map(|oid| hash_of((oid, key))).collect();
            assert_eq!(hashes.len(), 4_096, "key {key:#x}");
        }
    }

    /// A key that is not a `u32` or `u64` goes through `write` and still
    /// hashes by value.
    #[test]
    fn other_key_shapes_hash_by_value() {
        assert_eq!(hash_of(Some(7u64)), hash_of(Some(7u64)));
        assert_ne!(hash_of(Some(7u64)), hash_of(Some(8u64)));
        assert_ne!(hash_of(*b"twelve bytes"), hash_of(*b"twelve bytez"));
        let mut map: IdMap<u64, &str> = IdMap::default();
        map.insert(1 << 56, "a");
        map.insert(2 << 56, "b");
        assert_eq!((map[&(1 << 56)], map[&(2 << 56)]), ("a", "b"));
    }
}
