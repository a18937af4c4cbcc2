//! A one-multiply hasher for map keys that are already hashes or draws.
//!
//! The estimate memo's keys are 64-bit FNV hashes and the sampler's
//! dedup set holds uniformly drawn indices: SipHash, the standard map's
//! default, spends most of a warm lookup re-hashing words that are
//! already spread. [`WordHasher`] multiplies each word by an odd constant
//! to 128 bits and folds the halves together, so the table's bucket bits
//! (the low ones) also see the product's high half, which every input
//! bit reaches.
//!
//! `dhdl-serve` keys the parameter memo with [`crate::params_key`] of
//! request parameters, and an extra parameter's value can steer that key
//! anywhere. So each map draws a random word ([`WordState`]) that is
//! xored into every key before the multiply: without it, keys chosen to
//! share a bucket are not known in advance.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// 2^64 / φ, odd: a multiplier whose product spreads every input bit.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hashes each written word with one multiply; for keys that are one
/// `u64` or `u128` already well spread.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn write_u128(&mut self, word: u128) {
        self.write_u64(word as u64 ^ (word >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Starts every [`WordHasher`] of one map from the same random word.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordState(u64);

impl Default for WordState {
    fn default() -> Self {
        WordState(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.0)
    }
}

/// A map keyed by words that are already hashes.
pub(crate) type WordMap<K, V> = HashMap<K, V, WordState>;
/// A set of words that are already hashes or uniform draws.
pub(crate) type WordSet<K> = HashSet<K, WordState>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash(key: impl Hash) -> u64 {
        let mut h = WordHasher(0);
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn words_that_differ_only_high_spread_over_the_low_bits() {
        // Keys differing only in their high bits still pick different
        // buckets, and so do keys differing only in their low bits.
        let low: std::collections::BTreeSet<u64> = (0..64u64).map(|i| hash(i << 40) & 63).collect();
        assert!(low.len() > 32, "{} of 64 buckets", low.len());
        let high: std::collections::BTreeSet<u64> = (0..64u64).map(|i| hash(i) >> 58).collect();
        assert!(high.len() > 32, "{} of 64 tags", high.len());
        // A u128 that fits a word hashes as that word; the high half counts.
        assert_eq!(hash(7u128), hash(7u64));
        assert_ne!(hash(7u128), hash(7u128 | 1 << 64 | 1 << 70));
    }

    #[test]
    fn each_map_starts_from_its_own_word() {
        let (a, b) = (WordState::default(), WordState::default());
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
        assert_eq!(a.hash_one(7u64), a.hash_one(7u64));
    }
}
