//! The one hasher behind the engine's internal hash tables.
//!
//! Every table the engine keys itself — anti-join and duplicate-elimination
//! sets, `GROUP BY`, hash index directories, the buffer pool's page map,
//! and the row-number tables of a hash join's build side and a temporary's
//! index (these hash key columns with [`FxHasher`] directly and keep 32
//! bits of each) — holds keys the engine made from rows it
//! already stores, never a key an outside party chose to collide, so the
//! default SipHash buys nothing there and costs a tenth of a bulk
//! statement. Spill partitioning keeps its own FNV-1a
//! ([`crate::spill::fnv1a`]): a partition's rows are re-hashed into one of
//! these tables, and the two hashes must stay independent.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A hash map keyed by an engine-made key.
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A hash set of engine-made keys.
pub(crate) type KeySet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// 2^64 / φ, odd.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiplicative (Fx-style) hasher: one multiply per 8-byte word. The
/// multiply is folded — the 128-bit product's halves are xored — because
/// the table reads both ends of the hash (bucket from the low bits, control
/// byte from the top seven): a plain product leaves the low bits of
/// `i << k` keys all zero.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        let p = u128::from(self.hash.rotate_left(5) ^ word) * u128::from(K);
        self.hash = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Key;
    use crate::sym::{Datum, Symbols};
    use std::hash::{BuildHasher, Hash};

    /// The largest share of `keys` that lands on one value of the table's
    /// control byte (top 7 bits) and on one of `1 << bucket_bits` buckets
    /// (low bits), each as a multiple of the fair share.
    fn worst_shares<T: Hash>(keys: &[T], bucket_bits: u32) -> (f64, f64) {
        let build = BuildHasherDefault::<FxHasher>::default();
        let mut ctrl = vec![0u32; 128];
        let mut bucket = vec![0u32; 1 << bucket_bits];
        for k in keys {
            let h = build.hash_one(k);
            ctrl[(h >> 57) as usize] += 1;
            bucket[(h & ((1 << bucket_bits) - 1)) as usize] += 1;
        }
        let worst = |counts: &[u32]| {
            let fair = keys.len() as f64 / counts.len() as f64;
            f64::from(*counts.iter().max().expect("non-empty")) / fair
        };
        (worst(&ctrl), worst(&bucket))
    }

    #[test]
    fn spreads_the_key_shapes_the_engine_generates() {
        const N: i64 = 100_000;
        // 2^10 buckets: ~98 keys each, so a 2x skew is far outside noise.
        const BUCKET_BITS: u32 = 10;
        let int = |i: i64| Key::One(Datum::Int(i));
        let syms = Symbols::default();
        let mut shapes: Vec<(String, Vec<Key>)> = vec![
            ("sequential".into(), (0..N).map(int).collect()),
            (
                "(i, i+1) pairs".into(),
                (0..N)
                    .map(|i| Key::from_cols(&[Datum::Int(i), Datum::Int(i + 1)], &[0, 1]))
                    .collect(),
            ),
            (
                "symbol ids".into(),
                (0..N)
                    .map(|i| Key::One(Datum::Sym(syms.intern(&format!("n{i}")))))
                    .collect(),
            ),
        ];
        for k in [1, 4, 8, 16, 24, 32, 40, 46] {
            shapes.push((
                format!("multiples of 2^{k}"),
                (0..N).map(|i| int(i << k)).collect(),
            ));
        }
        for (shape, keys) in &shapes {
            let (ctrl, bucket) = worst_shares(keys, BUCKET_BITS);
            assert!(ctrl <= 2.0, "{shape}: control byte {ctrl:.2}x fair share");
            assert!(bucket <= 2.0, "{shape}: bucket {bucket:.2}x fair share");
        }
        // Raw words too: the buffer pool's page map hashes (file, page).
        let pages: Vec<(u32, u32)> = (0..N as u32).map(|p| (3, p)).collect();
        let (ctrl, bucket) = worst_shares(&pages, BUCKET_BITS);
        assert!(
            ctrl <= 2.0 && bucket <= 2.0,
            "pages: {ctrl:.2}x / {bucket:.2}x"
        );
    }

    #[test]
    fn byte_strings_hash_by_content() {
        let build = BuildHasherDefault::<FxHasher>::default();
        assert_eq!(build.hash_one("node_12345"), build.hash_one("node_12345"));
        assert_ne!(build.hash_one("node_12345"), build.hash_one("node_12346"));
        // A tail shorter than a word still counts.
        assert_ne!(build.hash_one("abcdefgh1"), build.hash_one("abcdefgh2"));
    }
}
