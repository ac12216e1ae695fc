//! Seed-derived inputs. The program under test only ever sees bytes made
//! here from the benchmark's `--seed`, so one seed always yields the same
//! inputs.

/// SplitMix64 finaliser: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Value number `index` of the stream named by `seed` and `stream`.
pub fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    mix64(mix64(seed ^ mix64(stream)) ^ index)
}

/// Fill `buf` with the seeded bytes of item `index` of `stream`.
pub fn fill(seed: u64, stream: u64, index: u64, buf: &mut [u8]) {
    let base = draw(seed, stream, index);
    for (i, chunk) in (0u64..).zip(buf.chunks_mut(8)) {
        let w = mix64(base ^ i).to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

/// 64-bit content hash of `bytes` (word-wise multiply/rotate; order
/// sensitive). Not cryptographic: it detects corruption, reordering and
/// truncation, not an adversary.
pub fn hash64(bytes: &[u8]) -> u64 {
    const P: u64 = 0x9FB2_1C65_1E98_DF25;
    let mut h = 0xCBF2_9CE4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ v).wrapping_mul(P).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(P).rotate_left(29);
    }
    mix64(h)
}

/// Order-sensitive fold of per-chunk hashes into one stream digest.
pub fn fold_digest(digest: u64, chunk_hash: u64) -> u64 {
    mix64(digest.rotate_left(17) ^ chunk_hash)
}

/// A table of seeded blocks plus their hashes. Bulk writes cycle through
/// the table in a seeded order, so the sender never spends time making
/// bytes inside the measured window and the receiver can check each
/// chunk against the hash of the block it must be.
pub struct BlockTable {
    seed: u64,
    blocks: Vec<Vec<u8>>,
    hashes: Vec<u64>,
}

/// Stream tag of the bulk block contents.
const BLOCK_STREAM: u64 = 1;
/// Stream tag of the bulk write order.
const ORDER_STREAM: u64 = 2;

impl BlockTable {
    /// `count` blocks of `len` bytes made from `seed`.
    pub fn new(seed: u64, count: usize, len: usize) -> BlockTable {
        assert!(count > 0, "a block table needs at least one block");
        let blocks: Vec<Vec<u8>> = (0..count as u64)
            .map(|i| {
                let mut b = vec![0u8; len];
                fill(seed, BLOCK_STREAM, i, &mut b);
                b
            })
            .collect();
        let hashes = blocks.iter().map(|b| hash64(b)).collect();
        BlockTable {
            seed,
            blocks,
            hashes,
        }
    }

    /// Index of the block that write number `write` carries.
    pub fn pick(&self, write: u64) -> usize {
        let n = self.blocks.len() as u64;
        usize::try_from(draw(self.seed, ORDER_STREAM, write) % n).expect("index below block count")
    }

    /// Contents of write number `write`.
    pub fn write_bytes(&self, write: u64) -> &[u8] {
        &self.blocks[self.pick(write)]
    }

    /// Hash of write number `write`.
    pub fn write_hash(&self, write: u64) -> u64 {
        self.hashes[self.pick(write)]
    }

    /// Block length in bytes.
    pub fn block_len(&self) -> usize {
        self.blocks[0].len()
    }
}

/// Message number `index` of `stream` for the request/response workloads.
/// The index is folded into the first word so a stale or reordered reply
/// never matches.
pub fn message(seed: u64, stream: u64, index: u64) -> [u8; 64] {
    let mut m = [0u8; 64];
    fill(seed, stream, index, &mut m);
    let head = u64::from_le_bytes(m[..8].try_into().expect("8-byte head")) ^ index;
    m[..8].copy_from_slice(&head.to_le_bytes());
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let a = BlockTable::new(7, 4, 1000);
        let b = BlockTable::new(7, 4, 1000);
        for w in 0..32 {
            assert_eq!(a.write_bytes(w), b.write_bytes(w));
            assert_eq!(a.write_hash(w), b.write_hash(w));
        }
        assert_eq!(message(7, 3, 11), message(7, 3, 11));
    }

    #[test]
    fn different_seed_or_index_different_bytes() {
        let a = BlockTable::new(7, 4, 1000);
        let b = BlockTable::new(8, 4, 1000);
        assert_ne!(a.write_bytes(0), b.write_bytes(0));
        assert_ne!(message(7, 3, 11), message(7, 3, 12));
        assert_ne!(message(7, 3, 11), message(8, 3, 11));
        // The write order is seeded too, and uses more than one block.
        let picks: std::collections::BTreeSet<usize> = (0..64).map(|w| a.pick(w)).collect();
        assert!(picks.len() > 1);
    }

    #[test]
    fn hash_detects_change_and_reorder() {
        let mut buf = vec![0u8; 4096];
        fill(1, 1, 0, &mut buf);
        let h = hash64(&buf);
        buf[4000] ^= 1;
        assert_ne!(h, hash64(&buf));
        buf[4000] ^= 1;
        buf.swap(0, 8);
        assert_ne!(h, hash64(&buf));
        assert_ne!(hash64(&buf[..4095]), hash64(&buf));
        // The stream digest is order sensitive.
        assert_ne!(
            fold_digest(fold_digest(0, 1), 2),
            fold_digest(fold_digest(0, 2), 1)
        );
    }

    #[test]
    fn fill_handles_partial_words() {
        let mut a = [0u8; 13];
        let mut b = [0u8; 16];
        fill(5, 9, 2, &mut a);
        fill(5, 9, 2, &mut b);
        assert_eq!(a, b[..13]);
    }
}
