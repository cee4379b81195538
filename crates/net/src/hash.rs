//! Deterministic 32-bit hashing shared by the switch and the SmartNIC.
//!
//! Tofino pipelines compute CRC-based hashes in hardware; SuperFE ships the
//! 32-bit hash of the group key from the switch to the NIC alongside each
//! evicted MGPV so that the NIC never recomputes it (§6.2, "computational
//! cycle optimization"). Both simulators therefore have to agree on the hash
//! function bit-for-bit, which this module provides.

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`.
///
/// This is the same polynomial Tofino exposes as `crc32`, a byte at a time
/// over one 256-entry table. The per-packet key hash,
/// [`GroupKey::hash32`](crate::GroupKey::hash32), computes the same CRC of
/// the key's fixed-width bytes in one step instead.
///
/// # Examples
///
/// ```
/// // Standard check value for "123456789".
/// assert_eq!(superfe_net::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// CRC-32 of a fixed-width block of 4 to 13 bytes in one step. Equal to
/// [`crc32`] of the same bytes.
///
/// The initial register folds into the block's first four bytes, and the
/// register after the block is the XOR of one lookup per byte: byte `i` in
/// the table of the CRC of one byte followed by `N - 1 - i` zero bytes. The
/// lookups do not wait on each other, where a byte-at-a-time loop is a chain
/// of `N` dependent ones.
#[inline]
pub(crate) fn crc32_block<const N: usize>(block: &[u8; N]) -> u32 {
    const { assert!(N >= 4 && N <= CRC32_TABLES.len()) };
    let mut bytes = *block;
    let head = !u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    bytes[..4].copy_from_slice(&head.to_le_bytes());
    let mut out = 0;
    for (i, &b) in bytes.iter().enumerate() {
        out ^= CRC32_TABLES[N - 1 - i][usize::from(b)];
    }
    !out
}

/// `CRC32_TABLES[k][b]`: the CRC register, from zero, after byte `b` and
/// then `k` zero bytes. Table 0 is the byte-at-a-time table; table `k`
/// advances table `k - 1` by one zero byte. One table per byte of the
/// widest key ([`GroupKey::MAX_KEY_BYTES`](crate::GroupKey::MAX_KEY_BYTES)),
/// 13 KiB, computed at compile time.
static CRC32_TABLES: [[u32; 256]; crate::GroupKey::MAX_KEY_BYTES] = {
    let mut tables = [[0u32; 256]; crate::GroupKey::MAX_KEY_BYTES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xEDB8_8320;
            }
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < tables.len() {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Folds a 32-bit hash into `buckets` (power-of-two fast path).
///
/// Returns 0 when `buckets == 0` so callers can treat an empty table
/// uniformly; real tables always have at least one bucket.
pub fn bucket_of(hash: u32, buckets: usize) -> usize {
    if buckets == 0 {
        return 0;
    }
    if buckets.is_power_of_two() {
        (hash as usize) & (buckets - 1)
    } else {
        (hash as usize) % buckets
    }
}

/// A fast, deterministic, non-cryptographic hasher (the FxHash algorithm
/// from rustc, vendored).
///
/// The std `HashMap` default (SipHash-1-3) buys DoS resistance the NIC
/// simulator does not need — group keys are already dispersed by the
/// switch's CRC before they reach any host-side table — and costs several
/// times the cycles. Fx folds each word in with a multiply and a rotate,
/// which is both faster and *stable across runs*, keeping the parallel
/// executor's merge order deterministic.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

/// 64-bit Fx multiplier (≈ 2^64 / φ, an odd constant with good dispersion).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`] — the group-table overflow default.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn fx_hasher_is_deterministic() {
        let h = |x: &crate::GroupKey| {
            let mut hasher = FxHasher::default();
            x.hash(&mut hasher);
            hasher.finish()
        };
        let k = crate::GroupKey::Host(42);
        assert_eq!(h(&k), h(&k));
        assert_ne!(h(&crate::GroupKey::Host(1)), h(&crate::GroupKey::Host(2)));
    }

    #[test]
    fn fx_hashmap_round_trips() {
        let mut m: FxHashMap<crate::GroupKey, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(crate::GroupKey::Host(i), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&crate::GroupKey::Host(999)), Some(&999));
    }

    #[test]
    fn fx_write_covers_partial_chunks() {
        let mut a = FxHasher::default();
        a.write(b"0123456789abc"); // 8-byte chunk + 5-byte tail
        let mut b = FxHasher::default();
        b.write(b"0123456789abd");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn crc32_empty_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bucket_of_power_of_two() {
        for h in [0u32, 1, 12345, u32::MAX] {
            assert_eq!(bucket_of(h, 1024), (h as usize) % 1024);
        }
    }

    #[test]
    fn bucket_of_general() {
        assert_eq!(bucket_of(10, 3), 1);
        assert_eq!(bucket_of(7, 0), 0);
    }

    #[test]
    fn crc32_is_deterministic_and_spreads() {
        // Different inputs should (overwhelmingly) hash differently.
        let a = crc32(b"flow-a");
        let b = crc32(b"flow-b");
        assert_ne!(a, b);
        assert_eq!(a, crc32(b"flow-a"));
    }
}
