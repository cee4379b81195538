//! HyperLogLog cardinality estimation (`f_card`).
//!
//! The paper (§6.1) estimates distinct counts — e.g. flows opened per host —
//! by bucketing a 32-bit hash: the first `k` bits pick one of `2^k` registers
//! and the register keeps the maximum number of leading zeros seen in the
//! remaining bits. Registers combine with the HyperLogLog harmonic mean
//! (Flajolet et al.), with the standard small-range (linear counting) and
//! 32-bit large-range corrections.

use superfe_net::snap::{StateReader, StateWriter};

use crate::reducer::Reducer;

/// A HyperLogLog sketch with `2^k` one-byte registers.
#[derive(Clone, Debug)]
pub struct HyperLogLog {
    k: u8,
    registers: Vec<u8>,
    // Incrementing counter used when samples are fed as raw f64s; real
    // deployments feed pre-hashed values via `update_hash`.
    updates: u64,
}

impl HyperLogLog {
    /// Creates a sketch with `2^k` registers.
    ///
    /// Returns `None` unless `4 <= k <= 16` (the practical range: at least 16
    /// registers for the bias constant, at most 64 Ki registers).
    pub fn new(k: u8) -> Option<Self> {
        if !(4..=16).contains(&k) {
            return None;
        }
        Some(HyperLogLog {
            k,
            registers: vec![0; 1 << k],
            updates: 0,
        })
    }

    /// Number of registers (`2^k`).
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// Feeds a pre-computed 32-bit hash (the switch-computed hash on the real
    /// system, so the NIC performs no hashing — §6.2).
    pub fn update_hash(&mut self, h: u32) {
        self.updates += 1;
        let idx = (h >> (32 - self.k)) as usize;
        let rest = h << self.k;
        // Rank = leading zeros of the remaining (32-k) bits, plus 1.
        let rank = if rest == 0 {
            32 - self.k + 1
        } else {
            (rest.leading_zeros() as u8).min(32 - self.k) + 1
        };
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Estimated number of distinct hashed elements.
    pub fn estimate(&self) -> f64 {
        estimate_registers(self.registers.iter().copied())
    }

    /// Serializes the sketch (size + registers).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u8(self.k);
        w.put_bytes(&self.registers);
        w.put_u64(self.updates);
    }

    /// Reads a sketch written by [`HyperLogLog::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        let k = r.get_u8()?;
        let registers = r.get_bytes()?.to_vec();
        if !(4..=16).contains(&k) || registers.len() != 1 << k {
            return None;
        }
        Some(HyperLogLog {
            k,
            registers,
            updates: r.get_u64()?,
        })
    }

    /// Words of a sketch of `2^k` registers kept in a run of `f64` words:
    /// the registers, eight to a word in little-endian byte order, then the
    /// update count's bits. A fresh one is all zeros.
    pub fn words(k: u8) -> usize {
        (1usize << k) / 8 + 1
    }

    /// The sketch kept in `words`, a run of [`HyperLogLog::words`] words.
    pub fn from_words(words: &[f64]) -> Self {
        let (registers, updates) = words.split_at(words.len() - 1);
        let registers: Vec<u8> = (registers.iter())
            .flat_map(|w| w.to_bits().to_le_bytes())
            .collect();
        HyperLogLog {
            k: registers.len().trailing_zeros() as u8,
            registers,
            updates: updates[0].to_bits(),
        }
    }

    /// Keeps the sketch in `words`.
    pub fn to_words(&self, words: &mut [f64]) {
        let (registers, updates) = words.split_at_mut(words.len() - 1);
        for (w, bytes) in registers.iter_mut().zip(self.registers.chunks_exact(8)) {
            *w = f64::from_bits(u64::from_le_bytes(
                bytes.try_into().expect("eight registers"),
            ));
        }
        updates[0] = f64::from_bits(self.updates);
    }
}

/// The HyperLogLog estimate of `registers`, with the bias constant of their
/// number and the small- and large-range corrections: the one formula of
/// [`HyperLogLog::estimate`], for registers kept anywhere.
pub fn estimate_registers(registers: impl Iterator<Item = u8> + Clone) -> f64 {
    let count = registers.clone().count();
    let m = count as f64;
    // Bias-correction constant `alpha_m`.
    let alpha = match count {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m),
    };
    let sum: f64 = (registers.clone())
        .map(|r| 1.0 / ((1u64 << r) as f64))
        .sum();
    let raw = alpha * m * m / sum;

    if raw <= 2.5 * m {
        // Small-range correction: linear counting on empty registers.
        let zeros = registers.filter(|&r| r == 0).count();
        if zeros != 0 {
            return m * (m / zeros as f64).ln();
        }
        raw
    } else if raw > (1u64 << 32) as f64 / 30.0 {
        // Large-range correction for 32-bit hashes.
        let two32 = (1u64 << 32) as f64;
        -two32 * (1.0 - raw / two32).ln()
    } else {
        raw
    }
}

impl Reducer for HyperLogLog {
    /// Hashes the sample's bit pattern mixed with an update counter and
    /// updates the sketch.
    ///
    /// This path exists so `f_card` composes with the generic reducer
    /// machinery in the software engine; the NIC engine always uses
    /// [`HyperLogLog::update_hash`] with the switch-provided hash.
    fn update(&mut self, x: f64) {
        let h = superfe_hash_f64(x);
        self.update_hash(h);
    }

    fn finalize(&self) -> Vec<f64> {
        vec![self.estimate()]
    }

    fn feature_len(&self) -> usize {
        1
    }

    fn state_bytes(&self) -> usize {
        self.registers.len()
    }

    fn reset(&mut self) {
        self.registers.iter_mut().for_each(|r| *r = 0);
        self.updates = 0;
    }
}

/// 32-bit mix hash of an `f64`'s bit pattern (fmix32 finalizer).
fn superfe_hash_f64(x: f64) -> u32 {
    let bits = x.to_bits();
    let mut h = (bits ^ (bits >> 32)) as u32;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^= h >> 16;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_k() {
        assert!(HyperLogLog::new(3).is_none());
        assert!(HyperLogLog::new(17).is_none());
        assert!(HyperLogLog::new(10).is_some());
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let h = HyperLogLog::new(8).unwrap();
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn estimate_within_expected_error() {
        // Standard error is ~1.04/sqrt(m); with k=10 (m=1024) that's ~3.3%.
        let mut h = HyperLogLog::new(10).unwrap();
        let n = 50_000u32;
        for i in 0..n {
            h.update(f64::from(i) * 1.000001);
        }
        let est = h.estimate();
        let err = (est - f64::from(n)).abs() / f64::from(n);
        assert!(err < 0.05, "estimate {est} vs {n}, err {err}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = HyperLogLog::new(10).unwrap();
        for _ in 0..10 {
            for i in 0..100u32 {
                h.update(f64::from(i));
            }
        }
        let est = h.estimate();
        assert!((est - 100.0).abs() / 100.0 < 0.15, "estimate {est}");
    }

    #[test]
    fn small_range_uses_linear_counting() {
        let mut h = HyperLogLog::new(12).unwrap();
        for i in 0..10u32 {
            h.update(f64::from(i));
        }
        let est = h.estimate();
        assert!((est - 10.0).abs() < 2.0, "estimate {est}");
    }

    #[test]
    fn state_bytes_equals_registers() {
        let h = HyperLogLog::new(8).unwrap();
        assert_eq!(h.state_bytes(), 256);
    }

    #[test]
    fn reset_clears_registers() {
        let mut h = HyperLogLog::new(8).unwrap();
        for i in 0..1000u32 {
            h.update(f64::from(i));
        }
        h.reset();
        assert_eq!(h.estimate(), 0.0);
    }

    #[test]
    fn words_keep_every_register_and_the_count() {
        let mut h = HyperLogLog::new(6).unwrap();
        for i in 0..500u32 {
            h.update_hash(i.wrapping_mul(0x9E37_79B9));
        }
        let mut words = vec![0.0; HyperLogLog::words(6)];
        assert_eq!(words.len(), 64 / 8 + 1);
        h.to_words(&mut words);
        let back = HyperLogLog::from_words(&words);
        assert_eq!(
            (back.k, &back.registers, back.updates),
            (6, &h.registers, 500)
        );
        assert_eq!(back.estimate().to_bits(), h.estimate().to_bits());
        assert_eq!(HyperLogLog::from_words(&[0.0; 3]).estimate(), 0.0);
    }

    #[test]
    fn update_hash_rank_handles_zero_suffix() {
        let mut h = HyperLogLog::new(4).unwrap();
        // Hash whose low 28 bits are all zero: rank must saturate, not panic.
        h.update_hash(0xF000_0000);
        assert!(h.estimate() > 0.0);
    }
}
