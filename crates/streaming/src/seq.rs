//! Sequence features: `f_array` and the synthesizing functions `f_marker`,
//! `f_norm`, `ft_sample` (Table 5).
//!
//! Deep-learning website fingerprinting consumes fixed-length packet
//! direction sequences; CUMUL consumes cumulative sums with
//! direction-change markers. These are "pack and post-process" operations
//! rather than statistics, so they live apart from the numeric estimators.
//! `f_burst` is not here: it is a mapping function, a per-group burst
//! counter (`superfe_policy::exec::MapState`).

use superfe_net::snap::{StateReader, StateWriter};

use crate::reducer::Reducer;

/// `f_array`: packs samples into a bounded, fixed-length array.
///
/// Samples beyond `cap` are dropped (and counted); [`Reducer::finalize`] pads
/// with zeros so the feature length is always exactly `cap` — the layout
/// AWF/DF/TF expect (a 5000-long ±1 sequence).
#[derive(Clone, Debug)]
pub struct SeqArray {
    data: Vec<f64>,
    cap: usize,
    dropped: u64,
}

impl SeqArray {
    /// Creates an array reducer with capacity `cap` (must be non-zero).
    pub fn new(cap: usize) -> Option<Self> {
        if cap == 0 {
            return None;
        }
        Some(SeqArray {
            data: Vec::new(),
            cap,
            dropped: 0,
        })
    }

    /// Samples accepted so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no samples were accepted.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Samples dropped after the array filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The raw (unpadded) sequence.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The array of capacity `cap` holding `data` after dropping `dropped`
    /// samples; `None` when `cap` is zero or `data` is longer.
    pub fn from_parts(cap: usize, data: Vec<f64>, dropped: u64) -> Option<Self> {
        (cap > 0 && data.len() <= cap).then_some(SeqArray { data, cap, dropped })
    }

    /// The accepted samples and the dropped count.
    pub fn into_parts(self) -> (Vec<f64>, u64) {
        (self.data, self.dropped)
    }

    /// Serializes the sequence and its capacity.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u32(self.cap as u32);
        w.put_u32(self.data.len() as u32);
        for v in &self.data {
            w.put_f64(*v);
        }
        w.put_u64(self.dropped);
    }

    /// Reads a sequence written by [`SeqArray::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        let cap = r.get_u32()? as usize;
        let n = r.get_count(8)?;
        if cap == 0 || n > cap {
            return None;
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(r.get_f64()?);
        }
        Some(SeqArray {
            data,
            cap,
            dropped: r.get_u64()?,
        })
    }
}

impl Reducer for SeqArray {
    fn update(&mut self, x: f64) {
        if self.data.len() < self.cap {
            self.data.push(x);
        } else {
            self.dropped += 1;
        }
    }

    fn finalize(&self) -> Vec<f64> {
        let mut v = self.data.clone();
        v.resize(self.cap, 0.0);
        v
    }

    fn feature_len(&self) -> usize {
        self.cap
    }

    fn state_bytes(&self) -> usize {
        // The NIC stores packed 4-byte entries for the accepted prefix.
        self.data.len() * 4
    }

    fn reset(&mut self) {
        self.data.clear();
        self.dropped = 0;
    }
}

/// `f_norm`: scales a sequence so its maximum absolute value is 1.
///
/// A zero (or empty) sequence is returned unchanged.
pub fn normalize(seq: &[f64]) -> Vec<f64> {
    let max = seq.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    if max <= 0.0 {
        return seq.to_vec();
    }
    seq.iter().map(|x| x / max).collect()
}

/// `ft_sample{n}`: picks `n` evenly spaced elements from `seq`.
///
/// Returns zeros when the input is empty; when `seq.len() < n`, elements
/// repeat (nearest-index sampling), which keeps the output length fixed — a
/// requirement for fixed-width feature vectors.
pub fn sample_evenly(seq: &[f64], n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    if seq.is_empty() {
        return vec![0.0; n];
    }
    (0..n)
        .map(|i| {
            let idx = i * seq.len() / n;
            seq[idx.min(seq.len() - 1)]
        })
        .collect()
}

/// `f_marker`: emits the running cumulative sum at every direction change.
///
/// Given a signed sequence (e.g. ±packet sizes), the output contains the
/// cumulative sum immediately *before* each sign flip, followed by the final
/// cumulative sum — the structure CUMUL-style fingerprinting builds on.
pub fn markers(seq: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut acc = 0.0;
    let mut prev_sign: i8 = 0;
    for &x in seq {
        let sign: i8 = if x >= 0.0 { 1 } else { -1 };
        if prev_sign != 0 && sign != prev_sign {
            out.push(acc);
        }
        acc += x;
        prev_sign = sign;
    }
    if prev_sign != 0 {
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::update_all;

    #[test]
    fn seq_array_caps_and_pads() {
        let mut a = SeqArray::new(4).unwrap();
        update_all(&mut a, [1.0, -1.0]);
        assert_eq!(a.finalize(), vec![1.0, -1.0, 0.0, 0.0]);
        update_all(&mut a, [1.0, 1.0, 1.0]);
        assert_eq!(a.len(), 4);
        assert_eq!(a.dropped(), 1);
        assert_eq!(a.finalize().len(), 4);
    }

    #[test]
    fn parts_hold_no_more_than_the_cap() {
        assert!(SeqArray::from_parts(2, vec![1.0, 2.0, 3.0], 0).is_none());
        assert!(SeqArray::from_parts(0, Vec::new(), 0).is_none());
        let a = SeqArray::from_parts(3, vec![1.0], 4).unwrap();
        assert_eq!((a.finalize(), a.dropped()), (vec![1.0, 0.0, 0.0], 4));
        assert_eq!(a.into_parts(), (vec![1.0], 4));
    }

    #[test]
    fn seq_array_rejects_zero_cap() {
        assert!(SeqArray::new(0).is_none());
    }

    #[test]
    fn a_count_the_bytes_cannot_hold_is_refused_before_anything_is_reserved() {
        // A header claiming u32::MAX values (32 GiB of f64s), four bytes of
        // body: refused on the count, so nothing the size of the claim is
        // ever reserved.
        let mut w = StateWriter::new();
        w.put_u32(u32::MAX);
        w.put_u32(u32::MAX);
        w.put_u32(0);
        let lie = w.into_bytes();
        assert!(SeqArray::load_state(&mut StateReader::new(&lie)).is_none());
        // The count of a well-formed snapshot still loads.
        let mut a = SeqArray::new(4).unwrap();
        update_all(&mut a, [1.0, -1.0]);
        let mut w = StateWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let back = SeqArray::load_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(back.as_slice(), a.as_slice());
    }

    #[test]
    fn normalize_scales_to_unit() {
        let v = normalize(&[2.0, -4.0, 1.0]);
        assert_eq!(v, vec![0.5, -1.0, 0.25]);
        assert_eq!(normalize(&[0.0, 0.0]), vec![0.0, 0.0]);
        assert!(normalize(&[]).is_empty());
    }

    #[test]
    fn sample_evenly_shapes() {
        let seq: Vec<f64> = (0..10).map(f64::from).collect();
        let s = sample_evenly(&seq, 5);
        assert_eq!(s, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
        assert_eq!(sample_evenly(&[], 3), vec![0.0; 3]);
        assert_eq!(sample_evenly(&[7.0], 3), vec![7.0; 3]);
        assert!(sample_evenly(&seq, 0).is_empty());
    }

    #[test]
    fn markers_capture_direction_changes() {
        // +100 +200 -50 -50 +10 : flips after 300 and after 200.
        let m = markers(&[100.0, 200.0, -50.0, -50.0, 10.0]);
        assert_eq!(m, vec![300.0, 200.0, 210.0]);
    }

    #[test]
    fn markers_of_monotone_sequence() {
        assert_eq!(markers(&[1.0, 1.0, 1.0]), vec![3.0]);
        assert!(markers(&[]).is_empty());
    }
}
