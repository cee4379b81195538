//! Sequence features: `f_array`, `f_burst`, and the synthesizing functions
//! `f_marker`, `f_norm`, `ft_sample` (Table 5).
//!
//! Deep-learning website fingerprinting consumes fixed-length packet
//! direction sequences; CUMUL consumes interpolated cumulative sums with
//! direction-change markers. These are "pack and post-process" operations
//! rather than statistics, so they live apart from the numeric estimators.

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

/// `f_burst`: identifies bursts — maximal runs of same-direction packets —
/// and records each burst's length, up to `max_bursts`.
#[derive(Clone, Debug)]
pub struct BurstTracker {
    bursts: Vec<f64>,
    max_bursts: usize,
    current_sign: i8,
    current_len: u64,
}

impl BurstTracker {
    /// Creates a tracker that records up to `max_bursts` burst lengths.
    pub fn new(max_bursts: usize) -> Option<Self> {
        if max_bursts == 0 {
            return None;
        }
        Some(BurstTracker {
            bursts: Vec::new(),
            max_bursts,
            current_sign: 0,
            current_len: 0,
        })
    }

    fn close_current(&mut self) {
        if self.current_len > 0 && self.bursts.len() < self.max_bursts {
            self.bursts.push(self.current_len as f64);
        }
        self.current_len = 0;
    }

    /// Burst lengths recorded so far, *excluding* the still-open burst.
    pub fn closed_bursts(&self) -> &[f64] {
        &self.bursts
    }

    /// Serializes the tracker (closed bursts + open-run state).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u32(self.max_bursts as u32);
        w.put_u32(self.bursts.len() as u32);
        for v in &self.bursts {
            w.put_f64(*v);
        }
        w.put_u8(self.current_sign as u8);
        w.put_u64(self.current_len);
    }

    /// Reads a tracker written by [`BurstTracker::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        let max_bursts = r.get_u32()? as usize;
        let n = r.get_count(8)?;
        if max_bursts == 0 || n > max_bursts {
            return None;
        }
        let mut bursts = Vec::with_capacity(n);
        for _ in 0..n {
            bursts.push(r.get_f64()?);
        }
        Some(BurstTracker {
            bursts,
            max_bursts,
            current_sign: r.get_u8()? as i8,
            current_len: r.get_u64()?,
        })
    }
}

impl Reducer for BurstTracker {
    /// Feeds a signed sample; the sign (±) is the packet direction.
    fn update(&mut self, x: f64) {
        let sign: i8 = if x >= 0.0 { 1 } else { -1 };
        if sign != self.current_sign {
            self.close_current();
            self.current_sign = sign;
        }
        self.current_len += 1;
    }

    /// Emits the burst-length sequence padded with zeros to `max_bursts`,
    /// including the trailing open burst.
    fn finalize(&self) -> Vec<f64> {
        let mut v = self.bursts.clone();
        if self.current_len > 0 && v.len() < self.max_bursts {
            v.push(self.current_len as f64);
        }
        v.resize(self.max_bursts, 0.0);
        v
    }

    fn feature_len(&self) -> usize {
        self.max_bursts
    }

    fn state_bytes(&self) -> usize {
        self.bursts.len() * 4 + 8
    }

    fn reset(&mut self) {
        self.bursts.clear();
        self.current_sign = 0;
        self.current_len = 0;
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

/// CUMUL's feature layout: the cumulative sum of a signed sequence,
/// linearly interpolated at `n` evenly spaced positions.
pub fn cumul_interp(seq: &[f64], n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    if seq.is_empty() {
        return vec![0.0; n];
    }
    let mut cum = Vec::with_capacity(seq.len());
    let mut acc = 0.0;
    for &x in seq {
        acc += x;
        cum.push(acc);
    }
    (0..n)
        .map(|i| {
            // Position in [0, len-1].
            let pos = i as f64 * (cum.len() - 1) as f64 / (n.max(2) - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(cum.len() - 1);
            let frac = pos - lo as f64;
            cum[lo] * (1.0 - frac) + cum[hi] * frac
        })
        .collect()
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
        assert!(BurstTracker::load_state(&mut StateReader::new(&lie)).is_none());
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
    fn burst_tracker_segments_runs() {
        let mut b = BurstTracker::new(8).unwrap();
        // +++ -- + ---- : bursts 3, 2, 1, 4.
        for x in [1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0, -1.0] {
            b.update(x);
        }
        assert_eq!(b.finalize()[..4], [3.0, 2.0, 1.0, 4.0]);
    }

    #[test]
    fn burst_tracker_open_burst_included_in_finalize() {
        let mut b = BurstTracker::new(4).unwrap();
        b.update(1.0);
        b.update(1.0);
        assert!(b.closed_bursts().is_empty());
        assert_eq!(b.finalize(), vec![2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn burst_tracker_caps() {
        let mut b = BurstTracker::new(2).unwrap();
        for i in 0..10 {
            b.update(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        assert_eq!(b.finalize().len(), 2);
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

    #[test]
    fn cumul_interp_endpoints() {
        let seq = [1.0, 1.0, 1.0, 1.0];
        let c = cumul_interp(&seq, 4);
        assert!((c[0] - 1.0).abs() < 1e-9);
        assert!((c[3] - 4.0).abs() < 1e-9);
        assert_eq!(cumul_interp(&[], 3), vec![0.0; 3]);
        assert!(cumul_interp(&seq, 0).is_empty());
    }

    #[test]
    fn cumul_interp_is_monotone_for_positive_input() {
        let seq: Vec<f64> = (0..37).map(|_| 2.0).collect();
        let c = cumul_interp(&seq, 100);
        for w in c.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }
}
