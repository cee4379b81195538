//! Histogram-based distribution features: `ft_hist`, `f_pdf`, `f_cdf`,
//! `ft_percent`.
//!
//! `ft_hist{width, bins}` captures a histogram of the data; the other
//! distribution features are derived from it (§6.1): the CDF by a cumulative
//! sum plus normalization, quantiles by summing bins below the target mass.
//! Variable (geometric) bin widths are supported to improve accuracy for
//! long-tailed data (§6.1, after D'Agostino & Stephens).

use superfe_net::snap::{StateReader, StateWriter};

use crate::reducer::Reducer;

/// Bin-edge layout of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Binning {
    /// `bins` equal-width bins of `width` each, covering `[0, width*bins)`;
    /// samples beyond the range are clamped into the last bin.
    Fixed {
        /// Width of each bin (same unit as the samples).
        width: f64,
    },
    /// Geometrically growing bins: bin `i` covers `[base^i - 1, base^{i+1} - 1)`
    /// scaled by `unit`. Better resolution near zero for long-tailed data.
    Geometric {
        /// Scale of the first bin.
        unit: f64,
        /// Growth factor between consecutive bin edges (> 1).
        base: f64,
    },
}

impl Binning {
    /// Index of the bin of `bins` a sample falls into (clamped to the last
    /// bin; negative samples go to bin 0).
    #[inline]
    pub fn bin_of(self, bins: usize, x: f64) -> usize {
        let last = bins - 1;
        if x <= 0.0 {
            return 0;
        }
        match self {
            Binning::Fixed { width } => ((x / width) as usize).min(last),
            Binning::Geometric { unit, base } => {
                // Find i with unit*(base^i - 1) <= x < unit*(base^{i+1} - 1).
                let v = x / unit + 1.0;
                (v.log(base).floor().max(0.0) as usize).min(last)
            }
        }
    }

    /// `[lo, hi)` edges of bin `i`.
    pub fn edges(self, i: usize) -> (f64, f64) {
        match self {
            Binning::Fixed { width } => (i as f64 * width, (i + 1) as f64 * width),
            Binning::Geometric { unit, base } => {
                let lo = unit * (base.powi(i as i32) - 1.0);
                let hi = unit * (base.powi(i as i32 + 1) - 1.0);
                (lo, hi)
            }
        }
    }

    /// Estimates the `q`-quantile of the bin `counts` (`total` samples in
    /// all), `0 <= q <= 1`, by linear interpolation within the bin where the
    /// cumulative mass crosses `q`: the one formula of
    /// [`Histogram::percentile`], for counts kept anywhere.
    ///
    /// Returns `None` for an empty histogram or `q` outside `[0, 1]`.
    pub fn percentile(
        self,
        counts: impl ExactSizeIterator<Item = u64>,
        total: u64,
        q: f64,
    ) -> Option<f64> {
        if total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let bins = counts.len();
        let target = q * total as f64;
        let mut acc = 0.0;
        for (i, c) in counts.enumerate() {
            let next = acc + c as f64;
            if next >= target && c > 0 {
                let frac = if c == 0 {
                    0.0
                } else {
                    (target - acc) / c as f64
                };
                let (lo, hi) = self.edges(i);
                return Some(lo + frac.clamp(0.0, 1.0) * (hi - lo));
            }
            acc = next;
        }
        let (_, hi) = self.edges(bins - 1);
        Some(hi)
    }
}

/// A streaming histogram with a fixed number of bins.
///
/// # Examples
///
/// ```
/// use superfe_streaming::{Histogram, Reducer};
///
/// // 16 bins of 100 bytes each — the paper's packet-size histogram (Fig. 4).
/// let mut h = Histogram::fixed(100.0, 16).unwrap();
/// h.update(250.0);
/// h.update(1400.0);
/// h.update(5000.0); // clamped into the last bin
/// assert_eq!(h.counts()[2], 1);
/// assert_eq!(h.counts()[14], 1);
/// assert_eq!(h.counts()[15], 1);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    binning: Binning,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a fixed-width histogram (`ft_hist{width, bins}`).
    ///
    /// Returns `None` if `width <= 0` or `bins == 0`.
    pub fn fixed(width: f64, bins: usize) -> Option<Self> {
        if width <= 0.0 || bins == 0 {
            return None;
        }
        Some(Histogram {
            binning: Binning::Fixed { width },
            counts: vec![0; bins],
            total: 0,
        })
    }

    /// Creates a geometric (variable-width) histogram.
    ///
    /// Returns `None` if `unit <= 0`, `base <= 1`, or `bins == 0`.
    pub fn geometric(unit: f64, base: f64, bins: usize) -> Option<Self> {
        if unit <= 0.0 || base <= 1.0 || bins == 0 {
            return None;
        }
        Some(Histogram {
            binning: Binning::Geometric { unit, base },
            counts: vec![0; bins],
            total: 0,
        })
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin-edge layout.
    pub fn binning(&self) -> Binning {
        self.binning
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Index of the bin a sample falls into (clamped to the last bin;
    /// negative samples go to bin 0).
    pub fn bin_of(&self, x: f64) -> usize {
        self.binning.bin_of(self.counts.len(), x)
    }

    /// Normalized probability mass per bin (`f_pdf`). Zeros when empty.
    pub fn pdf(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let t = self.total as f64;
        self.counts.iter().map(|&c| c as f64 / t).collect()
    }

    /// Normalized cumulative distribution per bin (`f_cdf`). Zeros when empty.
    pub fn cdf(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let t = self.total as f64;
        let mut acc = 0u64;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / t
            })
            .collect()
    }

    /// Estimates the `q`-quantile (`ft_percent`), `0 <= q <= 1`, by linear
    /// interpolation within the bin where the cumulative mass crosses `q`.
    ///
    /// Returns `None` for an empty histogram or `q` outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.binning
            .percentile(self.counts.iter().copied(), self.total, q)
    }

    /// `[lo, hi)` edges of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        self.binning.edges(i)
    }

    /// Serializes the histogram (binning layout + counts).
    pub fn save_state(&self, w: &mut StateWriter) {
        match self.binning {
            Binning::Fixed { width } => {
                w.put_u8(0);
                w.put_f64(width);
            }
            Binning::Geometric { unit, base } => {
                w.put_u8(1);
                w.put_f64(unit);
                w.put_f64(base);
            }
        }
        w.put_u32(self.counts.len() as u32);
        for c in &self.counts {
            w.put_u64(*c);
        }
        w.put_u64(self.total);
    }

    /// Reads a histogram written by [`Histogram::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        let binning = match r.get_u8()? {
            0 => Binning::Fixed {
                width: r.get_f64()?,
            },
            1 => Binning::Geometric {
                unit: r.get_f64()?,
                base: r.get_f64()?,
            },
            _ => return None,
        };
        let bins = r.get_count(8)?;
        if bins == 0 {
            return None;
        }
        let mut counts = Vec::with_capacity(bins);
        for _ in 0..bins {
            counts.push(r.get_u64()?);
        }
        Some(Histogram {
            binning,
            counts,
            total: r.get_u64()?,
        })
    }

    /// Words of a histogram of `bins` bins kept in a run of `f64` words:
    /// each bin's count's bits, then the total's. A fresh one is all zeros.
    pub fn words(bins: usize) -> usize {
        bins + 1
    }

    /// The histogram of `binning` kept in `words`, a run of
    /// [`Histogram::words`] words.
    pub fn from_words(binning: Binning, words: &[f64]) -> Self {
        let (counts, total) = words.split_at(words.len() - 1);
        Histogram {
            binning,
            counts: counts.iter().map(|c| c.to_bits()).collect(),
            total: total[0].to_bits(),
        }
    }

    /// Keeps the histogram's counts in `words`.
    pub fn to_words(&self, words: &mut [f64]) {
        let counts = self.counts.iter().chain([&self.total]);
        for (w, c) in words.iter_mut().zip(counts) {
            *w = f64::from_bits(*c);
        }
    }
}

impl Reducer for Histogram {
    fn update(&mut self, x: f64) {
        let i = self.bin_of(x);
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Emits the raw bin counts (the `ft_hist` feature layout used by
    /// FlowLens-style distribution features).
    fn finalize(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }

    fn feature_len(&self) -> usize {
        self.counts.len()
    }

    fn state_bytes(&self) -> usize {
        // 4-byte counters on the NIC.
        self.counts.len() * 4
    }

    fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validation() {
        assert!(Histogram::fixed(0.0, 4).is_none());
        assert!(Histogram::fixed(1.0, 0).is_none());
        assert!(Histogram::geometric(1.0, 1.0, 4).is_none());
        assert!(Histogram::geometric(-1.0, 2.0, 4).is_none());
    }

    #[test]
    fn a_bin_count_the_bytes_cannot_hold_does_not_load() {
        let mut h = Histogram::fixed(100.0, 16).unwrap();
        h.update(250.0);
        let mut w = StateWriter::new();
        h.save_state(&mut w);
        let mut bytes = w.into_bytes();
        assert!(Histogram::load_state(&mut StateReader::new(&bytes)).is_some());
        // The bin count follows the tag and the width: u32::MAX bins would
        // be a 32 GiB reservation before the first count is read.
        bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Histogram::load_state(&mut StateReader::new(&bytes)).is_none());
    }

    #[test]
    fn words_keep_the_counts_and_the_total() {
        let mut h = Histogram::geometric(1.0, 2.0, 5).unwrap();
        for x in [0.5, 2.0, 5.0, 5.5, 1e9] {
            h.update(x);
        }
        let mut words = vec![0.0; Histogram::words(5)];
        h.to_words(&mut words);
        let back = Histogram::from_words(h.binning(), &words);
        assert_eq!((back.counts(), back.total()), (h.counts(), 5));
        assert_eq!(back.binning(), h.binning());
    }

    #[test]
    fn fixed_binning_places_samples() {
        let mut h = Histogram::fixed(10.0, 4).unwrap();
        for x in [0.0, 5.0, 15.0, 25.0, 39.9, 1000.0, -3.0] {
            h.update(x);
        }
        assert_eq!(h.counts(), &[3, 1, 1, 2]);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn mass_is_conserved() {
        let mut h = Histogram::fixed(7.0, 9).unwrap();
        for i in 0..1000 {
            h.update(f64::from(i % 100));
        }
        assert_eq!(h.counts().iter().sum::<u64>(), 1000);
        let pdf_sum: f64 = h.pdf().iter().sum();
        assert!((pdf_sum - 1.0).abs() < 1e-12);
        let cdf = h.cdf();
        assert!((cdf.last().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut h = Histogram::fixed(1.0, 16).unwrap();
        for i in 0..64 {
            h.update(f64::from(i * 7 % 20));
        }
        let cdf = h.cdf();
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn percentile_median_of_uniform() {
        let mut h = Histogram::fixed(1.0, 100).unwrap();
        for i in 0..100 {
            h.update(f64::from(i) + 0.5);
        }
        let p50 = h.percentile(0.5).unwrap();
        assert!((p50 - 50.0).abs() < 2.0, "p50 = {p50}");
        let p90 = h.percentile(0.9).unwrap();
        assert!((p90 - 90.0).abs() < 2.0, "p90 = {p90}");
    }

    #[test]
    fn percentile_edge_cases() {
        let h = Histogram::fixed(1.0, 4).unwrap();
        assert_eq!(h.percentile(0.5), None); // empty
        let mut h = Histogram::fixed(1.0, 4).unwrap();
        h.update(1.5);
        assert_eq!(h.percentile(-0.1), None);
        assert_eq!(h.percentile(1.1), None);
        assert!(h.percentile(1.0).is_some());
    }

    #[test]
    fn geometric_bins_grow() {
        let h = Histogram::geometric(1.0, 2.0, 8).unwrap();
        // Edges: 0,1,3,7,15,31,...
        assert_eq!(h.bin_of(0.5), 0);
        assert_eq!(h.bin_of(2.0), 1);
        assert_eq!(h.bin_of(5.0), 2);
        assert_eq!(h.bin_of(20.0), 4);
        assert_eq!(h.bin_of(1e9), 7); // clamped
        let (lo1, hi1) = h.bin_edges(1);
        assert!((lo1 - 1.0).abs() < 1e-12 && (hi1 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_bin_of_matches_edges() {
        let h = Histogram::geometric(10.0, 1.5, 12).unwrap();
        for i in 0..12 {
            let (lo, hi) = h.bin_edges(i);
            let mid = (lo + hi) / 2.0;
            assert_eq!(h.bin_of(mid), i, "mid {mid} of bin {i}");
        }
    }

    #[test]
    fn reset_zeroes_counts() {
        let mut h = Histogram::fixed(1.0, 4).unwrap();
        h.update(2.0);
        h.reset();
        assert_eq!(h.total(), 0);
        assert_eq!(h.counts(), &[0, 0, 0, 0]);
    }

    #[test]
    fn finalize_matches_counts() {
        let mut h = Histogram::fixed(100.0, 16).unwrap();
        h.update(250.0);
        let f = h.finalize();
        assert_eq!(f.len(), 16);
        assert_eq!(f[2], 1.0);
    }
}
