//! Welford's online mean/variance (the paper's Eq. 1–2).

use superfe_net::snap::{StateReader, StateWriter};

use crate::reducer::Reducer;

/// One-pass mean and variance via Welford's algorithm.
///
/// Maintains `(n, mean, M2)` where `M2 = Σ (x_i - mean)^2`; the population
/// variance is `M2 / n`. This is the algorithm the paper deploys on the
/// SmartNIC for `f_mean` / `f_var` / `f_std` because the naive two-pass
/// method would need to buffer the whole stream (§6.1).
///
/// # Examples
///
/// ```
/// use superfe_streaming::{Reducer, Welford};
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.update(x);
/// }
/// assert!((w.mean() - 5.0).abs() < 1e-12);
/// assert!((w.variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 for an empty stream).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance `M2 / n` (0 for an empty stream).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Serializes the estimator.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.n);
        w.put_f64(self.mean);
        w.put_f64(self.m2);
    }

    /// Reads an estimator written by [`Welford::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        Some(Welford {
            n: r.get_u64()?,
            mean: r.get_f64()?,
            m2: r.get_f64()?,
        })
    }

    /// Words of an estimator kept in a run of `f64` words: the count's
    /// bits, the mean, then `M2`.
    pub const WORDS: usize = 3;

    /// The estimator kept in `words` (see [`Welford::WORDS`]).
    pub fn from_words(words: &[f64]) -> Self {
        Welford {
            n: words[0].to_bits(),
            mean: words[1],
            m2: words[2],
        }
    }

    /// Keeps the estimator in `words`.
    pub fn to_words(&self, words: &mut [f64]) {
        words[0] = f64::from_bits(self.n);
        words[1] = self.mean;
        words[2] = self.m2;
    }
}

impl Reducer for Welford {
    fn update(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    fn finalize(&self) -> Vec<f64> {
        vec![self.mean(), self.variance()]
    }

    fn feature_len(&self) -> usize {
        2
    }

    fn state_bytes(&self) -> usize {
        // n (8) + mean (8) + M2 (8).
        24
    }

    fn reset(&mut self) {
        *self = Welford::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::update_all;

    fn exact_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn matches_two_pass_reference() {
        let xs: Vec<f64> = (0..1000).map(|i| f64::from((i * 37) % 101) * 0.5).collect();
        let mut w = Welford::new();
        update_all(&mut w, xs.iter().copied());
        let (m, v) = exact_mean_var(&xs);
        assert!((w.mean() - m).abs() < 1e-9);
        assert!((w.variance() - v).abs() < 1e-9);
    }

    #[test]
    fn empty_stream_defaults() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.finalize(), vec![0.0, 0.0]);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let mut w = Welford::new();
        w.update(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut w = Welford::new();
        w.update(1.0);
        w.reset();
        assert_eq!(w.count(), 0);
        assert_eq!(w.state_bytes(), 24);
    }
}
