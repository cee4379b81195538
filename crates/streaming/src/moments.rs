//! One-pass higher central moments for `f_skew` and `f_kur`.

use superfe_net::snap::{StateReader, StateWriter};

use crate::reducer::Reducer;

/// Streaming estimator of mean, variance, skewness, and kurtosis.
///
/// Extends Welford's recurrence to the third and fourth central moments
/// (Pébay's single-pass update), so `f_skew` and `f_kur` run with four state
/// words per group instead of buffering the stream.
///
/// Skewness is `M3/n / σ³`; kurtosis is the *excess* kurtosis
/// `M4·n / M2² − 3` (0 for a normal distribution), matching the conventions
/// of the Python feature extractors the paper re-implements.
#[derive(Clone, Copy, Debug, Default)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl Moments {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Moments::default()
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population skewness (0 when variance is ~0 or the stream is empty).
    pub fn skewness(&self) -> f64 {
        if self.n == 0 || self.m2 < 1e-12 {
            return 0.0;
        }
        let n = self.n as f64;
        (self.m3 / n) / (self.m2 / n).powf(1.5)
    }

    /// Excess kurtosis (0 when variance is ~0 or the stream is empty).
    pub fn kurtosis(&self) -> f64 {
        if self.n == 0 || self.m2 < 1e-12 {
            return 0.0;
        }
        let n = self.n as f64;
        n * self.m4 / (self.m2 * self.m2) - 3.0
    }

    /// Serializes the estimator.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.n);
        for v in [self.mean, self.m2, self.m3, self.m4] {
            w.put_f64(v);
        }
    }

    /// Reads an estimator written by [`Moments::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        Some(Moments {
            n: r.get_u64()?,
            mean: r.get_f64()?,
            m2: r.get_f64()?,
            m3: r.get_f64()?,
            m4: r.get_f64()?,
        })
    }

    /// Words of an estimator kept in a run of `f64` words: the count's
    /// bits, the mean, then `M2`, `M3` and `M4`.
    pub const WORDS: usize = 5;

    /// The estimator kept in `words` (see [`Moments::WORDS`]).
    pub fn from_words(words: &[f64]) -> Self {
        Moments {
            n: words[0].to_bits(),
            mean: words[1],
            m2: words[2],
            m3: words[3],
            m4: words[4],
        }
    }

    /// Keeps the estimator in `words`.
    pub fn to_words(&self, words: &mut [f64]) {
        words[0] = f64::from_bits(self.n);
        words[1..5].copy_from_slice(&[self.mean, self.m2, self.m3, self.m4]);
    }
}

impl Reducer for Moments {
    fn update(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    fn finalize(&self) -> Vec<f64> {
        vec![
            self.mean(),
            self.variance(),
            self.skewness(),
            self.kurtosis(),
        ]
    }

    fn feature_len(&self) -> usize {
        4
    }

    fn state_bytes(&self) -> usize {
        // n + mean + M2 + M3 + M4.
        40
    }

    fn reset(&mut self) {
        *self = Moments::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::update_all;

    fn reference(xs: &[f64]) -> (f64, f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let m = |p: i32| xs.iter().map(|x| (x - mean).powi(p)).sum::<f64>() / n;
        let var = m(2);
        let skew = if var < 1e-12 {
            0.0
        } else {
            m(3) / var.powf(1.5)
        };
        let kur = if var < 1e-12 {
            0.0
        } else {
            m(4) / (var * var) - 3.0
        };
        (mean, var, skew, kur)
    }

    #[test]
    fn matches_batch_reference() {
        let xs: Vec<f64> = (0..2000)
            .map(|i| f64::from((i * 31 + 7) % 997) / 10.0)
            .collect();
        let mut m = Moments::new();
        update_all(&mut m, xs.iter().copied());
        let (mean, var, skew, kur) = reference(&xs);
        assert!((m.mean() - mean).abs() < 1e-9);
        assert!((m.variance() - var).abs() < 1e-6);
        assert!(
            (m.skewness() - skew).abs() < 1e-9,
            "{} {}",
            m.skewness(),
            skew
        );
        assert!((m.kurtosis() - kur).abs() < 1e-9);
    }

    #[test]
    fn skewed_stream_has_positive_skew() {
        // Exponential-ish: many small values, few large ones.
        let mut m = Moments::new();
        for i in 0..1000u32 {
            let x = if i % 100 == 0 { 100.0 } else { 1.0 };
            m.update(x);
        }
        assert!(m.skewness() > 1.0);
    }

    #[test]
    fn constant_stream_is_degenerate() {
        let mut m = Moments::new();
        for _ in 0..10 {
            m.update(5.0);
        }
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.skewness(), 0.0);
        assert_eq!(m.kurtosis(), 0.0);
    }

    #[test]
    fn empty_finalize_is_zeros() {
        assert_eq!(Moments::new().finalize(), vec![0.0; 4]);
    }

    #[test]
    fn symmetric_stream_has_near_zero_skew() {
        let mut m = Moments::new();
        for i in -500..=500 {
            m.update(f64::from(i));
        }
        assert!(m.skewness().abs() < 1e-9);
    }
}
