//! The trivial reducers: `f_sum`, `f_max`, `f_min`, and counting.
//!
//! The paper notes these need no streaming machinery — one state word and one
//! add/compare per record (§6.1).

use superfe_net::snap::{StateReader, StateWriter};

use crate::reducer::Reducer;

/// Running sum (`f_sum`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Sum {
    sum: f64,
    n: u64,
}

impl Sum {
    /// Creates an empty sum.
    pub fn new() -> Self {
        Sum::default()
    }

    /// Current total.
    pub fn value(&self) -> f64 {
        self.sum
    }

    /// Number of samples folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Serializes the accumulator.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_f64(self.sum);
        w.put_u64(self.n);
    }

    /// Reads an accumulator written by [`Sum::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        Some(Sum {
            sum: r.get_f64()?,
            n: r.get_u64()?,
        })
    }

    /// Words of a sum kept in a run of `f64` words: the total, then the
    /// count's bits.
    pub const WORDS: usize = 2;

    /// The sum kept in `words` (see [`Sum::WORDS`]).
    pub fn from_words(words: &[f64]) -> Self {
        Sum {
            sum: words[0],
            n: words[1].to_bits(),
        }
    }

    /// Keeps the sum in `words`.
    pub fn to_words(&self, words: &mut [f64]) {
        words[0] = self.sum;
        words[1] = f64::from_bits(self.n);
    }
}

impl Reducer for Sum {
    fn update(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
    }

    fn finalize(&self) -> Vec<f64> {
        vec![self.sum]
    }

    fn feature_len(&self) -> usize {
        1
    }

    fn state_bytes(&self) -> usize {
        8
    }

    fn reset(&mut self) {
        *self = Sum::default();
    }
}

/// Sample count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Count {
    n: u64,
}

impl Count {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Count::default()
    }

    /// Number of samples observed.
    pub fn value(&self) -> u64 {
        self.n
    }
}

impl Reducer for Count {
    fn update(&mut self, _x: f64) {
        self.n += 1;
    }

    fn finalize(&self) -> Vec<f64> {
        vec![self.n as f64]
    }

    fn feature_len(&self) -> usize {
        1
    }

    fn state_bytes(&self) -> usize {
        8
    }

    fn reset(&mut self) {
        self.n = 0;
    }
}

/// Running minimum and maximum (`f_min`, `f_max`).
#[derive(Clone, Copy, Debug)]
pub struct MinMax {
    min: f64,
    max: f64,
    n: u64,
}

impl Default for MinMax {
    fn default() -> Self {
        MinMax {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            n: 0,
        }
    }
}

impl MinMax {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        MinMax::default()
    }

    /// Smallest sample seen (0 for an empty stream).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample seen (0 for an empty stream).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Serializes the accumulator.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_f64(self.min);
        w.put_f64(self.max);
        w.put_u64(self.n);
    }

    /// Reads an accumulator written by [`MinMax::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        Some(MinMax {
            min: r.get_f64()?,
            max: r.get_f64()?,
            n: r.get_u64()?,
        })
    }

    /// Words of an extremum pair kept in a run of `f64` words: the
    /// minimum, the maximum, then the count's bits. A fresh pair is not all
    /// zeros: its minimum is +∞ and its maximum −∞.
    pub const WORDS: usize = 3;

    /// The pair kept in `words` (see [`MinMax::WORDS`]).
    pub fn from_words(words: &[f64]) -> Self {
        MinMax {
            min: words[0],
            max: words[1],
            n: words[2].to_bits(),
        }
    }

    /// Keeps the pair in `words`.
    pub fn to_words(&self, words: &mut [f64]) {
        words[0] = self.min;
        words[1] = self.max;
        words[2] = f64::from_bits(self.n);
    }
}

impl Reducer for MinMax {
    fn update(&mut self, x: f64) {
        self.n += 1;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    fn finalize(&self) -> Vec<f64> {
        vec![self.min(), self.max()]
    }

    fn feature_len(&self) -> usize {
        2
    }

    fn state_bytes(&self) -> usize {
        16
    }

    fn reset(&mut self) {
        *self = MinMax::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_accumulates() {
        let mut s = Sum::new();
        s.update(1.5);
        s.update(2.5);
        assert_eq!(s.value(), 4.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.finalize(), vec![4.0]);
    }

    #[test]
    fn count_ignores_values() {
        let mut c = Count::new();
        c.update(f64::NAN);
        c.update(1e300);
        assert_eq!(c.value(), 2);
    }

    #[test]
    fn minmax_tracks_extremes() {
        let mut m = MinMax::new();
        for x in [3.0, -1.0, 7.0, 0.0] {
            m.update(x);
        }
        assert_eq!(m.min(), -1.0);
        assert_eq!(m.max(), 7.0);
    }

    #[test]
    fn minmax_empty_is_zero() {
        let m = MinMax::new();
        assert_eq!(m.finalize(), vec![0.0, 0.0]);
    }

    #[test]
    fn reset_restores_defaults() {
        let mut m = MinMax::new();
        m.update(5.0);
        m.reset();
        assert_eq!(m.finalize(), vec![0.0, 0.0]);
        let mut s = Sum::new();
        s.update(5.0);
        s.reset();
        assert_eq!(s.value(), 0.0);
    }
}
