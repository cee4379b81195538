//! Feature normalization.

/// Online min–max normalizer mapping each feature into `[0, 1]`.
///
/// Kitsune normalizes incrementally during training; this matches that
/// behaviour: `observe` widens the per-dimension ranges, `transform` scales.
#[derive(Clone, Debug, Default)]
pub struct MinMaxNorm {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxNorm {
    /// Creates an empty normalizer; dimensions are learned on first observe.
    pub fn new() -> Self {
        MinMaxNorm::default()
    }

    /// Number of feature dimensions seen (0 before any observation).
    pub fn dims(&self) -> usize {
        self.mins.len()
    }

    /// The learned `(mins, maxs)` ranges (structural access for the
    /// quantizer, which folds them into fixed-point scale/zero-point pairs).
    pub(crate) fn ranges(&self) -> (&[f64], &[f64]) {
        (&self.mins, &self.maxs)
    }

    /// Widens the ranges with one sample.
    pub fn observe(&mut self, x: &[f64]) {
        if self.mins.is_empty() {
            self.mins = x.to_vec();
            self.maxs = x.to_vec();
            return;
        }
        for (i, &v) in x.iter().enumerate().take(self.mins.len()) {
            if v < self.mins[i] {
                self.mins[i] = v;
            }
            if v > self.maxs[i] {
                self.maxs[i] = v;
            }
        }
    }

    /// Scales a sample into `[0, 1]` per dimension (0.5 for flat ranges),
    /// clamping values outside the observed range.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        if self.mins.is_empty() {
            return x.to_vec();
        }
        x.iter()
            .enumerate()
            .take(self.mins.len())
            .map(|(i, &v)| self.scale(i, v))
            .collect()
    }

    /// [`MinMaxNorm::transform`] of dimension `i` alone: the identity
    /// before any observation, else `i` must be one of [`MinMaxNorm::dims`].
    pub(crate) fn scale(&self, i: usize, v: f64) -> f64 {
        if self.mins.is_empty() {
            return v;
        }
        let range = self.maxs[i] - self.mins[i];
        if range <= 0.0 {
            0.5
        } else {
            ((v - self.mins[i]) / range).clamp(0.0, 1.0)
        }
    }

    /// Whether dimension `i` saw one value only, so that it scales to 0.5
    /// whatever the sample.
    pub(crate) fn is_flat(&self, i: usize) -> bool {
        self.maxs[i] - self.mins[i] <= 0.0
    }

    /// Observes and transforms in one step (the online training path).
    pub fn observe_transform(&mut self, x: &[f64]) -> Vec<f64> {
        self.observe(x);
        self.transform(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_ranges() {
        let mut n = MinMaxNorm::new();
        n.observe(&[0.0, 10.0]);
        n.observe(&[10.0, 20.0]);
        assert_eq!(n.transform(&[5.0, 15.0]), vec![0.5, 0.5]);
        assert_eq!(n.dims(), 2);
    }

    #[test]
    fn flat_dimension_maps_to_half() {
        let mut n = MinMaxNorm::new();
        n.observe(&[3.0]);
        n.observe(&[3.0]);
        assert_eq!(n.transform(&[3.0]), vec![0.5]);
    }

    #[test]
    fn clamps_out_of_range() {
        let mut n = MinMaxNorm::new();
        n.observe(&[0.0]);
        n.observe(&[1.0]);
        assert_eq!(n.transform(&[5.0]), vec![1.0]);
        assert_eq!(n.transform(&[-5.0]), vec![0.0]);
    }

    #[test]
    fn untrained_is_identity() {
        let n = MinMaxNorm::new();
        assert_eq!(n.transform(&[7.0]), vec![7.0]);
    }
}
