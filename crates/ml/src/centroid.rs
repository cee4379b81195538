//! Nearest-centroid classification — the stand-in for TF's triplet network.
//!
//! Triplet fingerprinting learns an embedding and classifies by proximity to
//! per-class anchors from a few shots. The geometric core of that decision
//! rule — nearest class centroid in feature space — is what this detector
//! implements, over cosine distance like the original.

use std::collections::HashMap;

/// A nearest-centroid classifier with cosine similarity.
#[derive(Clone, Debug, Default)]
pub struct NearestCentroid {
    sums: HashMap<usize, (Vec<f64>, usize)>,
}

impl NearestCentroid {
    /// Creates an empty classifier.
    pub fn new() -> Self {
        NearestCentroid::default()
    }

    /// Adds a labelled example (N-shot enrollment).
    pub fn fit_one(&mut self, x: &[f64], label: usize) {
        let entry = self
            .sums
            .entry(label)
            .or_insert_with(|| (vec![0.0; x.len()], 0));
        if entry.0.len() < x.len() {
            entry.0.resize(x.len(), 0.0);
        }
        for (i, &v) in x.iter().enumerate() {
            entry.0[i] += v;
        }
        entry.1 += 1;
    }

    /// Number of enrolled classes.
    pub fn classes(&self) -> usize {
        self.sums.len()
    }

    /// Predicts the label of `x` (highest cosine similarity to a centroid).
    ///
    /// Returns `None` when no class is enrolled.
    pub fn predict(&self, x: &[f64]) -> Option<usize> {
        self.sums
            .iter()
            .map(|(&label, (sum, n))| {
                let centroid: Vec<f64> = sum.iter().map(|s| s / *n as f64).collect();
                (label, cosine(x, &centroid))
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite similarity"))
            .map(|(l, _)| l)
    }
}

/// Cosine similarity, tolerant of length mismatch (zero-padded).
pub(crate) fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().max(b.len());
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0.0);
        let y = b.get(i).copied().unwrap_or(0.0);
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na <= 0.0 || nb <= 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_predicts_none() {
        assert_eq!(NearestCentroid::new().predict(&[1.0]), None);
    }

    #[test]
    fn classifies_direction_patterns() {
        let mut c = NearestCentroid::new();
        // Class 0: down-heavy; class 1: up-heavy.
        for _ in 0..5 {
            c.fit_one(&[1.0, 1.0, 1.0, -1.0], 0);
            c.fit_one(&[-1.0, -1.0, -1.0, 1.0], 1);
        }
        assert_eq!(c.classes(), 2);
        assert_eq!(c.predict(&[1.0, 1.0, -1.0, -1.0]), Some(0));
        assert_eq!(c.predict(&[-1.0, -1.0, -1.0, -1.0]), Some(1));
    }

    #[test]
    fn cosine_is_scale_invariant() {
        let mut c = NearestCentroid::new();
        c.fit_one(&[1.0, 0.0], 0);
        c.fit_one(&[0.0, 1.0], 1);
        assert_eq!(c.predict(&[100.0, 1.0]), Some(0));
        assert_eq!(c.predict(&[0.1, 10.0]), Some(1));
    }

    #[test]
    fn handles_mixed_lengths() {
        let mut c = NearestCentroid::new();
        c.fit_one(&[1.0, 1.0], 0);
        c.fit_one(&[1.0, 1.0, -5.0], 0);
        assert!(c.predict(&[1.0]).is_some());
    }

    #[test]
    fn zero_vector_similarity_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }
}
