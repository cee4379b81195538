//! Classification and detection metrics.

/// Binary confusion counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Predicted positive, actually positive.
    pub tp: usize,
    /// Predicted positive, actually negative.
    pub fp: usize,
    /// Predicted negative, actually negative.
    pub tn: usize,
    /// Predicted negative, actually positive.
    pub fn_: usize,
}

impl Confusion {
    /// Tallies predictions against ground truth.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (bool, bool)>) -> Self {
        let mut c = Confusion::default();
        for (pred, truth) in pairs {
            match (pred, truth) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fn_ += 1,
            }
        }
        c
    }

    /// `(tp + tn) / total` (0 for empty input).
    pub fn accuracy(&self) -> f64 {
        let total = self.tp + self.fp + self.tn + self.fn_;
        if total == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / total as f64
        }
    }

    /// Precision `tp / (tp + fp)` (0 when undefined).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall `tp / (tp + fn)` (0 when undefined).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1: harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Multi-class accuracy over `(predicted, truth)` label pairs.
pub fn accuracy(pairs: impl IntoIterator<Item = (usize, usize)>) -> f64 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for (p, t) in pairs {
        total += 1;
        if p == t {
            correct += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// Binary precision and recall from `(predicted, truth)` pairs.
pub fn precision_recall(pairs: impl IntoIterator<Item = (bool, bool)>) -> (f64, f64) {
    let c = Confusion::from_pairs(pairs);
    (c.precision(), c.recall())
}

/// Binary F1 from `(predicted, truth)` pairs.
pub fn f1_score(pairs: impl IntoIterator<Item = (bool, bool)>) -> f64 {
    Confusion::from_pairs(pairs).f1()
}

/// Area under the ROC curve from `(score, is_positive)` pairs, computed via
/// the rank statistic (ties get mid-ranks, a NaN ranks by
/// [`f64::total_cmp`]). Returns 0.5 when one class is absent.
pub fn auc(scored: &[(f64, bool)]) -> f64 {
    let pos = scored.iter().filter(|&&(_, p)| p).count();
    let neg = scored.len() - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    let mut sorted: Vec<(f64, bool)> = scored.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Mid-rank assignment.
    let mut rank_sum_pos = 0.0;
    let mut i = 0usize;
    while i < sorted.len() {
        let mut j = i;
        while j + 1 < sorted.len() && sorted[j + 1].0 == sorted[i].0 {
            j += 1;
        }
        let mid_rank = (i + j) as f64 / 2.0 + 1.0;
        for item in &sorted[i..=j] {
            if item.1 {
                rank_sum_pos += mid_rank;
            }
        }
        i = j + 1;
    }
    (rank_sum_pos - pos as f64 * (pos as f64 + 1.0) / 2.0) / (pos as f64 * neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let c = Confusion::from_pairs(vec![
            (true, true),
            (true, false),
            (false, false),
            (false, true),
            (true, true),
        ]);
        assert_eq!(c.tp, 2);
        assert_eq!(c.fp, 1);
        assert_eq!(c.tn, 1);
        assert_eq!(c.fn_, 1);
        assert!((c.accuracy() - 0.6).abs() < 1e-12);
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_metrics_are_zero() {
        let c = Confusion::default();
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn multiclass_accuracy() {
        assert_eq!(accuracy(vec![(1, 1), (2, 2), (3, 1)]), 2.0 / 3.0);
        assert_eq!(accuracy(Vec::<(usize, usize)>::new()), 0.0);
    }

    #[test]
    fn auc_perfect_separation() {
        let scored = vec![(0.1, false), (0.2, false), (0.8, true), (0.9, true)];
        assert!((auc(&scored) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_random_is_half() {
        let scored = vec![(0.5, false), (0.5, true), (0.5, false), (0.5, true)];
        assert!((auc(&scored) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_inverted_is_zero() {
        let scored = vec![(0.9, false), (0.8, false), (0.2, true), (0.1, true)];
        assert!(auc(&scored).abs() < 1e-12);
    }

    #[test]
    fn auc_ranks_a_nan_score_without_panicking() {
        // `total_cmp` ranks a positive NaN above every number.
        assert_eq!(auc(&[(0.1, false), (f64::NAN, true), (0.5, true)]), 1.0);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(auc(&[(0.3, true), (0.7, true)]), 0.5);
        assert_eq!(auc(&[]), 0.5);
    }

    #[test]
    fn helper_wrappers() {
        let pairs = vec![(true, true), (false, true)];
        let (p, r) = precision_recall(pairs.clone());
        assert_eq!(p, 1.0);
        assert_eq!(r, 0.5);
        assert!(f1_score(pairs) > 0.6);
    }
}
