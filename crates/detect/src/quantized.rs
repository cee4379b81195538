//! Around the fixed-point scorer: the concretely-typed offline reference,
//! the measured float-vs-quantized divergence, and the report section.
//!
//! A [`QuantizedDetector`] rides the same in-shard stage as any other
//! scorer ([`superfe_core::StreamingPipeline::with_inference`]) and the
//! same offline reference ([`crate::score_offline`]). What is particular to
//! it is the SF09xx certificate:
//!
//! - [`max_score_delta`]: the measured float-vs-quantized score divergence,
//!   which the SF0901 certificate upper-bounds;
//! - [`QuantizedSection`]: the report section `superfe detect
//!   --in-pipeline` attaches to its output.

use superfe_ml::{FrozenDetector, QuantizedDetector};
use superfe_nic::FeatureVector;

use crate::offline::{score_offline, OfflineScores};

/// [`score_offline`] for a fixed-point model, concretely typed so a caller
/// holding an `Arc<QuantizedDetector>` can pass `&model`. `_label` is not
/// used (alerts carry no run label); the benchmark's pinned call passes
/// one.
pub fn score_offline_quantized(
    model: &QuantizedDetector,
    packet_vectors: &[FeatureVector],
    group_vectors: &[FeatureVector],
    _label: &str,
) -> OfflineScores {
    score_offline(model, packet_vectors, group_vectors)
}

/// The measured maximum |float − quantized| score divergence over a vector
/// set. The SF0901 certificate proves an upper bound on this figure over
/// the policy's whole feature hull; the measurement checks the bound on the
/// vectors actually served. Vectors either model rejects (dimension
/// mismatch) are skipped.
pub fn max_score_delta<'a>(
    float: &FrozenDetector,
    quant: &QuantizedDetector,
    vectors: impl IntoIterator<Item = &'a FeatureVector>,
) -> f64 {
    let mut max = 0.0f64;
    for v in vectors {
        let (Ok(f), Ok(q)) = (
            float.score(v.values.as_slice()),
            quant.score(v.values.as_slice()),
        ) else {
            continue;
        };
        max = max.max((f - q).abs());
    }
    max
}

/// The quantized-inference section of a detect report: what model ran
/// in-pipeline, what the SF09xx pass certified, and how far the fixed-point
/// scores actually strayed from float.
#[derive(Clone, Debug)]
pub struct QuantizedSection {
    /// Fixed-point format of the lowering (e.g. `"Q39.24"`).
    pub format: String,
    /// Whether SF0901 certification held (error bound within tolerance).
    pub certified: bool,
    /// The certified worst-case |float − quantized| score error bound over
    /// the policy's feature hull (infinite when unprovable).
    pub bound: f64,
    /// Culprit layer when the bound exceeded tolerance or was unprovable.
    pub culprit: Option<String>,
    /// Integer ALU ops the model executes per scored vector.
    pub alu_ops: u64,
    /// Grid-snapped alert threshold of the quantized model.
    pub threshold: f64,
    /// Vectors scored by the in-pipeline stage.
    pub scored: u64,
    /// Alerts the in-pipeline stage raised.
    pub alerts: u64,
    /// Vectors skipped on dimension mismatch.
    pub dim_errors: u64,
    /// Measured max |float − quantized| over the served vectors — must sit
    /// under `bound` whenever `certified` (and whenever the bound is
    /// finite).
    pub score_delta_max: f64,
}

impl QuantizedSection {
    /// Whether the measured divergence respects the certified bound (an
    /// infinite bound is trivially respected; the point of SF0902 is that
    /// nothing is *promised*).
    pub fn delta_within_bound(&self) -> bool {
        self.score_delta_max <= self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_ml::{quantize, train_and_calibrate, CalibrationConfig, DetectorKind, QuantConfig};
    use superfe_net::GroupKey;

    fn vector(host: u32, vals: &[f64]) -> FeatureVector {
        FeatureVector {
            key: GroupKey::Host(host),
            values: vals.to_vec(),
        }
    }

    fn models(dim: usize) -> (FrozenDetector, QuantizedDetector) {
        let data: Vec<Vec<f64>> = (0..64)
            .map(|i| (0..dim).map(|d| 3.0 + ((i + d) % 5) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let frozen = train_and_calibrate(
            DetectorKind::Centroid.build(dim, 0).unwrap(),
            &refs,
            0.2,
            CalibrationConfig::default(),
        )
        .unwrap();
        let quant = quantize(&frozen, &QuantConfig::default()).unwrap();
        (frozen, quant)
    }

    #[test]
    fn one_offline_body_scores_float_and_quantized_alike() {
        let (frozen, quant) = models(2);
        let pkts = vec![
            vector(1, &[3.0, 4.0]),
            vector(2, &[-9.0, -1.0]),
            vector(1, &[4.0, 3.0, 1.0]), // wrong dim: counted, no position
            vector(1, &[4.0, 3.0]),
        ];
        let q = score_offline_quantized(&quant, &pkts, &[], "q");
        let f = score_offline(&frozen, &pkts, &[]);
        for out in [&q, &f] {
            assert_eq!(out.dim_errors, 1);
            // Canonical order: host 1's two scores in arrival order, then
            // host 2, whose opposed direction is the only alert.
            let order: Vec<_> = out.scores.iter().map(|s| (s.key, s.seq)).collect();
            let (h1, h2) = (GroupKey::Host(1), GroupKey::Host(2));
            assert_eq!(order, vec![(h1, 0), (h1, 1), (h2, 0)]);
            assert_eq!(out.alerts.len(), 1);
            assert_eq!((out.alerts[0].key, out.alerts[0].seq), (h2, 0));
        }
        assert_eq!(q.alerts[0].threshold, quant.threshold());
        assert_eq!(f.alerts[0].threshold, frozen.threshold());
    }

    #[test]
    fn measured_delta_respects_certified_bound() {
        let (frozen, quant) = models(3);
        let vectors: Vec<FeatureVector> = (0..50)
            .map(|i| {
                vector(
                    i,
                    &[
                        1.0 + f64::from(i),
                        8.0 - f64::from(i % 7),
                        f64::from(i % 11),
                    ],
                )
            })
            .collect();
        let delta = max_score_delta(&frozen, &quant, &vectors);
        // A hull bounded away from zero in the first two coordinates keeps
        // the input-norm lower bound positive (provable for centroid).
        let bound = quant
            .error_bound(&[(1.0, 64.0), (1.0, 64.0), (0.0, 16.0)])
            .unwrap();
        assert!(bound.bound.is_finite());
        assert!(
            delta <= bound.bound,
            "measured {delta} exceeds certified {}",
            bound.bound
        );
        // Mismatched vectors are skipped, not fatal.
        let with_bad = vec![vector(0, &[1.0])];
        assert_eq!(max_score_delta(&frozen, &quant, &with_bad), 0.0);
    }
}
