//! The detector registry: [`DetectorKind`] names the four models, and
//! [`DetectorKind::build`] makes an unfitted [`Detector`] — a kind, a
//! feature dimension and a seed — fitted once on a benign slice and
//! calibrated on the held-out rest of it.
//!
//! The figure benches (`superfe-apps`) drive each model through its own ad
//! hoc API with hard-coded anomaly thresholds. Online serving
//! (`superfe-detect`) needs one surface for all four models instead:
//!
//! - **Feature dimension**: every detector declares it up front
//!   ([`DetectorKind::build`] refuses zero), and fitting and scoring return
//!   a typed [`MlError::DimMismatch`] on violation — no silent
//!   zero-padding, no `INFINITY` sentinels. [`train_and_calibrate`]
//!   refuses a NaN or an infinity with [`MlError::NonFinite`] before
//!   fitting.
//! - **Anomaly semantics**: all scores are nonnegative and higher-is-more-
//!   anomalous. KitNET scores with its native ensemble RMSE; k-NN becomes a
//!   novelty detector (mean distance to the `k` nearest benign training
//!   points); nearest-centroid scores `1 − cosine` to the benign centroid;
//!   CART is reduced from density estimation to classification against a
//!   seeded synthetic uniform background sample and scores with the leaf's
//!   background fraction.
//! - **Fitting**: [`Detector::fit`] is one `match` on the kind and returns
//!   a [`FittedModel`], one of four. [`train_and_calibrate`] fits the head
//!   of a benign slice and replaces the benches' hard-coded thresholds: the
//!   alert threshold is a quantile (times a safety margin) of the scores of
//!   the *held-out* tail, and the result is an immutable, shareable
//!   [`FrozenDetector`].

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::centroid::cosine;
use crate::kitnet::KitNet;
use crate::knn::euclidean2;
use crate::tree::DecisionTree;

/// Typed errors of building, fitting and scoring a detector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MlError {
    /// A feature vector's dimension did not match the model's contract.
    DimMismatch {
        /// The dimension the model was built for.
        expected: usize,
        /// The dimension of the offending vector.
        got: usize,
    },
    /// Not enough samples to fit or calibrate.
    TooFewSamples {
        /// Samples available.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// A training or calibration vector holds a NaN or an infinity.
    NonFinite {
        /// Position of the vector in the slice.
        index: usize,
    },
    /// A model was constructed with degenerate parameters.
    InvalidConfig(String),
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::DimMismatch { expected, got } => {
                write!(
                    f,
                    "feature dimension mismatch: expected {expected}, got {got}"
                )
            }
            MlError::TooFewSamples { got, need } => {
                write!(f, "too few samples: got {got}, need at least {need}")
            }
            MlError::NonFinite { index } => {
                write!(f, "vector {index} holds a non-finite value")
            }
            MlError::InvalidConfig(msg) => write!(f, "invalid detector configuration: {msg}"),
        }
    }
}

impl std::error::Error for MlError {}

/// A fitted model: what [`Detector::fit`] returns.
#[derive(Debug)]
pub enum FittedModel {
    /// Kitsune's autoencoder ensemble, in its executing phase.
    KitNet(Box<KitNet>),
    /// k-NN novelty: the neighbour count and the benign reference points.
    Knn {
        /// Neighbours averaged per score.
        k: usize,
        /// The retained benign training points.
        points: Vec<Vec<f64>>,
    },
    /// The benign centroid.
    Centroid(Vec<f64>),
    /// CART fitted against its uniform background sample.
    Cart(DecisionTree),
}

fn check_dim(expected: usize, x: &[f64]) -> Result<(), MlError> {
    if x.len() != expected {
        return Err(MlError::DimMismatch {
            expected,
            got: x.len(),
        });
    }
    Ok(())
}

/// Checks every training vector's dimension, then that there are `need`.
fn check_train(dim: usize, train: &[&[f64]], need: usize) -> Result<(), MlError> {
    for x in train {
        check_dim(dim, x)?;
    }
    if train.len() < need {
        return Err(MlError::TooFewSamples {
            got: train.len(),
            need,
        });
    }
    Ok(())
}

/// At most `cap` of `train`, by the deterministic stride `i·n/cap`, so a
/// model's cost stays bounded whatever the trace length.
fn stride<'a>(train: &[&'a [f64]], cap: usize) -> Vec<&'a [f64]> {
    let n = train.len();
    if n <= cap {
        return train.to_vec();
    }
    (0..cap).map(|i| train[i * n / cap]).collect()
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// KitNET: minimum training vectors for a meaningful ensemble.
const KITNET_MIN_TRAIN: usize = 50;
/// KitNET: Kitsune's default maximum cluster size.
const KITNET_M: usize = 10;
/// k-NN: neighbours averaged per score.
const KNN_K: usize = 3;
/// k-NN: reference points retained after striding.
const KNN_CAP: usize = 1024;
/// CART: benign samples retained for the fit.
const CART_CAP: usize = 512;
/// CART: minimum benign samples for a meaningful fit.
const CART_MIN_TRAIN: usize = 8;

/// The four built-in detector models, selectable by name (CLI `--detector`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorKind {
    /// Kitsune's autoencoder ensemble, scored by its native RMSE. Fitting
    /// sizes the feature-mapping grace period as one fifth of the sample
    /// (clamped) and trains on the rest, replaying the slice in order.
    KitNet,
    /// k-NN novelty: the mean Euclidean distance to the 3 nearest benign
    /// training points, strided down to 1,024 so scoring cost stays bounded
    /// whatever the trace length.
    Knn,
    /// CART via the classification-vs-background reduction: the tree
    /// separates the benign sample from an equal-sized synthetic sample
    /// drawn uniformly (seeded) over the slightly expanded benign bounding
    /// box, and scores the background fraction of the leaf `x` lands in —
    /// near 0 in dense benign regions, near 1 in empty space.
    Cart,
    /// Nearest centroid: `1 − cosine` to the benign centroid (0 for
    /// perfectly aligned traffic, up to 2 for opposed).
    Centroid,
}

impl DetectorKind {
    /// All kinds, in CLI listing order.
    pub fn all() -> [DetectorKind; 4] {
        [
            DetectorKind::KitNet,
            DetectorKind::Knn,
            DetectorKind::Cart,
            DetectorKind::Centroid,
        ]
    }

    /// The CLI name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::KitNet => "kitnet",
            DetectorKind::Knn => "knn",
            DetectorKind::Cart => "cart",
            DetectorKind::Centroid => "centroid",
        }
    }

    /// Parses a CLI name (case-insensitive).
    pub fn parse(s: &str) -> Option<DetectorKind> {
        match s.to_ascii_lowercase().as_str() {
            "kitnet" | "kitsune" => Some(DetectorKind::KitNet),
            "knn" => Some(DetectorKind::Knn),
            "cart" | "tree" => Some(DetectorKind::Cart),
            "centroid" => Some(DetectorKind::Centroid),
            _ => None,
        }
    }

    /// Builds an unfitted detector of this kind for `dim`-dimensional
    /// vectors. `seed` drives any model randomness (KitNET initialization,
    /// CART's background sample). A zero dimension is refused.
    pub fn build(self, dim: usize, seed: u64) -> Result<Detector, MlError> {
        if dim == 0 {
            return Err(MlError::InvalidConfig("feature dim must be > 0".into()));
        }
        Ok(Detector {
            kind: self,
            dim,
            seed,
        })
    }
}

/// An unfitted detector: a model kind, the feature dimension it was built
/// for and its seed. [`DetectorKind::build`] is the only way to get one.
#[derive(Clone, Copy, Debug)]
pub struct Detector {
    kind: DetectorKind,
    dim: usize,
    seed: u64,
}

impl Detector {
    /// Short model name: its kind's ([`DetectorKind::name`]).
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The feature dimension this detector was built for.
    pub fn feature_dim(&self) -> usize {
        self.dim
    }

    /// Fits the model on benign vectors, each of [`Detector::feature_dim`]
    /// entries.
    pub fn fit(self, train: &[&[f64]]) -> Result<FittedModel, MlError> {
        let Detector { kind, dim, seed } = self;
        match kind {
            DetectorKind::KitNet => {
                check_train(dim, train, KITNET_MIN_TRAIN)?;
                let n = train.len();
                let fm = (n / 5).clamp(10, 2000);
                let mut model = KitNet::new(dim, KITNET_M, fm, n - fm, seed)
                    .expect("KITNET_MIN_TRAIN leaves both grace periods positive");
                for x in train {
                    model.process(x);
                }
                debug_assert!(model.is_executing(), "both grace periods end at n");
                Ok(FittedModel::KitNet(Box::new(model)))
            }
            DetectorKind::Knn => {
                check_train(dim, train, KNN_K)?;
                let points = stride(train, KNN_CAP).into_iter().map(<[f64]>::to_vec);
                Ok(FittedModel::Knn {
                    k: KNN_K,
                    points: points.collect(),
                })
            }
            DetectorKind::Centroid => {
                check_train(dim, train, 1)?;
                let mut sum = vec![0.0; dim];
                for x in train {
                    for (s, v) in sum.iter_mut().zip(*x) {
                        *s += v;
                    }
                }
                let n = train.len() as f64;
                Ok(FittedModel::Centroid(sum.iter().map(|s| s / n).collect()))
            }
            DetectorKind::Cart => {
                check_train(dim, train, CART_MIN_TRAIN)?;
                let benign = stride(train, CART_CAP);
                // Per-dimension bounding box, expanded 10% (at least ±0.5 for
                // constant dimensions) so the background sample surrounds the
                // data.
                let mut lo = vec![f64::INFINITY; dim];
                let mut hi = vec![f64::NEG_INFINITY; dim];
                for x in &benign {
                    for d in 0..dim {
                        lo[d] = lo[d].min(x[d]);
                        hi[d] = hi[d].max(x[d]);
                    }
                }
                for d in 0..dim {
                    let pad = (0.1 * (hi[d] - lo[d])).max(0.5);
                    lo[d] -= pad;
                    hi[d] += pad;
                }
                let mut rng = StdRng::seed_from_u64(seed);
                let mut data: Vec<(Vec<f64>, usize)> =
                    benign.iter().map(|x| (x.to_vec(), 0)).collect();
                for _ in 0..benign.len() {
                    let x: Vec<f64> = (0..dim).map(|d| rng.random_range(lo[d]..hi[d])).collect();
                    data.push((x, 1));
                }
                let mut tree = DecisionTree::new(6, 4);
                if !tree.fit(&data) {
                    return Err(MlError::InvalidConfig("CART fit rejected the data".into()));
                }
                Ok(FittedModel::Cart(tree))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------------

/// How the alert threshold is derived from the held-out benign slice.
#[derive(Clone, Copy, Debug)]
pub struct CalibrationConfig {
    /// Score quantile of the calibration slice used as the base threshold
    /// (1.0 = maximum benign score). Clamped to `[0, 1]`.
    pub quantile: f64,
    /// Multiplicative safety margin applied to the quantile score.
    pub margin: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        // Max benign calibration score plus 10%: quiet on benign traffic by
        // construction, while volumetric anomalies score far above it.
        CalibrationConfig {
            quantile: 1.0,
            margin: 1.1,
        }
    }
}

/// An immutable, calibrated detector, cheaply cloneable across serving
/// threads.
#[derive(Clone, Debug)]
pub struct FrozenDetector {
    name: &'static str,
    dim: usize,
    model: Arc<FittedModel>,
    threshold: f64,
}

impl FrozenDetector {
    /// The calibrated alert threshold (alert on `score > threshold`).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Model name of the frozen detector.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Feature dimension of the frozen detector.
    pub fn feature_dim(&self) -> usize {
        self.dim
    }

    /// The fitted model, for structural passes such as the quantizer.
    pub(crate) fn model(&self) -> &FittedModel {
        &self.model
    }

    /// Scores a vector (pure).
    pub fn score(&self, x: &[f64]) -> Result<f64, MlError> {
        check_dim(self.dim, x)?;
        Ok(match self.model() {
            FittedModel::KitNet(model) => model.score(x),
            FittedModel::Knn { k, points } => {
                let mut dists: Vec<f64> = points.iter().map(|p| euclidean2(p, x).sqrt()).collect();
                dists.sort_unstable_by(f64::total_cmp);
                let k = (*k).min(dists.len());
                dists[..k].iter().sum::<f64>() / k as f64
            }
            FittedModel::Centroid(centroid) => 1.0 - cosine(x, centroid),
            FittedModel::Cart(tree) => tree.predict_score(x).expect("a fitted tree has a root"),
        })
    }

    /// Whether a score crosses the calibrated threshold.
    pub fn is_alert(&self, score: f64) -> bool {
        score > self.threshold
    }
}

/// What a scoring stage needs of a calibrated model — the surface
/// [`FrozenDetector`] (float) and
/// [`QuantizedDetector`](crate::QuantizedDetector) (fixed point) share, so
/// the NIC's in-shard stage and the offline reference score either through
/// one body.
pub trait Scorer {
    /// Model name of the underlying detector.
    fn name(&self) -> &'static str;

    /// Expected feature dimension.
    fn feature_dim(&self) -> usize;

    /// Scores a vector (pure); a wrong-length vector is an error.
    fn score(&self, x: &[f64]) -> Result<f64, MlError>;

    /// Scores a batch of vectors, appending to `scores` what
    /// [`Scorer::score`] gives each, in order. A scorer that runs several
    /// vectors per pass overrides it.
    fn score_batch(
        &self,
        xs: &mut dyn Iterator<Item = &[f64]>,
        scores: &mut Vec<Result<f64, MlError>>,
    ) {
        scores.extend(xs.map(|x| self.score(x)));
    }

    /// The alert threshold in force.
    fn threshold(&self) -> f64;

    /// Whether a score alerts: strictly above the threshold.
    fn is_alert(&self, score: f64) -> bool {
        score > self.threshold()
    }
}

/// A scorer shared read-only by every shard of a serving stage.
pub type SharedScorer = Arc<dyn Scorer + Send + Sync>;

impl Scorer for FrozenDetector {
    fn name(&self) -> &'static str {
        self.name()
    }

    fn feature_dim(&self) -> usize {
        self.feature_dim()
    }

    fn score(&self, x: &[f64]) -> Result<f64, MlError> {
        self.score(x)
    }

    fn threshold(&self) -> f64 {
        self.threshold()
    }
}

/// Fits `det` on a benign vector slice and calibrates its threshold on the
/// trailing `cal_frac` fraction (at least one vector each side). A NaN or an
/// infinity anywhere in the slice is refused before fitting.
pub fn train_and_calibrate(
    det: Detector,
    data: &[&[f64]],
    cal_frac: f64,
    cfg: CalibrationConfig,
) -> Result<FrozenDetector, MlError> {
    if data.len() < 2 {
        return Err(MlError::TooFewSamples {
            got: data.len(),
            need: 2,
        });
    }
    if let Some(index) = data.iter().position(|x| !x.iter().all(|v| v.is_finite())) {
        return Err(MlError::NonFinite { index });
    }
    let cal =
        ((data.len() as f64 * cal_frac.clamp(0.0, 1.0)).round() as usize).clamp(1, data.len() - 1);
    let split = data.len() - cal;
    let mut frozen = FrozenDetector {
        name: det.name(),
        dim: det.feature_dim(),
        model: Arc::new(det.fit(&data[..split])?),
        threshold: 0.0,
    };
    let mut scores = data[split..]
        .iter()
        .map(|x| frozen.score(x))
        .collect::<Result<Vec<f64>, MlError>>()?;
    scores.sort_by(f64::total_cmp);
    let q = cfg.quantile.clamp(0.0, 1.0);
    let idx = ((scores.len() - 1) as f64 * q).ceil() as usize;
    frozen.threshold = scores[idx] * cfg.margin;
    Ok(frozen)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Benign cluster near the origin, in `dim` dimensions. A small
    /// deterministic drift keeps the points non-periodic so held-out
    /// calibration slices never coincide exactly with training points.
    fn benign(dim: usize, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| 1.0 + 0.01 * ((i * 7 + d * 3) % 13) as f64 + 0.0005 * i as f64)
                    .collect()
            })
            .collect()
    }

    /// One detector of each kind, seeded 7, in the order
    /// `fitted_scores_are_pinned` lists them.
    fn all_detectors(dim: usize) -> Vec<Detector> {
        use DetectorKind::{Cart, Centroid, KitNet, Knn};
        [KitNet, Knn, Centroid, Cart]
            .map(|kind| kind.build(dim, 7).unwrap())
            .to_vec()
    }

    fn refs(data: &[Vec<f64>]) -> Vec<&[f64]> {
        data.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn every_model_rejects_dim_mismatch_on_fit_and_score() {
        let data = benign(4, 100);
        for det in all_detectors(4) {
            let name = det.name();
            assert_eq!(
                det.fit(&[&[1.0, 2.0]]).unwrap_err(),
                MlError::DimMismatch {
                    expected: 4,
                    got: 2
                },
                "{name} fit"
            );
            let frozen =
                train_and_calibrate(det, &refs(&data), 0.2, CalibrationConfig::default()).unwrap();
            assert_eq!(
                frozen.score(&[0.0; 7]).unwrap_err(),
                MlError::DimMismatch {
                    expected: 4,
                    got: 7
                },
                "{name} score"
            );
        }
    }

    #[test]
    fn every_model_scores_anomaly_above_benign() {
        let data = benign(3, 150);
        for det in all_detectors(3) {
            let name = det.name();
            let frozen =
                train_and_calibrate(det, &refs(&data), 0.2, CalibrationConfig::default()).unwrap();
            let normal = frozen.score(&[1.0, 1.05, 1.1]).unwrap();
            let weird = frozen.score(&[80.0, -40.0, 900.0]).unwrap();
            assert!(
                weird > normal,
                "{name}: anomaly {weird} not above benign {normal}"
            );
        }
    }

    #[test]
    fn too_few_samples_is_typed_error() {
        let one: [&[f64]; 1] = [&[1.0, 1.0]];
        let det = DetectorKind::KitNet.build(2, 1).unwrap();
        assert!(matches!(
            det.fit(&one),
            Err(MlError::TooFewSamples { got: 1, .. })
        ));
        let det = DetectorKind::Knn.build(2, 1).unwrap();
        assert!(matches!(
            det.fit(&one),
            Err(MlError::TooFewSamples { got: 1, need: 3 })
        ));
    }

    #[test]
    fn a_nan_in_the_calibration_slice_is_refused() {
        let mut data = benign(3, 100);
        data[95][1] = f64::NAN;
        for kind in [DetectorKind::Centroid, DetectorKind::KitNet] {
            let det = kind.build(3, 7).unwrap();
            assert_eq!(
                train_and_calibrate(det, &refs(&data), 0.2, CalibrationConfig::default())
                    .unwrap_err(),
                MlError::NonFinite { index: 95 }
            );
        }
    }

    #[test]
    fn a_nan_in_a_training_vector_is_refused() {
        let mut data = benign(3, 100);
        data[10][0] = f64::NAN;
        for kind in [DetectorKind::Knn, DetectorKind::Cart] {
            let det = kind.build(3, 7).unwrap();
            assert_eq!(
                train_and_calibrate(det, &refs(&data), 0.2, CalibrationConfig::default())
                    .unwrap_err(),
                MlError::NonFinite { index: 10 }
            );
        }
    }

    #[test]
    fn knn_scores_a_vector_holding_nan_without_panicking() {
        let data = benign(3, 100);
        let det = DetectorKind::Knn.build(3, 1).unwrap();
        let frozen =
            train_and_calibrate(det, &refs(&data), 0.2, CalibrationConfig::default()).unwrap();
        let s = frozen.score(&[f64::NAN, 1.0, 1.0]).unwrap();
        assert!(s.is_nan() && !frozen.is_alert(s));
    }

    #[test]
    fn calibrated_threshold_tracks_benign_quantile() {
        let data = benign(3, 200);
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let det = DetectorKind::Knn.build(3, 1).unwrap();
        let frozen = train_and_calibrate(
            det,
            &refs,
            0.25,
            CalibrationConfig {
                quantile: 1.0,
                margin: 1.1,
            },
        )
        .unwrap();
        // Benign-like traffic (an interior training point) stays under the
        // threshold…
        let s = frozen.score(&data[10]).unwrap();
        assert!(
            !frozen.is_alert(s),
            "benign scored {s} > {}",
            frozen.threshold()
        );
        // …while a gross anomaly crosses it.
        let s = frozen.score(&[500.0, 500.0, 500.0]).unwrap();
        assert!(frozen.is_alert(s));
    }

    /// Each model's calibrated threshold and its scores of a fixed probe
    /// set, folded bit for bit (FNV-1a over `f64::to_bits`).
    #[test]
    fn fitted_scores_are_pinned() {
        let data = benign(3, 300);
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let probes: Vec<[f64; 3]> = (0..64_u32)
            .map(|i| {
                [
                    0.6 + 0.05 * f64::from(i % 16),
                    0.8 + 0.1 * f64::from((i * 3) % 7),
                    1.0 + 0.02 * f64::from((i * 5) % 11),
                ]
            })
            .collect();
        let mut got = Vec::new();
        for det in all_detectors(3) {
            let name = det.name();
            let frozen =
                train_and_calibrate(det, &refs, 0.25, CalibrationConfig::default()).unwrap();
            let scores = probes.iter().map(|x| frozen.score(x).unwrap());
            let mut h = 0xcbf2_9ce4_8422_2325_u64;
            for s in std::iter::once(frozen.threshold()).chain(scores) {
                h = (h ^ s.to_bits()).wrapping_mul(0x0100_0000_01b3);
            }
            got.push((name, h));
        }
        assert_eq!(
            got,
            [
                ("kitnet", 4639648865194335780),
                ("knn", 16617780547448081433),
                ("centroid", 2209285522307498131),
                ("cart", 11864817164759768973),
            ]
        );
    }

    #[test]
    fn frozen_detector_is_shareable_and_pure() {
        let data = benign(2, 100);
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let frozen = train_and_calibrate(
            DetectorKind::Centroid.build(2, 1).unwrap(),
            &refs,
            0.2,
            CalibrationConfig::default(),
        )
        .unwrap();
        let a = frozen.clone();
        let h = std::thread::spawn(move || a.score(&[3.0, 4.0]).unwrap());
        let s1 = h.join().unwrap();
        let s2 = frozen.score(&[3.0, 4.0]).unwrap();
        assert_eq!(s1.to_bits(), s2.to_bits(), "score must be pure");
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in DetectorKind::all() {
            assert_eq!(DetectorKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(DetectorKind::parse("nope"), None);
    }

    #[test]
    fn kinds_build_detectors() {
        for kind in DetectorKind::all() {
            for dim in [1, 4, 115] {
                let det = kind.build(dim, 1).unwrap();
                assert_eq!(det.feature_dim(), dim, "{kind:?}");
                assert_eq!(det.name(), kind.name());
            }
            assert!(
                matches!(kind.build(0, 1), Err(MlError::InvalidConfig(_))),
                "{kind:?} accepted dim 0"
            );
        }
    }
}
