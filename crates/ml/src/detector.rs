//! The unified online-detection contract: the [`Detector`] trait, the
//! `Training → Calibrating → Serving` lifecycle, and held-out-slice
//! threshold calibration.
//!
//! The figure benches (`superfe-apps`) drive each model through its own ad
//! hoc API with hard-coded anomaly thresholds. Online serving
//! (`superfe-detect`) needs one contract for all four models instead:
//!
//! - **train / score / feature-dim**: every model declares its expected
//!   feature dimension up front and returns a typed
//!   [`MlError::DimMismatch`] on violation — no silent zero-padding, no
//!   `INFINITY` sentinels.
//! - **Anomaly semantics**: all scores are nonnegative and higher-is-more-
//!   anomalous. KitNET scores with its native ensemble RMSE; k-NN becomes a
//!   novelty detector (mean distance to the `k` nearest benign training
//!   points); nearest-centroid scores `1 − cosine` to the benign centroid;
//!   CART is reduced from density estimation to classification against a
//!   seeded synthetic uniform background sample and scores with the leaf's
//!   background fraction.
//! - **Lifecycle**: [`Lifecycle`] enforces `Training → Calibrating →
//!   Serving`. Calibration replaces the benches' hard-coded thresholds: the
//!   alert threshold is a quantile (times a safety margin) of the scores of
//!   a *held-out benign slice*, and [`Lifecycle::begin_serving`] freezes the
//!   model into an immutable, shareable [`FrozenDetector`].

use std::any::Any;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::kitnet::KitNet;
use crate::knn::euclidean2;
use crate::tree::DecisionTree;
use crate::NearestCentroid;

/// Typed errors of the [`Detector`] contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MlError {
    /// A feature vector's dimension did not match the model's contract.
    DimMismatch {
        /// The dimension the model was built for.
        expected: usize,
        /// The dimension of the offending vector.
        got: usize,
    },
    /// A lifecycle method was called in the wrong stage.
    WrongStage {
        /// The stage the call is valid in.
        expected: Stage,
        /// The stage the lifecycle is actually in.
        got: Stage,
    },
    /// Not enough samples to finish the requested phase.
    TooFewSamples {
        /// Samples available.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// A model was constructed with degenerate parameters.
    InvalidConfig(String),
    /// `score` was called on a model that never finished training.
    Untrained,
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
            MlError::WrongStage { expected, got } => {
                write!(
                    f,
                    "lifecycle stage error: operation requires {expected}, but detector is {got}"
                )
            }
            MlError::TooFewSamples { got, need } => {
                write!(f, "too few samples: got {got}, need at least {need}")
            }
            MlError::InvalidConfig(msg) => write!(f, "invalid detector configuration: {msg}"),
            MlError::Untrained => write!(f, "detector has not finished training"),
        }
    }
}

impl std::error::Error for MlError {}

/// Lifecycle stages of an online detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Absorbing benign training vectors.
    Training,
    /// Model frozen; scoring a held-out benign slice to derive the alert
    /// threshold.
    Calibrating,
    /// Threshold fixed; scoring live traffic.
    Serving,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stage::Training => "Training",
            Stage::Calibrating => "Calibrating",
            Stage::Serving => "Serving",
        };
        f.write_str(s)
    }
}

/// The unified anomaly-detector contract.
///
/// Scores are nonnegative and higher-is-more-anomalous; every method
/// enforces the declared [`Detector::feature_dim`] with a typed
/// [`MlError::DimMismatch`].
pub trait Detector: Send + Sync {
    /// Short model name (`"kitnet"`, `"knn"`, `"cart"`, `"centroid"`).
    fn name(&self) -> &'static str;

    /// The feature dimension this detector was built for.
    fn feature_dim(&self) -> usize;

    /// Absorbs one benign training vector.
    fn train(&mut self, x: &[f64]) -> Result<(), MlError>;

    /// Finishes training (fits/freezes the model). After this, only
    /// [`Detector::score`] is valid.
    fn end_training(&mut self) -> Result<(), MlError>;

    /// Scores a vector without mutating the model (pure; safe to share
    /// across serving threads once training ended).
    fn score(&self, x: &[f64]) -> Result<f64, MlError>;

    /// The concrete model behind the trait object, for compilation passes
    /// (e.g. the fixed-point quantizer) that need structural access.
    fn as_any(&self) -> &dyn Any;
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

// ---------------------------------------------------------------------------
// KitNET
// ---------------------------------------------------------------------------

/// [`KitNet`] behind the [`Detector`] contract.
///
/// Training vectors are buffered; `end_training` sizes the feature-mapping
/// grace period as one fifth of the sample (clamped), replays the buffer,
/// and requires the ensemble to reach its executing phase.
pub struct KitNetDetector {
    dim: usize,
    m: usize,
    seed: u64,
    buf: Vec<Vec<f64>>,
    model: Option<KitNet>,
}

impl KitNetDetector {
    /// Minimum training vectors for a meaningful ensemble.
    pub const MIN_TRAIN: usize = 50;

    /// Creates a detector for `dim`-dimensional vectors with Kitsune's
    /// default maximum cluster size.
    pub fn new(dim: usize, seed: u64) -> Result<Self, MlError> {
        if dim == 0 {
            return Err(MlError::InvalidConfig("feature dim must be > 0".into()));
        }
        Ok(KitNetDetector {
            dim,
            m: 10,
            seed,
            buf: Vec::new(),
            model: None,
        })
    }
}

impl Detector for KitNetDetector {
    fn name(&self) -> &'static str {
        "kitnet"
    }

    fn feature_dim(&self) -> usize {
        self.dim
    }

    fn train(&mut self, x: &[f64]) -> Result<(), MlError> {
        check_dim(self.dim, x)?;
        if self.model.is_some() {
            return Err(MlError::WrongStage {
                expected: Stage::Training,
                got: Stage::Serving,
            });
        }
        self.buf.push(x.to_vec());
        Ok(())
    }

    fn end_training(&mut self) -> Result<(), MlError> {
        let n = self.buf.len();
        if n < Self::MIN_TRAIN {
            return Err(MlError::TooFewSamples {
                got: n,
                need: Self::MIN_TRAIN,
            });
        }
        let fm = (n / 5).clamp(10, 2000);
        let tr = n - fm;
        let mut model = KitNet::new(self.dim, self.m, fm, tr, self.seed)
            .ok_or_else(|| MlError::InvalidConfig("degenerate KitNET grace periods".into()))?;
        for x in self.buf.drain(..) {
            model.process(&x);
        }
        if !model.is_executing() {
            return Err(MlError::Untrained);
        }
        self.model = Some(model);
        Ok(())
    }

    fn score(&self, x: &[f64]) -> Result<f64, MlError> {
        check_dim(self.dim, x)?;
        let model = self.model.as_ref().ok_or(MlError::Untrained)?;
        Ok(model.score(x))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl KitNetDetector {
    /// The trained ensemble (`None` before `end_training`).
    pub(crate) fn model(&self) -> Option<&KitNet> {
        self.model.as_ref()
    }
}

// ---------------------------------------------------------------------------
// k-NN novelty
// ---------------------------------------------------------------------------

/// k-NN as a novelty detector: the score of `x` is the mean Euclidean
/// distance to its `k` nearest benign training points.
///
/// Training points are subsampled to a fixed cap by deterministic striding
/// so scoring cost stays bounded regardless of trace length.
pub struct KnnNovelty {
    dim: usize,
    k: usize,
    points: Vec<Vec<f64>>,
    frozen: bool,
}

impl KnnNovelty {
    /// Retained reference points after subsampling.
    pub const CAP: usize = 1024;

    /// Creates a novelty detector with `k` neighbours (k ≥ 1).
    pub fn new(dim: usize, k: usize) -> Result<Self, MlError> {
        if dim == 0 || k == 0 {
            return Err(MlError::InvalidConfig("dim and k must be > 0".into()));
        }
        Ok(KnnNovelty {
            dim,
            k,
            points: Vec::new(),
            frozen: false,
        })
    }
}

impl Detector for KnnNovelty {
    fn name(&self) -> &'static str {
        "knn"
    }

    fn feature_dim(&self) -> usize {
        self.dim
    }

    fn train(&mut self, x: &[f64]) -> Result<(), MlError> {
        check_dim(self.dim, x)?;
        if self.frozen {
            return Err(MlError::WrongStage {
                expected: Stage::Training,
                got: Stage::Serving,
            });
        }
        self.points.push(x.to_vec());
        Ok(())
    }

    fn end_training(&mut self) -> Result<(), MlError> {
        if self.points.len() < self.k {
            return Err(MlError::TooFewSamples {
                got: self.points.len(),
                need: self.k,
            });
        }
        if self.points.len() > Self::CAP {
            let n = self.points.len();
            let kept: Vec<Vec<f64>> = (0..Self::CAP)
                .map(|i| self.points[i * n / Self::CAP].clone())
                .collect();
            self.points = kept;
        }
        self.frozen = true;
        Ok(())
    }

    fn score(&self, x: &[f64]) -> Result<f64, MlError> {
        check_dim(self.dim, x)?;
        if !self.frozen {
            return Err(MlError::Untrained);
        }
        let mut dists: Vec<f64> = self
            .points
            .iter()
            .map(|p| euclidean2(p, x).sqrt())
            .collect();
        dists.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        let k = self.k.min(dists.len());
        Ok(dists[..k].iter().sum::<f64>() / k as f64)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// Nearest centroid
// ---------------------------------------------------------------------------

/// Nearest-centroid as an anomaly detector: score is `1 − cosine` to the
/// benign centroid (0 for perfectly aligned traffic, up to 2 for opposed).
pub struct CentroidDetector {
    dim: usize,
    model: NearestCentroid,
    n: usize,
    frozen: bool,
}

impl CentroidDetector {
    /// Creates a detector for `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Result<Self, MlError> {
        if dim == 0 {
            return Err(MlError::InvalidConfig("feature dim must be > 0".into()));
        }
        Ok(CentroidDetector {
            dim,
            model: NearestCentroid::new(),
            n: 0,
            frozen: false,
        })
    }
}

impl Detector for CentroidDetector {
    fn name(&self) -> &'static str {
        "centroid"
    }

    fn feature_dim(&self) -> usize {
        self.dim
    }

    fn train(&mut self, x: &[f64]) -> Result<(), MlError> {
        check_dim(self.dim, x)?;
        if self.frozen {
            return Err(MlError::WrongStage {
                expected: Stage::Training,
                got: Stage::Serving,
            });
        }
        self.model.fit_one(x, 0);
        self.n += 1;
        Ok(())
    }

    fn end_training(&mut self) -> Result<(), MlError> {
        if self.n == 0 {
            return Err(MlError::TooFewSamples { got: 0, need: 1 });
        }
        self.frozen = true;
        Ok(())
    }

    fn score(&self, x: &[f64]) -> Result<f64, MlError> {
        check_dim(self.dim, x)?;
        if !self.frozen {
            return Err(MlError::Untrained);
        }
        let sim = self.model.similarity(x, 0).ok_or(MlError::Untrained)?;
        Ok(1.0 - sim)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl CentroidDetector {
    /// The underlying classifier.
    pub(crate) fn model(&self) -> &NearestCentroid {
        &self.model
    }

    /// Whether enrollment has been frozen.
    pub(crate) fn is_frozen(&self) -> bool {
        self.frozen
    }
}

// ---------------------------------------------------------------------------
// CART vs. uniform background
// ---------------------------------------------------------------------------

/// CART as an anomaly detector, via the classification-vs-background
/// reduction: the tree is trained to separate the benign sample from an
/// equal-sized *synthetic* sample drawn uniformly over the (slightly
/// expanded) benign bounding box, and the anomaly score of `x` is the
/// background fraction of the leaf it lands in — near 0 in dense benign
/// regions, near 1 in empty space.
pub struct CartDetector {
    dim: usize,
    seed: u64,
    buf: Vec<Vec<f64>>,
    tree: Option<DecisionTree>,
}

impl CartDetector {
    /// Benign samples retained for the fit (deterministic striding).
    pub const CAP: usize = 512;
    /// Minimum benign samples for a meaningful fit.
    pub const MIN_TRAIN: usize = 8;

    /// Creates a detector for `dim`-dimensional vectors; `seed` drives the
    /// synthetic background sample.
    pub fn new(dim: usize, seed: u64) -> Result<Self, MlError> {
        if dim == 0 {
            return Err(MlError::InvalidConfig("feature dim must be > 0".into()));
        }
        Ok(CartDetector {
            dim,
            seed,
            buf: Vec::new(),
            tree: None,
        })
    }
}

impl Detector for CartDetector {
    fn name(&self) -> &'static str {
        "cart"
    }

    fn feature_dim(&self) -> usize {
        self.dim
    }

    fn train(&mut self, x: &[f64]) -> Result<(), MlError> {
        check_dim(self.dim, x)?;
        if self.tree.is_some() {
            return Err(MlError::WrongStage {
                expected: Stage::Training,
                got: Stage::Serving,
            });
        }
        self.buf.push(x.to_vec());
        Ok(())
    }

    fn end_training(&mut self) -> Result<(), MlError> {
        let n = self.buf.len();
        if n < Self::MIN_TRAIN {
            return Err(MlError::TooFewSamples {
                got: n,
                need: Self::MIN_TRAIN,
            });
        }
        let benign: Vec<Vec<f64>> = if n > Self::CAP {
            (0..Self::CAP)
                .map(|i| self.buf[i * n / Self::CAP].clone())
                .collect()
        } else {
            std::mem::take(&mut self.buf)
        };
        // Per-dimension bounding box, expanded 10% (at least ±0.5 for
        // constant dimensions) so the background sample surrounds the data.
        let mut lo = vec![f64::INFINITY; self.dim];
        let mut hi = vec![f64::NEG_INFINITY; self.dim];
        for x in &benign {
            for d in 0..self.dim {
                lo[d] = lo[d].min(x[d]);
                hi[d] = hi[d].max(x[d]);
            }
        }
        for d in 0..self.dim {
            let pad = (0.1 * (hi[d] - lo[d])).max(0.5);
            lo[d] -= pad;
            hi[d] += pad;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut data: Vec<(Vec<f64>, usize)> = benign.iter().map(|x| (x.clone(), 0)).collect();
        for _ in 0..benign.len() {
            let x: Vec<f64> = (0..self.dim)
                .map(|d| rng.random_range(lo[d]..hi[d]))
                .collect();
            data.push((x, 1));
        }
        let mut tree = DecisionTree::new(6, 4);
        if !tree.fit(&data) {
            return Err(MlError::InvalidConfig("CART fit rejected the data".into()));
        }
        self.buf.clear();
        self.tree = Some(tree);
        Ok(())
    }

    fn score(&self, x: &[f64]) -> Result<f64, MlError> {
        check_dim(self.dim, x)?;
        let tree = self.tree.as_ref().ok_or(MlError::Untrained)?;
        tree.predict_score(x).ok_or(MlError::Untrained)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl CartDetector {
    /// The fitted tree (`None` before `end_training`).
    pub(crate) fn tree(&self) -> Option<&DecisionTree> {
        self.tree.as_ref()
    }
}

// ---------------------------------------------------------------------------
// Calibration & lifecycle
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

/// The staged `Training → Calibrating → Serving` state machine around a
/// [`Detector`].
pub struct Lifecycle {
    det: Box<dyn Detector>,
    stage: Stage,
    cfg: CalibrationConfig,
    cal_scores: Vec<f64>,
}

impl Lifecycle {
    /// Wraps a freshly constructed detector (stage: `Training`).
    pub fn new(det: Box<dyn Detector>, cfg: CalibrationConfig) -> Self {
        Lifecycle {
            det,
            stage: Stage::Training,
            cfg,
            cal_scores: Vec::new(),
        }
    }

    /// Current lifecycle stage.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &dyn Detector {
        self.det.as_ref()
    }

    fn guard(&self, expected: Stage) -> Result<(), MlError> {
        if self.stage != expected {
            return Err(MlError::WrongStage {
                expected,
                got: self.stage,
            });
        }
        Ok(())
    }

    /// Absorbs one benign training vector (stage: `Training`).
    pub fn train(&mut self, x: &[f64]) -> Result<(), MlError> {
        self.guard(Stage::Training)?;
        self.det.train(x)
    }

    /// Ends training (fits the model) and enters `Calibrating`.
    pub fn begin_calibration(&mut self) -> Result<(), MlError> {
        self.guard(Stage::Training)?;
        self.det.end_training()?;
        self.stage = Stage::Calibrating;
        Ok(())
    }

    /// Scores one held-out benign vector for threshold derivation,
    /// returning the score (stage: `Calibrating`).
    pub fn calibrate(&mut self, x: &[f64]) -> Result<f64, MlError> {
        self.guard(Stage::Calibrating)?;
        let s = self.det.score(x)?;
        self.cal_scores.push(s);
        Ok(s)
    }

    /// Derives the threshold from the calibration scores and freezes the
    /// detector for serving.
    pub fn begin_serving(mut self) -> Result<FrozenDetector, MlError> {
        self.guard(Stage::Calibrating)?;
        if self.cal_scores.is_empty() {
            return Err(MlError::TooFewSamples { got: 0, need: 1 });
        }
        self.cal_scores
            .sort_by(|a, b| a.partial_cmp(b).expect("finite calibration scores"));
        let q = self.cfg.quantile.clamp(0.0, 1.0);
        let idx = ((self.cal_scores.len() - 1) as f64 * q).ceil() as usize;
        let threshold = self.cal_scores[idx] * self.cfg.margin;
        Ok(FrozenDetector {
            det: Arc::from(self.det),
            threshold,
        })
    }
}

/// An immutable, calibrated detector, cheaply cloneable across serving
/// threads.
#[derive(Clone)]
pub struct FrozenDetector {
    det: Arc<dyn Detector>,
    threshold: f64,
}

impl FrozenDetector {
    /// The calibrated alert threshold (alert on `score > threshold`).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Model name of the frozen detector.
    pub fn name(&self) -> &'static str {
        self.det.name()
    }

    /// Feature dimension of the frozen detector.
    pub fn feature_dim(&self) -> usize {
        self.det.feature_dim()
    }

    /// Scores a vector (pure).
    pub fn score(&self, x: &[f64]) -> Result<f64, MlError> {
        self.det.score(x)
    }

    /// Whether a score crosses the calibrated threshold.
    pub fn is_alert(&self, score: f64) -> bool {
        score > self.threshold
    }

    /// The frozen model, for structural passes such as the quantizer.
    pub fn detector(&self) -> &dyn Detector {
        self.det.as_ref()
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

/// Trains `det` on a benign vector slice, calibrating on the trailing
/// `cal_frac` fraction (at least one vector each side), and freezes it.
pub fn train_and_calibrate(
    det: Box<dyn Detector>,
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
    let cal =
        ((data.len() as f64 * cal_frac.clamp(0.0, 1.0)).round() as usize).clamp(1, data.len() - 1);
    let split = data.len() - cal;
    let mut lc = Lifecycle::new(det, cfg);
    for x in &data[..split] {
        lc.train(x)?;
    }
    lc.begin_calibration()?;
    for x in &data[split..] {
        lc.calibrate(x)?;
    }
    lc.begin_serving()
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

    fn all_detectors(dim: usize) -> Vec<Box<dyn Detector>> {
        vec![
            Box::new(KitNetDetector::new(dim, 7).unwrap()),
            Box::new(KnnNovelty::new(dim, 3).unwrap()),
            Box::new(CentroidDetector::new(dim).unwrap()),
            Box::new(CartDetector::new(dim, 7).unwrap()),
        ]
    }

    #[test]
    fn every_model_rejects_dim_mismatch_on_train_and_score() {
        for mut det in all_detectors(4) {
            let err = det.train(&[1.0, 2.0]).unwrap_err();
            assert_eq!(
                err,
                MlError::DimMismatch {
                    expected: 4,
                    got: 2
                },
                "{} train",
                det.name()
            );
            for x in benign(4, 80) {
                det.train(&x).unwrap();
            }
            det.end_training().unwrap();
            let err = det.score(&[0.0; 7]).unwrap_err();
            assert_eq!(
                err,
                MlError::DimMismatch {
                    expected: 4,
                    got: 7
                },
                "{} score",
                det.name()
            );
        }
    }

    #[test]
    fn every_model_scores_anomaly_above_benign() {
        for mut det in all_detectors(3) {
            for x in benign(3, 120) {
                det.train(&x).unwrap();
            }
            det.end_training().unwrap();
            let normal = det.score(&[1.0, 1.05, 1.1]).unwrap();
            let weird = det.score(&[80.0, -40.0, 900.0]).unwrap();
            assert!(
                weird > normal,
                "{}: anomaly {weird} not above benign {normal}",
                det.name()
            );
        }
    }

    #[test]
    fn score_before_training_is_typed_error() {
        let det = KnnNovelty::new(2, 1).unwrap();
        assert_eq!(det.score(&[0.0, 0.0]), Err(MlError::Untrained));
        let det = CentroidDetector::new(2).unwrap();
        assert_eq!(det.score(&[0.0, 0.0]), Err(MlError::Untrained));
        let det = CartDetector::new(2, 1).unwrap();
        assert_eq!(det.score(&[0.0, 0.0]), Err(MlError::Untrained));
        let det = KitNetDetector::new(2, 1).unwrap();
        assert_eq!(det.score(&[0.0, 0.0]), Err(MlError::Untrained));
    }

    #[test]
    fn too_few_samples_is_typed_error() {
        let mut det = KitNetDetector::new(2, 1).unwrap();
        det.train(&[1.0, 1.0]).unwrap();
        assert!(matches!(
            det.end_training(),
            Err(MlError::TooFewSamples { got: 1, .. })
        ));
        let mut det = KnnNovelty::new(2, 5).unwrap();
        det.train(&[1.0, 1.0]).unwrap();
        assert!(matches!(
            det.end_training(),
            Err(MlError::TooFewSamples { got: 1, need: 5 })
        ));
    }

    #[test]
    fn lifecycle_enforces_stage_order() {
        let det = Box::new(CentroidDetector::new(2).unwrap());
        let mut lc = Lifecycle::new(det, CalibrationConfig::default());
        assert_eq!(lc.stage(), Stage::Training);
        // Calibrating before training ended is a typed stage error.
        assert_eq!(
            lc.calibrate(&[1.0, 1.0]),
            Err(MlError::WrongStage {
                expected: Stage::Calibrating,
                got: Stage::Training
            })
        );
        lc.train(&[1.0, 2.0]).unwrap();
        lc.begin_calibration().unwrap();
        assert_eq!(lc.stage(), Stage::Calibrating);
        // Training after calibration began is a typed stage error.
        assert_eq!(
            lc.train(&[1.0, 2.0]),
            Err(MlError::WrongStage {
                expected: Stage::Training,
                got: Stage::Calibrating
            })
        );
        lc.calibrate(&[1.0, 2.1]).unwrap();
        let frozen = lc.begin_serving().unwrap();
        assert!(frozen.threshold() >= 0.0);
    }

    #[test]
    fn serving_without_calibration_scores_is_error() {
        let det = Box::new(CentroidDetector::new(1).unwrap());
        let mut lc = Lifecycle::new(det, CalibrationConfig::default());
        lc.train(&[1.0]).unwrap();
        lc.begin_calibration().unwrap();
        assert!(matches!(
            lc.begin_serving(),
            Err(MlError::TooFewSamples { got: 0, need: 1 })
        ));
    }

    #[test]
    fn calibrated_threshold_tracks_benign_quantile() {
        let data = benign(3, 200);
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let det = Box::new(KnnNovelty::new(3, 3).unwrap());
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

    #[test]
    fn frozen_detector_is_shareable_and_pure() {
        let data = benign(2, 100);
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let frozen = train_and_calibrate(
            Box::new(CentroidDetector::new(2).unwrap()),
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
}
