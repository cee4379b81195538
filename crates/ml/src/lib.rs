//! Behavior detectors for the SuperFE application study (§8.3).
//!
//! The paper reuses the original detectors of the four case-study
//! applications; this crate reimplements faithful, minimal versions so the
//! end-to-end accuracy experiments run without Python dependencies:
//!
//! - [`autoencoder`] / [`kitnet`]: Kitsune's detector — an ensemble of small
//!   autoencoders over clustered features plus an output autoencoder scoring
//!   RMSE (used for Kitsune and, standalone, for N-BaIoT).
//! - [`knn`]: k-nearest-neighbours (CUMUL-style website fingerprinting).
//! - [`tree`]: a CART decision tree (NPOD's detector).
//! - [`centroid`]: nearest-centroid classification over embedded sequences
//!   (the stand-in for TF's triplet network).
//! - [`norm`]: feature normalization, [`metrics`]: accuracy/precision/
//!   recall/F1/AUC.
//! - [`detector`]: the model registry. [`DetectorKind`] names the four
//!   models and builds each as a [`Detector`], fitted once on a benign
//!   slice into a [`FittedModel`] and calibrated on its held-out tail; and
//!   [`Scorer`] — what a frozen float detector and its fixed-point lowering
//!   both offer the NIC's in-shard scoring stage.
//! - [`quant`]: fixed-point (Qm.n) lowering of frozen detectors for
//!   in-pipeline NIC inference, with analytically certified float-vs-
//!   quantized score error bounds (the basis of the SF09xx pass).

pub mod autoencoder;
pub mod centroid;
pub mod detector;
pub mod kitnet;
pub mod knn;
pub mod metrics;
pub mod norm;
pub mod quant;
pub mod tree;

pub use autoencoder::Autoencoder;
pub use centroid::NearestCentroid;
pub use detector::{
    train_and_calibrate, CalibrationConfig, Detector, DetectorKind, FittedModel, FrozenDetector,
    MlError, Scorer, SharedScorer,
};
pub use kitnet::KitNet;
pub use knn::Knn;
pub use metrics::{accuracy, auc, f1_score, precision_recall, Confusion};
pub use norm::MinMaxNorm;
pub use quant::{
    quantize, ErrorBound, Folded, KernelWidth, LayerBound, QuantConfig, QuantError,
    QuantizedDetector,
};
pub use tree::DecisionTree;
