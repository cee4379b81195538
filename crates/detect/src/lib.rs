//! SuperFE online detection: what surrounds the one scoring path.
//!
//! The paper's target applications (§8.3) are ML detectors fed by extracted
//! features. Scoring itself is a stage of the datapath
//! (`superfe_nic::inference`, reached through
//! [`superfe_core::StreamingPipeline::with_inference`] or
//! `CtrlPlane::score_with`): a vector is scored in the NIC shard that
//! finalized it, by a float [`superfe_ml::FrozenDetector`] or its certified
//! fixed-point lowering, and only alerts leave. This crate holds the rest:
//!
//! - [`DetectorKind`]: the four built-in models by name.
//! - [`offline`]: [`score_offline`], batch scoring under the same canonical
//!   `(key, per-key position)` semantics — the reference the in-shard stage
//!   is differentially tested against, for any [`superfe_ml::Scorer`].
//! - [`scores`]: [`ScoredVector`], ground-truth labelling and the score
//!   fingerprint. The alert type and the canonical order are the NIC's
//!   (`superfe_nic::{InlineAlert, canonicalize}`).
//! - [`quantized`]: measured float-vs-quantized score deltas and the report
//!   section for `detect --in-pipeline`.
//!
//! Model training and threshold calibration live in
//! [`superfe_ml::detector`] (the `Training → Calibrating → Serving`
//! lifecycle).

pub mod offline;
pub mod quantized;
pub mod scores;

pub use offline::{score_offline, OfflineScores};
pub use quantized::{max_score_delta, score_offline_quantized, QuantizedSection};
pub use scores::{label_scores, score_fingerprint, ScoredVector};

use superfe_ml::{CartDetector, CentroidDetector, Detector, KitNetDetector, KnnNovelty, MlError};

/// The four built-in detector models, selectable by name (CLI `--detector`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorKind {
    /// Kitsune's autoencoder ensemble (native RMSE score).
    KitNet,
    /// k-NN novelty detection (mean distance to k nearest benign points).
    Knn,
    /// CART against a seeded synthetic uniform background sample.
    Cart,
    /// Nearest-centroid (1 − cosine to the benign centroid).
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

    /// Builds an untrained detector of this kind for `dim`-dimensional
    /// vectors. `seed` drives any model randomness (KitNET initialization,
    /// CART's background sample).
    pub fn build(self, dim: usize, seed: u64) -> Result<Box<dyn Detector>, MlError> {
        Ok(match self {
            DetectorKind::KitNet => Box::new(KitNetDetector::new(dim, seed)?),
            DetectorKind::Knn => Box::new(KnnNovelty::new(dim, 3)?),
            DetectorKind::Cart => Box::new(CartDetector::new(dim, seed)?),
            DetectorKind::Centroid => Box::new(CentroidDetector::new(dim)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let det = kind.build(4, 1).unwrap();
            assert_eq!(det.feature_dim(), 4);
            assert_eq!(det.name(), kind.name());
        }
        assert!(DetectorKind::KitNet.build(0, 1).is_err());
    }
}
