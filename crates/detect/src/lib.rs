//! SuperFE online inference serving (`superfe-detect`).
//!
//! The paper's target applications (§8.3) are ML detectors fed by extracted
//! features; this crate closes the loop from a live packet stream to a
//! typed alert stream. It attaches trained [`superfe_ml::Detector`]s to the
//! streaming extraction pipeline:
//!
//! - [`serve`]: the sharded serving executor — egressing feature vectors
//!   flow from NIC shards into bounded-channel inference workers that score
//!   in batches, emit [`Alert`]s, and apply backpressure end to end.
//!   Telemetry ([`StageCounters`], score/latency [`superfe_streaming::Histogram`]s)
//!   surfaces in a [`ServeReport`].
//! - [`pipeline`]: [`DetectPipeline`] — switch producer, NIC shards, and
//!   inference workers wired together behind one `push`/`finish` API.
//! - [`offline`]: batch scoring with identical canonical semantics, the
//!   reference the online path is differentially tested against.
//! - [`quantized`]: the in-pipeline fixed-point path — offline quantized
//!   reference scoring, inline-alert lifting, measured float-vs-quantized
//!   score deltas, and the report section for `detect --in-pipeline`.
//! - [`alert`]: the [`Alert`] type and the canonical (key, per-key
//!   position) ordering that makes alert streams deterministic across
//!   worker counts.
//!
//! Model training and threshold calibration live in
//! [`superfe_ml::detector`] (the `Training → Calibrating → Serving`
//! lifecycle); this crate consumes the resulting
//! [`superfe_ml::FrozenDetector`].

pub mod alert;
pub mod error;
pub mod multi;
pub mod offline;
pub mod pipeline;
pub mod quantized;
pub mod serve;

pub use alert::{
    canonicalize_alerts, canonicalize_scores, label_scores, score_fingerprint, Alert, ScoredVector,
};
pub use error::DetectError;
pub use multi::MultiServing;
pub use offline::{score_offline, OfflineScores};
pub use pipeline::DetectPipeline;
pub use quantized::{inline_to_alerts, max_score_delta, score_offline_quantized, QuantizedSection};
pub use serve::{ServeConfig, ServeReport, Serving, StageCounters};

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
