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
//! - [`DetectorKind`]: the model registry, re-exported from
//!   [`superfe_ml::detector`]: the four built-in models by name, and
//!   [`DetectorKind::build`], the one way to get an unfitted detector.
//! - [`offline`]: [`score_offline`], batch scoring under the same canonical
//!   `(key, per-key position)` semantics — the reference the in-shard stage
//!   is differentially tested against, for any [`superfe_ml::Scorer`].
//! - [`scores`]: [`ScoredVector`], ground-truth labelling and the score
//!   fingerprint. The alert type and the canonical order are the NIC's
//!   (`superfe_nic::{InlineAlert, canonicalize}`).
//! - [`quantized`]: measured float-vs-quantized score deltas and the report
//!   section for `detect --in-pipeline`.
//!
//! Fitting and threshold calibration live in [`superfe_ml::detector`]: the
//! built detector is fitted once on a benign slice
//! ([`superfe_ml::train_and_calibrate`]) and calibrated on its held-out
//! tail.

pub mod offline;
pub mod quantized;
pub mod scores;

pub use offline::{score_offline, OfflineScores};
pub use quantized::{max_score_delta, score_offline_quantized, QuantizedSection};
pub use scores::{label_scores, score_fingerprint, ScoredVector};

pub use superfe_ml::DetectorKind;
