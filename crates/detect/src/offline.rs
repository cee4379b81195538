//! Offline batch scoring — the reference semantics the in-shard inference
//! stage is differentially tested against.

use std::collections::HashMap;

use superfe_ml::Scorer;
use superfe_net::GroupKey;
use superfe_nic::{canonicalize, FeatureVector, InlineAlert};

use crate::scores::ScoredVector;

/// Result of scoring an extraction offline.
#[derive(Debug)]
pub struct OfflineScores {
    /// Every score in canonical order (key, then per-key position).
    pub scores: Vec<ScoredVector>,
    /// Alerts in canonical order.
    pub alerts: Vec<InlineAlert>,
    /// Vectors rejected with a dimension mismatch (skipped, as online).
    pub dim_errors: u64,
}

/// Scores a batch extraction with any [`Scorer`] — a float
/// [`superfe_ml::FrozenDetector`] or a fixed-point
/// [`superfe_ml::QuantizedDetector`] — producing, in canonical order, the
/// alert stream the in-shard stage raises for the same input, and every
/// score behind it.
///
/// `packet_vectors` must precede `group_vectors` (matching the in-shard
/// order: per-packet vectors are scored as frames drain, per-group vectors
/// at end of stream). The `(shard, seq)` tags are synthetic — shard 0,
/// per-key occurrence index — since only the *per-key order* is part of the
/// cross-path contract.
pub fn score_offline<S: Scorer + ?Sized>(
    scorer: &S,
    packet_vectors: &[FeatureVector],
    group_vectors: &[FeatureVector],
) -> OfflineScores {
    let mut out = OfflineScores {
        scores: Vec::with_capacity(packet_vectors.len() + group_vectors.len()),
        alerts: Vec::new(),
        dim_errors: 0,
    };
    let mut occurrence: HashMap<GroupKey, u64> = HashMap::new();
    for v in packet_vectors.iter().chain(group_vectors) {
        let Ok(score) = scorer.score(v.values.as_slice()) else {
            out.dim_errors += 1;
            continue;
        };
        let seq = occurrence.entry(v.key).or_insert(0);
        out.scores.push(ScoredVector {
            key: v.key,
            shard: 0,
            seq: *seq,
            score,
        });
        if scorer.is_alert(score) {
            out.alerts.push(InlineAlert {
                shard: 0,
                seq: *seq,
                key: v.key,
                score,
                threshold: scorer.threshold(),
            });
        }
        *seq += 1;
    }
    canonicalize(&mut out.scores, |s| (s.key, s.seq));
    canonicalize(&mut out.alerts, |a| (a.key, a.seq));
    out
}
