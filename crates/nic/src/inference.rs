//! In-shard inference: scoring finalized feature vectors inside the worker
//! shards, where they are computed.
//!
//! This is the one scoring path. A member of the shard pool that was given
//! a [`Scorer`](superfe_ml::Scorer) by
//! [`ShardPool::score_with`](crate::ShardPool::score_with) has every vector
//! its unit finalizes scored on the shard that finalized it — a float model
//! or its SF09xx-certified fixed-point lowering alike — and only *alerts*
//! and three counters leave with the member's output. Vectors still egress
//! through a [`VectorSink`](crate::stream::VectorSink) when the member has
//! one; egress is not scoring.
//!
//! Determinism: a scorer is pure, every group key lives on exactly one
//! shard, and each alert carries the `(shard, seq)` position of its vector
//! in the stage's own stream, so under [`canonicalize`] the `(key, score,
//! threshold)` sequence is bitwise identical at every worker count. The
//! price of scoring where vectors are finalized is the shard split itself:
//! a detector whose cost dwarfs extraction (brute-force k-NN) inherits the
//! CG-key load balance instead of a finer re-hash.

use superfe_ml::{MlError, SharedScorer};
use superfe_net::GroupKey;

use crate::engine::FeatureVector;

/// One alert raised by the in-shard inference stage — the one alert type.
#[derive(Clone, Debug)]
pub struct InlineAlert {
    /// NIC shard that computed (and scored) the vector.
    pub shard: usize,
    /// Per-shard monotonic sequence number of the scored vector.
    pub seq: u64,
    /// Group key of the offending vector.
    pub key: GroupKey,
    /// The anomaly score that crossed the threshold.
    pub score: f64,
    /// The scorer's alert threshold in force.
    pub threshold: f64,
}

/// Counters of one shard's (or one merged run's) inference stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InlineStats {
    /// Vectors scored.
    pub scored: u64,
    /// Alerts raised (score strictly above the threshold).
    pub alerts: u64,
    /// Vectors skipped because their dimension did not match the model
    /// (a policy/detector mismatch that certification would have flagged).
    pub dim_errors: u64,
}

impl InlineStats {
    /// Accumulates another shard's counters.
    pub fn absorb(&mut self, other: &InlineStats) {
        self.scored += other.scored;
        self.alerts += other.alerts;
        self.dim_errors += other.dim_errors;
    }
}

/// One member's inference stage on one shard: a shared scorer, the stage's
/// own stream position, private counters and an alert buffer. Lives inside
/// the worker thread and leaves with its member, so nothing is shared but
/// the read-only model.
pub struct InlineInference {
    model: SharedScorer,
    /// The model's alert threshold (a constant of a calibrated scorer),
    /// read once: it is compared per vector and copied per alert.
    threshold: f64,
    shard: usize,
    /// Vectors offered so far — the `seq` the next alert carries. Counts
    /// rejected vectors too: a position, not a score count.
    seq: u64,
    alerts: Vec<InlineAlert>,
    stats: InlineStats,
    /// The scores of the batch being offered, one per vector: scratch that
    /// keeps its size from batch to batch.
    scores: Vec<Result<f64, MlError>>,
}

impl InlineInference {
    /// Creates the stage of `shard` over a shared scorer.
    pub fn new(model: SharedScorer, shard: usize) -> Self {
        InlineInference {
            threshold: model.threshold(),
            model,
            shard,
            seq: 0,
            alerts: Vec::new(),
            stats: InlineStats::default(),
            scores: Vec::new(),
        }
    }

    /// Scores one finalized vector at the stage's next stream position,
    /// buffering an alert when the score crosses the threshold.
    pub fn score(&mut self, vector: &FeatureVector) {
        self.score_batch(std::slice::from_ref(vector));
    }

    /// Scores a batch of finalized vectors — a frame's drained vectors, or
    /// a unit's group vectors at finish — in one call to the scorer, each
    /// at its own stream position, exactly as [`InlineInference::score`]
    /// would one after the other.
    pub fn score_batch(&mut self, vectors: &[FeatureVector]) {
        self.scores.clear();
        let mut xs = vectors.iter().map(FeatureVector::values);
        self.model.score_batch(&mut xs, &mut self.scores);
        for (vector, score) in vectors.iter().zip(&self.scores) {
            let seq = self.seq;
            self.seq += 1;
            let &Ok(score) = score else {
                self.stats.dim_errors += 1;
                continue;
            };
            self.stats.scored += 1;
            if self.model.is_alert(score) {
                self.stats.alerts += 1;
                self.alerts.push(InlineAlert {
                    shard: self.shard,
                    seq,
                    key: vector.key,
                    score,
                    threshold: self.threshold,
                });
            }
        }
    }

    /// Drains the stage into its buffered alerts and final counters.
    pub fn into_parts(self) -> (Vec<InlineAlert>, InlineStats) {
        (self.alerts, self.stats)
    }
}

/// Sorts anything with a stream `position` — `(group key, per-shard seq)` —
/// into the canonical order: by the key's `Debug` string, then by `seq`.
///
/// Every group key lives on exactly one shard and a shard's sequence
/// numbers are monotonic in stream order, so within a key `seq` sorts by
/// arrival: the `seq` *values* differ across worker counts, the per-key
/// order does not. The `Debug`-string order is the contract (fingerprints
/// and golden files depend on it); the string is built once per item.
pub fn canonicalize<T>(items: &mut [T], position: impl Fn(&T) -> (GroupKey, u64)) {
    items.sort_by_cached_key(|item| {
        let (key, seq) = position(item);
        (format!("{key:?}"), seq)
    });
}

/// The worker-count-independent fingerprint of a canonical inline alert
/// stream: `(key, score bits, threshold bits)` triples in canonical order.
pub fn inline_alert_fingerprint(alerts: &[InlineAlert]) -> Vec<(String, u64, u64)> {
    alerts
        .iter()
        .map(|a| {
            (
                format!("{:?}", a.key),
                a.score.to_bits(),
                a.threshold.to_bits(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use superfe_ml::{
        quantize, train_and_calibrate, CalibrationConfig, DetectorKind, QuantConfig,
        QuantizedDetector,
    };
    use superfe_streaming::FeatureValues;

    fn model(dim: usize) -> Arc<QuantizedDetector> {
        let data: Vec<Vec<f64>> = (0..80)
            .map(|i| (0..dim).map(|d| 5.0 + ((i + d) % 7) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let frozen = train_and_calibrate(
            DetectorKind::Centroid.build(dim, 0).unwrap(),
            &refs,
            0.2,
            CalibrationConfig::default(),
        )
        .unwrap();
        Arc::new(quantize(&frozen, &QuantConfig::default()).unwrap())
    }

    fn vector(key_host: u32, values: &[f64]) -> FeatureVector {
        let mut buf = FeatureValues::with_capacity(values.len());
        buf.extend_from_slice(values);
        FeatureVector {
            key: GroupKey::Host(key_host),
            values: buf,
        }
    }

    #[test]
    fn scores_and_counts_alerts() {
        let m = model(3);
        let mut inf = InlineInference::new(m.clone(), 3);
        // A benign vector (near the centroid) and a hostile one (opposed).
        inf.score(&vector(1, &[5.0, 6.0, 5.0]));
        inf.score(&vector(2, &[-5.0, -6.0, -5.0]));
        let (alerts, stats) = inf.into_parts();
        assert_eq!(stats.scored, 2);
        assert_eq!(stats.alerts, 1);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].key, GroupKey::Host(2));
        assert_eq!((alerts[0].shard, alerts[0].seq), (3, 1));
        assert!(alerts[0].score > alerts[0].threshold);
        assert_eq!(alerts[0].threshold, m.threshold());
    }

    #[test]
    fn a_batch_is_its_vectors_scored_one_by_one() {
        let m = model(3);
        let vectors = [
            vector(1, &[5.0, 6.0, 5.0]),
            vector(2, &[-5.0, -6.0, -5.0]),
            vector(3, &[1.0]),
            vector(4, &[-4.0, -6.0, -5.0]),
        ];
        let mut one = InlineInference::new(m.clone(), 1);
        vectors.iter().for_each(|v| one.score(v));
        let mut batched = InlineInference::new(m, 1);
        batched.score_batch(&vectors[..3]);
        batched.score_batch(&vectors[3..]);
        let positions = |(alerts, stats): (Vec<InlineAlert>, InlineStats)| {
            let at: Vec<_> = alerts
                .iter()
                .map(|a| (a.seq, a.key, a.score.to_bits()))
                .collect();
            (at, stats)
        };
        let (at, stats) = positions(batched.into_parts());
        assert_eq!((at.clone(), stats), positions(one.into_parts()));
        assert_eq!(at.iter().map(|a| a.0).collect::<Vec<_>>(), [1, 3]);
        assert_eq!((stats.scored, stats.dim_errors), (3, 1));
    }

    #[test]
    fn dimension_mismatch_is_counted_not_fatal() {
        let mut inf = InlineInference::new(model(3), 0);
        inf.score(&vector(1, &[1.0]));
        let (alerts, stats) = inf.into_parts();
        assert!(alerts.is_empty());
        assert_eq!(
            stats,
            InlineStats {
                scored: 0,
                alerts: 0,
                dim_errors: 1
            }
        );
    }

    #[test]
    fn canonical_order_drops_shard_dependence() {
        let mk = |shard, seq, host| InlineAlert {
            shard,
            seq,
            key: GroupKey::Host(host),
            score: 1.0,
            threshold: 0.5,
        };
        // Same logical stream sharded two ways.
        let mut a = vec![mk(0, 0, 2), mk(0, 1, 1), mk(0, 2, 2)];
        let mut b = vec![mk(1, 0, 2), mk(0, 0, 1), mk(1, 1, 2)];
        canonicalize(&mut a, |x| (x.key, x.seq));
        canonicalize(&mut b, |x| (x.key, x.seq));
        assert_eq!(inline_alert_fingerprint(&a), inline_alert_fingerprint(&b));
    }

    #[test]
    fn stats_absorb_sums_counters() {
        let mut a = InlineStats {
            scored: 3,
            alerts: 1,
            dim_errors: 0,
        };
        a.absorb(&InlineStats {
            scored: 2,
            alerts: 2,
            dim_errors: 1,
        });
        assert_eq!(
            a,
            InlineStats {
                scored: 5,
                alerts: 3,
                dim_errors: 1
            }
        );
    }
}
