//! In-pipeline quantized inference: scoring finalized feature vectors
//! inside the worker shards, before egress.
//!
//! The host-side serving path ([`VectorSink`](crate::stream::VectorSink))
//! moves every vector off the NIC and scores it in a separate stage. The
//! in-pipeline path instead executes a fixed-point
//! [`QuantizedDetector`](superfe_ml::QuantizedDetector) — compiled by the
//! SF09xx certification pass — on each vector right where it is finalized,
//! and only *alerts* leave the pipeline.
//!
//! Determinism: the quantized model is pure integer arithmetic, every group
//! key lives on exactly one shard, and each alert carries the shard's
//! `(key, seq)` stream position — the same canonical-ordering contract as
//! the host alert stream, so the alert sequence per key is bitwise
//! identical at every worker count.

use std::sync::Arc;

use superfe_ml::QuantizedDetector;
use superfe_net::GroupKey;

use crate::engine::FeatureVector;

/// One alert raised by the in-pipeline inference stage.
#[derive(Clone, Debug)]
pub struct InlineAlert {
    /// NIC shard that computed (and scored) the vector.
    pub shard: usize,
    /// Per-shard monotonic sequence number of the scored vector.
    pub seq: u64,
    /// Group key of the offending vector.
    pub key: GroupKey,
    /// The quantized anomaly score (`score_q / 2^FA`, exactly
    /// representable).
    pub score: f64,
    /// The grid-snapped alert threshold in force.
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

/// The per-shard inference stage: one shared quantized model, private
/// counters and alert buffer. Lives inside the worker thread; scoring is
/// pure integer arithmetic, so sharing the model read-only across shards
/// cannot introduce nondeterminism. `Clone` forks the stage (alerts so far
/// included) when a fused member is finalized off a copy of its unit.
#[derive(Clone)]
pub struct InlineInference {
    model: Arc<QuantizedDetector>,
    alerts: Vec<InlineAlert>,
    stats: InlineStats,
}

impl InlineInference {
    /// Creates a shard stage over a shared quantized model.
    pub fn new(model: Arc<QuantizedDetector>) -> Self {
        InlineInference {
            model,
            alerts: Vec::new(),
            stats: InlineStats::default(),
        }
    }

    /// Scores one finalized vector at its `(shard, seq)` stream position,
    /// buffering an alert when the score crosses the threshold.
    pub fn score(&mut self, shard: usize, seq: u64, vector: &FeatureVector) {
        let Ok(score) = self.model.score(vector.values()) else {
            self.stats.dim_errors += 1;
            return;
        };
        self.stats.scored += 1;
        if self.model.is_alert(score) {
            self.stats.alerts += 1;
            self.alerts.push(InlineAlert {
                shard,
                seq,
                key: vector.key,
                score,
                threshold: self.model.threshold(),
            });
        }
    }

    /// Drains the stage into its buffered alerts and final counters.
    pub fn into_parts(self) -> (Vec<InlineAlert>, InlineStats) {
        (self.alerts, self.stats)
    }
}

/// Sorts inline alerts into the canonical order — by group key, then by
/// per-key stream position. `seq` *values* differ across worker counts but
/// the per-key order does not, so the canonical `(key, score, threshold)`
/// sequence is worker-count-independent.
pub fn canonicalize_inline_alerts(alerts: &mut [InlineAlert]) {
    alerts.sort_by_cached_key(|a| (format!("{:?}", a.key), a.seq));
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
    use superfe_ml::{
        quantize, train_and_calibrate, CalibrationConfig, CentroidDetector, Detector, QuantConfig,
    };
    use superfe_streaming::FeatureValues;

    fn model(dim: usize) -> Arc<QuantizedDetector> {
        let data: Vec<Vec<f64>> = (0..80)
            .map(|i| (0..dim).map(|d| 5.0 + ((i + d) % 7) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let frozen = train_and_calibrate(
            Box::new(CentroidDetector::new(dim).unwrap()) as Box<dyn Detector>,
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
        let mut inf = InlineInference::new(m.clone());
        // A benign vector (near the centroid) and a hostile one (opposed).
        inf.score(0, 0, &vector(1, &[5.0, 6.0, 5.0]));
        inf.score(0, 1, &vector(2, &[-5.0, -6.0, -5.0]));
        let (alerts, stats) = inf.into_parts();
        assert_eq!(stats.scored, 2);
        assert_eq!(stats.alerts, 1);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].key, GroupKey::Host(2));
        assert!(alerts[0].score > alerts[0].threshold);
        assert_eq!(alerts[0].threshold, m.threshold());
    }

    #[test]
    fn dimension_mismatch_is_counted_not_fatal() {
        let mut inf = InlineInference::new(model(3));
        inf.score(0, 0, &vector(1, &[1.0]));
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
        canonicalize_inline_alerts(&mut a);
        canonicalize_inline_alerts(&mut b);
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
