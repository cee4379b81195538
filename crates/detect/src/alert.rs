//! The typed alert stream and its canonical ordering.

use std::collections::HashMap;

use superfe_net::{Granularity, GroupKey, PacketRecord};

/// One anomaly alert emitted by the serving executor.
#[derive(Clone, Debug)]
pub struct Alert {
    /// The scenario label the serve run was started with (for operators
    /// correlating alert streams across runs; `"live"` by default).
    pub scenario: String,
    /// The group key of the offending feature vector (the finest
    /// granularity for per-packet vectors).
    pub key: GroupKey,
    /// The anomaly score that crossed the threshold.
    pub score: f64,
    /// The calibrated threshold in force when the alert fired.
    pub threshold: f64,
    /// Stream position: NIC shard that computed the vector.
    pub shard: usize,
    /// Stream position: per-shard monotonic sequence number.
    pub seq: u64,
}

/// One scored vector (recorded when `ServeConfig::record_scores` is on).
#[derive(Clone, Debug)]
pub struct ScoredVector {
    /// Group key of the scored vector.
    pub key: GroupKey,
    /// NIC shard that computed the vector.
    pub shard: usize,
    /// Per-shard monotonic sequence number.
    pub seq: u64,
    /// Anomaly score.
    pub score: f64,
}

/// Pairs each score with the ground-truth label of the packet behind it:
/// the n-th score of a socket key belongs to the n-th packet of that socket
/// in `labelled`. Scores whose (key, occurrence) has no packet are dropped,
/// so the result's length is the number of scores matched.
pub fn label_scores(
    scores: &[ScoredVector],
    labelled: &[(PacketRecord, bool)],
) -> Vec<(f64, bool)> {
    let mut seen: HashMap<GroupKey, usize> = HashMap::new();
    let mut label_of: HashMap<(GroupKey, usize), bool> = HashMap::new();
    for (p, label) in labelled {
        let key = Granularity::Socket.key_of(p);
        let n = seen.entry(key).or_insert(0);
        label_of.insert((key, *n), *label);
        *n += 1;
    }
    seen.clear();
    scores
        .iter()
        .filter_map(|s| {
            let n = seen.entry(s.key).or_insert(0);
            let label = label_of.get(&(s.key, *n)).copied();
            *n += 1;
            label.map(|l| (s.score, l))
        })
        .collect()
}

/// Sorts alerts into the canonical order: by group key, then by per-key
/// stream position.
///
/// Every group key lives on exactly one shard and each shard's sequence
/// numbers are monotonic in stream order, so within a key `seq` sorts
/// vectors by arrival — and the resulting `(key, score)` sequence is
/// identical at every worker count (the `seq` *values* differ across
/// worker counts, but the per-key order does not).
pub fn canonicalize_alerts(alerts: &mut [Alert]) {
    alerts.sort_by(|a, b| {
        format!("{:?}", a.key)
            .cmp(&format!("{:?}", b.key))
            .then(a.seq.cmp(&b.seq))
    });
}

/// Sorts scored vectors into the same canonical order as
/// [`canonicalize_alerts`].
pub fn canonicalize_scores(scores: &mut [ScoredVector]) {
    scores.sort_by(|a, b| {
        format!("{:?}", a.key)
            .cmp(&format!("{:?}", b.key))
            .then(a.seq.cmp(&b.seq))
    });
}

/// The worker-count-independent fingerprint of a canonical score stream:
/// `(key, score bits)` pairs in canonical order. Two serve runs (or a serve
/// run and an offline batch scoring) are bitwise-identical iff their
/// fingerprints are equal.
pub fn score_fingerprint(scores: &[ScoredVector]) -> Vec<(String, u64)> {
    scores
        .iter()
        .map(|s| (format!("{:?}", s.key), s.score.to_bits()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_scores_matches_by_socket_and_occurrence() {
        let a = PacketRecord::tcp(1, 100, 1, 10, 2, 80);
        let b = PacketRecord::tcp(2, 100, 3, 10, 2, 80);
        let labelled = [(a, false), (b, true), (a, true)];
        let score = |p: &PacketRecord, seq: u64, score: f64| ScoredVector {
            key: Granularity::Socket.key_of(p),
            shard: 0,
            seq,
            score,
        };
        // Canonical order groups by key; a third `a` score has no packet.
        let scores = [
            score(&a, 0, 0.1),
            score(&a, 1, 0.9),
            score(&a, 2, 0.5),
            score(&b, 0, 0.7),
        ];
        assert_eq!(
            label_scores(&scores, &labelled),
            vec![(0.1, false), (0.9, true), (0.7, true)]
        );
    }
}
