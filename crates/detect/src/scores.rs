//! Scored vectors: ground-truth labelling and the score fingerprint.

use std::collections::HashMap;

use superfe_net::{Granularity, GroupKey, PacketRecord};

/// One scored vector of an offline reference run ([`crate::score_offline`]).
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

/// The worker-count-independent fingerprint of a canonical score stream:
/// `(key, score bits)` pairs in canonical order. Two scoring runs are
/// bitwise-identical iff their fingerprints are equal.
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
