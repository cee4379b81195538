//! The §8.3 application study: four state-of-the-art traffic analysis
//! applications rebuilt with SuperFE as their feature extractor, keeping
//! their original detector families.
//!
//! | App | Features (via SuperFE) | Detector |
//! |---|---|---|
//! | TF | per-flow direction sequences | nearest-centroid embedding |
//! | N-BaIoT | damped multi-granularity stats | autoencoder anomaly score |
//! | NPOD | size/IPT distributions per flow | decision tree |
//! | Kitsune | 115-dim damped stats per packet | KitNET ensemble |

use std::collections::HashMap;

use superfe_core::SuperFe;
use superfe_ml::{
    accuracy, auc, Autoencoder, Confusion, DecisionTree, KitNet, Knn, MinMaxNorm, NearestCentroid,
};
use superfe_net::{Granularity, GroupKey};
use superfe_nic::FeatureVector;
use superfe_trafficgen::botnet::BotnetDataset;
use superfe_trafficgen::covert::CovertDataset;
use superfe_trafficgen::intrusion::IntrusionDataset;
use superfe_trafficgen::wf::WfDataset;
use superfe_trafficgen::Trace;

use crate::policies;

/// Outcome of one end-to-end application run.
#[derive(Clone, Copy, Debug)]
pub struct StudyResult {
    /// Application name.
    pub app: &'static str,
    /// Classification accuracy (task-specific; see each runner).
    pub accuracy: f64,
    /// Area under the ROC curve where a score is available, else equals
    /// accuracy.
    pub auc: f64,
}

/// Extracts per-group vectors for a trace with the given policy.
fn group_vectors(dsl: &str, trace: &Trace) -> Vec<FeatureVector> {
    let mut fe = SuperFe::from_dsl(dsl).expect("app policy valid");
    for p in &trace.records {
        fe.push(p);
    }
    fe.finish().group_vectors
}

/// Extracts per-packet vectors for a trace with the given policy.
fn packet_vectors(dsl: &str, trace: &Trace) -> Vec<FeatureVector> {
    let mut fe = SuperFe::from_dsl(dsl).expect("app policy valid");
    for p in &trace.records {
        fe.push(p);
    }
    fe.finish().packet_vectors
}

/// TF-style website fingerprinting: closed-world classification accuracy.
///
/// Visits are split per site into train (enrollment) and test halves; the
/// detector is a nearest-centroid classifier over the SuperFE-extracted
/// direction sequences (the geometric core of triplet fingerprinting).
pub fn run_tf(data: &WfDataset) -> StudyResult {
    let vectors = group_vectors(policies::TF, &data.trace);
    let by_flow: HashMap<GroupKey, &FeatureVector> = vectors.iter().map(|v| (v.key, v)).collect();

    // Per-site split: first half of visits enroll, second half test.
    let mut per_site: HashMap<usize, Vec<&[f64]>> = HashMap::new();
    for visit in &data.visits {
        if let Some(v) = by_flow.get(&GroupKey::Flow(visit.flow)) {
            per_site.entry(visit.site).or_default().push(&v.values);
        }
    }
    let mut clf = NearestCentroid::new();
    let mut tests: Vec<(&[f64], usize)> = Vec::new();
    for (&site, visits) in &per_site {
        let half = (visits.len() / 2).max(1);
        for (i, v) in visits.iter().enumerate() {
            if i < half {
                clf.fit_one(v, site);
            } else {
                tests.push((v, site));
            }
        }
    }
    let pairs: Vec<(usize, usize)> = tests
        .iter()
        .filter_map(|(v, site)| clf.predict(v).map(|p| (p, *site)))
        .collect();
    let acc = accuracy(pairs);
    StudyResult {
        app: "TF",
        accuracy: acc,
        auc: acc,
    }
}

/// CUMUL-style website fingerprinting: k-NN over the 104-dim statistical +
/// interpolated-cumulative feature vector.
pub fn run_cumul(data: &WfDataset) -> StudyResult {
    let vectors = group_vectors(policies::CUMUL, &data.trace);
    let by_flow: HashMap<GroupKey, &FeatureVector> = vectors.iter().map(|v| (v.key, v)).collect();

    // Normalize features to keep the distance metric balanced.
    let mut norm = MinMaxNorm::new();
    let mut labelled: Vec<(&[f64], usize)> = Vec::new();
    for visit in &data.visits {
        if let Some(v) = by_flow.get(&GroupKey::Flow(visit.flow)) {
            norm.observe(&v.values);
            labelled.push((&v.values, visit.site));
        }
    }
    let mut per_site: HashMap<usize, Vec<&[f64]>> = HashMap::new();
    for (v, site) in &labelled {
        per_site.entry(*site).or_default().push(v);
    }
    let mut knn = Knn::new(3).expect("k > 0");
    let mut tests: Vec<(Vec<f64>, usize)> = Vec::new();
    for (&site, visits) in &per_site {
        let half = (visits.len() / 2).max(1);
        for (i, v) in visits.iter().enumerate() {
            if i < half {
                knn.fit_one(norm.transform(v), site);
            } else {
                tests.push((norm.transform(v), site));
            }
        }
    }
    let pairs: Vec<(usize, usize)> = tests
        .iter()
        .filter_map(|(v, site)| knn.predict(v).map(|p| (p, *site)))
        .collect();
    let acc = accuracy(pairs);
    StudyResult {
        app: "CUMUL",
        accuracy: acc,
        auc: acc,
    }
}

/// MPTD-style covert-channel detection: decision tree over the 166-dim
/// mixed statistical feature set.
pub fn run_mptd(data: &CovertDataset) -> StudyResult {
    let vectors = group_vectors(policies::MPTD, &data.trace);
    let labelled: Vec<(Vec<f64>, usize)> = vectors
        .into_iter()
        .filter_map(|v| match v.key {
            GroupKey::Flow(ft) => Some((v.values, usize::from(data.covert.contains(&ft)))),
            _ => None,
        })
        .collect();
    let train: Vec<(Vec<f64>, usize)> = labelled.iter().step_by(2).cloned().collect();
    let test: Vec<&(Vec<f64>, usize)> = labelled.iter().skip(1).step_by(2).collect();
    let mut tree = DecisionTree::new(10, 4);
    if !tree.fit(&train) || test.is_empty() {
        return StudyResult {
            app: "MPTD",
            accuracy: 0.0,
            auc: 0.5,
        };
    }
    let pairs: Vec<(bool, bool)> = test
        .iter()
        .filter_map(|(x, l)| tree.predict(x).map(|p| (p == 1, *l == 1)))
        .collect();
    let conf = Confusion::from_pairs(pairs);
    StudyResult {
        app: "MPTD",
        accuracy: conf.accuracy(),
        auc: conf.f1(),
    }
}

/// N-BaIoT-style botnet detection: per-host anomaly detection with an
/// autoencoder trained on benign hosts' feature snapshots.
pub fn run_nbaiot(data: &BotnetDataset) -> StudyResult {
    let vectors = packet_vectors(policies::NBAIOT, &data.trace);
    let host_of = |key: &GroupKey| -> Option<u32> {
        key.project(Granularity::Host).map(|k| match k {
            GroupKey::Host(h) => h,
            _ => unreachable!("projection to host"),
        })
    };

    // Normalize over benign snapshots, train the AE on them.
    let mut norm = MinMaxNorm::new();
    let mut benign: Vec<&FeatureVector> = Vec::new();
    let mut per_host: HashMap<u32, Vec<&FeatureVector>> = HashMap::new();
    for v in &vectors {
        let Some(h) = host_of(&v.key) else { continue };
        per_host.entry(h).or_default().push(v);
        if !data.bot_hosts.contains(&h) {
            norm.observe(&v.values);
            benign.push(v);
        }
    }
    let dim = benign.first().map(|v| v.values.len()).unwrap_or(0);
    if dim == 0 {
        return StudyResult {
            app: "N-BaIoT",
            accuracy: 0.0,
            auc: 0.5,
        };
    }
    let mut ae = Autoencoder::new(dim, (dim * 3 / 4).max(1), 0.2, 11).expect("valid dims");
    for _ in 0..3 {
        for v in benign.iter().take(4000) {
            ae.train_step(&norm.transform(&v.values));
        }
    }

    // Per-host score: mean reconstruction RMSE of the host's snapshots.
    let scored: Vec<(f64, bool)> = per_host
        .iter()
        .map(|(h, vs)| {
            let s: f64 = vs
                .iter()
                .map(|v| ae.rmse(&norm.transform(&v.values)))
                .sum::<f64>()
                / vs.len() as f64;
            (s, data.bot_hosts.contains(h))
        })
        .collect();
    let roc = auc(&scored);
    // Threshold at the benign 95th percentile.
    let mut benign_scores: Vec<f64> = scored
        .iter()
        .filter(|(_, b)| !*b)
        .map(|(s, _)| *s)
        .collect();
    benign_scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let thr = benign_scores
        .get(benign_scores.len() * 95 / 100)
        .copied()
        .unwrap_or(f64::INFINITY);
    let conf = Confusion::from_pairs(scored.iter().map(|&(s, b)| (s > thr, b)));
    StudyResult {
        app: "N-BaIoT",
        accuracy: conf.accuracy(),
        auc: roc,
    }
}

/// NPOD-style covert-channel detection: decision tree over per-flow
/// distribution features.
pub fn run_npod(data: &CovertDataset) -> StudyResult {
    let vectors = group_vectors(policies::NPOD, &data.trace);
    let labelled: Vec<(Vec<f64>, usize)> = vectors
        .into_iter()
        .filter_map(|v| match v.key {
            GroupKey::Flow(ft) => Some((v.values, usize::from(data.covert.contains(&ft)))),
            _ => None,
        })
        .collect();
    // Deterministic split: even indices train, odd test.
    let train: Vec<(Vec<f64>, usize)> = labelled.iter().step_by(2).cloned().collect();
    let test: Vec<&(Vec<f64>, usize)> = labelled.iter().skip(1).step_by(2).collect();
    let mut tree = DecisionTree::new(8, 4);
    if !tree.fit(&train) || test.is_empty() {
        return StudyResult {
            app: "NPOD",
            accuracy: 0.0,
            auc: 0.5,
        };
    }
    let pairs: Vec<(bool, bool)> = test
        .iter()
        .filter_map(|(x, l)| tree.predict(x).map(|p| (p == 1, *l == 1)))
        .collect();
    let conf = Confusion::from_pairs(pairs);
    StudyResult {
        app: "NPOD",
        accuracy: conf.accuracy(),
        auc: conf.f1(),
    }
}

/// Kitsune-style intrusion detection: KitNET trained on a benign trace,
/// scored on a labelled attack trace. Returns per-packet detection AUC and
/// the accuracy at the benign-99th-percentile threshold.
pub fn run_kitsune(benign: &Trace, attack: &IntrusionDataset) -> StudyResult {
    // Train on benign traffic.
    let train_vectors = packet_vectors(policies::KITSUNE, benign);
    let dim = 115;
    let fm = (train_vectors.len() / 5).clamp(50, 2_000);
    let tr = (train_vectors.len() - fm).max(50);
    let mut kit = KitNet::new(dim, 10, fm, tr, 23).expect("valid config");
    for v in &train_vectors {
        kit.process(&v.values);
    }

    // Label the attack trace's vectors by (socket key, occurrence index).
    let attack_trace = attack.trace();
    let mut occurrence: HashMap<GroupKey, usize> = HashMap::new();
    let mut label_of: HashMap<(GroupKey, usize), bool> = HashMap::new();
    for (p, l) in &attack.labelled {
        let k = Granularity::Socket.key_of(p);
        let n = occurrence.entry(k).or_insert(0);
        label_of.insert((k, *n), *l);
        *n += 1;
    }
    let vectors = packet_vectors(policies::KITSUNE, &attack_trace);
    let mut occ2: HashMap<GroupKey, usize> = HashMap::new();
    let scored: Vec<(f64, bool)> = vectors
        .iter()
        .filter_map(|v| {
            let n = occ2.entry(v.key).or_insert(0);
            let key = (v.key, *n);
            *n += 1;
            let label = *label_of.get(&key)?;
            let s = kit.score(&v.values);
            s.is_finite().then_some((s, label))
        })
        .collect();
    let roc = auc(&scored);
    let mut benign_scores: Vec<f64> = scored
        .iter()
        .filter(|(_, l)| !*l)
        .map(|(s, _)| *s)
        .collect();
    benign_scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let thr = benign_scores
        .get(benign_scores.len() * 99 / 100)
        .copied()
        .unwrap_or(f64::INFINITY);
    let conf = Confusion::from_pairs(scored.iter().map(|&(s, l)| (s > thr, l)));
    StudyResult {
        app: "Kitsune",
        accuracy: conf.accuracy(),
        auc: roc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_trafficgen::botnet::{self, BotnetConfig};
    use superfe_trafficgen::covert::{self, CovertConfig};
    use superfe_trafficgen::intrusion::{self, IntrusionConfig, Scenario};
    use superfe_trafficgen::wf::{self, WfConfig};

    #[test]
    fn tf_classifies_sites_well() {
        let data = wf::generate(&WfConfig {
            sites: 8,
            visits_per_site: 8,
            seed: 3,
        });
        let r = run_tf(&data);
        assert!(r.accuracy > 0.6, "TF accuracy {}", r.accuracy);
    }

    #[test]
    fn cumul_classifies_sites() {
        let data = wf::generate(&WfConfig {
            sites: 6,
            visits_per_site: 8,
            seed: 13,
        });
        let r = run_cumul(&data);
        assert!(r.accuracy > 0.5, "CUMUL accuracy {}", r.accuracy);
    }

    #[test]
    fn mptd_detects_covert_channels() {
        let data = covert::generate(&CovertConfig {
            covert_flows: 16,
            normal_flows: 48,
            flow_len: 120,
            seed: 17,
        });
        let r = run_mptd(&data);
        assert!(r.accuracy > 0.8, "MPTD accuracy {}", r.accuracy);
    }

    #[test]
    fn nbaiot_separates_bots() {
        let data = botnet::generate(&BotnetConfig {
            bots: 8,
            benign: 20,
            duration_s: 30.0,
            seed: 5,
        });
        let r = run_nbaiot(&data);
        assert!(r.auc > 0.8, "N-BaIoT AUC {}", r.auc);
    }

    #[test]
    fn npod_detects_covert_channels() {
        let data = covert::generate(&CovertConfig {
            covert_flows: 20,
            normal_flows: 60,
            flow_len: 120,
            seed: 7,
        });
        let r = run_npod(&data);
        assert!(r.accuracy > 0.85, "NPOD accuracy {}", r.accuracy);
    }

    #[test]
    fn kitsune_detects_syn_dos() {
        let benign = intrusion::generate(&IntrusionConfig {
            scenario: Scenario::SynDos,
            benign_packets: 4_000,
            attack_packets: 0,
            seed: 1,
        })
        .trace();
        let attack = intrusion::generate(&IntrusionConfig {
            scenario: Scenario::SynDos,
            benign_packets: 3_000,
            attack_packets: 1_500,
            seed: 2,
        });
        let r = run_kitsune(&benign, &attack);
        assert!(r.auc > 0.75, "Kitsune AUC {}", r.auc);
    }
}
