//! Fig. 11-style end-to-end accuracy floor through the *online serving*
//! path: train a KitNET detector on a benign trace, calibrate its threshold
//! from held-out benign scores (no hard-coded constants), then serve a
//! labelled Mirai-style trace with the detector scoring inside the NIC
//! shards and check it still clears the §8.3 offline quality floor
//! (AUC > 0.75 for Kitsune) — plus the properties calibration buys:
//! benign warm-up stays quiet and the attack window raises alerts.

use std::sync::Arc;

use superfe::detect::{label_scores, score_offline, DetectorKind};
use superfe::ml::{auc, train_and_calibrate, CalibrationConfig, Confusion};
use superfe::nic::{canonicalize, inline_alert_fingerprint};
use superfe::{StreamingPipeline, SuperFe, SuperFeConfig};
use superfe_trafficgen::intrusion::{self, IntrusionConfig, Scenario};

/// The Kitsune policy (115-d per-packet vectors), as in the offline study.
const POLICY: &str = superfe::apps::policies::KITSUNE;

/// The offline §8.3 floor for Kitsune (see `superfe_apps::study`).
const AUC_FLOOR: f64 = 0.75;

#[test]
fn served_kitnet_clears_the_offline_accuracy_floor() {
    // --- Train + calibrate on benign traffic only. ---
    let train = intrusion::generate(&IntrusionConfig {
        scenario: Scenario::Mirai,
        benign_packets: 4_000,
        attack_packets: 0,
        seed: 21,
    });
    let mut fe = SuperFe::from_dsl(POLICY).expect("policy deploys");
    for (p, _) in &train.labelled {
        fe.push(p);
    }
    let vectors = fe.finish().packet_vectors;
    let refs: Vec<&[f64]> = vectors.iter().map(|v| v.values.as_slice()).collect();
    let dim = refs[0].len();
    assert_eq!(dim, 115, "Kitsune policy emits 115-d per-packet vectors");
    let det = DetectorKind::KitNet
        .build(dim, 21)
        .expect("detector builds");
    let frozen = train_and_calibrate(det, &refs, 0.2, CalibrationConfig::default())
        .expect("training trace is large enough");
    assert!(
        frozen.threshold() > 0.0,
        "calibration must derive a positive threshold"
    );

    // --- Serve a labelled attack trace online. ---
    let serve_set = intrusion::generate(&IntrusionConfig {
        scenario: Scenario::Mirai,
        benign_packets: 2_000,
        attack_packets: 1_000,
        seed: 22,
    });
    let frozen = Arc::new(frozen);
    let policy = superfe::policy::dsl::parse(POLICY).expect("policy parses");
    let mut fe =
        StreamingPipeline::with_inference(&policy, SuperFeConfig::default(), 2, frozen.clone())
            .expect("policy deploys");
    for (p, _) in &serve_set.labelled {
        fe.push(p).expect("pipeline alive");
    }
    let served = fe.finish().expect("pipeline alive");
    let stats = served.inline_stats.expect("inference was attached");
    assert_eq!(stats.scored as usize, serve_set.labelled.len());

    // --- Quality floor (threshold-free, matches the offline study). ---
    // Ground truth by (socket key, occurrence index), as in the study; the
    // stage keeps alerts, not scores, so the scores are the same model's
    // over the served extraction's own vectors.
    let scores = score_offline(&*frozen, &served.packet_vectors, &served.group_vectors).scores;
    let pairs = label_scores(&scores, &serve_set.labelled);
    assert_eq!(
        pairs.len(),
        serve_set.labelled.len(),
        "every vector labelled"
    );
    let roc = auc(&pairs);
    assert!(
        roc > AUC_FLOOR,
        "served Kitsune AUC {roc} fell below the offline floor {AUC_FLOOR}"
    );

    // --- Properties the calibrated threshold buys. ---
    let threshold = frozen.threshold();
    let conf = Confusion::from_pairs(pairs.iter().map(|&(s, l)| (s > threshold, l)));
    assert!(conf.tp > 0, "attack window raised no alerts");
    assert_eq!(conf.fp, 0, "benign traffic raised {} false alerts", conf.fp);
    assert!(
        conf.f1() > 0.0,
        "alerting at the calibrated threshold must have signal"
    );
    assert_eq!(
        stats.alerts as usize,
        conf.tp + conf.fp,
        "every alert corresponds to a scored vector over threshold"
    );

    // --- The online path is bitwise-faithful to offline batch scoring. ---
    let mut fe = SuperFe::from_dsl(POLICY).expect("policy deploys");
    for (p, _) in &serve_set.labelled {
        fe.push(p);
    }
    let out = fe.finish();
    let offline = score_offline(&*frozen, &out.packet_vectors, &out.group_vectors);
    assert_eq!(
        superfe::detect::score_fingerprint(&scores),
        superfe::detect::score_fingerprint(&offline.scores),
        "the served extraction's scores diverged from the lock-step one's"
    );
    let mut alerts = served.inline_alerts;
    canonicalize(&mut alerts, |a| (a.key, a.seq));
    assert_eq!(
        inline_alert_fingerprint(&alerts),
        inline_alert_fingerprint(&offline.alerts),
        "in-shard serving diverged from offline batch scoring"
    );
}
