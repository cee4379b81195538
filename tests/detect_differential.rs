//! Differential property test of the in-shard inference stage: for random
//! policies × random labelled traces, a detector scoring inside the NIC
//! shards ([`superfe::StreamingPipeline::with_inference`]) must raise an
//! alert stream **bitwise-identical** to offline batch scoring
//! ([`superfe::detect::score_offline`]) of the same extraction, at every
//! worker count, whether the scorer is float or fixed-point — the
//! executable form of the per-key ordering argument in DESIGN.md ("Online
//! detection").

use std::sync::Arc;

use proptest::prelude::*;

use superfe::detect::score_offline;
use superfe::ml::{
    quantize, train_and_calibrate, CalibrationConfig, CentroidDetector, KnnNovelty, QuantConfig,
    QuantizedDetector, SharedScorer,
};
use superfe::net::{Direction, PacketRecord};
use superfe::nic::{canonicalize, inline_alert_fingerprint, FeatureVector, InlineAlert};
use superfe::{StreamingPipeline, SuperFe, SuperFeConfig};

/// Worker counts (NIC shards) every property must hold for.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Policies whose vectors feed the detector: per-packet collect across
/// granularities, a group-collect, and a multi-granularity program that
/// exercises the FG broadcast on the extraction side.
fn policy_source() -> impl Strategy<Value = String> {
    let pkt = {
        let gran = prop_oneof![Just("flow"), Just("host"), Just("socket")];
        let reduce = prop_oneof![
            Just("[f_sum]"),
            Just("[f_mean, f_var]"),
            Just("[f_min, f_max, f_std]"),
        ];
        (gran, reduce).prop_map(|(g, r)| {
            format!("pktstream\n.groupby({g})\n.reduce(size, {r})\n.collect(pkt)")
        })
    };
    let group = Just(
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum, f_mean])\n.collect(host)".to_string(),
    );
    let multi = Just(
        "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(pkt)\n\
         .groupby(host)\n.reduce(size, [f_mean])\n.collect(host)"
            .to_string(),
    );
    prop_oneof![pkt, group, multi]
}

/// Random short traces with mixed protocols, directions, and group keys.
fn trace() -> impl Strategy<Value = Vec<PacketRecord>> {
    proptest::collection::vec(
        (
            0u64..5_000_000u64,
            40u16..1500u16,
            1u32..6u32,
            1u16..4u16,
            1u32..3u32,
            prop_oneof![Just(53u16), Just(80u16), Just(443u16)],
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        8..200,
    )
    .prop_map(|mut specs| {
        specs.sort_by_key(|s| s.0);
        specs
            .into_iter()
            .map(|(ts, size, sip, sport, dip, dport, is_tcp, egress)| {
                let mut p = if is_tcp {
                    PacketRecord::tcp(ts, size, sip, sport, dip, dport)
                } else {
                    PacketRecord::udp(ts, size, sip, sport, dip, dport)
                };
                if egress {
                    p.direction = Direction::Egress;
                }
                p
            })
            .collect()
    })
}

/// Which detector family to freeze for the run.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Knn,
    Centroid,
}

/// Extracts the trace offline, trains + calibrates a detector on the
/// resulting vectors, and returns it with the extraction.
///
/// Calibrating at the 0.8 quantile with no margin deliberately puts the
/// threshold *inside* the observed score range, so the alert stream under
/// test is non-empty for most inputs.
fn freeze(
    src: &str,
    pkts: &[PacketRecord],
    kind: Kind,
) -> Option<(
    superfe::ml::FrozenDetector,
    Vec<FeatureVector>,
    Vec<FeatureVector>,
)> {
    let mut fe = SuperFe::from_dsl(src).expect("valid policy");
    for p in pkts {
        fe.push(p);
    }
    let out = fe.finish();
    let all: Vec<&[f64]> = out
        .packet_vectors
        .iter()
        .chain(&out.group_vectors)
        .map(|v| v.values.as_slice())
        .collect();
    if all.len() < 8 {
        return None;
    }
    let dim = all[0].len();
    let det: Box<dyn superfe::ml::Detector> = match kind {
        Kind::Knn => Box::new(KnnNovelty::new(dim, 3).expect("valid k")),
        Kind::Centroid => Box::new(CentroidDetector::new(dim).expect("valid dim")),
    };
    let frozen = train_and_calibrate(
        det,
        &all,
        0.25,
        CalibrationConfig {
            quantile: 0.8,
            margin: 1.0,
        },
    )
    .ok()?;
    Some((frozen, out.packet_vectors, out.group_vectors))
}

/// Quantizes a frozen detector with an input grid sized from the vectors
/// it will actually score, so no in-range input saturates.
fn quantize_for(
    det: &superfe::ml::FrozenDetector,
    vectors: &[FeatureVector],
) -> Option<QuantizedDetector> {
    let max_abs = vectors
        .iter()
        .flat_map(|v| v.values.as_slice())
        .fold(0.0f64, |m, &v| m.max(v.abs()));
    quantize(
        det,
        &QuantConfig {
            max_abs_input: (max_abs * 2.0).max(1.0),
            ..QuantConfig::default()
        },
    )
    .ok()
}

/// Serves the trace with `model` scoring inside the NIC shards — one path
/// for every scorer — and returns the extraction (alerts + stats included).
fn serve(
    src: &str,
    pkts: &[PacketRecord],
    model: &SharedScorer,
    workers: usize,
) -> superfe::Extraction {
    let policy = superfe::policy::dsl::parse(src).expect("valid policy");
    let cfg = SuperFeConfig::default();
    let mut fe = StreamingPipeline::with_inference(&policy, cfg, workers, model.clone())
        .expect("valid policy");
    for p in pkts {
        fe.push(p).expect("pipeline alive");
    }
    fe.finish().expect("pipeline alive")
}

/// Alert stream in its worker-count-independent comparison form: canonical
/// order with bitwise scores and thresholds.
fn alert_fingerprint(mut alerts: Vec<InlineAlert>) -> Vec<(String, u64, u64)> {
    canonicalize(&mut alerts, |a| (a.key, a.seq));
    inline_alert_fingerprint(&alerts)
}

/// The property itself, for any scorer: at every worker count the stage
/// sees every emitted vector, rejects what offline rejects, and raises
/// offline's alert stream bit for bit.
fn assert_in_shard_matches_offline(
    src: &str,
    pkts: &[PacketRecord],
    model: &SharedScorer,
    pkt_vecs: &[FeatureVector],
    group_vecs: &[FeatureVector],
) -> Result<(), TestCaseError> {
    let offline = score_offline(&**model, pkt_vecs, group_vecs);
    let offline_alerts = alert_fingerprint(offline.alerts);
    let total = (pkt_vecs.len() + group_vecs.len()) as u64;
    for workers in WORKER_COUNTS {
        let ex = serve(src, pkts, model, workers);
        let stats = ex.inline_stats.expect("inference was attached");
        prop_assert_eq!(
            stats.scored + stats.dim_errors,
            total,
            "the stage must see every emitted vector at workers={}",
            workers
        );
        prop_assert_eq!(stats.dim_errors, offline.dim_errors);
        prop_assert!(
            alert_fingerprint(ex.inline_alerts) == offline_alerts,
            "{} alert stream diverged from offline at workers={} for:\n{}",
            model.name(),
            workers,
            src
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn online_serving_matches_offline_batch_at_every_worker_count(
        src in policy_source(),
        pkts in trace(),
        knn in proptest::bool::ANY,
    ) {
        let kind = if knn { Kind::Knn } else { Kind::Centroid };
        let Some((det, pkt_vecs, group_vecs)) = freeze(&src, &pkts, kind) else {
            // Too few vectors to train on — not an interesting input.
            return Ok(());
        };
        let model: SharedScorer = Arc::new(det);
        assert_in_shard_matches_offline(&src, &pkts, &model, &pkt_vecs, &group_vecs)?;
    }

    /// The fixed-point lowering rides the same stage, so the same property
    /// holds for it: pure integer scores, bitwise equal to offline batch
    /// scoring with the same quantized model.
    #[test]
    fn in_pipeline_quantized_alerts_match_offline_at_every_worker_count(
        src in policy_source(),
        pkts in trace(),
    ) {
        // Only centroid has both a float and a fixed-point lowering here;
        // the float differential already covers knn.
        let Some((det, pkt_vecs, group_vecs)) = freeze(&src, &pkts, Kind::Centroid) else {
            return Ok(());
        };
        let all: Vec<FeatureVector> = pkt_vecs.iter().chain(&group_vecs).cloned().collect();
        let Some(model) = quantize_for(&det, &all) else {
            return Ok(());
        };
        let model: SharedScorer = Arc::new(model);
        assert_in_shard_matches_offline(&src, &pkts, &model, &pkt_vecs, &group_vecs)?;
    }
}

/// The alert stream is a function of the input alone: repeated serve runs
/// at the same worker count must produce the same canonical alert sequence.
#[test]
fn alert_stream_is_deterministic_across_runs() {
    let src = "pktstream\n.groupby(host)\n.reduce(size, [f_sum, f_mean])\n.collect(pkt)";
    let pkts: Vec<PacketRecord> = (0..2_000u64)
        .map(|i| {
            let size = if i % 97 == 0 { 1400 } else { 120 };
            PacketRecord::tcp(i * 700, size, (i % 23 + 1) as u32, 1000, 7, 443)
        })
        .collect();
    let (det, _, _) = freeze(src, &pkts, Kind::Knn).expect("enough vectors");
    let model: SharedScorer = Arc::new(det);
    let first = alert_fingerprint(serve(src, &pkts, &model, 4).inline_alerts);
    assert!(!first.is_empty(), "calibration inside the range must alert");
    for _ in 0..4 {
        let again = alert_fingerprint(serve(src, &pkts, &model, 4).inline_alerts);
        assert_eq!(first, again, "alert stream varied between runs");
    }
}
