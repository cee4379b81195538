//! `superfe detect`: online detection over a labelled intrusion trace.
//!
//! Fits a detector once on a benign intrusion-scenario trace and calibrates
//! its threshold on the trace's held-out tail, then serves a labelled
//! attack trace through [`StreamingPipeline::with_inference`] — the float
//! model scoring each vector in the NIC shard that finalized it — and
//! reports the calibrated threshold, alert counts split by ground-truth
//! label, and precision/recall/F1/AUC. With `--in-pipeline` the same trace
//! is served once more with the SF09xx-certified fixed-point model in the
//! same stage, and the certificate is reported next to the measured
//! float-vs-quantized score divergence.
//!
//! Everything in the document is a function of the flags: the same seed
//! gives the same bytes. What inference costs is the `kitsune_inline`
//! workload of `benchmark/` against `kitsune_extract`.

use std::sync::Arc;

use superfe_core::{Extraction, StreamingPipeline, SuperFe, SuperFeConfig};
use superfe_detect::{
    label_scores, max_score_delta, score_offline, DetectorKind, QuantizedSection,
};
use superfe_ml::{
    auc, train_and_calibrate, CalibrationConfig, Confusion, FrozenDetector, SharedScorer,
};
use superfe_net::PacketRecord;
use superfe_policy::analyze::json::Json;
use superfe_policy::analyze::quant::{certify, QuantCheckConfig};
use superfe_trafficgen::intrusion::{self, IntrusionConfig, Scenario};

use crate::args::{err, fail, CliError, Flags};

/// The policy served: Kitsune's 115-dimensional per-packet feature vector
/// over three granularities.
const POLICY: &str = superfe_apps::policies::KITSUNE;

/// Configuration of `superfe detect`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectConfig {
    /// Which intrusion scenario to serve.
    pub scenario: Scenario,
    /// Which detector model to train.
    pub detector: DetectorKind,
    /// Benign packets in the training trace (seeded with `seed`).
    pub benign_packets: usize,
    /// Benign packets in the served trace (seeded with `seed + 1`).
    pub serve_benign: usize,
    /// Attack packets in the served trace.
    pub attack_packets: usize,
    /// Base RNG seed: the training trace uses `seed`, the served trace
    /// `seed + 1`, and the detector (KitNET init / CART background) `seed`.
    pub seed: u64,
    /// NIC shard count.
    pub workers: usize,
    /// Calibration quantile (see [`CalibrationConfig`]).
    pub quantile: f64,
    /// Calibration margin (see [`CalibrationConfig`]).
    pub margin: f64,
    /// Also serve through the in-pipeline quantized path: certify the
    /// detector's fixed-point lowering (SF09xx) and run the same trace
    /// through [`StreamingPipeline::with_inference`].
    pub in_pipeline: bool,
}

impl Default for DetectConfig {
    fn default() -> Self {
        let cal = CalibrationConfig::default();
        DetectConfig {
            scenario: Scenario::Mirai,
            detector: DetectorKind::KitNet,
            benign_packets: 6_000,
            serve_benign: 3_000,
            attack_packets: 1_500,
            seed: 1,
            workers: 2,
            quantile: cal.quantile,
            margin: cal.margin,
            in_pipeline: false,
        }
    }
}

/// Parses a scenario name (case-insensitive, `-`/`_` interchangeable).
fn parse_scenario(s: &str) -> Option<Scenario> {
    let norm = s.to_ascii_lowercase().replace('-', "_");
    Scenario::all()
        .into_iter()
        .find(|sc| sc.name().to_ascii_lowercase() == norm)
}

/// Parses the flags after `superfe detect` into the configuration and the
/// optional `--out` path. Flags are a trust boundary: every value that
/// would make the run meaningless (a non-finite threshold, an empty served
/// trace) is refused here, naming the flag.
pub(crate) fn parse_flags(args: &[String]) -> Result<(DetectConfig, Option<String>), CliError> {
    let mut cfg = DetectConfig::default();
    let mut out = None;
    Flags::new(args).each(|flag, f| {
        match flag {
            "--scenario" => {
                let v = f.value()?;
                cfg.scenario = parse_scenario(&v).ok_or_else(|| {
                    err(format!(
                        "--scenario expects one of os_scan, ssdp_flood, syn_dos, \
                         fuzzing, mirai; got '{v}'"
                    ))
                })?;
            }
            "--detector" => {
                let v = f.value()?;
                cfg.detector = DetectorKind::parse(&v).ok_or_else(|| {
                    err(format!(
                        "--detector expects one of kitnet, knn, cart, centroid; got '{v}'"
                    ))
                })?;
            }
            "--benign" => cfg.benign_packets = f.parse("an integer")?,
            "--serve-benign" => cfg.serve_benign = f.parse("an integer")?,
            "--attack" => cfg.attack_packets = f.parse("an integer")?,
            "--seed" => cfg.seed = f.parse("an integer")?,
            "--workers" => cfg.workers = f.workers()?,
            "--quantile" => {
                cfg.quantile = f.parse("a number")?;
                // `contains` is false for NaN, so this refuses it too.
                if !(0.0..=1.0).contains(&cfg.quantile) {
                    return Err(err("--quantile expects a value in [0, 1]"));
                }
            }
            "--margin" => {
                cfg.margin = f.parse("a number")?;
                // NaN and inf parse as numbers and would calibrate a
                // threshold no score can cross.
                if !(cfg.margin.is_finite() && cfg.margin > 0.0) {
                    return Err(err("--margin expects a finite positive value"));
                }
            }
            "--in-pipeline" => cfg.in_pipeline = true,
            "--out" => out = Some(f.value()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if cfg.serve_benign == 0 && cfg.attack_packets == 0 {
        return Err(err(
            "--serve-benign and --attack are both 0: the served trace is empty",
        ));
    }
    Ok((cfg, out))
}

/// The `"detection"` section: the float model's serving run.
#[derive(Clone, Debug)]
pub(crate) struct DetectionSummary {
    /// Feature dimension of the policy's per-packet vectors.
    feature_dim: usize,
    /// Vectors used for training (before the calibration split).
    train_vectors: usize,
    /// Held-out benign vectors used for calibration.
    calibration_vectors: usize,
    /// The calibrated alert threshold.
    threshold: f64,
    /// Vectors scored by the in-shard stage.
    scored: u64,
    /// Scored vectors matched to a ground-truth label.
    matched: usize,
    /// Total alerts.
    alerts: u64,
    /// Alert-vs-label counts at the calibrated threshold: `tp` is alerts on
    /// attack traffic, `fp` alerts on benign traffic (the CI smoke requires
    /// 0 there).
    confusion: Confusion,
    /// Threshold-free ranking quality.
    auc: f64,
}

/// The `"in_pipeline"` section: the SF09xx certificate and the fixed-point
/// stage's alert stream.
#[derive(Clone, Debug)]
pub(crate) enum InPipelineSummary {
    /// The detector has no fixed-point lowering (e.g. `knn`); the reason is
    /// the SF0902 culprit.
    Unsupported {
        /// Blocking layer reported by the SF09xx pass.
        reason: String,
    },
    /// The quantized stage ran in-pipeline.
    Served {
        /// Certificate-derived report section (format, bound, measured
        /// delta, inline alert counts).
        section: QuantizedSection,
        /// Quantized-scored vectors matched to a ground-truth label.
        matched: usize,
        /// Inline-alert-vs-label counts over the matched vectors.
        confusion: Confusion,
    },
}

/// One `superfe detect` run.
#[derive(Clone, Debug)]
pub(crate) struct DetectRun {
    cfg: DetectConfig,
    detection: DetectionSummary,
    /// Present when `cfg.in_pipeline`.
    in_pipeline: Option<InPipelineSummary>,
}

/// Serves `labelled` with `model` scoring in the NIC shards. Returns the
/// extraction (the stage's counters in it) and — to split the alerts by
/// ground-truth label — the `(score, label)` pairs of the same model
/// reference-scoring the extraction's own vectors.
fn serve(
    cfg: &DetectConfig,
    model: SharedScorer,
    labelled: &[(PacketRecord, bool)],
) -> Result<(Extraction, Vec<(f64, bool)>), CliError> {
    let policy = superfe_policy::dsl::parse(POLICY).map_err(fail)?;
    let deploy = SuperFeConfig::default();
    let mut fe = StreamingPipeline::with_inference(&policy, deploy, cfg.workers, model.clone())
        .map_err(fail)?;
    for (p, _) in labelled {
        fe.push(p).map_err(fail)?;
    }
    let ex = fe.finish().map_err(fail)?;
    let off = score_offline(&*model, &ex.packet_vectors, &ex.group_vectors);
    Ok((ex, label_scores(&off.scores, labelled)))
}

/// The fraction of the training vectors held out for calibration.
const CAL_FRAC: f64 = 0.2;

/// Trains and calibrates `cfg`'s detector on its benign trace (offline
/// extraction). Returns the frozen model and how many vectors it was given.
fn train(cfg: &DetectConfig) -> Result<(FrozenDetector, usize), CliError> {
    let train_set = intrusion::generate(&IntrusionConfig {
        scenario: cfg.scenario,
        benign_packets: cfg.benign_packets,
        attack_packets: 0,
        seed: cfg.seed,
    });
    let mut fe = SuperFe::from_dsl(POLICY).map_err(fail)?;
    for (p, _) in &train_set.labelled {
        fe.push(p);
    }
    let train_vectors = fe.finish().packet_vectors;
    if train_vectors.is_empty() {
        return Err(err("training trace produced no feature vectors"));
    }
    let dim = train_vectors[0].values.len();
    let refs: Vec<&[f64]> = train_vectors.iter().map(|v| v.values.as_slice()).collect();
    let det = cfg.detector.build(dim, cfg.seed).map_err(fail)?;
    let frozen = train_and_calibrate(
        det,
        &refs,
        CAL_FRAC,
        CalibrationConfig {
            quantile: cfg.quantile,
            margin: cfg.margin,
        },
    )
    .map_err(fail)?;
    Ok((frozen, refs.len()))
}

/// Train + calibrate offline, then serve the labelled trace once with the
/// float model and, when asked, once with its fixed-point lowering.
/// Degenerate configurations come back as errors.
pub(crate) fn run(cfg: &DetectConfig) -> Result<DetectRun, CliError> {
    let (frozen, vectors) = train(cfg)?;
    let calibration_vectors = ((vectors as f64 * CAL_FRAC).round() as usize).clamp(1, vectors - 1);

    // --- The served trace: benign warm-up, then the attack window. ---
    let serve_set = intrusion::generate(&IntrusionConfig {
        scenario: cfg.scenario,
        benign_packets: cfg.serve_benign,
        attack_packets: cfg.attack_packets,
        seed: cfg.seed + 1,
    });

    let frozen = Arc::new(frozen);
    let (ex, scored_pairs) = serve(cfg, frozen.clone(), &serve_set.labelled)?;
    let stats = ex.inline_stats.unwrap_or_default();
    let threshold = frozen.threshold();
    let confusion = Confusion::from_pairs(scored_pairs.iter().map(|&(s, l)| (s > threshold, l)));

    let in_pipeline = if cfg.in_pipeline {
        Some(serve_in_pipeline(cfg, &frozen, &serve_set.labelled)?)
    } else {
        None
    };
    Ok(DetectRun {
        cfg: *cfg,
        detection: DetectionSummary {
            feature_dim: frozen.feature_dim(),
            train_vectors: vectors - calibration_vectors,
            calibration_vectors,
            threshold,
            scored: stats.scored,
            matched: scored_pairs.len(),
            alerts: stats.alerts,
            confusion,
            auc: auc(&scored_pairs),
        },
        in_pipeline,
    })
}

/// Certifies the fixed-point lowering, serves the trace with it, and
/// assembles the in-pipeline section.
fn serve_in_pipeline(
    cfg: &DetectConfig,
    frozen: &FrozenDetector,
    labelled: &[(PacketRecord, bool)],
) -> Result<InPipelineSummary, CliError> {
    let policy = superfe_policy::dsl::parse(POLICY).map_err(fail)?;
    let cert = certify(&policy, frozen, &QuantCheckConfig::default());
    let Some(model) = cert.detector else {
        return Ok(InPipelineSummary::Unsupported {
            reason: cert.culprit.unwrap_or_else(|| "lowering".into()),
        });
    };
    let model = Arc::new(model);
    let (ex, pairs) = serve(cfg, model.clone(), labelled)?;
    let stats = ex.inline_stats.unwrap_or_default();
    // The float-vs-quantized divergence the SF0901 bound must dominate.
    let delta = max_score_delta(
        frozen,
        &model,
        ex.packet_vectors.iter().chain(&ex.group_vectors),
    );

    Ok(InPipelineSummary::Served {
        section: QuantizedSection {
            format: model.format(),
            certified: cert.certified,
            bound: cert.bound,
            culprit: cert.culprit,
            alu_ops: cert.alu_ops,
            threshold: model.threshold(),
            scored: stats.scored,
            alerts: stats.alerts,
            dim_errors: stats.dim_errors,
            score_delta_max: delta,
        },
        matched: pairs.len(),
        confusion: Confusion::from_pairs(pairs.iter().map(|&(s, l)| (model.is_alert(s), l))),
    })
}

/// A threshold, bound or score delta in the document: `{:.9e}`; a bound
/// SF0902 could not prove is infinite, and the writer makes it `null`.
fn sci(x: f64) -> Json {
    Json::num(format!("{x:.9e}"))
}

/// A ratio in [0, 1] in the document: `{:.4}`.
fn ratio(x: f64) -> Json {
    Json::num(format!("{x:.4}"))
}

impl DetectRun {
    /// The `"detection"` section alone.
    fn detection_json(&self) -> Json {
        let d = &self.detection;
        Json::Obj(vec![
            ("feature_dim", Json::num(d.feature_dim)),
            ("train_vectors", Json::num(d.train_vectors)),
            ("calibration_vectors", Json::num(d.calibration_vectors)),
            ("threshold", sci(d.threshold)),
            ("scored", Json::num(d.scored)),
            ("matched", Json::num(d.matched)),
            ("alerts", Json::num(d.alerts)),
            ("alerts_on_attack", Json::num(d.confusion.tp)),
            ("alerts_on_benign", Json::num(d.confusion.fp)),
            ("precision", ratio(d.confusion.precision())),
            ("recall", ratio(d.confusion.recall())),
            ("f1", ratio(d.confusion.f1())),
            ("auc", ratio(d.auc)),
        ])
    }

    /// The `"in_pipeline"` section: the SF09xx certificate next to the
    /// in-pipeline alert stream and score fidelity.
    fn in_pipeline_json(ip: &InPipelineSummary) -> Json {
        match ip {
            InPipelineSummary::Unsupported { reason } => Json::Obj(vec![
                ("supported", Json::Bool(false)),
                ("reason", Json::str(reason)),
            ]),
            InPipelineSummary::Served {
                section,
                matched,
                confusion,
            } => Json::Obj(vec![
                ("supported", Json::Bool(true)),
                ("format", Json::str(&section.format)),
                ("certified", Json::Bool(section.certified)),
                ("bound", sci(section.bound)),
                (
                    "culprit",
                    section.culprit.as_ref().map_or(Json::Null, Json::str),
                ),
                ("alu_ops", Json::num(section.alu_ops)),
                ("threshold", sci(section.threshold)),
                ("scored", Json::num(section.scored)),
                ("alerts", Json::num(section.alerts)),
                ("dim_errors", Json::num(section.dim_errors)),
                ("matched", Json::num(matched)),
                ("alerts_on_attack", Json::num(confusion.tp)),
                ("alerts_on_benign", Json::num(confusion.fp)),
                ("score_delta_max", sci(section.score_delta_max)),
                (
                    "delta_within_bound",
                    Json::Bool(section.delta_within_bound()),
                ),
            ]),
        }
    }

    /// The full document.
    fn to_json(&self) -> String {
        let mut doc = vec![
            ("experiment", Json::str("online_detection")),
            ("policy", Json::str("Kitsune")),
            ("scenario", Json::str(self.cfg.scenario.name())),
            ("detector", Json::str(self.cfg.detector.name())),
            ("seed", Json::num(self.cfg.seed)),
            ("workers", Json::num(self.cfg.workers)),
            ("detection", self.detection_json()),
        ];
        if let Some(ip) = &self.in_pipeline {
            doc.push(("in_pipeline", Self::in_pipeline_json(ip)));
        }
        Json::Obj(doc).pretty() + "\n"
    }

    /// The human-readable lines printed under the document.
    fn summary_text(&self) -> String {
        let d = &self.detection;
        let mut text = format!(
            "\ndetector={} scenario={} threshold={:.6e}\n\
             alerts_on_attack={} alerts_on_benign={} f1={:.4} auc={:.4}\n",
            self.cfg.detector.name(),
            self.cfg.scenario.name(),
            d.threshold,
            d.confusion.tp,
            d.confusion.fp,
            d.confusion.f1(),
            d.auc,
        );
        match &self.in_pipeline {
            Some(InPipelineSummary::Served {
                section, confusion, ..
            }) => {
                let certificate = if section.certified {
                    format!(" <= SF0901 bound {:.3e}", section.bound)
                } else {
                    " (uncertified: SF0902)".to_string()
                };
                text.push_str(&format!(
                    "in-pipeline ({}): {} alerts (attack={}, benign={}), \
                     |float-quant| max {:.3e}{certificate}\n",
                    section.format,
                    section.alerts,
                    confusion.tp,
                    confusion.fp,
                    section.score_delta_max,
                ));
            }
            Some(InPipelineSummary::Unsupported { reason }) => {
                text.push_str(&format!(
                    "in-pipeline: detector has no fixed-point lowering ({reason})\n"
                ));
            }
            None => {}
        }
        text
    }
}

/// Runs the command: the JSON document (also written to `out` when given)
/// followed by the summary lines.
pub(crate) fn execute(cfg: &DetectConfig, out: Option<String>) -> Result<String, CliError> {
    let run = run(cfg)?;
    let mut text = run.to_json();
    if let Some(path) = out {
        std::fs::write(&path, &text).map_err(|e| err(format!("writing {path}: {e}")))?;
    }
    text.push_str(&run.summary_text());
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::argv;
    use crate::{parse_args, Command};

    /// A small, fast configuration for tests.
    fn small() -> DetectConfig {
        DetectConfig {
            detector: DetectorKind::Centroid,
            benign_packets: 1_200,
            serve_benign: 600,
            attack_packets: 300,
            workers: 2,
            ..DetectConfig::default()
        }
    }

    #[test]
    fn detection_section_is_byte_identical_across_runs() {
        let cfg = small();
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(
            a.detection_json(),
            b.detection_json(),
            "same seed must reproduce the detection section byte-for-byte"
        );
    }

    #[test]
    fn different_seed_changes_the_workload() {
        let a = run(&small()).unwrap();
        let b = run(&DetectConfig {
            seed: 99,
            ..small()
        })
        .unwrap();
        // The threshold is derived from seeded traffic: a different seed
        // must be visible in the section.
        assert_ne!(a.detection_json(), b.detection_json());
    }

    #[test]
    fn in_pipeline_section_measures_the_quantized_path() {
        // A tighter margin than the default 1.1 so the small centroid
        // config actually crosses the threshold on attack traffic.
        let cfg = DetectConfig {
            in_pipeline: true,
            quantile: 0.99,
            margin: 1.0,
            ..small()
        };
        let run = run(&cfg).unwrap();
        let Some(InPipelineSummary::Served {
            section,
            matched,
            confusion,
        }) = &run.in_pipeline
        else {
            panic!("centroid must lower to a served in-pipeline section");
        };
        assert!(section.scored > 0, "inline stage scored nothing");
        assert_eq!(section.dim_errors, 0);
        assert!(*matched > 0, "no quantized scores matched a label");
        assert!(
            section.delta_within_bound(),
            "measured delta {} exceeds certified bound {}",
            section.score_delta_max,
            section.bound
        );
        // The attack must still be visible through the fixed-point path.
        assert!(confusion.tp > 0, "quantized path missed the attack");
    }

    /// What lowering folds on the model the `detect_kitnet*` golden
    /// documents pin, printed for `ci.sh`'s scorer-kernel step: the share of
    /// the program that is a constant of the model, next to the unfolded
    /// price the document reports.
    #[test]
    fn golden_kitnet_reports_what_lowering_folded() {
        let cfg = DetectConfig {
            detector: DetectorKind::KitNet,
            ..small()
        };
        let (frozen, _) = train(&cfg).unwrap();
        let policy = superfe_policy::dsl::parse(POLICY).unwrap();
        let model = certify(&policy, &frozen, &QuantCheckConfig::default())
            .detector
            .expect("kitnet lowers");
        let f = model.folded();
        println!(
            "detect golden model: {} of {} clusters and {} bias inputs folded, \
             {} of {} MACs per score; alu_ops (unfolded) {}",
            f.clusters,
            f.of_clusters,
            f.bias_inputs,
            f.macs,
            f.of_macs,
            model.alu_ops()
        );
        assert_eq!(
            model.alu_ops(),
            9_970,
            "the unfolded program is what is priced"
        );
        assert!(f.bias_inputs >= f.clusters && f.macs < f.of_macs);
    }

    #[test]
    fn unquantizable_detector_reports_unsupported() {
        let cfg = DetectConfig {
            detector: DetectorKind::Knn,
            in_pipeline: true,
            ..small()
        };
        let run = run(&cfg).unwrap();
        let Some(InPipelineSummary::Unsupported { reason }) = &run.in_pipeline else {
            panic!("knn has no fixed-point lowering");
        };
        assert!(!reason.is_empty());
        let json = run.to_json();
        assert!(json.contains("\"supported\": false"));
    }

    #[test]
    fn scenario_names_parse() {
        for sc in Scenario::all() {
            assert_eq!(parse_scenario(sc.name()), Some(sc));
        }
        assert_eq!(parse_scenario("syn-dos"), Some(Scenario::SynDos));
        assert_eq!(parse_scenario("unknown"), None);
    }

    #[test]
    fn parses_detect_options() {
        let c = parse_args(&argv(
            "detect --scenario syn_dos --detector centroid --benign 900 \
             --serve-benign 400 --attack 200 --seed 5 --workers 4 \
             --quantile 0.99 --margin 1.2 --in-pipeline --out d.json",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Detect {
                cfg: DetectConfig {
                    scenario: Scenario::SynDos,
                    detector: DetectorKind::Centroid,
                    benign_packets: 900,
                    serve_benign: 400,
                    attack_packets: 200,
                    seed: 5,
                    workers: 4,
                    quantile: 0.99,
                    margin: 1.2,
                    in_pipeline: true,
                },
                out: Some("d.json".into()),
            }
        );
        assert_eq!(
            parse_args(&argv("detect")),
            Ok(Command::Detect {
                cfg: DetectConfig::default(),
                out: None,
            })
        );
        // One empty half of the served trace is a legal (if dull) run.
        assert!(parse_args(&argv("detect --attack 0")).is_ok());
        assert!(parse_args(&argv("detect --serve-benign 0")).is_ok());
    }

    #[test]
    fn rejects_bad_detect_input_naming_the_flag() {
        for (line, flag) in [
            ("detect --scenario nope", "--scenario"),
            ("detect --detector nope", "--detector"),
            ("detect --workers 0", "--workers"),
            ("detect --quantile 1.5", "--quantile"),
            ("detect --margin -1", "--margin"),
            ("detect --seed", "--seed"),
            // Values that parse as numbers but cannot calibrate or serve.
            ("detect --margin nan", "--margin"),
            ("detect --margin inf", "--margin"),
            ("detect --margin -inf", "--margin"),
            ("detect --quantile nan", "--quantile"),
            ("detect --quantile inf", "--quantile"),
            ("detect --serve-benign 0 --attack 0", "--serve-benign"),
            ("detect --attack 0 --serve-benign 0", "--attack"),
        ] {
            let e = parse_args(&argv(line)).expect_err(line);
            assert!(e.message.contains(flag), "'{line}' -> '{e}' omits {flag}");
        }
    }

    #[test]
    fn detect_command_emits_the_document_then_the_summary() {
        let out = execute(
            &DetectConfig {
                in_pipeline: true,
                ..small()
            },
            None,
        )
        .unwrap();
        let (json, summary) = out.split_at(out.find("\n}\n").expect("document ends") + 3);
        for key in [
            "\"experiment\": \"online_detection\"",
            "\"detection\"",
            "\"alerts_on_attack\"",
            "\"alerts_on_benign\"",
            "\"in_pipeline\"",
            "\"supported\": true",
            "\"format\"",
            "\"certified\"",
            "\"score_delta_max\"",
            "\"delta_within_bound\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // What the ledger owns is not in the document.
        for gone in [
            "throughput",
            "elapsed_ms",
            "warmup_runs",
            "host_parallelism",
        ] {
            assert!(!json.contains(gone), "'{gone}' is back in {json}");
        }
        assert!(summary.contains("alerts_on_attack="), "{summary}");
        assert!(summary.contains("in-pipeline (Q"), "{summary}");
    }
}
