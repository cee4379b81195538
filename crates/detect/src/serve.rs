//! The sharded serving executor: ring-fed inference workers scoring
//! egressed feature vectors in batches.
//!
//! Mirrors the `ShardPool` design one stage downstream: each NIC shard's
//! [`VectorSink`] routes vectors to inference workers by group-key hash, in
//! batches over bounded SPSC rings (`superfe_net::ring`). Because the ring
//! is strictly single-producer/single-consumer, the executor builds one
//! ring per (NIC shard, inference worker) pair; a worker's rings share one
//! wake handle, so it polls them round-robin and parks once when all are
//! empty. A saturated inference worker blocks the NIC shard feeding it,
//! which blocks the switch producer — backpressure end to end, never
//! unbounded buffering.
//!
//! Determinism: a group key lives on one NIC shard (CG-hash sharding) and
//! hashes to one inference worker, so all of a key's vectors travel one
//! ring, in stream order; `(shard, seq)` tags identify positions, so the
//! canonically ordered score/alert streams (see
//! [`crate::alert::canonicalize_alerts`]) are a pure function of the input
//! trace — independent of thread scheduling and, per key, of the worker
//! count.

use std::thread::JoinHandle;

use superfe_ml::FrozenDetector;
use superfe_net::metrics::monotonic_ns;
use superfe_net::ring;
use superfe_nic::{EgressVector, VectorSink};
use superfe_streaming::{Histogram, Reducer};

use crate::alert::{canonicalize_alerts, canonicalize_scores, Alert, ScoredVector};
use crate::error::DetectError;

/// Configuration of the serving executor.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of inference worker threads.
    pub workers: usize,
    /// Vectors per inference batch (one ring send per batch).
    pub batch: usize,
    /// Batches in flight per (shard, worker) ring before the NIC shard
    /// blocks.
    pub channel_depth: usize,
    /// Record every score (not just alerts) in the report — needed by the
    /// differential/accuracy tests; off by default to keep serving
    /// memory bounded by the alert count.
    pub record_scores: bool,
    /// Scenario label stamped on every alert.
    pub scenario: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            batch: 64,
            channel_depth: 8,
            record_scores: false,
            scenario: "live".into(),
        }
    }
}

/// Per-worker stage counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageCounters {
    /// Batches received from the NIC sinks.
    pub batches: u64,
    /// Vectors scored.
    pub scored: u64,
    /// Scores that crossed the threshold.
    pub alerts: u64,
    /// Vectors rejected with a dimension mismatch.
    pub dim_errors: u64,
}

impl StageCounters {
    fn absorb(&mut self, o: &StageCounters) {
        self.batches += o.batches;
        self.scored += o.scored;
        self.alerts += o.alerts;
        self.dim_errors += o.dim_errors;
    }
}

/// What one inference worker hands back at join time.
struct WorkerOut {
    counters: StageCounters,
    alerts: Vec<Alert>,
    scores: Vec<ScoredVector>,
    score_hist: Histogram,
    latency_hist: Histogram,
}

/// Telemetry and results of a serve run.
#[derive(Debug)]
pub struct ServeReport {
    /// Scenario label of the run.
    pub scenario: String,
    /// Calibrated threshold in force.
    pub threshold: f64,
    /// Number of inference workers.
    pub workers: usize,
    /// Counters summed over all workers.
    pub totals: StageCounters,
    /// Counters per inference worker (telemetry; load-balance visibility).
    pub per_worker: Vec<StageCounters>,
    /// The alert stream in canonical order (key, then per-key position).
    pub alerts: Vec<Alert>,
    /// Every score in canonical order, when
    /// [`ServeConfig::record_scores`] was set.
    pub scores: Option<Vec<ScoredVector>>,
    /// Anomaly-score distribution (geometric bins).
    pub score_hist: Histogram,
    /// Per-vector scoring latency distribution in nanoseconds (geometric
    /// bins; batch latency divided by batch size).
    pub latency_hist: Histogram,
    /// Live-group state occupancy of the extractor feeding this tenant at
    /// finish time, as `(granularity label, live groups)` per level.
    /// Stamped by the layer that owns the group tables (the pipeline or
    /// the control plane) — empty when the caller didn't provide it.
    pub occupancy: Vec<(String, usize)>,
    /// The in-pipeline quantized inference section, when the run also
    /// executed a fixed-point model inside the NIC shards (`superfe detect
    /// --in-pipeline`). Stamped by the caller that owns both paths; `None`
    /// for a plain host-side serve.
    pub quantized: Option<crate::quantized::QuantizedSection>,
}

/// Score histogram: geometric bins from 1e-6 up (scores are nonnegative).
fn score_histogram() -> Histogram {
    Histogram::geometric(1e-6, 2.0, 48).expect("static histogram config")
}

/// Latency histogram: geometric bins from 50 ns up.
fn latency_histogram() -> Histogram {
    Histogram::geometric(50.0, 2.0, 32).expect("static histogram config")
}

/// The running serving executor: one scoring thread per inference worker.
///
/// Created with [`Serving::spawn`], which also returns the per-NIC-shard
/// sinks to pass to `StreamingPipeline::with_sinks`. Dropping/flushing the
/// sinks (the NIC shards finishing) disconnects the batch rings; then
/// [`Serving::finish`] joins the workers in order and merges their
/// telemetry deterministically.
pub struct Serving {
    joins: Vec<JoinHandle<WorkerOut>>,
    scenario: String,
    threshold: f64,
    record_scores: bool,
}

impl Serving {
    /// Spawns the inference workers and builds one sink per NIC shard.
    ///
    /// Worker/batch/depth parameters are clamped to ≥ 1.
    pub fn spawn(
        det: &FrozenDetector,
        cfg: &ServeConfig,
        nic_shards: usize,
    ) -> (Serving, Vec<Box<dyn VectorSink>>) {
        let workers = cfg.workers.max(1);
        let batch = cfg.batch.max(1);
        let depth = cfg.channel_depth.max(1);
        let shards = nic_shards.max(1);
        // One SPSC ring per (shard, worker) pair. Batches are already
        // send-amortized (`batch` vectors per send), so the rings publish
        // on every send (doorbell batch 1): staging whole inference
        // batches would idle the scoring threads for no amortization win.
        // A worker's rings share one waiter so it parks once for all of
        // them.
        let mut worker_rxs: Vec<Vec<ring::Consumer<Vec<EgressVector>>>> =
            (0..workers).map(|_| Vec::with_capacity(shards)).collect();
        let mut shard_txs: Vec<Vec<ring::Producer<Vec<EgressVector>>>> =
            (0..shards).map(|_| Vec::with_capacity(workers)).collect();
        for (w, rxs) in worker_rxs.iter_mut().enumerate() {
            let waiter = std::sync::Arc::new(ring::Waiter::default());
            for txs in shard_txs.iter_mut() {
                let (tx, rx) = ring::channel_with::<Vec<EgressVector>>(depth, 1, waiter.clone());
                txs.push(tx);
                rxs.push(rx);
            }
            let _ = w;
        }
        let mut joins = Vec::with_capacity(workers);
        for rxs in worker_rxs {
            let det = det.clone();
            let scenario = cfg.scenario.clone();
            let record = cfg.record_scores;
            joins.push(std::thread::spawn(move || {
                worker_loop(rxs, &det, &scenario, record)
            }));
        }
        let sinks: Vec<Box<dyn VectorSink>> = shard_txs
            .into_iter()
            .map(|txs| {
                Box::new(ServeSink {
                    pending: txs.iter().map(|_| Vec::with_capacity(batch)).collect(),
                    txs,
                    batch,
                }) as Box<dyn VectorSink>
            })
            .collect();
        // Each sink holds its shard's only producers: when every NIC shard
        // drops its sink, the workers' rings all disconnect and their
        // loops end.
        (
            Serving {
                joins,
                scenario: cfg.scenario.clone(),
                threshold: det.threshold(),
                record_scores: cfg.record_scores,
            },
            sinks,
        )
    }

    /// Joins the inference workers (in order) and merges their outputs.
    ///
    /// Must be called after the NIC side finished (so the sinks are
    /// dropped); otherwise this blocks until it does.
    pub fn finish(self) -> Result<ServeReport, DetectError> {
        let workers = self.joins.len();
        let mut report = ServeReport {
            scenario: self.scenario,
            threshold: self.threshold,
            workers,
            totals: StageCounters::default(),
            per_worker: Vec::with_capacity(workers),
            alerts: Vec::new(),
            scores: self.record_scores.then(Vec::new),
            score_hist: score_histogram(),
            latency_hist: latency_histogram(),
            occupancy: Vec::new(),
            quantized: None,
        };
        for (i, join) in self.joins.into_iter().enumerate() {
            let out = join
                .join()
                .map_err(|_| DetectError::InferenceWorkerLost { worker: i })?;
            report.totals.absorb(&out.counters);
            report.per_worker.push(out.counters);
            report.alerts.extend(out.alerts);
            if let Some(scores) = report.scores.as_mut() {
                scores.extend(out.scores);
            }
            report.score_hist.merge(&out.score_hist);
            report.latency_hist.merge(&out.latency_hist);
        }
        canonicalize_alerts(&mut report.alerts);
        if let Some(scores) = report.scores.as_mut() {
            canonicalize_scores(scores);
        }
        Ok(report)
    }
}

/// One inference worker: poll every feeding ring round-robin, score, alert,
/// record telemetry; park on the shared waiter when all rings are empty,
/// exit when all are disconnected.
fn worker_loop(
    mut rxs: Vec<ring::Consumer<Vec<EgressVector>>>,
    det: &FrozenDetector,
    scenario: &str,
    record: bool,
) -> WorkerOut {
    let mut out = WorkerOut {
        counters: StageCounters::default(),
        alerts: Vec::new(),
        scores: Vec::new(),
        score_hist: score_histogram(),
        latency_hist: latency_histogram(),
    };
    let waiter = rxs[0].waiter();
    let mut open: Vec<bool> = rxs.iter().map(|_| true).collect();
    let mut idle_rounds = 0u32;
    loop {
        let mut progressed = false;
        for (i, rx) in rxs.iter_mut().enumerate() {
            if !open[i] {
                continue;
            }
            loop {
                match rx.try_recv() {
                    Ok(batch) => {
                        score_batch(&batch, det, scenario, record, &mut out);
                        progressed = true;
                    }
                    Err(ring::TryRecvError::Empty) => break,
                    Err(ring::TryRecvError::Disconnected) => {
                        open[i] = false;
                        break;
                    }
                }
            }
        }
        if !open.iter().any(|o| *o) {
            break;
        }
        if progressed {
            idle_rounds = 0;
            continue;
        }
        // Spin-then-park across all rings: brief yields, then register on
        // the shared waiter, re-poll once (the registration/re-check order
        // prevents lost wakeups), and park.
        idle_rounds += 1;
        if idle_rounds < 4 {
            std::thread::yield_now();
            continue;
        }
        waiter.register_current();
        let mut woke = false;
        for (i, rx) in rxs.iter_mut().enumerate() {
            if !open[i] {
                continue;
            }
            match rx.try_recv() {
                Ok(batch) => {
                    score_batch(&batch, det, scenario, record, &mut out);
                    woke = true;
                    break;
                }
                Err(ring::TryRecvError::Empty) => {}
                Err(ring::TryRecvError::Disconnected) => {
                    open[i] = false;
                    woke = true;
                    break;
                }
            }
        }
        if woke {
            waiter.cancel();
        } else {
            waiter.park();
        }
        idle_rounds = 0;
    }
    out
}

/// Scores one batch into the worker's accumulated output.
fn score_batch(
    batch: &[EgressVector],
    det: &FrozenDetector,
    scenario: &str,
    record: bool,
    out: &mut WorkerOut,
) {
    if batch.is_empty() {
        return;
    }
    out.counters.batches += 1;
    let t0 = monotonic_ns();
    for ev in batch {
        match det.score(ev.vector.values.as_slice()) {
            Ok(score) => {
                out.counters.scored += 1;
                out.score_hist.update(score);
                if det.is_alert(score) {
                    out.counters.alerts += 1;
                    out.alerts.push(Alert {
                        scenario: scenario.to_string(),
                        key: ev.vector.key,
                        score,
                        threshold: det.threshold(),
                        shard: ev.shard,
                        seq: ev.seq,
                    });
                }
                if record {
                    out.scores.push(ScoredVector {
                        key: ev.vector.key,
                        shard: ev.shard,
                        seq: ev.seq,
                        score,
                    });
                }
            }
            Err(_) => out.counters.dim_errors += 1,
        }
    }
    let per_vec = monotonic_ns().saturating_sub(t0) as f64 / batch.len() as f64;
    out.latency_hist.update(per_vec);
}

/// The per-NIC-shard sink: batches vectors per inference worker and sends
/// over this shard's bounded rings (blocking when a worker is
/// `channel_depth` batches behind — the backpressure edge).
struct ServeSink {
    txs: Vec<ring::Producer<Vec<EgressVector>>>,
    /// One partial batch per inference worker.
    pending: Vec<Vec<EgressVector>>,
    batch: usize,
}

impl VectorSink for ServeSink {
    fn emit(&mut self, v: EgressVector) {
        // Route by group-key hash: a key's vectors always meet the same
        // worker, preserving per-key stream order end to end.
        let w = (v.vector.key.hash32() as usize) % self.txs.len();
        self.pending[w].push(v);
        if self.pending[w].len() >= self.batch {
            let full = std::mem::replace(&mut self.pending[w], Vec::with_capacity(self.batch));
            // A send failure means the inference worker died; poisoning
            // this NIC shard surfaces as `NicError::WorkerLost` upstream.
            self.txs[w].send(full).expect("inference worker alive");
        }
    }

    fn flush(&mut self) {
        for (w, pending) in self.pending.iter_mut().enumerate() {
            if !pending.is_empty() {
                let rest = std::mem::take(pending);
                self.txs[w].send(rest).expect("inference worker alive");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_ml::{train_and_calibrate, CalibrationConfig, CentroidDetector};
    use superfe_net::GroupKey;
    use superfe_nic::FeatureVector;
    use superfe_streaming::FeatureValues;

    fn frozen(dim: usize) -> FrozenDetector {
        let data: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                (0..dim)
                    .map(|d| 1.0 + 0.01 * ((i + d) % 7) as f64)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        train_and_calibrate(
            Box::new(CentroidDetector::new(dim).unwrap()),
            &refs,
            0.2,
            CalibrationConfig::default(),
        )
        .unwrap()
    }

    fn vector(host: u32, vals: &[f64]) -> FeatureVector {
        let mut values = FeatureValues::new();
        for &v in vals {
            values.push(v);
        }
        FeatureVector {
            key: GroupKey::Host(host),
            values,
        }
    }

    #[test]
    fn scores_batches_and_reports_counters() {
        let det = frozen(2);
        let cfg = ServeConfig {
            workers: 2,
            batch: 4,
            record_scores: true,
            ..ServeConfig::default()
        };
        let (serving, mut sinks) = Serving::spawn(&det, &cfg, 1);
        for i in 0..100u32 {
            sinks[0].emit(EgressVector {
                shard: 0,
                seq: u64::from(i),
                vector: vector(i % 5, &[1.0, 1.01]),
            });
        }
        // An anomaly (opposed direction => 1 - cosine near 2).
        sinks[0].emit(EgressVector {
            shard: 0,
            seq: 100,
            vector: vector(99, &[-50.0, -50.0]),
        });
        sinks[0].flush();
        drop(sinks);
        let report = serving.finish().unwrap();
        assert_eq!(report.totals.scored, 101);
        assert_eq!(report.totals.dim_errors, 0);
        assert_eq!(report.totals.alerts, 1);
        assert_eq!(report.alerts.len(), 1);
        assert_eq!(report.alerts[0].key, GroupKey::Host(99));
        assert_eq!(report.scores.as_ref().unwrap().len(), 101);
        assert_eq!(report.score_hist.total(), 101);
        assert!(report.latency_hist.total() > 0);
        assert_eq!(report.per_worker.len(), 2);
        assert!(report.totals.batches >= 2);
    }

    #[test]
    fn dim_mismatch_is_counted_not_fatal() {
        let det = frozen(2);
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let (serving, mut sinks) = Serving::spawn(&det, &cfg, 1);
        sinks[0].emit(EgressVector {
            shard: 0,
            seq: 0,
            vector: vector(1, &[1.0, 1.0, 1.0]), // wrong dim
        });
        sinks[0].emit(EgressVector {
            shard: 0,
            seq: 1,
            vector: vector(1, &[1.0, 1.0]),
        });
        sinks[0].flush();
        drop(sinks);
        let report = serving.finish().unwrap();
        assert_eq!(report.totals.dim_errors, 1);
        assert_eq!(report.totals.scored, 1);
    }

    #[test]
    fn many_shards_many_workers_loses_nothing() {
        // 4 NIC shards × 3 inference workers = 12 rings; every emitted
        // vector must be scored exactly once.
        let det = frozen(2);
        let cfg = ServeConfig {
            workers: 3,
            batch: 8,
            record_scores: true,
            ..ServeConfig::default()
        };
        let (serving, mut sinks) = Serving::spawn(&det, &cfg, 4);
        let mut emitted = 0u64;
        for i in 0..500u32 {
            let shard = (i % 4) as usize;
            sinks[shard].emit(EgressVector {
                shard,
                seq: u64::from(i / 4),
                vector: vector(i % 17, &[1.0, 1.0 + f64::from(i % 5) * 0.01]),
            });
            emitted += 1;
        }
        for s in &mut sinks {
            s.flush();
        }
        drop(sinks);
        let report = serving.finish().unwrap();
        assert_eq!(report.totals.scored, emitted);
        assert_eq!(report.scores.as_ref().unwrap().len(), emitted as usize);
        assert_eq!(report.per_worker.len(), 3);
    }
}
