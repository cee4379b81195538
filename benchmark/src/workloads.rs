//! The six workloads: seeded inputs, the untimed correctness reference and
//! one timed repetition of each.
//!
//! The program under test sees only generated packets and policy text; the
//! seed and the workload name stay on this side.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use superfe_core::{gate, AnalyzeConfig, StreamingPipeline, SuperFeConfig};
use superfe_ctrl::{CtrlPlane, TenantSpec};
use superfe_detect::{score_offline_quantized, DetectorKind};
use superfe_ml::{train_and_calibrate, CalibrationConfig, QuantizedDetector};
use superfe_net::PacketRecord;
use superfe_nic::{EgressVector, EvictionPolicy, FeNic, FeatureVector, TableBudget, VectorSink};
use superfe_policy::analyze::quant::{certify, QuantCheckConfig};
use superfe_policy::{dsl, Policy};
use superfe_trafficgen::intrusion::{self, IntrusionConfig, Scenario};
use superfe_trafficgen::{ScaleWorkload, Workload as TraceWorkload};

use crate::lockstep::{
    deploy_lockstep, digest_vectors, replay, run_lockstep, superfe_run, vector_hash, Frames, Input,
    Plan,
};
use crate::stats::{process_cpu_s, Clock, Digest, Metric, Quartiles, Sojourn};
use crate::trace::Tracer;

const NPOD: &str = include_str!("../policies/npod.sfe");
const KITSUNE: &str = include_str!("../policies/kitsune.sfe");
const FLOW_STATS: &str = include_str!("../policies/flow_stats.sfe");
const FLOW_VOLUME: &str = include_str!("../policies/flow_volume.sfe");
const FLOW_BYTES: &str = include_str!("../policies/flow_bytes.sfe");

/// One producer thread plus this many NIC shards: two busy threads, which is
/// what the 2-core host can run without oversubscription.
const WORKERS: usize = 1;

/// Closed-loop arrival stamps are taken once per this many packets on the
/// workloads whose per-packet cost (~0.4 µs) a clock read would distort.
const STAMP_STRIDE: usize = 1024;

/// Offered rate of the open-loop workload.
const PACED_PKTS_PER_S: f64 = 10_000.0;

/// A push that starts this long after it was due counts as late.
const LATE_NS: u64 = 1_000_000;

/// KitNET initialisation seed. Fixed, so the model never learns the
/// workload seed.
const MODEL_SEED: u64 = 1;

/// `--smoke` runs every packet count at 1/50, over 1/50 of the trace time
/// where the generator lets it be set, so the packet rate the switch's aging
/// sees stays the same.
#[derive(Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    fn n(self, full: usize) -> usize {
        if self.smoke {
            full / 50
        } else {
            full
        }
    }

    fn seconds(self, full: f64) -> f64 {
        if self.smoke {
            full / 50.0
        } else {
            full
        }
    }
}

fn scale_budget() -> TableBudget {
    TableBudget::capped(16_384, EvictionPolicy::EvictOldest)
}

/// One timed repetition, as seen from outside the pipeline.
#[derive(Clone, Debug)]
pub struct Rep {
    pub packets: u64,
    /// Packets whose push or parse errored, plus every packet of the
    /// repetition when its output does not match the reference.
    pub failed: u64,
    pub deploy_ns: u64,
    /// Producer time from the first push to the return of the last.
    pub push_ns: u64,
    pub finish_ns: u64,
    /// Process CPU seconds (all threads) over `push…finish`.
    pub cpu_s: f64,
    /// Mean time from a packet being offered to its output being available.
    pub latency_ms: f64,
    /// Open loop only: pushes that began more than 1 ms after they were due.
    pub late: u64,
}

impl Rep {
    pub fn wall_ns(&self) -> u64 {
        self.push_ns + self.finish_ns
    }
}

/// Brackets `push…finish` with the wall clock and the process CPU clock.
struct Stopwatch {
    clock: Clock,
    deploy_ns: u64,
    cpu0: f64,
    t0: u64,
    t_pushed: u64,
}

impl Stopwatch {
    /// `deploy_started` is when the (untimed) deployment began.
    fn start(clock: &Clock, deploy_started: u64) -> Stopwatch {
        let cpu0 = process_cpu_s();
        let t0 = clock.now_ns();
        Stopwatch {
            clock: *clock,
            deploy_ns: t0 - deploy_started,
            cpu0,
            t0,
            t_pushed: t0,
        }
    }

    fn pushed(&mut self) {
        self.t_pushed = self.clock.now_ns();
    }

    /// Ends the timed part; also returns the end time, which is when outputs
    /// that only `finish` hands back became available.
    fn stop(self, packets: usize, errors: u64, late: u64) -> (Rep, u64) {
        let end = self.clock.now_ns();
        let rep = Rep {
            packets: packets as u64,
            failed: errors,
            deploy_ns: self.deploy_ns,
            push_ns: self.t_pushed - self.t0,
            finish_ns: end - self.t_pushed,
            cpu_s: process_cpu_s() - self.cpu0,
            latency_ms: 0.0,
            late,
        };
        (rep, end)
    }
}

/// Settles a repetition after its untimed verification: a mismatching
/// output, or a latency that cannot be computed because vectors went
/// missing, fails every packet of the repetition.
fn settle(mut rep: Rep, output_matches: bool, sojourn: &Sojourn) -> Rep {
    match sojourn.mean_ms() {
        Some(ms) if output_matches => rep.latency_ms = ms,
        _ => rep.failed = rep.packets,
    }
    rep
}

/// Closed-loop feed: the next packet is pushed as soon as the previous push
/// returns. Arrival is the moment a packet's push could begin, stamped once
/// per `stride` packets. Returns the number of pushes that errored.
fn feed_closed(
    clock: &Clock,
    n: usize,
    stride: usize,
    sojourn: &mut Sojourn,
    mut push: impl FnMut(usize) -> bool,
) -> u64 {
    let mut errors = 0;
    let mut i = 0;
    while i < n {
        let end = (i + stride).min(n);
        sojourn.arrive(clock.now_ns(), (end - i) as u64);
        for k in i..end {
            errors += u64::from(!push(k));
        }
        i = end;
    }
    errors
}

/// Open-loop feed: packet `i` is due at `start + i / rate` whatever the
/// pipeline does, and its latency counts from then. Returns (errors, late).
fn feed_paced(
    clock: &Clock,
    n: usize,
    rate: f64,
    sojourn: &mut Sojourn,
    mut push: impl FnMut(usize) -> bool,
) -> (u64, u64) {
    let start = clock.now_ns();
    let (mut errors, mut late) = (0, 0);
    for i in 0..n {
        let due = start + (i as f64 * 1e9 / rate) as u64;
        let now = clock.now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        late += u64::from(clock.now_ns() > due + LATE_NS);
        sojourn.arrive(due, 1);
        errors += u64::from(!push(i));
    }
    (errors, late)
}

/// Per-shard sink of the `with_sinks` workloads: digests every egressing
/// vector and sums emit times, then hands both over when the shard ends.
struct DigestSink {
    clock: Clock,
    digest: Digest,
    departures_ns: u128,
    out: Arc<Mutex<SinkTotals>>,
}

#[derive(Default)]
struct SinkTotals {
    digest: Digest,
    departures_ns: u128,
}

impl VectorSink for DigestSink {
    fn emit(&mut self, v: EgressVector) {
        self.digest.add(vector_hash(&v.vector));
        self.departures_ns += u128::from(self.clock.now_ns());
    }

    fn flush(&mut self) {
        let mut out = self.out.lock().expect("no other holder can have panicked");
        out.digest.merge(self.digest);
        out.departures_ns += self.departures_ns;
    }
}

pub trait Workload {
    fn input(&self) -> &Input;

    /// Deploys a fresh executor (untimed), times `push…finish`, then checks
    /// the output (untimed).
    fn rep(&self, clock: &Clock) -> Result<Rep, String>;

    /// The policies the single-threaded replay decomposes this workload into.
    fn plans(&self) -> Vec<Plan<'_>>;

    /// The crate whose executor `rep` drives: names the push/finish metrics.
    fn executor(&self) -> &'static str {
        "core"
    }

    /// Per-layer metrics only this workload has (not on every workload, so
    /// not in `BENCHMARK.json`).
    fn extras(&self, _clock: &Clock, _reps: &[Rep]) -> Result<Vec<Metric>, String> {
        Ok(Vec::new())
    }
}

fn parse_policy(src: &str) -> Result<Policy, String> {
    dsl::parse(src).map_err(|e| e.to_string())
}

fn mirai(benign: usize, attack: usize, seed: u64) -> Vec<PacketRecord> {
    let cfg = IntrusionConfig {
        scenario: Scenario::Mirai,
        benign_packets: benign,
        attack_packets: attack,
        seed,
    };
    intrusion::generate(&cfg).trace().records
}

/// Runs `f` inside a span.
fn spanned<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let s = tracer.enter(name);
    let out = f();
    tracer.exit(s);
    out
}

fn gate_all<'a>(
    tracer: &mut Tracer,
    policies: impl IntoIterator<Item = &'a Policy>,
) -> Result<(), String> {
    spanned(tracer, "policy.gate", || {
        for p in policies {
            gate(p, &SuperFeConfig::default()).map_err(|e| e.to_string())?;
        }
        Ok(())
    })
}

fn warm_up(w: &dyn Workload, clock: &Clock, tracer: &mut Tracer) -> Result<(), String> {
    let rep = spanned(tracer, "bench.warmup", || w.rep(clock))?;
    if rep.failed > 0 {
        return Err(format!(
            "warm-up failed {} of {} packets",
            rep.failed, rep.packets
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The four workloads on the solo executor (`StreamingPipeline`).

enum Mode {
    /// Raw frames through `push_frame`; group vectors come back from
    /// `finish`.
    Frames,
    /// One digest sink per shard; closed loop, or open loop at a rate.
    Sinks { paced: Option<f64> },
    /// The certified quantized detector scores inside the shard; `alerts` is
    /// what offline scoring of the reference vectors raises.
    Inline {
        model: Arc<QuantizedDetector>,
        alerts: usize,
    },
}

pub struct Solo {
    input: Input,
    policy: Policy,
    mode: Mode,
    reference: Digest,
}

fn all_vectors(out: &superfe_core::Extraction) -> impl Iterator<Item = &FeatureVector> {
    out.packet_vectors.iter().chain(&out.group_vectors)
}

impl Solo {
    /// Assembles the workload and runs its warm-up repetition.
    fn warmed(
        input: Input,
        policy: Policy,
        mode: Mode,
        reference: Digest,
        clock: &Clock,
        tracer: &mut Tracer,
    ) -> Result<Solo, String> {
        let solo = Solo {
            input,
            policy,
            mode,
            reference,
        };
        warm_up(&solo, clock, tracer)?;
        Ok(solo)
    }

    pub fn flowstats(
        scale: Scale,
        seed: u64,
        clock: &Clock,
        tracer: &mut Tracer,
    ) -> Result<Solo, String> {
        let n = scale.n(1_000_000);
        let records = spanned(tracer, "trafficgen.gen", || {
            TraceWorkload::campus()
                .packets(n)
                .duration_s(scale.seconds(10.0))
                .seed(seed)
                .generate()
                .records
        });
        let frames = spanned(tracer, "bench.frames", || Frames::build(&records));
        let input = Input {
            records,
            frames: Some(frames),
        };
        let policy = parse_policy(NPOD)?;
        gate_all(tracer, [&policy])?;
        let (out, _) = spanned(tracer, "bench.reference", || {
            superfe_run(&policy, &input, clock)
        })?;
        // NPOD's last feature is f_sum of a per-packet 1: the reference
        // itself must account for every packet offered.
        let counted: f64 = out
            .group_vectors
            .iter()
            .map(|v| v.values.last().copied().unwrap_or(0.0))
            .sum();
        if counted != input.records.len() as f64 {
            return Err(format!("reference counts {counted} of {n} packets"));
        }
        let reference = digest_vectors(all_vectors(&out));
        Solo::warmed(input, policy, Mode::Frames, reference, clock, tracer)
    }

    /// The Kitsune policy over a Mirai trace, `benign + attack` packets.
    fn kitsune(
        records: Vec<PacketRecord>,
        clock: &Clock,
        tracer: &mut Tracer,
    ) -> Result<(Input, Policy, superfe_core::Extraction), String> {
        let input = Input {
            records,
            frames: None,
        };
        let policy = parse_policy(KITSUNE)?;
        gate_all(tracer, [&policy])?;
        let (out, _) = spanned(tracer, "bench.reference", || {
            superfe_run(&policy, &input, clock)
        })?;
        // One vector per packet is what lets latency be computed from sums.
        if out.packet_vectors.len() != input.records.len() {
            return Err(format!(
                "reference has {} vectors for {} packets",
                out.packet_vectors.len(),
                input.records.len()
            ));
        }
        Ok((input, policy, out))
    }

    pub fn kitsune_extract(
        scale: Scale,
        seed: u64,
        clock: &Clock,
        tracer: &mut Tracer,
    ) -> Result<Solo, String> {
        let records = spanned(tracer, "trafficgen.gen", || {
            mirai(scale.n(60_000), scale.n(30_000), seed)
        });
        let (input, policy, out) = Solo::kitsune(records, clock, tracer)?;
        let reference = digest_vectors(all_vectors(&out));
        let mode = Mode::Sinks { paced: None };
        Solo::warmed(input, policy, mode, reference, clock, tracer)
    }

    pub fn kitsune_paced(
        scale: Scale,
        seed: u64,
        clock: &Clock,
        tracer: &mut Tracer,
    ) -> Result<Solo, String> {
        // 2 s of offered load per repetition.
        let n = scale.n(2 * PACED_PKTS_PER_S as usize);
        let records = spanned(tracer, "trafficgen.gen", || mirai(n - n / 3, n / 3, seed));
        let (input, policy, out) = Solo::kitsune(records, clock, tracer)?;
        let reference = digest_vectors(all_vectors(&out));
        // Warm up closed-loop: pacing the warm-up would only add idle time
        // to set-up.
        let warm = Solo::warmed(
            input,
            policy,
            Mode::Sinks { paced: None },
            reference,
            clock,
            tracer,
        )?;
        Ok(Solo {
            mode: Mode::Sinks {
                paced: Some(PACED_PKTS_PER_S),
            },
            ..warm
        })
    }

    pub fn kitsune_inline(
        scale: Scale,
        seed: u64,
        clock: &Clock,
        tracer: &mut Tracer,
    ) -> Result<Solo, String> {
        let (train, records) = spanned(tracer, "trafficgen.gen", || {
            (
                mirai(scale.n(20_000), 0, seed),
                mirai(scale.n(20_000), scale.n(10_000), seed + 1),
            )
        });
        let (input, policy, out) = Solo::kitsune(records, clock, tracer)?;

        let frozen = spanned(tracer, "detect.train", || {
            let train = Input {
                records: train,
                frames: None,
            };
            let (benign, _) = superfe_run(&policy, &train, clock)?;
            let vectors: Vec<&[f64]> = benign.packet_vectors.iter().map(|v| v.values()).collect();
            let dim = vectors.first().map_or(0, |v| v.len());
            let detector = DetectorKind::KitNet
                .build(dim, MODEL_SEED)
                .map_err(|e| e.to_string())?;
            train_and_calibrate(detector, &vectors, 0.2, CalibrationConfig::default())
                .map_err(|e| e.to_string())
        })?;
        let cert = spanned(tracer, "detect.certify", || {
            certify(&policy, &frozen, &QuantCheckConfig::default())
        });
        let model = match cert.detector {
            Some(model) if cert.certified => Arc::new(model),
            _ => {
                return Err(format!(
                    "SF09xx did not certify the detector (bound {}, culprit {:?})",
                    cert.bound, cert.culprit
                ))
            }
        };
        let offline = spanned(tracer, "bench.reference", || {
            score_offline_quantized(&model, &out.packet_vectors, &out.group_vectors, "mirai")
        });
        let mode = Mode::Inline {
            model,
            alerts: offline.alerts.len(),
        };
        let reference = digest_vectors(all_vectors(&out));
        Solo::warmed(input, policy, mode, reference, clock, tracer)
    }
}

impl Workload for Solo {
    fn input(&self) -> &Input {
        &self.input
    }

    fn plans(&self) -> Vec<Plan<'_>> {
        vec![Plan {
            policy: &self.policy,
            budget: None,
            model: match &self.mode {
                Mode::Inline { model, .. } => Some(model),
                _ => None,
            },
        }]
    }

    fn rep(&self, clock: &Clock) -> Result<Rep, String> {
        let cfg = SuperFeConfig::default();
        let records = &self.input.records;
        let n = records.len();
        let mut sojourn = Sojourn::default();
        let deploy_started = clock.now_ns();
        match &self.mode {
            Mode::Frames => {
                let frames = self
                    .input
                    .frames
                    .as_ref()
                    .expect("frame workload has frames");
                let mut fe = StreamingPipeline::with_config(&self.policy, cfg, WORKERS)
                    .map_err(|e| e.to_string())?;
                let mut watch = Stopwatch::start(clock, deploy_started);
                let errors = feed_closed(clock, n, STAMP_STRIDE, &mut sojourn, |i| {
                    let meta = &records[i];
                    matches!(
                        fe.push_frame(frames.get(i), meta.ts_ns, meta.direction),
                        Ok(Ok(()))
                    )
                });
                watch.pushed();
                let out = fe.finish();
                let (rep, end) = watch.stop(n, errors, 0);
                sojourn.depart(end, n as u64);
                let matches = out.is_ok_and(|o| digest_vectors(all_vectors(&o)) == self.reference);
                Ok(settle(rep, matches, &sojourn))
            }
            Mode::Sinks { paced } => {
                let totals = Arc::new(Mutex::new(SinkTotals::default()));
                let sink = DigestSink {
                    clock: *clock,
                    digest: Digest::default(),
                    departures_ns: 0,
                    out: totals.clone(),
                };
                let mut fe =
                    StreamingPipeline::with_sinks(&self.policy, cfg, WORKERS, vec![Box::new(sink)])
                        .map_err(|e| e.to_string())?;
                let mut watch = Stopwatch::start(clock, deploy_started);
                let push = |i: usize| fe.push(&records[i]).is_ok();
                let (errors, late) = match paced {
                    Some(rate) => feed_paced(clock, n, *rate, &mut sojourn, push),
                    None => (feed_closed(clock, n, 1, &mut sojourn, push), 0),
                };
                watch.pushed();
                let out = fe.finish();
                let (rep, _) = watch.stop(n, errors, late);
                let totals = totals.lock().expect("the shard has exited");
                sojourn.departures_ns = totals.departures_ns;
                sojourn.departed = totals.digest.count;
                let matches = out.is_ok() && totals.digest == self.reference;
                Ok(settle(rep, matches, &sojourn))
            }
            Mode::Inline { model, alerts } => {
                let mut fe =
                    StreamingPipeline::with_inference(&self.policy, cfg, WORKERS, model.clone())
                        .map_err(|e| e.to_string())?;
                let mut watch = Stopwatch::start(clock, deploy_started);
                let errors = feed_closed(clock, n, STAMP_STRIDE, &mut sojourn, |i| {
                    fe.push(&records[i]).is_ok()
                });
                watch.pushed();
                let out = fe.finish();
                let (rep, end) = watch.stop(n, errors, 0);
                sojourn.depart(end, n as u64);
                let matches = out.is_ok_and(|o| {
                    digest_vectors(all_vectors(&o)) == self.reference
                        && o.inline_alerts.len() == *alerts
                });
                Ok(settle(rep, matches, &sojourn))
            }
        }
    }

    fn extras(&self, clock: &Clock, reps: &[Rep]) -> Result<Vec<Metric>, String> {
        let Mode::Sinks { paced: Some(rate) } = self.mode else {
            return Ok(Vec::new());
        };
        // The same paced input with no ring: FeSwitch and FeNic called in
        // turn on this thread. What remains of the latency is the switch's
        // own batching, so the difference is the ring/frame/doorbell share.
        let plan = &self.plans()[0];
        let (mut switch, mut nic) = deploy_lockstep(plan)?;
        let mut events = Vec::new();
        let mut sojourn = Sojourn::default();
        let mut departed = Sojourn::default();
        let mut emit = |nic: &mut FeNic| {
            departed.depart(clock.now_ns(), nic.take_packet_vectors().len() as u64);
        };
        let records = &self.input.records;
        feed_paced(clock, records.len(), rate, &mut sojourn, |i| {
            events.clear();
            switch.process_into(&records[i], &mut events);
            events.iter().for_each(|e| nic.handle(e));
            emit(&mut nic);
            true
        });
        events.clear();
        switch.flush_into(&mut events);
        events.iter().for_each(|e| nic.handle(e));
        emit(&mut nic);
        sojourn.departures_ns = departed.departures_ns;
        sojourn.departed = departed.departed;
        let lockstep_ms = sojourn
            .mean_ms()
            .ok_or("lock-step paced run lost vectors")?;

        let latencies: Vec<f64> = reps.iter().map(|r| r.latency_ms).collect();
        let threaded_ms = Quartiles::of(&latencies).median;
        let late: u64 = reps.iter().map(|r| r.late).sum();
        let offered: u64 = reps.iter().map(|r| r.packets).sum();
        Ok(vec![
            Metric::single("bench.lockstep_latency_ms", "ms", lockstep_ms),
            Metric::single(
                "net.ring_latency_share",
                "ratio",
                1.0 - lockstep_ms / threaded_ms,
            ),
            Metric::single("bench.late_share", "ratio", late as f64 / offered as f64),
        ])
    }
}

// ---------------------------------------------------------------------------
// multitenant_shared: the other executor.

pub struct Multi {
    input: Input,
    tenants: Vec<TenantSpec>,
    /// Each tenant's output digest from its solo `StreamingPipeline` run.
    reference: Vec<Digest>,
    /// Σ of the four solo `push…finish` times.
    solo_wall_ns: u64,
}

impl Multi {
    pub fn new(
        scale: Scale,
        seed: u64,
        clock: &Clock,
        tracer: &mut Tracer,
    ) -> Result<Multi, String> {
        let n = scale.n(1_000_000);
        let records = spanned(tracer, "trafficgen.gen", || {
            TraceWorkload::mawi()
                .packets(n)
                .duration_s(scale.seconds(10.0))
                .seed(seed)
                .generate()
                .records
        });
        // flow_stats + flow_volume agree on parse, groupby and filter, so
        // SF08xx puts them on one switch partition; the second flow_stats is
        // SF07xx-equivalent to the first and fuses into its unit.
        let tenants = [
            ("npod", NPOD),
            ("flow_stats", FLOW_STATS),
            ("flow_volume", FLOW_VOLUME),
            ("flow_stats_b", FLOW_STATS),
        ]
        .into_iter()
        .map(|(name, src)| {
            Ok(TenantSpec {
                name: name.to_string(),
                policy: parse_policy(src)?,
                cfg: SuperFeConfig::default(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
        gate_all(tracer, tenants.iter().map(|t| &t.policy))?;

        let mut reference = Vec::new();
        let mut solo_wall_ns = 0;
        spanned(tracer, "bench.reference", || {
            for t in &tenants {
                let mut fe = StreamingPipeline::with_config(&t.policy, t.cfg, WORKERS)
                    .map_err(|e| e.to_string())?;
                let t0 = clock.now_ns();
                for p in &records {
                    fe.push(p).map_err(|e| e.to_string())?;
                }
                let out = fe.finish().map_err(|e| e.to_string())?;
                solo_wall_ns += clock.now_ns() - t0;
                reference.push(digest_vectors(all_vectors(&out)));
            }
            Ok::<(), String>(())
        })?;
        let multi = Multi {
            input: Input {
                records,
                frames: None,
            },
            tenants,
            reference,
            solo_wall_ns,
        };
        warm_up(&multi, clock, tracer)?;
        Ok(multi)
    }

    fn deploy(&self) -> Result<CtrlPlane, String> {
        let mut plane = CtrlPlane::new(WORKERS, AnalyzeConfig::default());
        for t in &self.tenants {
            plane.attach(t, None).map_err(|e| e.to_string())?;
        }
        Ok(plane)
    }
}

impl Workload for Multi {
    fn input(&self) -> &Input {
        &self.input
    }

    fn executor(&self) -> &'static str {
        "ctrl"
    }

    fn plans(&self) -> Vec<Plan<'_>> {
        self.tenants
            .iter()
            .map(|t| Plan {
                policy: &t.policy,
                budget: None,
                model: None,
            })
            .collect()
    }

    fn rep(&self, clock: &Clock) -> Result<Rep, String> {
        let records = &self.input.records;
        let n = records.len();
        let mut sojourn = Sojourn::default();
        let deploy_started = clock.now_ns();
        let mut plane = self.deploy()?;
        let mut watch = Stopwatch::start(clock, deploy_started);
        let errors = feed_closed(clock, n, STAMP_STRIDE, &mut sojourn, |i| {
            plane.push(&records[i]).is_ok()
        });
        watch.pushed();
        let runs = plane.finish();
        let (rep, end) = watch.stop(n, errors, 0);
        sojourn.depart(end, n as u64);
        let matches = runs.is_ok_and(|runs| {
            runs.len() == self.reference.len()
                && runs.iter().zip(&self.reference).all(|(run, want)| {
                    let out = &run.output;
                    let got = out.packet_vectors.iter().chain(&out.group_vectors);
                    digest_vectors(got) == *want
                })
        });
        Ok(settle(rep, matches, &sojourn))
    }

    fn extras(&self, _clock: &Clock, reps: &[Rep]) -> Result<Vec<Metric>, String> {
        let plane = self.deploy()?;
        let median = |f: fn(&Rep) -> u64| {
            Quartiles::of(&reps.iter().map(|r| f(r) as f64).collect::<Vec<_>>()).median
        };
        Ok(vec![
            Metric::single("ctrl.attach_ms", "ms", median(|r| r.deploy_ns) / 1e6),
            Metric::single("ctrl.units", "count", plane.units().len() as f64),
            Metric::single("ctrl.partitions", "count", plane.groups().len() as f64),
            Metric::single(
                "ctrl.vs_solo_sum_ratio",
                "ratio",
                median(Rep::wall_ns) / self.solo_wall_ns as f64,
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// scale_churn: bounded flow state, no ring.

pub struct Churn {
    input: Input,
    policy: Policy,
    reference: Digest,
}

impl Churn {
    pub fn new(
        scale: Scale,
        seed: u64,
        clock: &Clock,
        tracer: &mut Tracer,
    ) -> Result<Churn, String> {
        let flows = scale.n(100_000);
        let records: Vec<PacketRecord> = spanned(tracer, "trafficgen.gen", || {
            ScaleWorkload::flows(flows)
                .duration_s(scale.seconds(60.0))
                .seed(seed)
                .stream()
                .collect()
        });
        let policy = parse_policy(FLOW_BYTES)?;
        gate_all(tracer, [&policy])?;
        let mut churn = Churn {
            input: Input {
                records,
                frames: None,
            },
            policy,
            reference: Digest::default(),
        };
        // The reference is byte conservation: every byte offered is in
        // exactly one evicted or final vector's f_sum.
        let run = spanned(tracer, "bench.reference", || {
            replay(
                &churn.plans()[0],
                &churn.input,
                clock,
                &mut Tracer::new(*clock, false),
            )
        })?;
        let offered: f64 = churn.input.records.iter().map(|p| f64::from(p.size)).sum();
        if run.first_value_sum != offered {
            return Err(format!(
                "byte conservation broken: {} of {offered} bytes in output",
                run.first_value_sum
            ));
        }
        churn.reference = run.digest;
        warm_up(&churn, clock, tracer)?;
        Ok(churn)
    }
}

impl Workload for Churn {
    fn input(&self) -> &Input {
        &self.input
    }

    fn plans(&self) -> Vec<Plan<'_>> {
        vec![Plan {
            policy: &self.policy,
            budget: Some(scale_budget()),
            model: None,
        }]
    }

    fn rep(&self, clock: &Clock) -> Result<Rep, String> {
        let n = self.input.records.len();
        let deploy_started = clock.now_ns();
        let (switch, nic) = deploy_lockstep(&self.plans()[0])?;
        let mut watch = Stopwatch::start(clock, deploy_started);
        let mut off = Tracer::new(*clock, false);
        let run = run_lockstep(switch, nic, None, &self.input, clock, &mut off);
        watch.t_pushed = watch.t0 + run.push_ns;
        let (rep, end) = watch.stop(n, run.parse_errors, 0);
        let mut sojourn = run.arrivals;
        sojourn.depart(end, n as u64);
        Ok(settle(rep, run.digest == self.reference, &sojourn))
    }

    fn extras(&self, clock: &Clock, _reps: &[Rep]) -> Result<Vec<Metric>, String> {
        // The same input through a budgeted one-tenant plane: how many of
        // the vectors the budget evicts does the plane hand back?
        let mut off = Tracer::new(*clock, false);
        let due = replay(&self.plans()[0], &self.input, clock, &mut off)?.evicted;
        let mut plane = CtrlPlane::new(WORKERS, AnalyzeConfig::default());
        plane.set_table_budget(scale_budget());
        let tenant = TenantSpec {
            name: "flow_bytes".to_string(),
            policy: self.policy.clone(),
            cfg: SuperFeConfig::default(),
        };
        plane.attach(&tenant, None).map_err(|e| e.to_string())?;
        for p in &self.input.records {
            plane.push(p).map_err(|e| e.to_string())?;
        }
        let runs = plane.finish().map_err(|e| e.to_string())?;
        let returned: usize = runs.iter().map(|r| r.output.evicted_vectors.len()).sum();
        let loss = if due == 0 {
            0.0
        } else {
            1.0 - returned as f64 / due as f64
        };
        Ok(vec![
            Metric::single("ctrl.evicted_vectors_due", "count", due as f64),
            Metric::single("ctrl.evicted_vector_loss_share", "ratio", loss),
        ])
    }
}

pub fn setup(
    name: &str,
    scale: Scale,
    seed: u64,
    clock: &Clock,
    tracer: &mut Tracer,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "flowstats_solo" => Box::new(Solo::flowstats(scale, seed, clock, tracer)?),
        "kitsune_extract" => Box::new(Solo::kitsune_extract(scale, seed, clock, tracer)?),
        "kitsune_inline" => Box::new(Solo::kitsune_inline(scale, seed, clock, tracer)?),
        "kitsune_paced" => Box::new(Solo::kitsune_paced(scale, seed, clock, tracer)?),
        "multitenant_shared" => Box::new(Multi::new(scale, seed, clock, tracer)?),
        "scale_churn" => Box::new(Churn::new(scale, seed, clock, tracer)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}
