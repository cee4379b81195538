//! Runs one workload: repeated set-up, the timed repetitions, and (with
//! `--trace 1`) the traced single-threaded pass. Also the all-workloads mode
//! that runs each workload in a process of its own and joins the results
//! into one document.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use superfe_nic::{cycles_from_cost, NfpModel, OptFlags};
use superfe_policy::analyze::cost::policy_cost;

use crate::json;
use crate::lockstep::{replay, superfe_run, Replay};
use crate::spec::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{peak_rss_mb, reset_peak_rss, Clock, Metric, Quartiles};
use crate::trace::Tracer;
use crate::workloads::{self, Rep, Scale, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: u32 = 3;

/// Fewest timed repetitions a run reports on, however short `--seconds` is.
const MIN_REPS: usize = 5;

/// Passes of each single-threaded measurement in the traced run.
const REPLAYS: u32 = 3;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub struct Outcome {
    pub workload: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    /// What the driver contract asks for: every end-to-end metric untraced,
    /// every `BENCHMARK.json` per-layer metric traced.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics only this workload has (traced runs).
    pub extras: Vec<Metric>,
    /// The span file's content (traced runs).
    pub spans: Option<String>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.failed == 0
    }

    /// The last line of standard output, in the driver's format.
    pub fn contract_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.ok(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// Everything the run measured, on one line: the contract metrics with
    /// their within-run quartiles, plus the workload-specific extras.
    pub fn detail_line(&self, args: &RunArgs) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"trace\":{},\"seed\":{},\"seconds\":{},\"smoke\":{},\
             \"ok\":{},\"attempted\":{},\"failed\":{},\"failed_share\":{},\"reps\":{},\"metrics\":{{",
            self.workload,
            u8::from(self.trace),
            args.seed,
            args.seconds,
            args.smoke,
            self.ok(),
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted as f64,
            self.reps
        );
        for (i, m) in self.metrics.iter().chain(&self.extras).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
            if let Some(q) = m.spread {
                write!(
                    out,
                    ",\"q1\":{},\"median\":{},\"q3\":{},\"n\":{}",
                    q.q1, q.median, q.q3, q.n
                )
                .expect("writing to a String cannot fail");
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

fn check(metrics: &[Metric]) -> Result<(), String> {
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        if !spec::valid_name(&m.name) || !spec::valid_unit(m.unit) {
            return Err(format!(
                "metric {} [{}] breaks the naming rules",
                m.name, m.unit
            ));
        }
    }
    Ok(())
}

/// Runs one workload in this process. `clock` started with the process, so
/// the first set-up includes whatever came before it.
pub fn run_workload(args: &RunArgs, clock: Clock) -> Result<Outcome, String> {
    let scale = Scale { smoke: args.smoke };
    // Set-up stages are a handful of spans per set-up, so they are recorded
    // in untraced runs too; the replay spans are what `--trace` adds.
    let mut tracer = Tracer::new(clock, true);
    let mut setups = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    let setups_due = if args.smoke { 1 } else { SETUPS };
    for k in 0..setups_due {
        // Free the previous set-up first: peak RSS is one set-up's, not two.
        drop(workload.take());
        tracer.set_rep(k);
        let began = if k == 0 { 0 } else { clock.now_ns() };
        workload = Some(workloads::setup(
            &args.workload,
            scale,
            args.seed,
            &clock,
            &mut tracer,
        )?);
        setups.push((clock.now_ns() - began) as f64 / 1e9);
    }
    let workload = workload.expect("SETUPS is at least 1");

    // A traced run spends half its window on the untraced repetitions that
    // `core.pipeline_speedup` and the push/finish metrics need.
    let window_ns = args.seconds * 1e9 * if args.trace { 0.5 } else { 1.0 };
    let min_reps = if args.smoke { 1 } else { MIN_REPS };
    let began = clock.now_ns();
    let mut reps = Vec::new();
    // Peak RSS per repetition (inputs resident, one pipeline deployed) where
    // the kernel lets the high-water mark be reset; else of the whole run.
    let mut peaks = Vec::new();
    while reps.len() < min_reps || ((clock.now_ns() - began) as f64) < window_ns {
        let reset = reset_peak_rss();
        reps.push(workload.rep(&clock)?);
        if reset {
            peaks.push(peak_rss_mb());
        }
    }
    if peaks.is_empty() {
        peaks.push(peak_rss_mb());
    }

    let attempted: u64 = reps.iter().map(|r| r.packets).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let good: Vec<&Rep> = reps.iter().filter(|r| r.failed == 0).collect();
    if good.is_empty() {
        return Err(format!(
            "every repetition failed ({failed} of {attempted} packets)"
        ));
    }
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.packets as f64 * 1e9 / r.wall_ns() as f64)
        .collect();
    let latencies: Vec<f64> = good.iter().map(|r| r.latency_ms).collect();
    let cpu: Vec<f64> = reps
        .iter()
        .map(|r| r.cpu_s / r.packets as f64 * 1e6)
        .collect();
    // CPU time comes in 10 ms ticks, too coarse for one repetition's value
    // to stand alone: pool the cheaper half of the repetitions instead of
    // taking their middle one.
    let mut by_cost: Vec<&Rep> = reps.iter().collect();
    by_cost.sort_by(|a, b| (a.cpu_s / a.packets as f64).total_cmp(&(b.cpu_s / b.packets as f64)));
    by_cost.truncate(reps.len().div_ceil(2));
    let pooled_cpu = by_cost.iter().map(|r| r.cpu_s).sum::<f64>()
        / by_cost.iter().map(|r| r.packets).sum::<u64>() as f64
        * 1e6;
    let pkts_per_s = Metric::better_half("pkts_per_s", "pkt/s", &rates, Better::Higher);

    let mut outcome = Outcome {
        workload: args.workload.clone(),
        trace: args.trace,
        attempted,
        failed,
        reps: reps.len(),
        metrics: Vec::new(),
        extras: Vec::new(),
        spans: None,
    };
    if args.trace {
        let (layers, extras) = trace_pass(
            workload.as_ref(),
            &clock,
            &mut tracer,
            &reps,
            pkts_per_s.value,
            args.smoke,
        )?;
        outcome.metrics = layers;
        outcome.extras = extras;
        outcome.spans = Some(tracer.to_json(&args.workload));
    } else {
        outcome.metrics = vec![
            Metric::median("setup_s", "s", &setups),
            pkts_per_s,
            Metric {
                value: pooled_cpu,
                ..Metric::median("cpu_s_per_mpkt", "s/Mpkt", &cpu)
            },
            Metric::median("peak_rss_mb", "MiB", &peaks),
            Metric::better_half("vector_latency_mean_ms", "ms", &latencies, Better::Lower),
        ];
    }
    // The driver reads exactly the table `BENCHMARK.json` lists.
    let table: &[spec::MetricSpec] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let reported = outcome.metrics.iter().map(|m| (m.name.as_str(), m.unit));
    assert!(
        reported.eq(table.iter().map(|m| (m.name, m.unit))),
        "reported metrics differ from the spec table"
    );
    check(&outcome.metrics)?;
    check(&outcome.extras)?;
    Ok(outcome)
}

fn sum_replays(runs: &[Replay]) -> Replay {
    let mut total = Replay::default();
    for r in runs {
        total.events += r.events;
        total.msgs += r.msgs;
        total.records += r.records;
        total.aging_msgs += r.aging_msgs;
        total.fg_updates += r.fg_updates;
        total.vectors += r.vectors;
        total.evicted += r.evicted;
        total.alerts += r.alerts;
        total.push_ns += r.push_ns;
        total.finish_ns += r.finish_ns;
    }
    total
}

/// Time per hop of a 1-producer/1-consumer `ring::channel` with the depth
/// and doorbell batch the NIC executors use (`CHANNEL_DEPTH` 8,
/// `DOORBELL_FRAMES` 4). A probe of the layer alone: the same on every
/// workload, reported on each so a ring change shows in every row.
fn ring_probe(smoke: bool) -> Result<f64, String> {
    let hops: u64 = if smoke { 10_000 } else { 200_000 };
    let mut samples = Vec::new();
    for _ in 0..5 {
        let (mut tx, mut rx) = superfe_net::ring::channel::<u64>(8, 4);
        let consumer = std::thread::spawn(move || {
            let mut sum = 0u64;
            while let Ok(x) = rx.recv() {
                sum = sum.wrapping_add(x);
            }
            sum
        });
        let t0 = std::time::Instant::now();
        for i in 0..hops {
            tx.send(std::hint::black_box(i))
                .map_err(|_| "ring consumer went away")?;
        }
        drop(tx);
        let sum = consumer.join().map_err(|_| "ring consumer panicked")?;
        let ns = t0.elapsed().as_nanos() as f64;
        if sum != hops * (hops - 1) / 2 {
            return Err("ring probe lost or duplicated an item".into());
        }
        samples.push(ns / hops as f64);
    }
    Ok(Quartiles::of(&samples).median)
}

/// The per-layer pass: `SuperFe` alone, the chunked replay untraced, then
/// the same replay with a span around every layer call.
fn trace_pass(
    w: &dyn Workload,
    clock: &Clock,
    tracer: &mut Tracer,
    reps: &[Rep],
    pkts_per_s: f64,
    smoke: bool,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let input = w.input();
    let plans = w.plans();
    let packets = input.records.len() as f64;
    let passes = if smoke { 1 } else { REPLAYS };

    // Set-up stages, one value per set-up.
    let setup_stage = |tracer: &Tracer, name: &str| -> Option<f64> {
        let ns: Vec<f64> = (0..SETUPS)
            .filter_map(|k| tracer.self_ns_by_name(k).get(name).map(|ns| *ns as f64))
            .collect();
        (!ns.is_empty()).then(|| Quartiles::of(&ns).median)
    };
    let gen_ns = setup_stage(tracer, "trafficgen.gen").ok_or("no trafficgen.gen span")?;
    let gate_ns = setup_stage(tracer, "policy.gate").ok_or("no policy.gate span")?;
    let train_ns = setup_stage(tracer, "detect.train");
    let certify_ns = setup_stage(tracer, "detect.certify");

    let mut single_ns = Vec::new();
    for _ in 0..passes {
        let mut total = 0u64;
        for plan in &plans {
            total += superfe_run(plan.policy, input, clock)?.1;
        }
        single_ns.push(total as f64);
    }
    let single_ns = Quartiles::of(&single_ns).median;

    let mut untraced_ns = Vec::new();
    let mut off = Tracer::new(*clock, false);
    for _ in 0..passes {
        let runs = plans
            .iter()
            .map(|p| replay(p, input, clock, &mut off))
            .collect::<Result<Vec<_>, _>>()?;
        let total = sum_replays(&runs);
        untraced_ns.push((total.push_ns + total.finish_ns) as f64);
    }
    let untraced_ns = Quartiles::of(&untraced_ns).median;

    let mut traced_ns = Vec::new();
    let mut layer_ns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counts = Replay::default();
    for pass in 0..passes {
        // Replay spans are numbered after the set-up spans' repetitions.
        tracer.set_rep(SETUPS + pass);
        let runs = plans
            .iter()
            .map(|p| replay(p, input, clock, tracer))
            .collect::<Result<Vec<_>, _>>()?;
        counts = sum_replays(&runs);
        traced_ns.push((counts.push_ns + counts.finish_ns) as f64);
        for (name, ns) in tracer.self_ns_by_name(SETUPS + pass) {
            layer_ns.entry(name).or_default().push(ns as f64);
        }
    }
    let traced_ns = Quartiles::of(&traced_ns).median;
    let layer = |name: &str| layer_ns.get(name).map(|v| Quartiles::of(v).median);
    let spanned_ns: f64 = layer_ns.keys().filter_map(|k| layer(k)).sum();
    let need = |name: &str| layer(name).ok_or(format!("no {name} span in the replay"));

    let cycles: f64 = plans
        .iter()
        .map(|p| {
            let cost = policy_cost(p.policy);
            cycles_from_cost(&cost, &NfpModel::nfp4000(), OptFlags::all_on()).cycles_per_record
        })
        .sum();
    let deploys: Vec<f64> = reps.iter().map(|r| r.deploy_ns as f64 / 1e6).collect();
    let msgs = counts.msgs.max(1) as f64;
    let kpkt = packets / 1e3;

    let mut values = BTreeMap::from([
        ("trafficgen.gen_s", gen_ns / 1e9),
        ("policy.gate_ms", gate_ns / 1e6),
        ("core.deploy_ms", Quartiles::of(&deploys).median),
        ("core.single_thread_ns_per_pkt", single_ns / packets),
        (
            "core.pipeline_speedup",
            pkts_per_s / (packets * 1e9 / single_ns),
        ),
        ("core.residual_share", need("core.replay")? / spanned_ns),
        ("net.ring_ns_per_frame", ring_probe(smoke)?),
        (
            "switch.process_ns_per_pkt",
            need("switch.process")? / packets,
        ),
        ("switch.flush_ms", need("switch.flush")? / 1e6),
        ("switch.events_per_kpkt", counts.events as f64 / kpkt),
        ("switch.records_per_msg", counts.records as f64 / msgs),
        ("switch.aging_evict_share", counts.aging_msgs as f64 / msgs),
        (
            "switch.fg_updates_per_kpkt",
            counts.fg_updates as f64 / kpkt,
        ),
        ("nic.handle_ns_per_pkt", need("nic.handle")? / packets),
        (
            "nic.finalize_us_per_vector",
            need("nic.output")? / 1e3 / counts.vectors.max(1) as f64,
        ),
        ("nic.evicted_per_kpkt", counts.evicted as f64 / kpkt),
        ("nic.model_cycles_per_record", cycles),
        ("bench.trace_overhead_share", 1.0 - untraced_ns / traced_ns),
    ]);
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            let v = values
                .remove(m.name)
                .expect("every per-layer metric is measured");
            Metric::single(m.name, m.unit, v)
        })
        .collect();

    // Metrics that exist on this workload only.
    let exec = w.executor();
    let pushes: Vec<f64> = reps
        .iter()
        .map(|r| r.push_ns as f64 / r.packets as f64)
        .collect();
    let finishes: Vec<f64> = reps.iter().map(|r| r.finish_ns as f64 / 1e6).collect();
    let mut extras = vec![
        Metric::median(&format!("{exec}.push_ns_per_pkt"), "ns/pkt", &pushes),
        Metric::median(&format!("{exec}.finish_ms"), "ms", &finishes),
        Metric::single("bench.lockstep_ns_per_pkt", "ns/pkt", untraced_ns / packets),
    ];
    // Share of the traced replay spent in each layer's calls.
    let mut shares: BTreeMap<&str, f64> = BTreeMap::new();
    for name in layer_ns.keys().filter(|n| **n != "core.replay") {
        let crate_name = name.split('.').next().expect("split yields one item");
        *shares.entry(crate_name).or_default() += layer(name).unwrap_or(0.0) / spanned_ns;
    }
    for (crate_name, share) in shares {
        extras.push(Metric::single(
            &format!("{crate_name}.replay_share"),
            "ratio",
            share,
        ));
    }
    if let Some(ns) = layer("net.parse") {
        extras.push(Metric::single(
            "net.parse_ns_per_pkt",
            "ns/pkt",
            ns / packets,
        ));
    }
    if let Some(ns) = layer("ml.score") {
        let per_vector = ns / 1e3 / counts.vectors.max(1) as f64;
        extras.push(Metric::single(
            "ml.score_us_per_vector",
            "us/vector",
            per_vector,
        ));
        extras.push(Metric::single("ml.alerts", "count", counts.alerts as f64));
    }
    if let Some(ns) = train_ns {
        extras.push(Metric::single("detect.train_s", "s", ns / 1e9));
    }
    if let Some(ns) = certify_ns {
        extras.push(Metric::single("detect.certify_ms", "ms", ns / 1e6));
    }
    extras.extend(w.extras(clock, reps)?);
    Ok((layers, extras))
}

pub struct AllArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Runs every workload, each in a process of its own (so `setup_s` and
/// `peak_rss_mb` are that workload's), untraced first and then traced, and
/// returns one JSON document plus whether every workload was correct.
pub fn run_all(args: &AllArgs) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let env = |key: &str| json::escape(&std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut doc = format!(
        "{{\"schema\":1,\"host\":{{\"nproc\":{nproc},\"rustc\":\"{}\",\"commit\":\"{}\"}},\
         \"seed\":{},\"seconds\":{},\"smoke\":{},\"workloads\":{{",
        env("BENCH_RUSTC"),
        env("BENCH_COMMIT"),
        args.seed,
        args.seconds,
        args.smoke
    );
    let mut all_ok = true;
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(doc, "{sep}\n\"{}\":{{", w.name).expect("writing to a String cannot fail");
        let traces: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for (k, trace) in traces.iter().enumerate() {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if *trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            eprintln!("{} --trace {}", w.name, u8::from(*trace));
            // `output` waits for the child to end.
            let out = cmd.output().map_err(|e| e.to_string())?;
            if !out.status.success() {
                return Err(format!(
                    "{} --trace {} exited with {}: {}",
                    w.name,
                    u8::from(*trace),
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines = stdout.lines().rev();
            let (_contract, detail) = (lines.next(), lines.next());
            let detail = detail.ok_or("child printed no detail line")?;
            let parsed = json::parse(detail)?;
            all_ok &= parsed.get("ok").and_then(json::Json::as_bool) == Some(true);
            let sep = if k == 0 { "" } else { "," };
            let key = if *trace { "traced" } else { "untraced" };
            write!(doc, "{sep}\n \"{key}\":{detail}").expect("writing to a String cannot fail");
        }
        doc.push('}');
    }
    doc.push_str("\n}}\n");
    Ok((doc, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// Per-layer metrics the traced run must add on the workloads that have
    /// the layer (beyond the `PER_LAYER` table every workload reports).
    fn extras_due(workload: &str) -> &'static [&'static str] {
        match workload {
            "flowstats_solo" => &[
                "net.parse_ns_per_pkt",
                "core.push_ns_per_pkt",
                "core.finish_ms",
            ],
            "kitsune_extract" => &["core.push_ns_per_pkt", "core.finish_ms"],
            "kitsune_inline" => &[
                "ml.score_us_per_vector",
                "ml.alerts",
                "detect.train_s",
                "detect.certify_ms",
                "ml.replay_share",
            ],
            "multitenant_shared" => &[
                "ctrl.attach_ms",
                "ctrl.push_ns_per_pkt",
                "ctrl.finish_ms",
                "ctrl.units",
                "ctrl.partitions",
                "ctrl.vs_solo_sum_ratio",
            ],
            "scale_churn" => &["ctrl.evicted_vector_loss_share", "core.push_ns_per_pkt"],
            "kitsune_paced" => &[
                "net.ring_latency_share",
                "bench.lockstep_latency_ms",
                "bench.late_share",
            ],
            other => panic!("no expectations for {other}"),
        }
    }

    /// `--smoke`: every workload at 1/50 of its packet counts, untraced and
    /// traced, in one process. Checks the shape of everything printed.
    #[test]
    fn smoke_runs_every_workload_and_the_trace_pass() {
        let started = std::time::Instant::now();
        for w in &WORKLOADS {
            for trace in [false, true] {
                let args = RunArgs {
                    workload: w.name.to_string(),
                    seed: 4,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                };
                let out = run_workload(&args, Clock::start())
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
                assert!(out.ok() && out.attempted > 0, "{}", w.name);

                let line = json::parse(&out.contract_line()).unwrap();
                let keys: Vec<&str> = line
                    .members()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
                let table: &[spec::MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
                let metrics = line.get("metrics").unwrap().members().unwrap();
                assert_eq!(metrics.len(), table.len());
                for ((name, m), want) in metrics.iter().zip(table) {
                    assert_eq!(name, want.name);
                    assert_eq!(m.get("unit").unwrap().as_str(), Some(want.unit));
                    let v = m.get("value").unwrap().as_f64().unwrap();
                    assert!(v.is_finite(), "{name}");
                    // End-to-end metrics are never 0.
                    assert!(trace || v > 0.0, "{} {name} = {v}", w.name);
                }

                let detail = json::parse(&out.detail_line(&args)).unwrap();
                assert_eq!(detail.get("failed_share").and_then(Json::as_f64), Some(0.0));
                assert_eq!(detail.get("workload").unwrap().as_str(), Some(w.name));
                let reported = detail.get("metrics").unwrap();
                if trace {
                    for name in extras_due(w.name) {
                        assert!(reported.get(name).is_some(), "{} lacks {name}", w.name);
                    }
                    let spans = json::parse(out.spans.as_ref().unwrap()).unwrap();
                    let spans = spans.get("spans").unwrap().as_array().unwrap();
                    assert!(spans.iter().any(|s| {
                        s.get("name").unwrap().as_str() == Some("nic.handle")
                            && !s.get("parent").unwrap().is_null()
                    }));
                } else {
                    assert!(out.spans.is_none() && out.extras.is_empty());
                    assert!(reported.get("pkts_per_s").unwrap().get("q1").is_some());
                }
            }
        }
        // The budget the smoke mode exists for (optimised build, see the
        // test profile in Cargo.toml).
        assert!(
            started.elapsed().as_secs_f64() < 10.0,
            "smoke took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn unknown_workload_is_refused() {
        let args = RunArgs {
            workload: "nope".into(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: true,
        };
        assert!(run_workload(&args, Clock::start()).is_err());
    }
}
