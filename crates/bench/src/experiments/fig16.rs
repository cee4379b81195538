//! Figure 16: multi-core scalability of FE-NIC, 1 → 120 SoC cores.
//!
//! Two series: the NFP cycle model (the paper's hardware), which is exactly
//! linear because per-IP sharding removes contention, and a *measured*
//! wall-clock speedup of the real parallel executor on this machine's cores
//! (bounded by the host's parallelism, but demonstrating the same
//! contention-free scaling mechanism).

use superfe_nic::{NfpModel, OptFlags, ShardPool};
use superfe_policy::{compile, dsl};
use superfe_switch::{FeSwitch, TaggedEvent, TenantId};
use superfe_trafficgen::Workload;

use crate::experiments::{placed_estimate, study_apps};
use crate::util;

/// Core counts swept (the paper's x-axis, two NICs max).
pub const CORES: [usize; 8] = [1, 2, 4, 8, 16, 30, 60, 120];

/// Packets for the measured-parallel series.
pub const PACKETS: usize = 40_000;

/// Modeled Gbps for each app at each core count.
pub fn modeled() -> Vec<(&'static str, Vec<(usize, f64)>)> {
    let nfp = NfpModel::nfp4000();
    let avg_pkt = 1246.0; // MAWI-like
    study_apps()
        .into_iter()
        .map(|(app, src)| {
            let e = placed_estimate(src, &nfp, OptFlags::all_on());
            let series = CORES
                .iter()
                .map(|&c| (c, e.gbps(c, &nfp, avg_pkt)))
                .collect();
            (app, series)
        })
        .collect()
}

/// Measured wall-clock speedup of the real parallel executor on the Kitsune
/// policy (heavy per-record work, so thread-spawn cost is amortized).
/// Each configuration takes the best of three runs; speedups are relative to
/// the 1-worker best.
pub fn measured_parallel() -> Vec<(usize, f64)> {
    let (_, src) = study_apps()[3]; // Kitsune
    let compiled = compile(&dsl::parse(src).expect("parses")).expect("compiles");
    let trace = Workload::mawi().packets(PACKETS).seed(16).generate();
    let mut sw = FeSwitch::new(compiled.switch.clone()).expect("deploys");
    let tenant = TenantId(0);
    let mut events = Vec::new();
    for p in &trace.records {
        events.extend(sw.process(p));
    }
    events.extend(sw.flush());
    let events: Vec<TaggedEvent> = events
        .into_iter()
        .map(|event| TaggedEvent { tenant, event })
        .collect();

    // Wall-clock time from first push to merged output on `w` shards.
    let run = |w: usize| -> f64 {
        let mut pool = ShardPool::new(w);
        pool.attach(tenant, tenant, &compiled, 16_384, None)
            .expect("engine");
        let start = std::time::Instant::now();
        pool.push_all(events.iter().cloned()).expect("runs");
        pool.finish().expect("runs");
        start.elapsed().as_secs_f64()
    };
    let best_of = |w: usize| -> f64 { (0..3).map(|_| run(w)).fold(f64::INFINITY, f64::min) };
    let workers = [1usize, 2, 4, 8];
    let base = best_of(1);
    workers.iter().map(|&w| (w, base / best_of(w))).collect()
}

/// Regenerates Figure 16.
pub fn run() -> String {
    let mut rows = Vec::new();
    for (app, series) in modeled() {
        for (cores, gbps) in series {
            rows.push(vec![
                app.to_string(),
                cores.to_string(),
                format!("{} Gbps", util::f(gbps, 1)),
            ]);
        }
    }
    let mut out = util::table(
        "Figure 16: FE-NIC scalability with SoC cores (cycle model, MAWI-like packets)",
        &["App", "Cores", "Throughput"],
        &rows,
    );
    let measured: Vec<Vec<String>> = measured_parallel()
        .into_iter()
        .map(|(w, s)| vec![w.to_string(), format!("{}x", util::f(s, 2))])
        .collect();
    out.push_str(&util::table(
        &format!(
            "Figure 16b: measured parallel-executor speedup (per-IP sharding; host has {} CPU(s) — speedup is bounded by host parallelism)",
            std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1)
        ),
        &["Workers", "Speedup"],
        &measured,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_scales_linearly() {
        for (app, series) in modeled() {
            let (c0, g0) = series[0];
            let (cn, gn) = *series.last().expect("non-empty");
            let expected = cn as f64 / c0 as f64;
            let got = gn / g0;
            assert!(
                (got - expected).abs() / expected < 1e-9,
                "{app}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn wfp_has_highest_throughput() {
        // The paper: "WFP owns the simplest feature extractor so it achieves
        // the highest throughput" — TF must beat Kitsune at equal cores.
        let m = modeled();
        let tf = m.iter().find(|(a, _)| *a == "TF").expect("TF").1[7].1;
        let kit = m.iter().find(|(a, _)| *a == "Kitsune").expect("Kitsune").1[7].1;
        assert!(tf > kit, "TF {tf} vs Kitsune {kit}");
    }
}
