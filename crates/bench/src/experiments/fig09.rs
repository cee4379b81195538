//! Figure 9: throughput of SuperFE-accelerated applications vs their
//! software feature extractors.
//!
//! The software column is *measured* on this machine: the same policy
//! evaluated packet-at-a-time by [`SoftwareExtractor`] over raw frames
//! (paying per-packet parsing, like a pcap capture path), single core.
//! The SuperFE column combines the switch (line-rate batching) with the NIC
//! cycle model at the paper's full deployment (2 × NFP-4000 = 120 cores),
//! capped by the Tofino's 3.3 Tb/s line rate. The paper's software baselines
//! are Python, ours is optimized Rust, so the absolute gap here is smaller
//! than the paper's ~100×; the ordering and the multi-100Gbps headline hold.

use std::time::Instant;

use superfe_core::SoftwareExtractor;
use superfe_net::wire::build_frame;
use superfe_nic::{NfpModel, OptFlags};
use superfe_trafficgen::Workload;

use crate::experiments::{placed_estimate, study_apps};
use crate::util;

/// Packets in the measurement trace.
pub const PACKETS: usize = 60_000;
/// Switch line rate cap in Gbps (3.3 Tb/s Tofino).
pub const LINE_RATE_GBPS: f64 = 3300.0;

/// One measured row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Application name.
    pub app: &'static str,
    /// Measured single-core software throughput in Gbps of original traffic.
    pub software_gbps: f64,
    /// Modeled SuperFE throughput (120 cores), Gbps of original traffic.
    pub superfe_gbps: f64,
}

/// Runs the measurement and model, returning raw rows.
pub fn measure() -> Vec<Row> {
    let trace = Workload::mawi().packets(PACKETS).seed(4).generate();
    let stats = trace.stats();
    let frames: Vec<Vec<u8>> = trace.records.iter().map(build_frame).collect();
    let nfp = NfpModel::nfp4000();

    study_apps()
        .into_iter()
        .map(|(app, src)| {
            // Software: single-core, frame-parsing path.
            let mut sw = SoftwareExtractor::from_dsl(src).expect("policy valid");
            let start = Instant::now();
            for (rec, frame) in trace.records.iter().zip(&frames) {
                sw.push_frame(frame, rec.ts_ns, rec.direction)
                    .expect("well-formed frame");
            }
            let secs = start.elapsed().as_secs_f64();
            let software_gbps = stats.total_bytes as f64 * 8.0 / secs / 1e9;

            // SuperFE: NIC cycle model at 120 cores over the same policy.
            let superfe_gbps = placed_estimate(src, &nfp, OptFlags::all_on())
                .gbps(120, &nfp, stats.avg_pkt_size)
                .min(LINE_RATE_GBPS);

            Row {
                app,
                software_gbps,
                superfe_gbps,
            }
        })
        .collect()
}

/// Regenerates Figure 9 as a table.
pub fn run() -> String {
    let rows = measure();
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.to_string(),
                format!("{} Gbps", util::f(r.software_gbps, 2)),
                format!("{} Gbps", util::f(r.superfe_gbps, 0)),
                format!("{}x", util::f(r.superfe_gbps / r.software_gbps, 0)),
            ]
        })
        .collect();
    util::table(
        "Figure 9: throughput — SuperFE vs software feature extractors (MAWI-like trace)",
        &[
            "Application",
            "Software (1 core, measured)",
            "SuperFE (120 cores, modeled)",
            "Speedup",
        ],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superfe_wins_by_a_wide_margin() {
        let rows = measure();
        for r in &rows {
            assert!(r.software_gbps > 0.0, "{}", r.app);
            assert!(
                r.superfe_gbps > 10.0 * r.software_gbps,
                "{}: superfe {} vs software {}",
                r.app,
                r.superfe_gbps,
                r.software_gbps
            );
        }
        // The headline: multi-100Gbps for every application.
        assert!(rows.iter().all(|r| r.superfe_gbps >= 100.0));
    }
}
