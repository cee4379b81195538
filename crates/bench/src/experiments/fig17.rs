//! Figure 17: incremental effect of the three FE-NIC optimizations (§6.2):
//! hash reuse, thread-level latency hiding, division elimination.

use superfe_apps::policies;
use superfe_nic::{NfpModel, OptFlags};

use crate::experiments::placed_estimate;
use crate::util;

/// The incremental configurations, in presentation order.
pub fn configurations() -> Vec<(&'static str, OptFlags)> {
    vec![
        ("baseline (no opts)", OptFlags::all_off()),
        (
            "+ hash reuse",
            OptFlags {
                reuse_hash: true,
                ..OptFlags::all_off()
            },
        ),
        (
            "+ threading",
            OptFlags {
                reuse_hash: true,
                threading: true,
                div_elim: false,
            },
        ),
        ("+ division elimination", OptFlags::all_on()),
    ]
}

/// Modeled `(name, cycles/record, relative throughput)` rows for Kitsune.
pub fn measure() -> Vec<(&'static str, f64, f64)> {
    let nfp = NfpModel::nfp4000();
    let cycles = |flags| placed_estimate(policies::KITSUNE, &nfp, flags).cycles_per_record;
    let base = cycles(OptFlags::all_off());
    configurations()
        .into_iter()
        .map(|(name, flags)| {
            let c = cycles(flags);
            (name, c, base / c)
        })
        .collect()
}

/// Regenerates Figure 17.
pub fn run() -> String {
    let rows: Vec<Vec<String>> = measure()
        .into_iter()
        .map(|(name, cycles, rel)| {
            vec![
                name.to_string(),
                format!("{} cycles", util::f(cycles, 0)),
                format!("{}x", util::f(rel, 2)),
            ]
        })
        .collect();
    util::table(
        "Figure 17: FE-NIC optimizations, applied incrementally (Kitsune, cycle model)",
        &["Configuration", "Cycles / record", "Throughput vs baseline"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_optimization_helps() {
        let rows = measure();
        for w in rows.windows(2) {
            assert!(
                w[1].1 < w[0].1,
                "{} ({} cycles) should beat {} ({} cycles)",
                w[1].0,
                w[1].1,
                w[0].0,
                w[0].1
            );
        }
    }

    #[test]
    fn total_speedup_is_multiple_x_with_div_dominant() {
        let rows = measure();
        let total = rows.last().expect("rows").2;
        assert!(total >= 3.0, "total speedup {total}");
        // Division elimination is the largest single step (paper's finding).
        let step_div = rows[3].1 / rows[2].1; // < 1, smaller is better
        let step_hash = rows[1].1 / rows[0].1;
        let step_thread = rows[2].1 / rows[1].1;
        assert!(
            step_div < step_hash && step_div < step_thread,
            "div {step_div}, hash {step_hash}, thread {step_thread}"
        );
    }
}
