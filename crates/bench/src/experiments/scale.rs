//! Bounded NIC state at corpus scale: flow count × DRAM eviction policy.
//!
//! Streams [`superfe_trafficgen::ScaleWorkload`] (diurnal curve, flash
//! crowd, mid-stream attack burst — never materialized) through one
//! `FeSwitch` + one `FeNic` under a fixed DRAM overflow budget and reports,
//! per cell, what the budget did: groups evicted, updates refused, and the
//! accuracy cost against an unbounded pass (fraction of its groups whose
//! feature vector no longer comes out exactly once and bitwise-equal).
//! Everything here is a function of the seeds; what the budget costs in
//! time and memory is the `scale_churn` workload of `benchmark/`.
//!
//! The extractor runs single-threaded so the bounded-state behavior, not
//! shard scheduling, is what's observed. Evicted groups are drained
//! incrementally ([`superfe_nic::FeNic::take_evicted`]) — letting them
//! accumulate would itself be the unbounded growth the budget exists to
//! prevent.

use std::collections::HashMap;

use superfe_core::{gate, SuperFeConfig};
use superfe_net::GroupKey;
use superfe_nic::{EvictionPolicy, FeNic, FeatureVector, NicStats, TableBudget};
use superfe_policy::dsl;
use superfe_switch::FeSwitch;
use superfe_trafficgen::ScaleWorkload;

use crate::util::table;

/// Flow counts swept.
const FLOW_SWEEP: [usize; 2] = [10_000, 100_000];

/// Workload seed.
const SEED: u64 = 11;

/// `RandomWay` victim seed.
const EVICT_SEED: u64 = 7;

/// DRAM overflow budget (entries per group-table level). The NIC fast
/// table absorbs ~64k groups before anything spills, so with this cap the
/// 10k corpus never spills and the 100k corpus spills past the cap and
/// must evict.
const MAX_DRAM_ENTRIES: usize = 1 << 14;

/// Flow-granularity policy: one group per flow, mergeable
/// (`f_sum`) and non-mergeable-looking (`f_max`) reductions.
const POLICY: &str = "pktstream\n.groupby(flow)\n.reduce(size, [f_sum, f_max])\n.collect(flow)";

/// Packets between incremental eviction drains.
const DRAIN_EVERY: u64 = 4096;

/// The swept eviction policies. The `lru` row sits next to `evict_oldest`
/// so the table shows what true access-ordering buys over the
/// insertion-order approximation.
const POLICY_SWEEP: [(&str, EvictionPolicy); 4] = [
    ("drop_new", EvictionPolicy::DropNew),
    ("evict_oldest", EvictionPolicy::EvictOldest),
    ("lru", EvictionPolicy::Lru),
    ("random_way", EvictionPolicy::RandomWay { seed: EVICT_SEED }),
];

/// FNV-1a over a byte slice, continuing `h`.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Folds one emitted vector into a run digest (key bytes, then value bits).
fn digest_vector(h: &mut u64, key: &GroupKey, values: &[f64]) {
    let mut buf = [0u8; GroupKey::MAX_KEY_BYTES];
    let len = key.write_bytes(&mut buf);
    fnv1a(h, &buf[..len]);
    for v in values {
        fnv1a(h, &v.to_bits().to_le_bytes());
    }
}

/// Everything one pass over the stream produced (digest + counters).
#[derive(Clone, Debug, Default)]
struct PassOutput {
    packets: u64,
    digest: u64,
    /// Vectors emitted by eviction (typed partials) and at finish.
    evicted_vectors: u64,
    final_vectors: u64,
    nic: NicStats,
    /// Per-key emitted vectors, for the accuracy comparison.
    per_key: HashMap<GroupKey, Vec<Vec<f64>>>,
}

impl PassOutput {
    /// Folds emitted vectors into the digest, the counters and the per-key
    /// record.
    fn absorb(&mut self, vectors: impl IntoIterator<Item = FeatureVector>, evicted: bool) {
        for v in vectors {
            digest_vector(&mut self.digest, &v.key, &v.values);
            if evicted {
                self.evicted_vectors += 1;
            } else {
                self.final_vectors += 1;
            }
            self.per_key.entry(v.key).or_default().push(v.values);
        }
    }
}

/// Streams the workload through one switch+NIC pair under `budget`.
fn run_pass(flows: usize, seed: u64, budget: TableBudget) -> PassOutput {
    let policy = dsl::parse(POLICY).expect("bundled policy parses");
    let cfg = SuperFeConfig::default();
    let compiled = gate(&policy, &cfg).expect("policy deploys");
    let mut switch = FeSwitch::with_config(compiled.switch.clone(), cfg.cache, cfg.mode)
        .expect("default cache config");
    let mut nic = FeNic::with_budget(&compiled, cfg.cache.fg_table_size, budget)
        .expect("default table geometry");

    let mut out = PassOutput::default();
    let mut frame = Vec::new();
    for p in ScaleWorkload::flows(flows).seed(seed).stream() {
        frame.clear();
        switch.process_into(&p, &mut frame);
        for e in &frame {
            nic.handle(e);
        }
        out.packets += 1;
        if out.packets.is_multiple_of(DRAIN_EVERY) {
            out.absorb(nic.take_evicted().into_iter().map(|e| e.vector), true);
        }
    }
    out.absorb(nic.take_evicted().into_iter().map(|e| e.vector), true);
    out.absorb(nic.finish(), false);
    out.nic = *nic.stats();
    out
}

/// Accuracy of a bounded pass against the unbounded baseline.
#[derive(Clone, Copy, Debug)]
struct Accuracy {
    /// Groups the unbounded run finished with.
    baseline_groups: u64,
    /// Baseline groups whose bounded output is a single bitwise-equal
    /// vector (never split by eviction, never dropped).
    intact_groups: u64,
}

impl Accuracy {
    /// Fraction of baseline groups degraded by the budget.
    fn delta(&self) -> f64 {
        if self.baseline_groups == 0 {
            return 0.0;
        }
        1.0 - self.intact_groups as f64 / self.baseline_groups as f64
    }
}

fn compare(baseline: &HashMap<GroupKey, Vec<Vec<f64>>>, bounded: &PassOutput) -> Accuracy {
    let mut intact = 0u64;
    for (key, base_vecs) in baseline {
        let [base] = base_vecs.as_slice() else {
            continue; // baseline itself split (cannot happen unbounded)
        };
        if let Some([one]) = bounded.per_key.get(key).map(Vec::as_slice) {
            if one.len() == base.len()
                && one
                    .iter()
                    .zip(base)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            {
                intact += 1;
            }
        }
    }
    Accuracy {
        baseline_groups: baseline.len() as u64,
        intact_groups: intact,
    }
}

/// The flows × eviction-policy table: for each flow count an unbounded
/// baseline pass, then every eviction policy under the fixed DRAM budget.
pub fn run() -> String {
    let mut rows = Vec::new();
    for flows in FLOW_SWEEP {
        let baseline = run_pass(flows, SEED, TableBudget::default()).per_key;
        for (label, policy) in POLICY_SWEEP {
            let budget = TableBudget::capped(MAX_DRAM_ENTRIES, policy);
            let out = run_pass(flows, SEED, budget);
            let acc = compare(&baseline, &out);
            rows.push(vec![
                flows.to_string(),
                label.to_string(),
                out.packets.to_string(),
                out.nic.evicted_groups.to_string(),
                out.evicted_vectors.to_string(),
                out.final_vectors.to_string(),
                out.nic.overflow_drops.to_string(),
                format!("{:016x}", out.digest),
                acc.baseline_groups.to_string(),
                acc.intact_groups.to_string(),
                format!("{:.6}", acc.delta()),
            ]);
        }
    }
    table(
        &format!(
            "Bounded NIC state: flows x eviction policy under a {MAX_DRAM_ENTRIES}-entry DRAM \
             budget (seed {SEED})"
        ),
        &[
            "flows",
            "policy",
            "packets",
            "evicted groups",
            "evicted vectors",
            "final vectors",
            "overflow drops",
            "digest",
            "baseline groups",
            "intact groups",
            "accuracy delta",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_the_cap_every_policy_matches_the_unbounded_pass() {
        // At 2k flows nothing spills past the DRAM budget: every policy
        // behaves identically and matches the unbounded baseline exactly.
        let baseline = run_pass(2_000, 3, TableBudget::default());
        assert!(baseline.packets > 0);
        assert!(baseline.final_vectors > 0, "no vectors out");
        for (label, policy) in POLICY_SWEEP {
            let budget = TableBudget::capped(MAX_DRAM_ENTRIES, policy);
            let out = run_pass(2_000, 3, budget);
            assert_eq!(out.nic.evicted_groups, 0, "{label}");
            assert_eq!(out.digest, baseline.digest, "{label}");
            let acc = compare(&baseline.per_key, &out);
            assert!(acc.baseline_groups > 0);
            assert_eq!(acc.delta(), 0.0, "{label}");
        }
    }

    #[test]
    fn compare_counts_split_and_dropped_groups() {
        let key = |h: u32| GroupKey::Host(h);
        let mut baseline: HashMap<GroupKey, Vec<Vec<f64>>> = HashMap::new();
        baseline.insert(key(1), vec![vec![10.0, 2.0]]);
        baseline.insert(key(2), vec![vec![7.0, 7.0]]);
        baseline.insert(key(3), vec![vec![1.0, 1.0]]);
        baseline.insert(key(4), vec![vec![5.0, 5.0]]);
        let mut per_key: HashMap<GroupKey, Vec<Vec<f64>>> = HashMap::new();
        per_key.insert(key(1), vec![vec![10.0, 2.0]]); // intact
        per_key.insert(key(2), vec![vec![4.0, 4.0], vec![3.0, 7.0]]); // split
        per_key.insert(key(4), vec![vec![5.0, -5.0]]); // diverged
                                                       // key(3) dropped entirely (DropNew at the cap).
        let bounded = PassOutput {
            per_key,
            ..PassOutput::default()
        };
        let acc = compare(&baseline, &bounded);
        assert_eq!(acc.baseline_groups, 4);
        assert_eq!(acc.intact_groups, 1);
        assert!((acc.delta() - 0.75).abs() < 1e-12);
    }

    /// The full gradient needs enough groups to overflow the NIC fast
    /// table (~64k entries) — expensive in debug builds, so opt-in, and a
    /// named `ci.sh` step:
    /// `cargo test --release -p superfe-bench -- --ignored tight_budget`.
    #[test]
    #[ignore = "needs ~90k flows to spill past the fast table; run in release"]
    fn tight_budget_evicts_and_accuracy_degrades() {
        let seed = 5;
        let flows = 90_000;
        let baseline = run_pass(flows, seed, TableBudget::default());
        let tight = TableBudget::capped(MAX_DRAM_ENTRIES, EvictionPolicy::EvictOldest);
        let bounded = run_pass(flows, seed, tight);
        assert!(bounded.nic.evicted_groups > 0, "cap must bite");
        assert_eq!(bounded.packets, baseline.packets);
        let acc = compare(&baseline.per_key, &bounded);
        // Insertion-order eviction mostly reaps *finished* short flows, so
        // its accuracy cost is small — but every evicted group still
        // surfaced as a typed vector, nothing silently lost.
        assert!(acc.intact_groups > 0, "resident groups survive intact");
        assert!(
            bounded.evicted_vectors > 0,
            "evicted groups surface as typed vectors, nothing silently lost"
        );
        // DropNew refuses new groups instead: drops counted, no evictions,
        // and the refused groups are the measurable accuracy loss.
        let drop_new = TableBudget::capped(MAX_DRAM_ENTRIES, EvictionPolicy::DropNew);
        let drop = run_pass(flows, seed, drop_new);
        assert!(drop.nic.overflow_drops > 0);
        assert_eq!(drop.nic.evicted_groups, 0);
        let drop_acc = compare(&baseline.per_key, &drop);
        assert!(
            drop_acc.delta() > acc.delta(),
            "refusing new groups costs more accuracy than reaping old ones"
        );
        assert!(drop_acc.delta() > 0.0, "dropped groups are missing");
    }
}
