//! Whole-pipeline static analysis: the engine behind `superfe check`.
//!
//! `superfe-policy` owns the policy-level passes (structural `SF01xx`,
//! dataflow `SF02xx`, value-range/overflow `SF05xx`, static cost `SF06xx`);
//! the switch and NIC crates own their hardware feasibility passes
//! (`SF03xx`, `SF04xx`). This module runs all of them against one policy
//! and one deployment configuration — the value analysis parameterized by
//! the deployment's batch size, aging horizon, and sALU register width —
//! producing a single [`AnalysisReport`]; the deployment pipeline refuses
//! to deploy when that report contains errors.

use superfe_nic::{check_nic, NfpModel};
use superfe_policy::analyze::{analyze_policy_with, AnalysisReport};
use superfe_policy::{compile, Policy, ValueConfig};
use superfe_switch::resources::{TofinoBudget, SALU_REG_BITS};
use superfe_switch::{check_switch, MgpvConfig};

/// Everything the hardware feasibility passes need to know about the
/// deployment target and the expected workload.
#[derive(Clone, Debug)]
pub struct AnalyzeConfig {
    /// Switch cache configuration (determines SRAM demand).
    pub cache: MgpvConfig,
    /// Switch resource budget.
    pub budget: TofinoBudget,
    /// SmartNIC model.
    pub nfp: NfpModel,
    /// Utilization percentage above which in-budget resources warn.
    pub headroom_pct: f64,
    /// Expected concurrent group population at each granularity level. The
    /// default (5k) models a moderate deployment; pass the measured
    /// population for capacity planning.
    pub groups: usize,
    /// Group-table width (entries per 64-byte bucket) for the placement ILP.
    pub table_width: usize,
    /// Upper bound on packets one group accumulates between MGPV evictions.
    /// The `SF05xx` value analysis proves switch accumulators cannot
    /// overflow within a batch of this size.
    pub group_packets: u64,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            cache: MgpvConfig::default(),
            budget: TofinoBudget::default(),
            nfp: NfpModel::nfp4000(),
            headroom_pct: 90.0,
            groups: 5_000,
            table_width: 1,
            group_packets: 10_000,
        }
    }
}

impl AnalyzeConfig {
    /// The value-analysis parameters implied by this deployment: batch size,
    /// the cache's aging horizon, and the switch sALU register width.
    pub fn value_config(&self) -> ValueConfig {
        let mut vc = ValueConfig {
            group_packets: self.group_packets,
            acc_bits: SALU_REG_BITS,
            ..ValueConfig::default()
        };
        if let Some(aging) = self.cache.aging_t_ns {
            vc.aging_t_ns = aging;
        }
        vc
    }
}

/// Runs every analysis pass on `policy` under `cfg`.
///
/// Policy-level findings come first; when the policy is structurally sound
/// it is compiled and the switch (`SF03xx`) and NIC (`SF04xx`) passes run
/// against the split program. Structural errors short-circuit — there is no
/// program to model.
pub fn analyze(policy: &Policy, cfg: &AnalyzeConfig) -> AnalysisReport {
    let mut report = analyze_policy_with(policy, &cfg.value_config());
    if report.has_errors() {
        return report;
    }
    let Ok(compiled) = compile(policy) else {
        // Unreachable when the structural pass is clean (validate delegates
        // to it), but degrade gracefully rather than panic.
        return report;
    };
    report.extend(check_switch(
        &compiled.switch,
        &cfg.cache,
        &cfg.budget,
        cfg.headroom_pct,
    ));
    let groups_per_level = vec![cfg.groups; compiled.nic.levels.len()];
    report.extend(check_nic(
        &compiled.nic,
        &cfg.nfp,
        cfg.table_width,
        &groups_per_level,
        cfg.headroom_pct,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_policy::analyze::codes;
    use superfe_policy::dsl::parse;

    fn policy(src: &str) -> Policy {
        parse(src).unwrap()
    }

    #[test]
    fn clean_policy_clean_report() {
        let p = policy("pktstream\n.groupby(flow)\n.reduce(size, [f_mean])\n.collect(flow)");
        let r = analyze(&p, &AnalyzeConfig::default());
        assert!(r.diagnostics().is_empty(), "{}", r.render());
    }

    #[test]
    fn oversized_cache_is_infeasible() {
        let p = policy("pktstream\n.groupby(flow)\n.reduce(size, [f_mean])\n.collect(flow)");
        let cfg = AnalyzeConfig {
            cache: MgpvConfig {
                short_count: 4_000_000,
                ..MgpvConfig::default()
            },
            ..AnalyzeConfig::default()
        };
        let r = analyze(&p, &cfg);
        assert!(r.has_errors());
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.code == codes::SWITCH_SRAM_EXCEEDED));
    }

    #[test]
    fn structural_errors_short_circuit_hardware_passes() {
        let p = policy("pktstream\n.groupby(flow)\n.reduce(size, [f_mean])\n.collect(flow)");
        let broken = Policy {
            ops: p.ops[..1].to_vec(),
        };
        let r = analyze(&broken, &AnalyzeConfig::default());
        assert!(r.has_errors());
        assert!(r.diagnostics().iter().all(|d| d.code.starts_with("SF01")));
    }

    #[test]
    fn dataflow_warnings_surface_with_hardware_notes() {
        // Dead map (warning) + a big-array policy that spills to DRAM (note).
        let p = policy(
            "pktstream\n.groupby(flow)\n.map(one, _, f_one)\n.map(d, one, f_direction)\n\
             .map(unused, tstamp, f_ipt)\n.reduce(d, [f_array{5000}])\n.collect(flow)",
        );
        let r = analyze(&p, &AnalyzeConfig::default());
        assert!(!r.has_errors(), "{}", r.render());
        assert!(r.warning_count() > 0);
        let has = |code| r.diagnostics().iter().any(|d| d.code == code);
        assert!(has(codes::DEAD_MAP) && has(codes::NIC_DRAM_SPILL));
    }
}
