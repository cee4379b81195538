//! `superfe explain`: typed IR, value-range proofs, the static cost model,
//! optimizer rewrites and a pre-placement cycle estimate for one or more
//! policies, with the sharing sections of `check` for several.

use std::fmt::Write as _;

use superfe_core::{analyze, AnalyzeConfig};
use superfe_nic::{cycles_from_cost, OptFlags, PerfEstimate};
use superfe_policy::analyze::cost::{policy_cost, PolicyCost};
use superfe_policy::analyze::json::Json;
use superfe_policy::ir::opt::{optimize, Optimized};
use superfe_policy::{AnalysisReport, Policy, ValueConfig};

use crate::args::{resolve_policy, CliError, Flags, OutputFormat};
use crate::check::render;

/// Options of `superfe explain`.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainArgs {
    /// Built-in names or file paths (at least one).
    pub policies: Vec<String>,
    /// Expected concurrent groups per granularity level.
    pub groups: usize,
    /// Per-group packet batch bound for the overflow proofs.
    pub group_packets: u64,
    /// Output rendering.
    pub format: OutputFormat,
}

impl Default for ExplainArgs {
    fn default() -> Self {
        ExplainArgs {
            policies: Vec::new(),
            groups: 5_000,
            group_packets: 10_000,
            format: OutputFormat::Text,
        }
    }
}

/// Parses the arguments after `superfe explain`.
pub(crate) fn parse(args: &[String]) -> Result<ExplainArgs, CliError> {
    let (policies, flags) = Flags::after_policies(
        args,
        "usage: superfe explain <policy> [<policy>...] [options]",
    )?;
    let mut a = ExplainArgs {
        policies,
        ..ExplainArgs::default()
    };
    flags.each(|flag, f| {
        match flag {
            "--groups" => a.groups = f.parse("an integer")?,
            "--group-packets" => a.group_packets = f.parse("an integer")?,
            "--format" => a.format = f.format()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(a)
}

/// Runs `superfe explain`.
pub(crate) fn explain(a: &ExplainArgs) -> Result<String, CliError> {
    let cfg = AnalyzeConfig {
        groups: a.groups,
        group_packets: a.group_packets,
        ..AnalyzeConfig::default()
    };
    let mut named = Vec::new();
    for name in &a.policies {
        named.push((name.clone(), resolve_policy(name)?.1));
    }
    let explained: Vec<Explained> = named
        .iter()
        .map(|(name, p)| Explained::new(name, p, &cfg))
        .collect();
    Ok(render(
        &named,
        &cfg.value_config(),
        a.format,
        |i| explained[i].text(),
        |i| explained[i].json(),
    ))
}

/// What `explain` derives from one policy.
struct Explained<'a> {
    name: &'a str,
    policy: &'a Policy,
    vc: ValueConfig,
    report: AnalysisReport,
    cost: PolicyCost,
    optimized: Optimized,
    est: PerfEstimate,
    gbps: f64,
}

impl<'a> Explained<'a> {
    fn new(name: &'a str, p: &'a Policy, cfg: &AnalyzeConfig) -> Self {
        let cost = policy_cost(p);
        let est = cycles_from_cost(&cost, &cfg.nfp, OptFlags::all_on());
        let vc = cfg.value_config();
        Explained {
            name,
            policy: p,
            report: analyze(p, cfg),
            optimized: optimize(p, &vc),
            vc,
            gbps: est.gbps(120, &cfg.nfp, 1246.0),
            cost,
            est,
        }
    }

    fn json(&self) -> Json {
        let (cost, vc) = (&self.cost, &self.vc);
        let rewrites = self.optimized.rewrites.iter().map(ToString::to_string);
        Json::Obj(vec![
            ("policy", Json::str(self.name)),
            ("feature_dimension", Json::num(cost.feature_dimension())),
            (
                "cost",
                Json::Obj(vec![
                    ("filter_entries", Json::num(cost.filter_entries)),
                    ("total_alu_ops", Json::num(cost.total_alu_ops())),
                    ("total_divisions", Json::num(cost.total_divisions())),
                    ("total_touched_bytes", Json::num(cost.total_touched_bytes())),
                    (
                        "total_resident_bytes",
                        Json::num(cost.total_resident_bytes()),
                    ),
                    ("level_count", Json::num(cost.levels.len())),
                ]),
            ),
            (
                "value_config",
                Json::Obj(vec![
                    ("group_packets", Json::num(vc.group_packets)),
                    ("aging_t_ns", Json::num(vc.aging_t_ns)),
                    ("acc_bits", Json::num(vc.acc_bits)),
                ]),
            ),
            ("report", self.report.to_json()),
            ("rewrites", Json::strs(rewrites)),
            ("ops_before", Json::num(self.policy.ops.len())),
            ("ops_after", Json::num(self.optimized.policy.ops.len())),
            (
                "cycles_per_record",
                Json::num(format!("{:.1}", self.est.cycles_per_record)),
            ),
            ("gbps_at_120_cores", Json::num(format!("{:.2}", self.gbps))),
        ])
    }

    fn text(&self) -> String {
        let vc = &self.vc;
        let mut out = String::new();
        writeln!(out, "explaining {}", self.name).expect("write");
        out.push_str(&self.cost.render());
        writeln!(
            out,
            "value analysis: batches of {} pkt/group, {} ms aging, {}-bit sALU accumulators",
            vc.group_packets,
            vc.aging_t_ns / 1_000_000,
            vc.acc_bits
        )
        .expect("write");
        let findings: Vec<_> = self
            .report
            .diagnostics()
            .iter()
            .filter(|d| d.code.starts_with("SF05") || d.code.starts_with("SF06"))
            .collect();
        if findings.is_empty() {
            writeln!(
                out,
                "  all accumulators proven in range; no value or cost findings"
            )
            .expect("write");
        }
        for d in findings {
            writeln!(out, "  {d}").expect("write");
        }
        writeln!(out, "optimizer rewrites:").expect("write");
        let rewrites = &self.optimized.rewrites;
        if rewrites.is_empty() {
            writeln!(out, "  none applicable").expect("write");
        } else {
            for r in rewrites {
                writeln!(out, "  - {r}").expect("write");
            }
            writeln!(
                out,
                "  {} op(s) before, {} after",
                self.policy.ops.len(),
                self.optimized.policy.ops.len()
            )
            .expect("write");
        }
        writeln!(
            out,
            "cycle estimate (pre-placement, CTM-resident): {:.0} cycles/record \
             → {:.1} Gbps at 120 cores (1246 B packets)",
            self.est.cycles_per_record, self.gbps
        )
        .expect("write");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::argv;

    #[test]
    fn parses_explain_options() {
        let a = parse(&argv(
            "kitsune --groups 100 --group-packets 50000 --format json",
        ))
        .unwrap();
        assert_eq!(
            a,
            ExplainArgs {
                policies: vec!["kitsune".into()],
                groups: 100,
                group_packets: 50_000,
                format: OutputFormat::Json,
            }
        );
    }
}
