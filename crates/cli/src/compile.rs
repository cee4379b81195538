//! `superfe compile`: the switch/NIC split of one policy and the resources
//! each half takes.

use std::fmt::Write as _;

use superfe_nic::{
    estimate, resources as nic_resources, solve_placement, NfpModel, OptFlags, RecordWork,
};
use superfe_policy::analyze::cost::policy_cost;
use superfe_policy::compile as compile_policy;
use superfe_switch::{resources as switch_resources, MgpvConfig, TofinoBudget};

use crate::args::{err, fail, resolve_policy, CliError};

/// Runs `superfe compile`.
pub(crate) fn compile(policy: &str) -> Result<String, CliError> {
    let (_, p) = resolve_policy(policy)?;
    let compiled = compile_policy(&p).map_err(fail)?;
    let mut out = String::new();
    writeln!(out, "== FE-Switch program ==").expect("write");
    writeln!(
        out,
        "filter: {}",
        compiled
            .switch
            .filter
            .as_ref()
            .map(|f| format!("{f:?}"))
            .unwrap_or_else(|| "none".into())
    )
    .expect("write");
    let levels: Vec<&str> = compiled.switch.levels.iter().map(|g| g.name()).collect();
    writeln!(
        out,
        "granularity chain (fine → coarse): {}",
        levels.join(" → ")
    )
    .expect("write");
    writeln!(
        out,
        "metadata layout: {:?} ({} B/record), FG table: {}",
        compiled.switch.metadata,
        compiled.switch.record_bytes(),
        if compiled.switch.needs_fg_table() {
            "yes"
        } else {
            "no"
        }
    )
    .expect("write");
    let res = switch_resources::model(&compiled.switch, &MgpvConfig::default());
    let (t, s, m) = res.utilization(&TofinoBudget::default());
    writeln!(
        out,
        "switch resources: tables {t:.1}%, sALUs {s:.1}%, SRAM {m:.1}%"
    )
    .expect("write");

    writeln!(out, "\n== FE-NIC program ==").expect("write");
    writeln!(
        out,
        "feature dimension: {}",
        compiled.nic.feature_dimension()
    )
    .expect("write");
    let nfp = NfpModel::nfp4000();
    let states = compiled.nic.states();
    let placement = solve_placement(&states, &nfp, 1).ok_or_else(|| err("placement failed"))?;
    for (name, mem) in &placement.assignment {
        writeln!(out, "  {name:<40} → {}", mem.name()).expect("write");
    }
    let work = RecordWork::from(&policy_cost(&p));
    let e = estimate(work, Some(&placement), &nfp, OptFlags::all_on());
    writeln!(
        out,
        "cycle model: {:.0} cycles/record → {:.1} Gbps at 120 cores (1246 B packets)",
        e.cycles_per_record,
        e.gbps(120, &nfp, 1246.0)
    )
    .expect("write");
    let nic_res = nic_resources::model(
        &compiled.nic,
        &vec![10_000; compiled.nic.levels.len()],
        &nfp,
    );
    writeln!(
        out,
        "NIC memory at 10k groups/level: {:.1}% on-chip",
        nic_res.utilization_pct()
    )
    .expect("write");
    Ok(out)
}
