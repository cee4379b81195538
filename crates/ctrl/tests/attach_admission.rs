//! Admission as `CtrlPlane::attach` decides it, pinned per resource.
//!
//! Each case attaches a two-tenant set to a plane whose budget on one axis
//! is exactly the set's composed demand (both tenants admitted) and then one
//! unit below it (the second attach refused with the binding resource, the
//! composed demand and the limit). The demands are literals: a change to the
//! resource models or to how attach composes them shows here first.

use superfe_core::analyze::AnalyzeConfig;
use superfe_core::pipeline::SuperFeConfig;
use superfe_ctrl::{AdmissionError, CtrlError, CtrlPlane, Resource, TenantSpec};
use superfe_net::PacketRecord;
use superfe_nic::{MemLevel, NfpModel};
use superfe_policy::dsl::parse;
use superfe_switch::TofinoBudget;

fn spec(name: &str, src: &str) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        policy: parse(src).unwrap(),
        cfg: SuperFeConfig::default(),
    }
}

fn host_sum() -> TenantSpec {
    spec(
        "host-sum",
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
    )
}

fn flow_stats() -> TenantSpec {
    spec(
        "flow-stats",
        "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n\
         .reduce(size, [f_mean, f_max])\n.collect(flow)",
    )
}

/// A per-flow direction array of `n` entries: 4n bytes of NIC state per
/// group, so 50k modeled groups spill to DRAM.
fn flow_array(n: usize) -> TenantSpec {
    spec(
        &format!("flow-array-{n}"),
        &format!(
            "pktstream\n.groupby(flow)\n.map(one, _, f_one)\n.map(d, one, f_direction)\n\
             .reduce(d, [f_array{{{n}}}])\n.collect(flow)"
        ),
    )
}

/// An analysis config whose NIC DRAM holds `bytes`, modeling 50k groups
/// per level.
fn dram(bytes: usize) -> AnalyzeConfig {
    let mut nfp = NfpModel::nfp4000();
    for m in &mut nfp.memories {
        if m.level == MemLevel::Dram {
            m.capacity_bytes = bytes;
        }
    }
    AnalyzeConfig {
        groups: 50_000,
        nfp,
        ..AnalyzeConfig::default()
    }
}

fn switch(budget: TofinoBudget) -> AnalyzeConfig {
    AnalyzeConfig {
        budget,
        ..AnalyzeConfig::default()
    }
}

/// Attaches `set` in order on a fresh plane; returns how many attached and
/// the refusal that stopped it, if any.
fn attach_all(cfg: AnalyzeConfig, set: &[TenantSpec]) -> (usize, Option<CtrlError>) {
    let mut plane = CtrlPlane::new(1, cfg);
    let mut refused = None;
    for spec in set {
        if let Err(e) = plane.attach(spec, None) {
            refused = Some(e);
            break;
        }
    }
    let attached = plane.tenants().len();
    plane.finish().unwrap();
    (attached, refused)
}

fn budget_refusal(e: Option<CtrlError>) -> (Resource, u64, u64) {
    match e {
        Some(CtrlError::Admission(AdmissionError::Budget {
            resource,
            demand,
            limit,
            ..
        })) => (resource, demand, limit),
        other => panic!("expected a Budget refusal, got {other:?}"),
    }
}

#[test]
fn attach_admits_at_the_budget_and_refuses_one_unit_over() {
    let roomy = TofinoBudget::default();
    let switch_pair = [host_sum(), flow_stats()];
    let nic_pair = [flow_array(5000), flow_array(4000)];
    // (resource, tenant set, config at exactly the composed demand, the
    // same one unit below it, the pinned composed demand)
    type Case<'a> = (
        Resource,
        &'a [TenantSpec],
        AnalyzeConfig,
        AnalyzeConfig,
        u64,
    );
    let cases: [Case; 4] = [
        (
            Resource::SwitchTables,
            &switch_pair,
            switch(TofinoBudget {
                tables: 53,
                ..roomy
            }),
            switch(TofinoBudget {
                tables: 52,
                ..roomy
            }),
            53,
        ),
        (
            Resource::SwitchSalus,
            &switch_pair,
            switch(TofinoBudget { salus: 34, ..roomy }),
            switch(TofinoBudget { salus: 33, ..roomy }),
            34,
        ),
        (
            Resource::SwitchSram,
            &switch_pair,
            switch(TofinoBudget {
                sram_bytes: 4_259_848,
                ..roomy
            }),
            switch(TofinoBudget {
                sram_bytes: 4_259_847,
                ..roomy
            }),
            4_259_848,
        ),
        (
            Resource::NicCapacity,
            &nic_pair,
            dram(1_800_000_000),
            dram(1_799_999_999),
            1_800_000_000,
        ),
    ];
    for (resource, set, fit, over, demand) in cases {
        let (attached, refused) = attach_all(fit, set);
        assert_eq!(
            (attached, refused.map(|e| e.to_string())),
            (2, None),
            "{resource:?}: a set at exactly the budget is admitted"
        );
        let (attached, refused) = attach_all(over, set);
        assert_eq!(attached, 1, "{resource:?}: the first tenant still fits");
        assert_eq!(
            budget_refusal(refused),
            (resource, demand, demand - 1),
            "{resource:?}: one unit over is refused"
        );
    }
}

/// Attach models an already-loaded unit at its observed group population:
/// the NIC pair refused on a fresh plane (both at the static 50k estimate)
/// is admitted once the first tenant has seen its eleven flows.
#[test]
fn attach_prices_a_loaded_unit_at_its_observed_population() {
    let cfg = || dram(1_799_999_999);
    let (a, b) = (flow_array(5000), flow_array(4000));

    let (attached, refused) = attach_all(cfg(), &[a.clone(), b.clone()]);
    assert_eq!(attached, 1);
    assert_eq!(
        budget_refusal(refused),
        (Resource::NicCapacity, 1_800_000_000, 1_799_999_999)
    );

    let mut plane = CtrlPlane::new(1, cfg());
    plane.attach(&a, None).unwrap();
    for i in 0..3_000u64 {
        let p = PacketRecord::tcp(i * 700, 400, (i % 11 + 1) as u32, 1500, 4, 443);
        plane.push(&p).unwrap();
    }
    plane
        .attach(&b, None)
        .expect("the loaded unit is priced at 11 observed flows, not 50k");
    assert_eq!(plane.tenants().len(), 2);
    plane.finish().unwrap();
}
