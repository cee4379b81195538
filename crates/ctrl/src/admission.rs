//! The admission controller: composed feasibility for a deployed set.
//! [`admit`] has one caller, [`CtrlPlane::attach`](crate::CtrlPlane::attach).
//!
//! Admission reuses the repo's existing resource models end to end — it
//! introduces **no second model**:
//!
//! - Per tenant, switch demand comes from `superfe_switch::resources::model`
//!   (the Table 4 component model) evaluated with that tenant's own cache
//!   quota; the set composes via `superfe_switch::resources::compose`,
//!   which counts the shared pipeline skeleton once.
//! - NIC demand comes from `superfe_nic::resources::model_many`, the same
//!   greedy fastest-memory-first allocation as the solo model with every
//!   unit drawing from one shared capacity pool, each at its observed group
//!   population where the pool reports one.
//! - The verdict comes from the same `SF03xx`/`SF04xx` diagnostic passes
//!   `superfe check` runs (`check_switch_resources`, `check_capacity`);
//!   error findings are mapped onto a typed [`AdmissionError`] naming the
//!   binding [`Resource`](crate::error::Resource).

use superfe_core::analyze::AnalyzeConfig;
use superfe_nic::resources::{model_many, NicResources};
use superfe_nic::{MemLevel, UnitPressure};
use superfe_policy::analyze::{codes, Diagnostic, Severity};
use superfe_policy::{CompiledPolicy, NicProgram};
use superfe_switch::resources::{compose, model, SwitchResources};
use superfe_switch::{check_switch_resources, MgpvConfig};

use crate::error::{AdmissionError, Resource};

/// One tenant's modeled hardware demand, cached at admission time.
#[derive(Clone, Debug)]
pub struct TenantDemand {
    /// The compiled policy (switch and NIC halves).
    pub compiled: CompiledPolicy,
    /// The tenant's cache quota (sizes its SRAM partition).
    pub cache: MgpvConfig,
    /// Modeled switch usage under that quota.
    pub switch: SwitchResources,
}

impl TenantDemand {
    /// Models `compiled` deployed with cache quota `cache`.
    pub fn new(compiled: CompiledPolicy, cache: MgpvConfig) -> Self {
        let switch = model(&compiled.switch, &cache);
        TenantDemand {
            compiled,
            cache,
            switch,
        }
    }
}

/// What admission concluded about an (accepted) tenant set.
#[derive(Clone, Debug)]
pub struct AdmissionReport {
    /// Composed switch usage (shared skeleton counted once).
    pub switch: SwitchResources,
    /// Joint NIC usage (one shared capacity pool).
    pub nic: NicResources,
    /// Non-fatal findings (headroom warnings, DRAM-spill notes).
    pub warnings: Vec<Diagnostic>,
}

/// Decides whether a deployed set fits the hardware described by `cfg`:
/// `switch` holds one usage entry per *switch partition* and `nics` one
/// program per *execution unit*, so a prefix-shared partition's demand is
/// counted once no matter how many units consume its event stream. Accepts
/// with an [`AdmissionReport`]; rejects with a typed
/// [`AdmissionError::Budget`] naming the binding resource.
///
/// `observed[i]`, when present, is the live occupancy the NIC pool reports
/// for the unit running `nics[i]`: a level observed at a non-zero group
/// population is modeled at that population, every other level (and every
/// unit without an observation, notably the candidate) at the static
/// `cfg.groups` estimate, so a not-yet-loaded unit is sized for its worst
/// case.
pub fn admit(
    cfg: &AnalyzeConfig,
    switch: &[SwitchResources],
    nics: &[&NicProgram],
    observed: &[Option<&UnitPressure>],
) -> Result<AdmissionReport, AdmissionError> {
    let mut warnings = Vec::new();

    // Switch: compose per-partition component models, then run the same
    // SF03xx pass the solo gate runs.
    let composed = compose(switch);
    for d in check_switch_resources(&composed, &cfg.budget, cfg.headroom_pct) {
        if d.severity != Severity::Error {
            warnings.push(d);
            continue;
        }
        let (resource, demand, limit) = match d.code {
            codes::SWITCH_TABLES_EXCEEDED => (
                Resource::SwitchTables,
                composed.tables as u64,
                cfg.budget.tables as u64,
            ),
            codes::SWITCH_SALUS_EXCEEDED => (
                Resource::SwitchSalus,
                composed.salus as u64,
                cfg.budget.salus as u64,
            ),
            _ => (
                Resource::SwitchSram,
                composed.sram_bytes as u64,
                cfg.budget.sram_bytes as u64,
            ),
        };
        return Err(AdmissionError::Budget {
            resource,
            demand,
            limit,
            detail: d.message,
        });
    }

    // NIC: joint greedy allocation over one shared pool, then the same
    // SF04xx capacity pass.
    let groups: Vec<Vec<usize>> = nics
        .iter()
        .enumerate()
        .map(|(unit, n)| {
            let seen = observed.get(unit).copied().flatten();
            (0..n.levels.len())
                .map(|level| {
                    seen.and_then(|p| p.groups_per_level.get(level))
                        .map(|&(_, population)| population)
                        .filter(|&population| population > 0)
                        .unwrap_or(cfg.groups)
                })
                .collect()
        })
        .collect();
    let inputs: Vec<(&NicProgram, &[usize])> = nics
        .iter()
        .zip(&groups)
        .map(|(n, g)| (*n, g.as_slice()))
        .collect();
    let nic = model_many(&inputs, &cfg.nfp);
    let dram_cap = cfg
        .nfp
        .memory(MemLevel::Dram)
        .map(|m| m.capacity_bytes)
        .unwrap_or(0);
    for d in superfe_nic::check_capacity(&nic, &cfg.nfp, cfg.headroom_pct) {
        if d.severity != Severity::Error {
            warnings.push(d);
            continue;
        }
        return Err(AdmissionError::Budget {
            resource: Resource::NicCapacity,
            demand: nic.dram_bytes as u64,
            limit: dram_cap as u64,
            detail: d.message,
        });
    }

    Ok(AdmissionReport {
        switch: composed,
        nic,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_net::Granularity;
    use superfe_nic::NfpModel;
    use superfe_policy::compile;
    use superfe_policy::dsl::parse;
    use superfe_switch::tenant::TenantId;
    use superfe_switch::TofinoBudget;

    fn demand(src: &str) -> TenantDemand {
        TenantDemand::new(
            compile(&parse(src).unwrap()).unwrap(),
            MgpvConfig::default(),
        )
    }

    fn host_sum() -> TenantDemand {
        demand("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)")
    }

    fn kitsune_like() -> TenantDemand {
        demand(
            "pktstream\n.groupby(socket)\n.map(ipt, tstamp, f_ipt)\n\
             .reduce(size, [f_mean, f_var])\n.collect(socket)\n\
             .groupby(channel)\n.reduce(size, [f_mag, f_pcc])\n.collect(channel)\n\
             .groupby(host)\n.reduce(size, [f_mean])\n.collect(host)",
        )
    }

    /// Admits `tenants` with one switch partition and one execution unit
    /// each, at the static population estimate.
    fn admit_each(
        cfg: &AnalyzeConfig,
        tenants: &[&TenantDemand],
    ) -> Result<AdmissionReport, AdmissionError> {
        let switch: Vec<SwitchResources> = tenants.iter().map(|t| t.switch).collect();
        let nics: Vec<&NicProgram> = tenants.iter().map(|t| &t.compiled.nic).collect();
        admit(cfg, &switch, &nics, &[])
    }

    fn big_array() -> TenantDemand {
        demand(
            "pktstream\n.groupby(flow)\n.map(one, _, f_one)\n.map(d, one, f_direction)\n\
             .reduce(d, [f_array{5000}])\n.collect(flow)",
        )
    }

    #[test]
    fn defaults_admit_a_modest_pair() {
        let (a, b) = (host_sum(), kitsune_like());
        let report = admit_each(&AnalyzeConfig::default(), &[&a, &b]).unwrap();
        assert!(report.switch.salus > a.switch.salus);
        assert!(report.nic.used_bytes > 0);
    }

    /// The off-by-one boundary matrix: for each switch resource, a budget
    /// exactly at the composed demand admits; one unit below rejects with
    /// the binding resource named.
    #[test]
    fn switch_budget_boundaries_are_exact() {
        let (a, b) = (host_sum(), kitsune_like());
        let composed = compose(&[a.switch, b.switch]);
        // Generous baseline so only the probed axis binds.
        let roomy = TofinoBudget {
            tables: composed.tables * 2,
            salus: composed.salus * 2,
            sram_bytes: composed.sram_bytes * 2,
        };
        struct Case {
            name: &'static str,
            at: TofinoBudget,
            below: TofinoBudget,
            binds: Resource,
        }
        let cases = [
            Case {
                name: "tables",
                at: TofinoBudget {
                    tables: composed.tables,
                    ..roomy
                },
                below: TofinoBudget {
                    tables: composed.tables - 1,
                    ..roomy
                },
                binds: Resource::SwitchTables,
            },
            Case {
                name: "salus",
                at: TofinoBudget {
                    salus: composed.salus,
                    ..roomy
                },
                below: TofinoBudget {
                    salus: composed.salus - 1,
                    ..roomy
                },
                binds: Resource::SwitchSalus,
            },
            Case {
                name: "sram",
                at: TofinoBudget {
                    sram_bytes: composed.sram_bytes,
                    ..roomy
                },
                below: TofinoBudget {
                    sram_bytes: composed.sram_bytes - 1,
                    ..roomy
                },
                binds: Resource::SwitchSram,
            },
        ];
        for case in cases {
            let accept = AnalyzeConfig {
                budget: case.at,
                ..AnalyzeConfig::default()
            };
            let report = admit_each(&accept, &[&a, &b])
                .unwrap_or_else(|e| panic!("{}: budget at demand must admit, got {e}", case.name));
            // At 100% utilization the headroom warning fires — warn, not
            // reject.
            assert!(
                report
                    .warnings
                    .iter()
                    .any(|d| d.code == codes::SWITCH_HEADROOM),
                "{}: expected headroom warning at the boundary",
                case.name
            );
            let reject = AnalyzeConfig {
                budget: case.below,
                ..AnalyzeConfig::default()
            };
            match admit_each(&reject, &[&a, &b]) {
                Err(AdmissionError::Budget {
                    resource,
                    demand,
                    limit,
                    ..
                }) => {
                    assert_eq!(resource, case.binds, "{}", case.name);
                    assert_eq!(demand, limit + 1, "{}: off by exactly one", case.name);
                }
                other => panic!("{}: expected Budget rejection, got {other:?}", case.name),
            }
        }
    }

    /// NIC boundary: shrink DRAM so the composed spill exactly fits, then
    /// remove one byte — the joint model must reject with NicCapacity.
    #[test]
    fn nic_capacity_boundary_is_exact() {
        let (a, b) = (big_array(), big_array());
        let cfg = AnalyzeConfig {
            groups: 50_000,
            ..AnalyzeConfig::default()
        };
        let report = admit_each(&cfg, &[&a, &b]).unwrap();
        let spill = report.nic.dram_bytes;
        assert!(spill > 0, "big-array pair must spill to DRAM");
        let with_dram = |bytes: usize| {
            let mut nfp = NfpModel::nfp4000();
            for m in &mut nfp.memories {
                if m.level == MemLevel::Dram {
                    m.capacity_bytes = bytes;
                }
            }
            AnalyzeConfig {
                groups: cfg.groups,
                nfp,
                ..AnalyzeConfig::default()
            }
        };
        admit_each(&with_dram(spill), &[&a, &b]).expect("spill exactly at DRAM capacity admits");
        match admit_each(&with_dram(spill - 1), &[&a, &b]) {
            Err(AdmissionError::Budget {
                resource,
                demand,
                limit,
                ..
            }) => {
                assert_eq!(resource, Resource::NicCapacity);
                assert_eq!(demand as usize, spill);
                assert_eq!(limit as usize, spill - 1);
            }
            other => panic!("expected NicCapacity rejection, got {other:?}"),
        }
    }

    /// Population feedback: a big-array pair that spills to DRAM under the
    /// static 50k-group estimate fits on-chip once the data path reports
    /// the real (tiny) population; zero/missing observations fall back to
    /// the static estimate bit-for-bit.
    #[test]
    fn observed_population_replaces_static_estimate() {
        let (a, b) = (big_array(), big_array());
        let cfg = AnalyzeConfig {
            groups: 50_000,
            ..AnalyzeConfig::default()
        };
        let usages = [a.switch, b.switch];
        let nics = [&a.compiled.nic, &b.compiled.nic];
        let seen = |unit, groups| UnitPressure {
            unit: TenantId(unit),
            groups_per_level: vec![(Granularity::Flow, groups)],
            overflow_drops: 0,
            evicted_groups: 0,
        };
        let static_rep = admit(&cfg, &usages, &nics, &[]).unwrap();
        assert!(static_rep.nic.dram_bytes > 0, "static estimate must spill");
        let (a_seen, b_seen) = (seen(0, 10), seen(1, 10));
        let live = admit(&cfg, &usages, &nics, &[Some(&a_seen), Some(&b_seen)]).unwrap();
        assert!(live.nic.used_bytes < static_rep.nic.used_bytes);
        assert_eq!(live.nic.dram_bytes, 0, "10 observed groups fit on-chip");
        let empty = seen(0, 0);
        let fallback = admit(&cfg, &usages, &nics, &[Some(&empty), None]).unwrap();
        assert_eq!(fallback.nic.used_bytes, static_rep.nic.used_bytes);
        assert_eq!(fallback.nic.dram_bytes, static_rep.nic.dram_bytes);
    }

    #[test]
    fn composed_admission_counts_a_shared_partition_once() {
        // Two tenants on one prefix-shared switch partition: the composed
        // switch demand equals the solo demand, while a second NIC program
        // still adds NIC bytes.
        let cfg = AnalyzeConfig::default();
        let (a, b) = (host_sum(), host_sum());
        let shared = admit(&cfg, &[a.switch], &[&a.compiled.nic, &b.compiled.nic], &[]).unwrap();
        let solo = admit_each(&cfg, &[&a]).unwrap();
        let unshared = admit_each(&cfg, &[&a, &b]).unwrap();
        assert_eq!(shared.switch.salus, solo.switch.salus);
        assert_eq!(shared.switch.tables, solo.switch.tables);
        assert!(unshared.switch.salus > shared.switch.salus);
        assert!(shared.nic.used_bytes > solo.nic.used_bytes);
    }

    #[test]
    fn adding_tenants_is_monotone_until_rejection() {
        // Keep admitting Kitsune-class tenants against the real Tofino
        // budget: the composed sALUs grow monotonically and eventually the
        // controller rejects, naming a switch resource.
        let cfg = AnalyzeConfig::default();
        let tenant = kitsune_like();
        let mut set: Vec<&TenantDemand> = Vec::new();
        let mut last_salus = 0;
        let mut rejected = None;
        for _ in 0..16 {
            set.push(&tenant);
            match admit_each(&cfg, &set) {
                Ok(report) => {
                    assert!(report.switch.salus > last_salus);
                    last_salus = report.switch.salus;
                }
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        match rejected.expect("16 Kitsune tenants cannot fit a Tofino") {
            AdmissionError::Budget { resource, .. } => {
                assert!(
                    matches!(
                        resource,
                        Resource::SwitchSalus | Resource::SwitchTables | Resource::SwitchSram
                    ),
                    "{resource:?}"
                );
            }
            other => panic!("expected Budget, got {other:?}"),
        }
    }
}
