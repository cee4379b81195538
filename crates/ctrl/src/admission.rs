//! The admission controller: composed feasibility for a tenant set.
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
//!   tenant drawing from one shared capacity pool.
//! - The verdict comes from the same `SF03xx`/`SF04xx` diagnostic passes
//!   `superfe check` runs (`check_switch_resources`, `check_capacity`);
//!   error findings are mapped onto a typed [`AdmissionError`] naming the
//!   binding [`Resource`](crate::error::Resource).

use superfe_core::analyze::AnalyzeConfig;
use superfe_nic::resources::{model_many, NicResources};
use superfe_nic::{estimate, MemLevel, NfpModel, OptFlags, RecordWork};
use superfe_policy::analyze::{codes, Diagnostic, Severity};
use superfe_policy::CompiledPolicy;
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
    /// In-pipeline quantized-inference demand declared by the tenant, if
    /// any. Admission prices it into NIC cycles as an `SF0903` note.
    pub inference: Option<InferenceDemand>,
}

impl TenantDemand {
    /// Models `compiled` deployed with cache quota `cache`.
    pub fn new(compiled: CompiledPolicy, cache: MgpvConfig) -> Self {
        let switch = model(&compiled.switch, &cache);
        TenantDemand {
            compiled,
            cache,
            switch,
            inference: None,
        }
    }

    /// Declares an in-pipeline quantized model for this tenant (from an
    /// SF09xx `QuantCertificate`).
    pub fn with_inference(mut self, inference: InferenceDemand) -> Self {
        self.inference = Some(inference);
        self
    }
}

/// The in-pipeline inference load a tenant declares at admission time —
/// the admission-facing digest of an SF09xx
/// [`QuantCertificate`](superfe_policy::analyze::quant::QuantCertificate).
#[derive(Clone, Debug)]
pub struct InferenceDemand {
    /// Detector model name (e.g. `"kitnet"`).
    pub detector: String,
    /// Fixed-point format of the lowering (e.g. `"Q39.24"`).
    pub format: String,
    /// Integer ALU ops the quantized model executes per emitted feature
    /// vector.
    pub alu_ops: u64,
    /// Whether the SF0901 error-bound certification held for this
    /// policy × detector pair.
    pub certified: bool,
}

/// Prices a quantized model's per-vector ALU work through the NIC cycle
/// formula `superfe explain` uses for extraction: the model's integer ops
/// and a single state access (the finalized vector read, assumed CTM), no
/// divisions.
fn inference_cycles(alu_ops: u64, nfp: &NfpModel) -> f64 {
    let work = RecordWork {
        levels: 1,
        alu_ops: alu_ops as usize,
        divisions: 0,
        accesses: 1,
    };
    estimate(work, None, nfp, OptFlags::all_on()).cycles_per_record
}

/// Live per-unit group populations observed on the NIC data path, fed back
/// into admission in place of the static `cfg.groups` estimate.
///
/// `per_unit[i]` holds the observed per-level group count for the `i`-th
/// NIC program offered to [`admit_composed_observed`]; a missing or empty
/// entry — or a level observed at zero population — falls back to the
/// static estimate, so a freshly attached (or not-yet-loaded) tenant is
/// still sized for its worst case. The control plane builds this from
/// [`ShardPool::state_pressure`](superfe_nic::ShardPool::state_pressure).
#[derive(Clone, Debug, Default)]
pub struct StatePressure {
    /// Observed per-level group populations, aligned with the NIC program
    /// slice under admission.
    pub per_unit: Vec<Vec<usize>>,
}

impl StatePressure {
    /// The effective population estimate for level `level` of NIC program
    /// `unit`: the live observation when one exists and is non-zero, the
    /// static `fallback` otherwise.
    pub fn effective(&self, unit: usize, level: usize, fallback: usize) -> usize {
        match self.per_unit.get(unit).and_then(|u| u.get(level)).copied() {
            Some(observed) if observed > 0 => observed,
            _ => fallback,
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

/// Decides whether the tenant set in `tenants` fits the hardware described
/// by `cfg` — callers include the candidate alongside the already-admitted
/// tenants. Accepts with an [`AdmissionReport`]; rejects with a typed
/// [`AdmissionError::Budget`] naming the binding resource.
pub fn admit(
    cfg: &AnalyzeConfig,
    tenants: &[&TenantDemand],
) -> Result<AdmissionReport, AdmissionError> {
    let usages: Vec<SwitchResources> = tenants.iter().map(|t| t.switch).collect();
    let nics: Vec<&superfe_policy::NicProgram> = tenants.iter().map(|t| &t.compiled.nic).collect();
    let mut report = admit_composed(cfg, &usages, &nics)?;
    // Price declared in-pipeline inference into NIC cycles (SF0903). The
    // load is per emitted *vector*, not per packet, so it rides as a note
    // alongside the capacity verdict rather than inside it.
    for (i, t) in tenants.iter().enumerate() {
        if let Some(inf) = &t.inference {
            let cycles = inference_cycles(inf.alu_ops, &cfg.nfp);
            let certainty = if inf.certified {
                "SF0901-certified"
            } else {
                "UNCERTIFIED (SF0902)"
            };
            report.warnings.push(Diagnostic::note(
                codes::QUANT_CYCLE_COST,
                format!(
                    "tenant {i}: in-pipeline {} inference ({}) adds {} integer ALU ops \
                     ≈ {:.0} NIC cycles per emitted feature vector [{certainty}]",
                    inf.detector, inf.format, inf.alu_ops, cycles
                ),
            ));
        }
    }
    Ok(report)
}

/// The composed admission core: `switch` holds one usage entry per *switch
/// partition* and `nics` one program per *execution unit*. [`admit`] feeds
/// it one of each per tenant; a sharing control plane passes fewer switch
/// entries than NIC programs, so that a prefix-shared partition's demand is
/// counted once no matter how many tenants consume its event stream.
pub fn admit_composed(
    cfg: &AnalyzeConfig,
    switch: &[SwitchResources],
    nics: &[&superfe_policy::NicProgram],
) -> Result<AdmissionReport, AdmissionError> {
    admit_composed_observed(cfg, switch, nics, &StatePressure::default())
}

/// [`admit_composed`] with live population feedback: where the data path
/// has observed a unit's actual per-level group population, NIC capacity is
/// modeled against that observation instead of the static `cfg.groups`
/// estimate. Units the pressure summary does not cover (notably the
/// candidate itself) keep the static worst-case estimate.
pub fn admit_composed_observed(
    cfg: &AnalyzeConfig,
    switch: &[SwitchResources],
    nics: &[&superfe_policy::NicProgram],
    pressure: &StatePressure,
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
            (0..n.levels.len())
                .map(|level| pressure.effective(unit, level, cfg.groups))
                .collect()
        })
        .collect();
    let inputs: Vec<(&superfe_policy::NicProgram, &[usize])> = nics
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
    use superfe_nic::NfpModel;
    use superfe_policy::compile;
    use superfe_policy::dsl::parse;
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

    fn big_array() -> TenantDemand {
        demand(
            "pktstream\n.groupby(flow)\n.map(one, _, f_one)\n.map(d, one, f_direction)\n\
             .reduce(d, [f_array{5000}])\n.collect(flow)",
        )
    }

    #[test]
    fn defaults_admit_a_modest_pair() {
        let (a, b) = (host_sum(), kitsune_like());
        let report = admit(&AnalyzeConfig::default(), &[&a, &b]).unwrap();
        assert!(report.switch.salus > a.switch.salus);
        assert!(report.nic.used_bytes > 0);
    }

    #[test]
    fn declared_inference_is_priced_as_an_sf0903_note() {
        let a = host_sum();
        let b = kitsune_like().with_inference(InferenceDemand {
            detector: "kitnet".into(),
            format: "Q39.24".into(),
            alu_ops: 120_000,
            certified: true,
        });
        let cfg = AnalyzeConfig::default();
        let baseline = admit(&cfg, &[&a]).unwrap();
        let report = admit(&cfg, &[&a, &b]).unwrap();
        let notes: Vec<_> = report
            .warnings
            .iter()
            .filter(|d| d.code == codes::QUANT_CYCLE_COST)
            .collect();
        assert!(baseline
            .warnings
            .iter()
            .all(|d| d.code != codes::QUANT_CYCLE_COST));
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].severity, Severity::Note);
        assert!(notes[0].message.contains("tenant 1"));
        assert!(notes[0].message.contains("Q39.24"));
        assert!(notes[0].message.contains("SF0901-certified"));
        // The priced cycle figure includes the ALU ops themselves, so it
        // must exceed them.
        assert!(inference_cycles(120_000, &cfg.nfp) > 120_000.0);
        // An uncertified lowering is priced but flagged.
        let c = host_sum().with_inference(InferenceDemand {
            detector: "centroid".into(),
            format: "Q39.24".into(),
            alu_ops: 64,
            certified: false,
        });
        let report = admit(&cfg, &[&c]).unwrap();
        assert!(report.warnings.iter().any(
            |d| d.code == codes::QUANT_CYCLE_COST && d.message.contains("UNCERTIFIED (SF0902)")
        ));
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
            let report = admit(&accept, &[&a, &b])
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
            match admit(&reject, &[&a, &b]) {
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
        let report = admit(&cfg, &[&a, &b]).unwrap();
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
        admit(&with_dram(spill), &[&a, &b]).expect("spill exactly at DRAM capacity admits");
        match admit(&with_dram(spill - 1), &[&a, &b]) {
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
        let static_rep = admit_composed(&cfg, &usages, &nics).unwrap();
        assert!(static_rep.nic.dram_bytes > 0, "static estimate must spill");
        let live = admit_composed_observed(
            &cfg,
            &usages,
            &nics,
            &StatePressure {
                per_unit: vec![vec![10], vec![10]],
            },
        )
        .unwrap();
        assert!(live.nic.used_bytes < static_rep.nic.used_bytes);
        assert_eq!(live.nic.dram_bytes, 0, "10 observed groups fit on-chip");
        let fallback = admit_composed_observed(
            &cfg,
            &usages,
            &nics,
            &StatePressure {
                per_unit: vec![vec![0], Vec::new()],
            },
        )
        .unwrap();
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
        let shared =
            admit_composed(&cfg, &[a.switch], &[&a.compiled.nic, &b.compiled.nic]).unwrap();
        let solo = admit(&cfg, &[&a]).unwrap();
        let unshared = admit(&cfg, &[&a, &b]).unwrap();
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
            match admit(&cfg, &set) {
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
