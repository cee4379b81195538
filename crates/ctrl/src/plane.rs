//! The control plane: N admitted policies live on one shared data path.
//!
//! [`CtrlPlane`] drives the one threaded data path
//! ([`DataPath`]: a shared switch feeding the NIC shard pool, the same type
//! a solo `StreamingPipeline` drives with one partition), and sequences
//! reconfiguration in **epochs**:
//!
//! 1. [`CtrlPlane::attach`] gates the candidate policy (compile → static
//!    analysis, the same `superfe_core::deploy::gate` every solo path
//!    uses), then asks the one **join rule** how deep the candidate
//!    may share with what is already deployed (see below). Whatever the
//!    rule leaves as marginal demand composes with the admitted set through
//!    the admission controller before anything touches the data path.
//! 2. [`CtrlPlane::detach`] is one epoch-boundary operation parameterized
//!    by what survives ([`DataPath::detach`]), so the departing tenant's
//!    output is bitwise what a solo run over its window returns while the
//!    survivors' state is never touched.
//!
//! **The join rule.** Every deployed unit keeps its policy's canonical
//! stage-prefix lattice ([`PrefixForm`]). A candidate is compared against
//! the units deployed under the same configuration that are still at the
//! candidate's stream position, and joins at the deepest depth
//! [`certify`] proves. That **position gate** (`Unit::attach_pos` equal to
//! the packets pushed) is the plane's alone: the plane is the one keeper of
//! the tenant → unit → partition topology, and the shard pool below it
//! keeps only the member → unit → partition edges its routing and demux
//! need, trusting the plane's placement.
//!
//! - the **whole lattice** → [`Join::Member`]: the same program. The
//!   tenant joins that unit's demux fan-out with zero marginal hardware
//!   demand (SF07xx fusion);
//! - the **switch prefix** — parse, groupby chain, filter conjunct set →
//!   [`Join::Unit`]: a new execution unit (its own NIC engines and
//!   map/reduce tail) subscribed to that unit's switch partition. The
//!   partition's record is re-laid in place as the canonical metadata
//!   union at join time — no flush, no rebuild; the layout only drives
//!   wire-byte accounting, so it is lossless at any position (SF08xx prefix
//!   sharing);
//! - nothing → [`Join::Partition`]: a new partition and a new unit.
//!
//! So units nest inside **groups**: a group is one switch partition; each
//! of its units is one NIC engine set; fused tenants share a unit via
//! demux, and a tenant's id and name live in its unit's member list. Ids
//! are allocated monotonically at attach and a restore keeps them, so
//! attach order is ascending id. Admission composes switch demand once per
//! group and NIC demand once per unit ([`crate::admission::admit`]).
//!
//! Untouched tenants lose or duplicate zero vectors across either
//! operation: their partitions, engines, and channels are never touched,
//! and the pool's epochs travel in-band so they cannot reorder against
//! event frames. Sharing preserves the same contract: every fused member
//! receives its own copy of every vector under its own egress numbering,
//! and the MGPV event stream — record content *and* eviction timing — is
//! fully determined by the switch prefix, so every unit observes exactly
//! the stream its solo partition would have produced.

use superfe_core::pipeline::SuperFeConfig;
use superfe_core::stream::DataPath;
use superfe_net::PacketRecord;
use superfe_nic::{SharedScorer, StreamOutput, UnitPressure, VectorSink};
use superfe_policy::analyze::share::{certify, prefix_form, Depth, PrefixForm};
use superfe_policy::{NicProgram, Policy, SwitchProgram};
use superfe_switch::resources::{model, SwitchResources};
use superfe_switch::tenant::{union_metadata, TenantId};

use crate::admission::{admit, TenantDemand};
use crate::error::{AdmissionError, CtrlError};

/// A policy a tenant asks to deploy.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (the bundled-app name or file stem).
    pub name: String,
    /// The policy itself.
    pub policy: Policy,
    /// Deployment configuration; `cfg.cache` is the tenant's cache quota.
    pub cfg: SuperFeConfig,
}

/// One deployed execution unit: a NIC engine set that one or more
/// tenants running the same plan share, fed by the switch partition of the
/// group it belongs to.
pub(crate) struct Unit {
    pub(crate) id: TenantId,
    /// The policy's canonical lattice: `form.full()` is the unit's plan
    /// identity, `form.switch_prefix` its partition identity.
    pub(crate) form: PrefixForm,
    /// The founding member's policy — the certification anchor later
    /// candidates are checked against.
    pub(crate) policy: Policy,
    pub(crate) cfg: SuperFeConfig,
    pub(crate) demand: TenantDemand,
    /// The tenants the unit serves — id and display name — in join order.
    pub(crate) members: Vec<(TenantId, String)>,
    /// The switch partition whose event stream feeds this unit; equals
    /// `id` unless the unit joined an existing partition.
    pub(crate) group: TenantId,
    /// Stream position (packets pushed) when the unit attached; a
    /// candidate may only join while the plane is still at this position,
    /// otherwise the shared state would owe the late joiner history. Every
    /// unit of a group therefore carries the same position.
    pub(crate) attach_pos: u64,
}

/// One deployed switch partition: one parse → groupby → filter pipeline
/// and one MGPV cache, serving the per-tenant map/reduce tails of every
/// unit whose `group` names it. What those units agree on — switch prefix,
/// deployment configuration, attach position — is read from any of them.
pub(crate) struct Group {
    pub(crate) id: TenantId,
    /// Modeled demand of the partition under its current (union) record
    /// layout; recomputed when a join widens the layout.
    pub(crate) switch: SwitchResources,
}

/// How a candidate joins the deployed set — the one sharing decision of
/// the plane (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Join {
    /// Same plan as `units[i]`: join its demux fan-out.
    Member(usize),
    /// Same switch prefix as `groups[i]`: a new unit on that partition.
    Unit(usize),
    /// Nothing to share: a new partition and a new unit.
    Partition,
}

/// The switch programs of the units subscribed to partition `gid`.
pub(crate) fn group_programs(units: &[Unit], gid: TenantId) -> Vec<&SwitchProgram> {
    units
        .iter()
        .filter(|u| u.group == gid)
        .map(|u| &u.demand.compiled.switch)
        .collect()
}

/// One tenant's final output at plane shutdown.
#[derive(Debug)]
pub struct TenantRun {
    /// The tenant id.
    pub id: TenantId,
    /// The tenant's display name.
    pub name: String,
    /// Its isolated extraction output.
    pub output: StreamOutput,
}

/// The multi-tenant control plane over one shared switch + NIC.
pub struct CtrlPlane {
    pub(crate) analyze: superfe_core::analyze::AnalyzeConfig,
    pub(crate) path: DataPath,
    pub(crate) units: Vec<Unit>,
    pub(crate) groups: Vec<Group>,
    pub(crate) sharing: bool,
    /// The next tenant id; past `u16::MAX` the id space is exhausted (ids
    /// are never recycled).
    pub(crate) next_id: u32,
    pub(crate) epoch: u64,
}

impl CtrlPlane {
    /// A plane with `workers` NIC shards and the given hardware model for
    /// admission (budget, NFP, expected group population, headroom), with
    /// analysis-certified cross-tenant sharing enabled.
    pub fn new(workers: usize, analyze: superfe_core::analyze::AnalyzeConfig) -> Self {
        Self::build(workers, analyze, true)
    }

    /// Like [`CtrlPlane::new`] but with cross-tenant sharing disabled:
    /// every tenant gets its own partition and engines even when provably
    /// equivalent (the unshared reference the isolation differentials and
    /// the admission-rejection smoke compare against).
    pub fn without_fusion(workers: usize, analyze: superfe_core::analyze::AnalyzeConfig) -> Self {
        Self::build(workers, analyze, false)
    }

    pub(crate) fn build(
        workers: usize,
        analyze: superfe_core::analyze::AnalyzeConfig,
        sharing: bool,
    ) -> Self {
        CtrlPlane {
            analyze,
            path: DataPath::new(workers),
            units: Vec::new(),
            groups: Vec::new(),
            sharing,
            next_id: 0,
            epoch: 0,
        }
    }

    /// Number of NIC shards.
    pub fn workers(&self) -> usize {
        self.path.nic().workers()
    }

    /// Sets the group-table budget (DRAM cap + eviction policy) applied to
    /// every tenant attached after this call — how the CLI pins
    /// `RandomWay` to an explicit `--evict-seed` so eviction sequences are
    /// reproducible run to run.
    pub fn set_table_budget(&mut self, budget: superfe_nic::TableBudget) {
        self.path.nic_mut().set_table_budget(budget);
    }

    /// Completed reconfiguration epochs (each attach/detach is one).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Packets pushed through the plane so far. A plane restored from a
    /// snapshot resumes at the saved count, so a caller replaying a
    /// deterministic trace knows exactly where to pick up.
    pub fn pushed(&self) -> u64 {
        self.path.pushed()
    }

    /// Live tenants in attach order.
    pub fn tenants(&self) -> Vec<(TenantId, &str)> {
        self.roster().map(|(id, name, _)| (id, name)).collect()
    }

    /// Every live tenant with its name and the unit serving it, in attach
    /// order: ascending id (see the module docs).
    fn roster(&self) -> impl Iterator<Item = (TenantId, &str, &Unit)> {
        let mut all: Vec<_> = (self.units.iter())
            .flat_map(|u| {
                u.members
                    .iter()
                    .map(move |(id, name)| (*id, name.as_str(), u))
            })
            .collect();
        all.sort_unstable_by_key(|&(id, ..)| id);
        all.into_iter()
    }

    /// The position of the unit serving `tenant`.
    fn serving(&self, tenant: TenantId) -> Option<usize> {
        (self.units.iter()).position(|u| u.members.iter().any(|(m, _)| *m == tenant))
    }

    /// Live execution units in creation order, each with its member count
    /// (fused units serve more than one tenant).
    pub fn units(&self) -> Vec<(TenantId, usize)> {
        self.units.iter().map(|u| (u.id, u.members.len())).collect()
    }

    /// Live switch partitions in creation order, each with its unit count
    /// (SF08xx prefix-shared partitions feed more than one unit).
    pub fn groups(&self) -> Vec<(TenantId, usize)> {
        let units = |gid| self.units.iter().filter(|u| u.group == gid).count();
        self.groups.iter().map(|g| (g.id, units(g.id))).collect()
    }

    /// Observed NIC state occupancy per live tenant, in attach order, next
    /// to the tenant's id and name. Fused members report their shared
    /// unit's population; the counters also surface overflow drops and
    /// budget evictions so operators can see when a tenant is running into
    /// its memory budget. Synchronizes with every shard, so the observation
    /// is not stale.
    pub fn state_occupancy(&mut self) -> Result<Vec<(TenantId, String, UnitPressure)>, CtrlError> {
        let raw = self.path.nic_mut().state_pressure()?;
        Ok(self
            .roster()
            .map(|(id, name, u)| {
                let unit = raw.iter().find(|p| p.unit == u.id);
                let unit = unit.expect("the pool reports every live unit");
                (id, name.to_string(), unit.clone())
            })
            .collect())
    }

    /// The join rule (see the module docs): the deepest certified sharing
    /// `spec` may enter with a live unit deployed under the same
    /// configuration — the cache quota and mode fully determine MGPV
    /// behavior — that is still at the candidate's stream position.
    /// Equal hashes nominate, [`certify`] against the unit's founding
    /// policy decides; the granularity chain is compared structurally as a
    /// belt-and-braces check behind the prefix hash.
    pub(crate) fn plan_join(
        &self,
        spec: &TenantSpec,
        demand: &TenantDemand,
        form: &PrefixForm,
    ) -> Join {
        let mut join = Join::Partition;
        if !self.sharing {
            return join;
        }
        let vc = self.analyze.value_config();
        for (upos, u) in self.units.iter().enumerate() {
            if u.form.switch_prefix != form.switch_prefix
                || u.cfg != spec.cfg
                || u.attach_pos != self.path.pushed()
                || u.demand.compiled.switch.levels != demand.compiled.switch.levels
            {
                continue;
            }
            if u.form.full() == form.full()
                && certify(&u.policy, &spec.policy, &vc, Depth::Full).is_ok()
            {
                return Join::Member(upos);
            }
            if join == Join::Partition
                && certify(&u.policy, &spec.policy, &vc, Depth::Switch).is_ok()
            {
                let gpos = self.groups.iter().position(|g| g.id == u.group);
                join = Join::Unit(gpos.expect("unit without group"));
            }
        }
        join
    }

    /// Models the demand of group `gpos`'s partition after widening its
    /// record layout to the canonical metadata union of every member
    /// program plus the candidate's.
    fn widened_usage(&self, gpos: usize, demand: &TenantDemand) -> SwitchResources {
        let mut progs = group_programs(&self.units, self.groups[gpos].id);
        progs.push(&demand.compiled.switch);
        let union = SwitchProgram {
            filter: demand.compiled.switch.filter.clone(),
            levels: demand.compiled.switch.levels.clone(),
            metadata: union_metadata(&progs),
        };
        model(&union, &demand.cache)
    }

    /// The demand admission composes once `join` is carried out: switch
    /// demand once per partition, NIC programs once per unit. A member adds
    /// nothing; a unit adds its NIC program and whatever the widened record
    /// layout costs the shared partition; a partition adds both halves.
    fn composed<'a>(
        &'a self,
        join: Join,
        demand: &'a TenantDemand,
    ) -> (Vec<SwitchResources>, Vec<&'a NicProgram>) {
        let mut switch: Vec<SwitchResources> = self.groups.iter().map(|g| g.switch).collect();
        let mut nics: Vec<&NicProgram> =
            self.units.iter().map(|u| &u.demand.compiled.nic).collect();
        match join {
            Join::Member(_) => return (switch, nics),
            Join::Unit(gpos) => switch[gpos] = self.widened_usage(gpos, demand),
            Join::Partition => switch.push(demand.switch),
        }
        nics.push(&demand.compiled.nic);
        (switch, nics)
    }

    /// Admits and deploys `spec` at the current epoch. `sinks`, when given,
    /// must hold one [`VectorSink`] per NIC shard (the tenant's private
    /// egress; a detector is given with [`CtrlPlane::score_with`]).
    ///
    /// Packets pushed before this call never reach the new tenant; packets
    /// pushed after all do. Other tenants are unaffected. How much hardware
    /// the tenant consumes is the join rule's decision (see the module
    /// docs); its observable output is bitwise identical either way.
    ///
    /// This is the one way into admission: a fused member adds no demand
    /// and is not admitted; any other candidate is composed with the
    /// deployed set, already-loaded units modeled at the group population
    /// the NIC pool reports for them, the candidate at the static
    /// worst-case estimate.
    pub fn attach(
        &mut self,
        spec: &TenantSpec,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<TenantId, CtrlError> {
        // Ids are never recycled: refuse before anything is touched.
        let id = u16::try_from(self.next_id).map_err(|_| CtrlError::TenantIdsExhausted)?;
        let demand = self.gate(spec)?;
        let form = prefix_form(&spec.policy, &self.analyze.value_config());
        let join = self.plan_join(spec, &demand, &form);
        if !matches!(join, Join::Member(_)) {
            let raw = self.path.nic_mut().state_pressure()?;
            let observed: Vec<_> = self
                .units
                .iter()
                .map(|u| raw.iter().find(|p| p.unit == u.id))
                .collect();
            let (switch, nics) = self.composed(join, &demand);
            admit(&self.analyze, &switch, &nics, &observed)?;
        }
        self.install(TenantId(id), spec, demand, form, join, sinks)?;
        self.next_id += 1;
        Ok(TenantId(id))
    }

    /// Carries out `join` for tenant `id`: the one place the data path and
    /// the unit / group tables change on an attach. Admission is the
    /// caller's; [`CtrlPlane::restore`] replays saved tenants through here
    /// without it.
    pub(crate) fn install(
        &mut self,
        id: TenantId,
        spec: &TenantSpec,
        demand: TenantDemand,
        form: PrefixForm,
        join: Join,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<(), CtrlError> {
        let group = match join {
            Join::Member(upos) => {
                let unit = &mut self.units[upos];
                self.path.nic_mut().join(unit.id, id, sinks)?;
                unit.members.push((id, spec.name.clone()));
                None
            }
            Join::Unit(gpos) => {
                let gid = self.groups[gpos].id;
                let widened = self.widened_usage(gpos, &demand);
                let mut progs = group_programs(&self.units, gid);
                progs.push(&demand.compiled.switch);
                self.path.attach_to_partition(
                    gid,
                    id,
                    &demand.compiled,
                    &progs,
                    &spec.cfg,
                    sinks,
                )?;
                self.groups[gpos].switch = widened;
                Some(gid)
            }
            Join::Partition => {
                self.path.attach(id, &demand.compiled, &spec.cfg, sinks)?;
                let switch = demand.switch;
                self.groups.push(Group { id, switch });
                Some(id)
            }
        };
        if let Some(group) = group {
            self.units.push(Unit {
                id,
                form,
                policy: spec.policy.clone(),
                cfg: spec.cfg,
                demand,
                members: vec![(id, spec.name.clone())],
                group,
                attach_pos: self.path.pushed(),
            });
        }
        self.epoch += 1;
        Ok(())
    }

    /// Gives `tenant` a detector of its own at the current epoch: its
    /// vectors are scored inside the NIC shards from here on and the alerts
    /// come back in its output (see [`ShardPool::score_with`]). However the
    /// join rule placed the tenant — fused member, unit on a shared
    /// partition, partition of its own — the detector is the tenant's
    /// alone. Valid at any stream position, a restored plane included: a
    /// snapshot carries no detector state.
    pub fn score_with(&mut self, tenant: TenantId, model: SharedScorer) -> Result<(), CtrlError> {
        if self.serving(tenant).is_none() {
            return Err(CtrlError::UnknownTenant(tenant));
        }
        Ok(self.path.nic_mut().score_with(tenant, model)?)
    }

    /// Detaches `tenant` at the current epoch, returning its complete
    /// isolated output (budget-evicted vectors included). Blocks until
    /// every NIC shard acked the epoch.
    ///
    /// Whether its partition is drained or snapshot-flushed is decided by
    /// what survives it ([`DataPath::detach`]); in every case the
    /// survivors are bitwise unaffected.
    pub fn detach(&mut self, tenant: TenantId) -> Result<StreamOutput, CtrlError> {
        let Some(upos) = self.serving(tenant) else {
            return Err(CtrlError::UnknownTenant(tenant));
        };
        let gid = self.units[upos].group;
        let gpos = self
            .groups
            .iter()
            .position(|g| g.id == gid)
            .expect("unit without group");
        let unit_survives = self.units[upos].members.len() > 1;
        let partition_survives =
            unit_survives || self.units.iter().filter(|u| u.group == gid).count() > 1;
        let out = self.path.detach(tenant, gid, partition_survives)?;
        if unit_survives {
            self.units[upos].members.retain(|(m, _)| *m != tenant);
        } else {
            self.units.remove(upos);
        }
        if !partition_survives {
            self.groups.remove(gpos);
        }
        self.epoch += 1;
        Ok(out)
    }

    /// Offers one packet to every partition, whose filter entries decide
    /// which units' engines see it, and on to the NIC shards.
    pub fn push(&mut self, p: &PacketRecord) -> Result<(), CtrlError> {
        Ok(self.path.push(p)?)
    }

    /// Flushes every unit partition, drains the shards, and returns each
    /// remaining tenant's isolated output in attach order — ascending id,
    /// also on a restored plane, whose pool joined them unit by unit.
    pub fn finish(self) -> Result<Vec<TenantRun>, CtrlError> {
        let (mut outs, _) = self.path.finish()?;
        outs.sort_by_key(|&(id, _)| id);
        let members: Vec<_> = self.units.into_iter().flat_map(|u| u.members).collect();
        Ok(outs
            .into_iter()
            .map(|(id, output)| {
                let name = (members.iter().find(|(m, _)| *m == id))
                    .map_or_else(|| id.to_string(), |(_, name)| name.clone());
                TenantRun { id, name, output }
            })
            .collect())
    }

    /// Runs the per-policy deployment gate and models the demand.
    pub(crate) fn gate(&self, spec: &TenantSpec) -> Result<TenantDemand, AdmissionError> {
        let compiled = superfe_core::deploy::gate(&spec.policy, &spec.cfg).map_err(|e| {
            AdmissionError::Policy {
                tenant: spec.name.clone(),
                source: e,
            }
        })?;
        Ok(TenantDemand::new(compiled, spec.cfg.cache))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_core::analyze::AnalyzeConfig;
    use superfe_core::StreamingPipeline;
    use superfe_policy::dsl::parse;

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

    fn host_sum_renamed() -> TenantSpec {
        spec(
            "host-sum-b",
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

    fn packets(n: u64) -> impl Iterator<Item = PacketRecord> {
        (0..n).map(|i| {
            if i % 5 == 0 {
                PacketRecord::udp(i * 700, 90, (i % 11 + 1) as u32, 53, 4, 53)
            } else {
                PacketRecord::tcp(i * 700, 400, (i % 11 + 1) as u32, 1500, 4, 443)
            }
        })
    }

    fn solo(ts: &TenantSpec, n: u64, workers: usize) -> superfe_core::Extraction {
        let mut fe = StreamingPipeline::with_config(&ts.policy, ts.cfg, workers).unwrap();
        for p in packets(n) {
            fe.push(&p).unwrap();
        }
        fe.finish().unwrap()
    }

    #[test]
    fn plane_runs_two_tenants_isolated() {
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        let a = plane.attach(&host_sum(), None).unwrap();
        let b = plane.attach(&flow_stats(), None).unwrap();
        assert_ne!(a, b);
        assert_eq!(plane.epoch(), 2);
        assert_eq!(plane.units().len(), 2, "distinct policies never fuse");
        for p in packets(900) {
            plane.push(&p).unwrap();
        }
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].name, "host-sum");
        let solo_a = solo(&host_sum(), 900, 2);
        let solo_b = solo(&flow_stats(), 900, 2);
        assert_eq!(runs[0].output.group_vectors, solo_a.group_vectors);
        assert_eq!(runs[1].output.group_vectors, solo_b.group_vectors);
    }

    #[test]
    fn detach_returns_isolated_output_mid_stream() {
        let mut plane = CtrlPlane::new(4, AnalyzeConfig::default());
        let a = plane.attach(&host_sum(), None).unwrap();
        let b = plane.attach(&flow_stats(), None).unwrap();
        let mut detached = None;
        for (i, p) in packets(1200).enumerate() {
            if i == 600 {
                detached = Some(plane.detach(b).unwrap());
                assert_eq!(plane.tenants().len(), 1);
            }
            plane.push(&p).unwrap();
        }
        assert!(plane.detach(b).is_err(), "double detach is refused");
        let gone = detached.unwrap();
        assert!(gone.stats.records > 0);
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].id, a);
        // Survivor unaffected by the mid-stream epoch.
        let solo_a = solo(&host_sum(), 1200, 4);
        assert_eq!(runs[0].output.group_vectors, solo_a.group_vectors);
    }

    #[test]
    fn equivalent_tenants_fuse_and_demux_bitwise() {
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        let a = plane.attach(&host_sum(), None).unwrap();
        plane.attach(&host_sum_renamed(), None).unwrap();
        let c = plane.attach(&flow_stats(), None).unwrap();
        assert_eq!(plane.tenants().len(), 3);
        assert_eq!(
            plane.units(),
            vec![(a, 2), (c, 1)],
            "equivalent pair shares one unit"
        );
        for p in packets(900) {
            plane.push(&p).unwrap();
        }
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 3);
        let solo_h = solo(&host_sum(), 900, 2);
        let solo_f = solo(&flow_stats(), 900, 2);
        for run in &runs[..2] {
            assert_eq!(run.output.group_vectors, solo_h.group_vectors);
            assert_eq!(run.output.packet_vectors, solo_h.packet_vectors);
        }
        assert_eq!(runs[2].output.group_vectors, solo_f.group_vectors);
    }

    #[test]
    fn fused_member_detach_is_bitwise_solo_and_spares_survivor() {
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        let a = plane.attach(&host_sum(), None).unwrap();
        let b = plane.attach(&host_sum_renamed(), None).unwrap();
        assert_eq!(plane.units(), vec![(a, 2)]);
        let mut detached = None;
        for (i, p) in packets(1200).enumerate() {
            if i == 600 {
                // Detach the unit's *owner* — the unit survives under its
                // id with the joined member as sole occupant.
                detached = Some(plane.detach(a).unwrap());
                assert_eq!(plane.units(), vec![(a, 1)]);
            }
            plane.push(&p).unwrap();
        }
        let gone = detached.unwrap();
        let solo_half = solo(&host_sum(), 600, 2);
        assert_eq!(gone.group_vectors, solo_half.group_vectors);
        assert_eq!(gone.packet_vectors, solo_half.packet_vectors);
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].id, b);
        let solo_full = solo(&host_sum(), 1200, 2);
        assert_eq!(runs[0].output.group_vectors, solo_full.group_vectors);
    }

    fn host_max() -> TenantSpec {
        spec(
            "host-max",
            "pktstream\n.groupby(host)\n.reduce(size, [f_max])\n.collect(host)",
        )
    }

    #[test]
    fn prefix_shared_tenants_run_bitwise_on_one_partition() {
        // host-sum and host-max are NOT SF07xx-equivalent (different
        // reduce tails) but share the parse → groupby(host) switch
        // prefix: one partition, two execution units.
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        let a = plane.attach(&host_sum(), None).unwrap();
        plane.attach(&host_max(), None).unwrap();
        let c = plane.attach(&flow_stats(), None).unwrap();
        assert_eq!(plane.units().len(), 3, "distinct tails keep their units");
        assert_eq!(
            plane.groups(),
            vec![(a, 2), (c, 1)],
            "prefix pair shares one partition"
        );
        for p in packets(900) {
            plane.push(&p).unwrap();
        }
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 3);
        let solo_s = solo(&host_sum(), 900, 2);
        let solo_m = solo(&host_max(), 900, 2);
        let solo_f = solo(&flow_stats(), 900, 2);
        assert_eq!(runs[0].output.group_vectors, solo_s.group_vectors);
        assert_eq!(runs[1].output.group_vectors, solo_m.group_vectors);
        assert_eq!(runs[2].output.group_vectors, solo_f.group_vectors);
    }

    #[test]
    fn prefix_member_detach_is_bitwise_and_spares_the_partition() {
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        let a = plane.attach(&host_sum(), None).unwrap();
        let b = plane.attach(&host_max(), None).unwrap();
        assert_eq!(plane.groups(), vec![(a, 2)]);
        let mut detached = None;
        for (i, p) in packets(1200).enumerate() {
            if i == 600 {
                detached = Some(plane.detach(b).unwrap());
                // The partition survives for its remaining subscriber.
                assert_eq!(plane.groups(), vec![(a, 1)]);
                assert_eq!(plane.units().len(), 1);
            }
            plane.push(&p).unwrap();
        }
        let gone = detached.unwrap();
        let solo_half = solo(&host_max(), 600, 2);
        assert_eq!(gone.group_vectors, solo_half.group_vectors);
        assert_eq!(gone.packet_vectors, solo_half.packet_vectors);
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].id, a);
        let solo_full = solo(&host_sum(), 1200, 2);
        assert_eq!(runs[0].output.group_vectors, solo_full.group_vectors);
    }

    #[test]
    fn late_or_unfused_attach_gets_its_own_unit() {
        // Fusion is position-gated: once the stream has moved past the
        // unit's attach point, an equivalent candidate gets fresh hardware
        // (the shared plan would owe it history it must not see).
        let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
        plane.attach(&host_sum(), None).unwrap();
        for p in packets(100) {
            plane.push(&p).unwrap();
        }
        plane.attach(&host_sum_renamed(), None).unwrap();
        assert_eq!(plane.units().len(), 2);
        plane.finish().unwrap();

        // And with sharing disabled, even position-aligned equivalents
        // stay separate, at every depth of the lattice.
        let mut plain = CtrlPlane::without_fusion(1, AnalyzeConfig::default());
        plain.attach(&host_sum(), None).unwrap();
        plain.attach(&host_sum_renamed(), None).unwrap();
        plain.attach(&host_max(), None).unwrap();
        assert_eq!(plain.units().len(), 3);
        assert_eq!(plain.groups().len(), 3);
        plain.finish().unwrap();
    }

    #[test]
    fn tenant_id_exhaustion_is_a_typed_error_not_a_panic() {
        let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
        plane.next_id = u32::from(u16::MAX);
        let last = plane.attach(&host_sum(), None).unwrap();
        assert_eq!(last, TenantId(u16::MAX));
        // Every join depth refuses before touching the pool: a member of
        // the live unit, a unit on its partition, a fresh partition.
        for spec in [host_sum_renamed(), host_max(), flow_stats()] {
            assert!(matches!(
                plane.attach(&spec, None),
                Err(CtrlError::TenantIdsExhausted)
            ));
        }
        assert_eq!(
            (plane.units(), plane.groups()),
            (vec![(last, 1)], vec![(last, 1)])
        );
        for p in packets(300) {
            plane.push(&p).unwrap();
        }
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0].output.group_vectors,
            solo(&host_sum(), 300, 1).group_vectors
        );
    }

    #[test]
    fn a_restored_plane_finishes_in_attach_order() {
        // t2 fuses into t0's unit, so a restore replays t0, t2, t1.
        let specs = [host_sum(), flow_stats(), host_sum_renamed()];
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        for s in &specs {
            plane.attach(s, None).unwrap();
        }
        let bytes = plane.snapshot().unwrap();
        let ids = |runs: Vec<TenantRun>| runs.into_iter().map(|r| r.id.0).collect::<Vec<_>>();
        assert_eq!(ids(plane.finish().unwrap()), [0, 1, 2]);
        let restored = CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes, |_| None);
        assert_eq!(ids(restored.unwrap().finish().unwrap()), [0, 1, 2]);
    }

    #[test]
    fn infeasible_policy_is_rejected_at_the_gate() {
        let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
        let mut bad = host_sum();
        bad.cfg.cache.short_count = 4_000_000;
        match plane.attach(&bad, None) {
            Err(CtrlError::Admission(AdmissionError::Policy { tenant, .. })) => {
                assert_eq!(tenant, "host-sum");
            }
            other => panic!("expected Policy rejection, got {other:?}"),
        }
        assert_eq!(plane.epoch(), 0);
        plane.finish().unwrap();
    }

    #[test]
    fn composed_overload_is_rejected_with_binding_resource() {
        // Individually feasible, mutually *distinct* tenants (a filter
        // constant keeps their canonical hashes apart, so fusion cannot
        // deduplicate them) whose composition blows the sALU budget: keep
        // attaching until the controller says no.
        let kitsune = |i: usize| {
            spec(
                &format!("kitsune-{i}"),
                &format!(
                    "pktstream\n.filter(size > {i})\n.groupby(socket)\n\
                     .map(ipt, tstamp, f_ipt)\n\
                     .reduce(size, [f_mean, f_var])\n.collect(socket)\n\
                     .groupby(channel)\n.reduce(size, [f_mag, f_pcc])\n.collect(channel)\n\
                     .groupby(host)\n.reduce(size, [f_mean])\n.collect(host)"
                ),
            )
        };
        let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
        let mut rejected = None;
        for i in 0..16 {
            match plane.attach(&kitsune(i), None) {
                Ok(_) => {}
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        assert_eq!(
            plane.units().len(),
            plane.tenants().len(),
            "distinct filters must not fuse"
        );
        match rejected.expect("a Tofino cannot host 16 Kitsune tenants") {
            CtrlError::Admission(AdmissionError::Budget { resource, .. }) => {
                // The plane keeps running for the admitted tenants.
                assert!(!resource.name().is_empty());
            }
            other => panic!("expected Budget rejection, got {other:?}"),
        }
        assert!(!plane.tenants().is_empty());
        for p in packets(100) {
            plane.push(&p).unwrap();
        }
        plane.finish().unwrap();
    }
}
