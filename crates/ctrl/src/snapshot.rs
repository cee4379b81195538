//! Live state snapshot and restore for the multi-tenant control plane.
//!
//! [`CtrlPlane::snapshot`] serializes everything a restarted plane needs to
//! resume mid-stream with **bitwise-identical** remaining output:
//!
//! - plane metadata (epoch, stream position, id allocator, sharing flag,
//!   worker count),
//! - the tenant topology — every tenant's id and name (read from its
//!   unit's member list, in attach order), execution units with their
//!   member rosters, and prefix groups — as *names and ids*, not policies,
//! - every switch partition's dynamic MGPV state
//!   ([`SharedSwitch::partition`](superfe_switch::tenant::SharedSwitch::partition)),
//! - every NIC unit's per-shard engine state and, per member, what its
//!   outlet holds: its egress sequence number and the per-packet vectors
//!   kept for its output
//!   ([`ShardPool::dump_state`](superfe_nic::ShardPool::dump_state)).
//!
//! Every count read back sizes nothing before the bytes it claims are
//! there: vector counts go through `StateReader::get_count`, and the
//! topology's `u16` counts fill their lists one decoded entry at a time.
//!
//! The stream position that gates late joins is the meta block's packet
//! cursor next to each unit's attach position: the plane's one gate
//! ([`CtrlPlane::plan_join`]) reads nothing else, so a restored plane past
//! its units' attach point shares nothing with a new candidate.
//!
//! **Structure is rebuilt, not stored.** Policies are not serializable (and
//! a snapshot must not become an alternative deployment channel that skips
//! the admission gate), so [`CtrlPlane::restore`] is handed the original
//! [`TenantSpec`]s, replays each attach through the same compile/gate path
//! and the same join rule ([`CtrlPlane::plan_join`]) as a live attach, and
//! then transplants the dynamic state on top. Saved plan hashes are
//! checked against the recomputed ones, so feeding the wrong spec file is
//! rejected rather than silently producing drift; and every saved
//! tenant → unit → group edge must be the one the join rule re-derives, so
//! bytes that point a unit at a foreign partition are refused instead of
//! feeding it another partition's event stream. The rule's table-budget
//! test is the one part replay cannot re-derive: the budgets are in the
//! engine state transplanted after it, and every replayed unit runs under
//! the fresh pool's. So replay closes a rebuilt unit to members, and once
//! the engines are transplanted — each unit then runs under the budget
//! they carry — a unit the budget-blind rule would have fused a saved
//! tenant into must run under another budget than the tenant's own unit:
//! bytes that split a unit the budgets do not split are refused.
//!
//! One re-seating rule makes replay total: a unit whose *founding* member
//! detached before the snapshot keeps running under the founder's id, but
//! on restore the unit (and, transitively, a group whose founding unit
//! detached) is re-keyed to its first surviving member. Ids are pure
//! internal routing labels — every cross-reference is renamed together and
//! per-member egress numbering is restored verbatim — so the re-seating is
//! not observable in any tenant's output. Tenant ids are always
//! preserved.

use superfe_core::analyze::AnalyzeConfig;
use superfe_net::snap::{StateReader, StateWriter};
use superfe_nic::{FeNic, FeatureVector, MemberState, ShardUnitState, VectorSink, MAX_WORKERS};
use superfe_policy::analyze::share::prefix_form;
use superfe_switch::tenant::TenantId;

use crate::error::CtrlError;
use crate::plane::{CtrlPlane, Join, TenantSpec};

/// Format version of plane snapshot bytes. Bumped on any layout change;
/// [`CtrlPlane::restore`] refuses other versions rather than guessing.
pub const SNAPSHOT_VERSION: u16 = 5;

const MAGIC: &[u8] = b"SFSN";

fn snap_err(msg: impl Into<String>) -> CtrlError {
    CtrlError::Snapshot(msg.into())
}

fn need<T>(v: Option<T>, what: &str) -> Result<T, CtrlError> {
    v.ok_or_else(|| snap_err(format!("truncated or corrupt snapshot: {what}")))
}

/// The re-seated id of saved unit or group `old` (see the module docs).
fn reseated(map: &[(u16, TenantId)], old: u16, what: &str) -> Result<TenantId, CtrlError> {
    map.iter()
        .find(|(o, _)| *o == old)
        .map(|&(_, new)| new)
        .ok_or_else(|| snap_err(format!("unknown {what} id {old}")))
}

struct UnitMeta {
    id: u16,
    hash: u64,
    group: u16,
    attach_pos: u64,
    members: Vec<u16>,
}

impl CtrlPlane {
    /// Serializes the plane's complete live state into versioned snapshot
    /// bytes. Non-destructive: shards are flushed and synchronized (the
    /// snapshot is a clean stream cut), then the plane keeps serving.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, CtrlError> {
        let dumps = self.path.nic_mut().dump_state()?;
        let mut w = StateWriter::new();
        w.put_bytes(MAGIC);
        w.put_u16(SNAPSHOT_VERSION);
        // Meta.
        w.put_u32(self.path.nic().workers() as u32);
        w.put_bool(self.sharing);
        w.put_u32(self.next_id);
        w.put_u64(self.epoch);
        w.put_u64(self.path.pushed());
        // Topology: tenants, units, groups — names and ids only. A tenant's
        // unit is the one listing it as a member; a group's units are the
        // ones naming it.
        let tenants = self.tenants();
        w.put_u16(tenants.len() as u16);
        for (id, name) in tenants {
            w.put_u16(id.0);
            w.put_str(name);
        }
        w.put_u16(self.units.len() as u16);
        for u in &self.units {
            w.put_u16(u.id.0);
            w.put_u64(u.form.full());
            w.put_u16(u.group.0);
            w.put_u64(u.attach_pos);
            w.put_u16(u.members.len() as u16);
            for (m, _) in &u.members {
                w.put_u16(m.0);
            }
        }
        w.put_u16(self.groups.len() as u16);
        for g in &self.groups {
            w.put_u16(g.id.0);
        }
        // Switch dynamic state: link counters + one section per partition.
        let switch = self.path.switch();
        switch.save_stats(&mut w);
        for g in &self.groups {
            let partition = switch.partition(g.id).ok_or_else(|| {
                snap_err(format!(
                    "group {} has no switch partition to serialize",
                    g.id
                ))
            })?;
            w.put_section(|w| partition.save_state(w));
        }
        // NIC dynamic state: per-unit shard dumps.
        w.put_u16(dumps.len() as u16);
        for d in &dumps {
            w.put_u16(d.unit.0);
            w.put_u32(d.shards.len() as u32);
            for s in &d.shards {
                w.put_u32(s.shard as u32);
                w.put_section(|w| s.engine.save_state(w));
                w.put_u16(s.members.len() as u16);
                for m in &s.members {
                    w.put_u16(m.member.0);
                    w.put_u64(m.seq);
                    w.put_u32(m.kept.len() as u32);
                    for v in &m.kept {
                        v.save_state(&mut w);
                    }
                }
            }
        }
        Ok(w.into_bytes())
    }

    /// Rebuilds a plane from snapshot `bytes`, replaying each saved
    /// tenant's attach from `specs` (matched by slot name) and then
    /// transplanting the saved dynamic state, so the restored plane's
    /// remaining output is bitwise what the snapshotted plane would have
    /// produced. `sinks` is consulted once per tenant name and must return
    /// one sink per NIC shard (or `None`) exactly as the original attach
    /// did.
    ///
    /// The worker count is taken from the snapshot — CG-key sharding is
    /// worker-count dependent, so resuming on different parallelism cannot
    /// be bitwise and is refused by construction. A count of zero or past
    /// [`MAX_WORKERS`] is refused before any shard thread is spawned.
    pub fn restore(
        analyze: AnalyzeConfig,
        specs: &[TenantSpec],
        bytes: &[u8],
        mut sinks: impl FnMut(&str) -> Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<CtrlPlane, CtrlError> {
        let mut r = StateReader::new(bytes);
        if need(r.get_bytes(), "magic")? != MAGIC {
            return Err(snap_err("not a plane snapshot (bad magic)"));
        }
        let version = need(r.get_u16(), "version")?;
        if version != SNAPSHOT_VERSION {
            return Err(snap_err(format!(
                "snapshot version {version} is not the supported version {SNAPSHOT_VERSION}"
            )));
        }
        let workers = need(r.get_u32(), "worker count")? as usize;
        if !(1..=MAX_WORKERS).contains(&workers) {
            return Err(snap_err(format!(
                "snapshot records {workers} workers; a plane runs 1 to {MAX_WORKERS}"
            )));
        }
        let sharing = need(r.get_bool(), "sharing flag")?;
        let next_id = need(r.get_u32(), "id allocator")?;
        let epoch = need(r.get_u64(), "epoch")?;
        let pushed = need(r.get_u64(), "stream position")?;

        // The topology's `u16` counts reserve nothing: each list grows one
        // decoded entry at a time.
        let mut tenants = Vec::new();
        for _ in 0..need(r.get_u16(), "tenant count")? {
            let id = need(r.get_u16(), "tenant id")?;
            tenants.push((id, need(r.get_str(), "tenant name")?.to_string()));
        }
        let mut units = Vec::new();
        for _ in 0..need(r.get_u16(), "unit count")? {
            let id = need(r.get_u16(), "unit id")?;
            let hash = need(r.get_u64(), "unit hash")?;
            let group = need(r.get_u16(), "unit group")?;
            let attach_pos = need(r.get_u64(), "unit attach position")?;
            let mut members = Vec::new();
            for _ in 0..need(r.get_u16(), "unit member count")? {
                members.push(need(r.get_u16(), "unit member")?);
            }
            units.push(UnitMeta {
                id,
                hash,
                group,
                attach_pos,
                members,
            });
        }
        let mut groups = Vec::new();
        for _ in 0..need(r.get_u16(), "group count")? {
            groups.push(need(r.get_u16(), "group id")?);
        }
        if next_id > u32::from(u16::MAX) + 1 {
            return Err(snap_err("id allocator beyond the tenant id space"));
        }
        if tenants.iter().any(|&(id, _)| u32::from(id) >= next_id) {
            return Err(snap_err("id allocator below a live tenant id"));
        }
        if let Some((id, _)) =
            (tenants.iter()).find(|(id, _)| units.iter().all(|u| !u.members.contains(id)))
        {
            return Err(snap_err(format!("tenant {id} belongs to no unit")));
        }

        // Re-seat ids: a unit is keyed by its first surviving member, a
        // group by its first surviving unit (see the module docs).
        let name_of = |member: u16| -> Result<&str, CtrlError> {
            (tenants.iter().find(|(id, _)| *id == member))
                .map(|(_, name)| name.as_str())
                .ok_or_else(|| snap_err(format!("unit member {member} is no saved tenant")))
        };
        let mut unit_new: Vec<(u16, TenantId)> = Vec::new();
        for u in &units {
            let first = *u
                .members
                .first()
                .ok_or_else(|| snap_err(format!("unit {} has no members", u.id)))?;
            unit_new.push((u.id, TenantId(first)));
        }
        let new_unit = |old: u16| reseated(&unit_new, old, "unit");
        let mut group_new: Vec<(u16, TenantId)> = Vec::new();
        for &g in &groups {
            let first = units
                .iter()
                .find(|u| u.group == g)
                .ok_or_else(|| snap_err(format!("group {g} has no units")))?;
            group_new.push((g, new_unit(first.id)?));
        }
        let new_group = |old: u16| reseated(&group_new, old, "group");

        let mut plane = CtrlPlane::build(workers, analyze, sharing);
        let vc = plane.analyze.value_config();

        // Replay every saved tenant, unit by unit, through the compile/gate
        // path and the join rule a live attach takes — at the stream
        // position its unit attached at, which is what the rule gates on.
        // The rule must re-derive exactly the saved edge: the unit's first
        // member founds its partition or joins the one its group already
        // rebuilt, every later member joins that unit. The saved set was
        // admitted as a whole, so composed admission is not re-run. Every
        // unit the rule open to all would fuse a tenant into instead is
        // recorded with the tenant's unit, to be told apart by budget.
        let spec_of = |name: &str| -> Result<&TenantSpec, CtrlError> {
            specs
                .iter()
                .find(|sp| sp.name == name)
                .ok_or_else(|| snap_err(format!("no spec provided for saved tenant '{name}'")))
        };
        let mut splits = Vec::new();
        for u in &units {
            let gid = new_group(u.group)?;
            plane.path.set_pushed(u.attach_pos);
            for (k, &m) in u.members.iter().enumerate() {
                let spec = spec_of(name_of(m)?)?;
                let demand = plane.gate(spec)?;
                let form = prefix_form(&spec.policy, &vc);
                let open = plane.units.len() - usize::from(k > 0);
                let expected = if k > 0 {
                    Join::Member(open)
                } else {
                    if form.full() != u.hash {
                        return Err(snap_err(format!(
                            "spec '{}' does not match saved unit {} (plan hash differs)",
                            spec.name, u.id
                        )));
                    }
                    match plane.groups.iter().position(|g| g.id == gid) {
                        Some(gpos) => Join::Unit(gpos),
                        None => Join::Partition,
                    }
                };
                let join = plane.plan_join(spec, &demand, &form, open);
                if let Join::Member(upos) = plane.plan_join(spec, &demand, &form, 0) {
                    if upos < open {
                        splits.push((plane.units[upos].id, TenantId(u.members[0])));
                    }
                }
                if join != expected {
                    return Err(snap_err(format!(
                        "saved topology places tenant '{}' in unit {} of group {} ({expected:?}), \
                         but the join rule derives {join:?}",
                        spec.name, u.id, u.group
                    )));
                }
                plane.install(TenantId(m), spec, demand, form, join, sinks(&spec.name))?;
            }
        }

        // Transplant the dynamic state: switch partitions first, then the
        // NIC's per-shard engine state.
        let switch = plane.path.switch_mut();
        need(switch.load_stats(&mut r), "shared switch link counters")?;
        for &g in &groups {
            let gid = new_group(g)?;
            need(
                r.get_section(|r| switch.load_tenant_state(gid, r)),
                "switch partition state",
            )?;
        }
        // Every saved unit gets exactly one dump: a unit without one would
        // resume from empty engines, and a second would overwrite the first.
        let ndumps = need(r.get_u16(), "unit dump count")? as usize;
        let mut dumped = Vec::new();
        for _ in 0..ndumps {
            let old = need(r.get_u16(), "dump unit id")?;
            let uid = new_unit(old)?;
            let unit = plane
                .units
                .iter()
                .find(|u| u.id == uid)
                .ok_or_else(|| snap_err(format!("dump for unknown unit {old}")))?;
            if dumped.contains(&old) {
                return Err(snap_err(format!("unit {old} has a second NIC dump")));
            }
            dumped.push(old);
            let nshards = need(r.get_u32(), "dump shard count")? as usize;
            if nshards != workers {
                return Err(snap_err(format!(
                    "unit {old} dump carries {nshards} shard states for {workers} workers"
                )));
            }
            let mut shards = Vec::new();
            for _ in 0..nshards {
                let shard = need(r.get_u32(), "shard index")? as usize;
                let mut engine = Box::new(
                    FeNic::new(&unit.demand.compiled, unit.cfg.cache.fg_table_size).ok_or_else(
                        || snap_err("degenerate NIC configuration in saved unit".to_string()),
                    )?,
                );
                need(
                    r.get_section(|r| engine.load_state(r)),
                    "shard engine state",
                )?;
                let mut members = Vec::new();
                for _ in 0..need(r.get_u16(), "member count")? {
                    let member = TenantId(need(r.get_u16(), "member id")?);
                    let seq = need(r.get_u64(), "member seq")?;
                    let nkept = need(
                        r.get_count(FeatureVector::MIN_STATE_BYTES),
                        "accumulated vector count",
                    )?;
                    let mut kept = Vec::with_capacity(nkept);
                    for _ in 0..nkept {
                        kept.push(need(
                            FeatureVector::load_state(&mut r),
                            "accumulated vector",
                        )?);
                    }
                    members.push(MemberState { member, seq, kept });
                }
                shards.push(ShardUnitState {
                    shard,
                    engine,
                    members,
                });
            }
            plane.path.nic_mut().restore_unit(uid, shards)?;
        }
        if let Some(u) = units.iter().find(|u| !dumped.contains(&u.id)) {
            return Err(snap_err(format!("unit {} has no NIC dump", u.id)));
        }
        if !r.is_empty() {
            return Err(snap_err(format!(
                "{} trailing bytes after the last section",
                r.remaining()
            )));
        }
        let nic = plane.path.nic();
        if let Some((a, b)) =
            (splits.iter()).find(|(a, b)| nic.unit_budget(*a) == nic.unit_budget(*b))
        {
            return Err(snap_err(format!(
                "saved units {a} and {b} run under one table budget, \
                 but the join rule fuses them"
            )));
        }
        plane.next_id = next_id;
        plane.epoch = epoch;
        plane.path.set_pushed(pushed);
        Ok(plane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where the worker count sits: after the length-prefixed magic and
    /// the version.
    const WORKERS_AT: usize = 4 + MAGIC.len() + 2;

    #[test]
    fn a_worker_count_past_the_hardware_threads_is_refused_before_any_spawn() {
        let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
        let bytes = plane.snapshot().unwrap();
        plane.finish().unwrap();
        assert_eq!(bytes[WORKERS_AT..WORKERS_AT + 4], 1u32.to_le_bytes());
        for workers in [MAX_WORKERS as u32 + 1, u32::MAX] {
            let mut patched = bytes.clone();
            patched[WORKERS_AT..WORKERS_AT + 4].copy_from_slice(&workers.to_le_bytes());
            match CtrlPlane::restore(AnalyzeConfig::default(), &[], &patched, |_| None) {
                Err(CtrlError::Snapshot(msg)) => {
                    assert!(msg.contains(&format!("{workers} workers")), "{msg}");
                }
                Err(other) => panic!("expected a snapshot error, got {other}"),
                Ok(_) => panic!("{workers} workers must not restore"),
            }
        }
        let restored = CtrlPlane::restore(AnalyzeConfig::default(), &[], &bytes, |_| None);
        assert_eq!(restored.unwrap().workers(), 1);
    }

    /// A plane of two units — a host sum and a flow sum, which do not
    /// fuse — that has seen a few packets, its specs and its snapshot.
    fn two_unit_snapshot() -> ([TenantSpec; 2], Vec<u8>) {
        let spec = |name: &str, by: &str| TenantSpec {
            name: name.into(),
            policy: superfe_policy::dsl::parse(&format!(
                "pktstream\n.groupby({by})\n.reduce(size, [f_sum])\n.collect({by})"
            ))
            .unwrap(),
            cfg: Default::default(),
        };
        let specs = [spec("hosts", "host"), spec("flows", "flow")];
        let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
        for spec in &specs {
            plane.attach(spec, None).unwrap();
        }
        assert_eq!(plane.units.len(), 2);
        for i in 0..40u16 {
            let p = superfe_net::PacketRecord::tcp(
                u64::from(i) * 1_000,
                100 + i,
                1,
                1000 + i % 3,
                2,
                80,
            );
            plane.push(&p).unwrap();
        }
        let bytes = plane.snapshot().unwrap();
        plane.finish().unwrap();
        (specs, bytes)
    }

    /// Where the NIC dumps of `bytes` start — their `u16` count — and the
    /// byte range of each: the dumps are the snapshot's last section, so the
    /// one offset from which they read to the end.
    fn dump_spans(bytes: &[u8]) -> (usize, Vec<std::ops::Range<usize>>) {
        let spans_from = |at: usize| -> Option<Vec<std::ops::Range<usize>>> {
            let mut r = StateReader::new(&bytes[at..]);
            let pos = |r: &StateReader<'_>| bytes.len() - r.remaining();
            let mut spans = Vec::new();
            for _ in 0..r.get_u16()? {
                let start = pos(&r);
                r.get_u16()?;
                for _ in 0..r.get_u32()? {
                    r.get_u32()?;
                    r.get_bytes()?;
                    for _ in 0..r.get_u16()? {
                        r.get_u16()?;
                        r.get_u64()?;
                        for _ in 0..r.get_u32()? {
                            FeatureVector::load_state(&mut r)?;
                        }
                    }
                }
                spans.push(start..pos(&r));
            }
            (r.is_empty() && spans.len() == 2).then_some(spans)
        };
        (0..bytes.len())
            .rev()
            .find_map(|at| Some((at, spans_from(at)?)))
            .expect("the snapshot ends in two unit dumps")
    }

    /// `bytes` with its dumps replaced by the ones `pick` selects.
    fn with_dumps(bytes: &[u8], pick: &[usize]) -> Vec<u8> {
        let (at, spans) = dump_spans(bytes);
        let mut out = bytes[..at].to_vec();
        out.extend_from_slice(&(pick.len() as u16).to_le_bytes());
        for &i in pick {
            out.extend_from_slice(&bytes[spans[i].clone()]);
        }
        out
    }

    fn refusal(specs: &[TenantSpec], bytes: &[u8]) -> String {
        match CtrlPlane::restore(AnalyzeConfig::default(), specs, bytes, |_| None) {
            Err(CtrlError::Snapshot(msg)) => msg,
            Err(other) => panic!("expected a snapshot error, got {other}"),
            Ok(plane) => {
                plane.finish().unwrap();
                panic!("bytes without one dump per unit restored")
            }
        }
    }

    #[test]
    fn a_unit_whose_dump_is_missing_is_refused() {
        let (specs, bytes) = two_unit_snapshot();
        let whole = with_dumps(&bytes, &[0, 1]);
        assert_eq!(whole, bytes);
        let restored = CtrlPlane::restore(AnalyzeConfig::default(), &specs, &whole, |_| None);
        restored.unwrap().finish().unwrap();
        for kept in [0, 1] {
            let msg = refusal(&specs, &with_dumps(&bytes, &[kept]));
            assert!(msg.contains("has no NIC dump"), "{msg}");
        }
    }

    #[test]
    fn a_unit_dumped_twice_is_refused() {
        let (specs, bytes) = two_unit_snapshot();
        for twice in [[0, 1, 0], [0, 1, 1], [1, 0, 1]] {
            let msg = refusal(&specs, &with_dumps(&bytes, &twice));
            assert!(msg.contains("has a second NIC dump"), "{msg}");
        }
    }

    /// Two units of one policy at one position stand apart only by their
    /// table budgets: bytes rewired to give the second unit the first's
    /// budget split a unit the rule fuses, and are refused.
    #[test]
    fn a_split_its_budgets_do_not_explain_is_refused() {
        use superfe_nic::{EvictionPolicy, TableBudget};
        const CAP: u64 = 0x5EED;
        let spec = |name: &str| TenantSpec {
            name: name.into(),
            policy: superfe_policy::dsl::parse(
                "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
            )
            .unwrap(),
            cfg: Default::default(),
        };
        let specs = [spec("t0"), spec("t1")];
        let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
        for (spec, policy) in specs
            .iter()
            .zip([EvictionPolicy::DropNew, EvictionPolicy::EvictOldest])
        {
            plane.set_table_budget(TableBudget::capped(CAP as usize, policy));
            plane.attach(spec, None).unwrap();
        }
        let bytes = plane.snapshot().unwrap();
        plane.finish().unwrap();
        let restore =
            |bytes: &[u8]| CtrlPlane::restore(AnalyzeConfig::default(), &specs, bytes, |_| None);
        restore(&bytes).unwrap().finish().unwrap();
        // A saved budget is its `u64` cap, its policy tag (0 drops the new
        // group, 1 evicts the oldest) and a `u64` seed.
        let evicting = [&CAP.to_le_bytes()[..], &[1], &[0; 8]].concat();
        let at = (bytes.windows(evicting.len()).position(|w| w == evicting))
            .expect("the second unit's one level saves its budget");
        let mut rewired = bytes.clone();
        rewired[at + 8] = 0;
        let err = restore(&rewired)
            .err()
            .expect("a split one budget runs is refused");
        assert!(
            matches!(&err, CtrlError::Snapshot(m) if m.contains("one table budget")),
            "{err}"
        );
    }
}
