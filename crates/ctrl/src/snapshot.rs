//! Live state snapshot and restore for the multi-tenant control plane.
//!
//! [`CtrlPlane::snapshot`] serializes everything a restarted plane needs to
//! resume mid-stream with **bitwise-identical** remaining output:
//!
//! - plane metadata (epoch, stream position, id allocator, sharing flag,
//!   worker count),
//! - the tenant topology — slots, execution units with their member
//!   rosters, and prefix groups — as *names and ids*, not policies,
//! - every switch partition's dynamic MGPV state
//!   ([`SharedSwitch::save_tenant_state`](superfe_switch::tenant::SharedSwitch::save_tenant_state)),
//! - every NIC unit's per-shard engine state, member egress sequence
//!   numbers, and accumulated per-packet vectors
//!   ([`ShardPool::dump_state`](superfe_nic::ShardPool::dump_state)),
//! - per-group events-routed counters (they gate late joins, so they must
//!   survive).
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
//! feeding it another partition's event stream.
//!
//! One re-seating rule makes replay total: a unit whose *founding* member
//! detached before the snapshot keeps running under the founder's id, but
//! on restore the unit (and, transitively, a group whose founding unit
//! detached) is re-keyed to its first surviving member. Ids are pure
//! internal routing labels — every cross-reference is renamed together and
//! per-member egress numbering is restored verbatim — so the re-seating is
//! not observable in any tenant's output. Slot (tenant) ids are always
//! preserved.

use superfe_core::analyze::AnalyzeConfig;
use superfe_net::snap::{StateReader, StateWriter};
use superfe_nic::{FeNic, FeatureVector, ShardUnitState, VectorSink};
use superfe_policy::analyze::share::prefix_form;
use superfe_switch::tenant::TenantId;

use crate::error::CtrlError;
use crate::plane::{CtrlPlane, Join, TenantSpec};

/// Format version of plane snapshot bytes. Bumped on any layout change;
/// [`CtrlPlane::restore`] refuses other versions rather than guessing.
pub const SNAPSHOT_VERSION: u16 = 3;

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

struct SlotMeta {
    id: u16,
    name: String,
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
        let dumps = self.nic.dump_state()?;
        let mut w = StateWriter::new();
        w.put_bytes(MAGIC);
        w.put_u16(SNAPSHOT_VERSION);
        // Meta.
        w.put_u32(self.nic.workers() as u32);
        w.put_bool(self.sharing);
        w.put_u32(self.next_id);
        w.put_u64(self.epoch);
        w.put_u64(self.pushed);
        // Topology: slots, units, groups — names and ids only. A slot's
        // unit is the one listing it as a member; a group's units are the
        // ones naming it.
        w.put_u16(self.slots.len() as u16);
        for s in &self.slots {
            w.put_u16(s.id.0);
            w.put_str(&s.name);
        }
        w.put_u16(self.units.len() as u16);
        for u in &self.units {
            w.put_u16(u.id.0);
            w.put_u64(u.form.full());
            w.put_u16(u.group.0);
            w.put_u64(u.attach_pos);
            w.put_u16(u.members.len() as u16);
            for m in &u.members {
                w.put_u16(m.0);
            }
        }
        w.put_u16(self.groups.len() as u16);
        for g in &self.groups {
            w.put_u16(g.id.0);
        }
        // Switch dynamic state: link counters + one section per partition.
        self.switch.save_stats(&mut w);
        for g in &self.groups {
            let mut ok = false;
            w.put_section(|w| ok = self.switch.save_tenant_state(g.id, w));
            if !ok {
                return Err(snap_err(format!(
                    "group {} has no switch partition to serialize",
                    g.id
                )));
            }
        }
        // NIC dynamic state: routed positions + per-unit shard dumps.
        let positions = self.nic.group_positions();
        w.put_u16(positions.len() as u16);
        for (g, routed) in &positions {
            w.put_u16(g.0);
            w.put_u64(*routed);
        }
        w.put_u16(dumps.len() as u16);
        for d in &dumps {
            w.put_u16(d.unit.0);
            w.put_u32(d.shards.len() as u32);
            for s in &d.shards {
                w.put_u32(s.shard as u32);
                w.put_section(|w| s.engine.save_state(w));
                w.put_u16(s.member_seqs.len() as u16);
                for (m, seq) in &s.member_seqs {
                    w.put_u16(m.0);
                    w.put_u64(*seq);
                }
                w.put_u32(s.pkts_accum.len() as u32);
                for v in &s.pkts_accum {
                    v.save_state(&mut w);
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
    /// be bitwise and is refused by construction.
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
        if workers == 0 {
            return Err(snap_err("snapshot records zero workers"));
        }
        let sharing = need(r.get_bool(), "sharing flag")?;
        let next_id = need(r.get_u32(), "id allocator")?;
        let epoch = need(r.get_u64(), "epoch")?;
        let pushed = need(r.get_u64(), "stream position")?;

        let nslots = need(r.get_u16(), "slot count")? as usize;
        let mut slots = Vec::with_capacity(nslots);
        for _ in 0..nslots {
            let id = need(r.get_u16(), "slot id")?;
            let name = need(r.get_str(), "slot name")?.to_string();
            slots.push(SlotMeta { id, name });
        }
        let nunits = need(r.get_u16(), "unit count")? as usize;
        let mut units = Vec::with_capacity(nunits);
        for _ in 0..nunits {
            let id = need(r.get_u16(), "unit id")?;
            let hash = need(r.get_u64(), "unit hash")?;
            let group = need(r.get_u16(), "unit group")?;
            let attach_pos = need(r.get_u64(), "unit attach position")?;
            let nmembers = need(r.get_u16(), "unit member count")? as usize;
            let mut members = Vec::with_capacity(nmembers);
            for _ in 0..nmembers {
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
        let ngroups = need(r.get_u16(), "group count")? as usize;
        let mut groups = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            groups.push(need(r.get_u16(), "group id")?);
        }
        if next_id > u32::from(u16::MAX) + 1 {
            return Err(snap_err("id allocator beyond the tenant id space"));
        }
        if slots.iter().any(|s| u32::from(s.id) >= next_id) {
            return Err(snap_err("id allocator below a live tenant id"));
        }

        // Re-seat ids: a unit is keyed by its first surviving member, a
        // group by its first surviving unit (see the module docs).
        let name_of = |member: u16| -> Result<&str, CtrlError> {
            slots
                .iter()
                .find(|s| s.id == member)
                .map(|s| s.name.as_str())
                .ok_or_else(|| snap_err(format!("unit member {member} has no tenant slot")))
        };
        let mut unit_new: Vec<(u16, TenantId)> = Vec::with_capacity(units.len());
        for u in &units {
            let first = *u
                .members
                .first()
                .ok_or_else(|| snap_err(format!("unit {} has no members", u.id)))?;
            unit_new.push((u.id, TenantId(first)));
        }
        let new_unit = |old: u16| reseated(&unit_new, old, "unit");
        let mut group_new: Vec<(u16, TenantId)> = Vec::with_capacity(groups.len());
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
        // admitted as a whole, so composed admission is not re-run.
        let spec_of = |name: &str| -> Result<&TenantSpec, CtrlError> {
            specs
                .iter()
                .find(|sp| sp.name == name)
                .ok_or_else(|| snap_err(format!("no spec provided for saved tenant '{name}'")))
        };
        for u in &units {
            let gid = new_group(u.group)?;
            plane.pushed = u.attach_pos;
            for (k, &m) in u.members.iter().enumerate() {
                let spec = spec_of(name_of(m)?)?;
                let demand = plane.gate(spec)?;
                let form = prefix_form(&spec.policy, &vc);
                let expected = if k > 0 {
                    Join::Member(plane.units.len() - 1)
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
                let join = plane.plan_join(spec, &demand, &form);
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
        // Slots back into saved (attach) order; every slot must have been
        // installed as some unit's member.
        let mut installed = std::mem::take(&mut plane.slots);
        for s in &slots {
            let pos = installed
                .iter()
                .position(|i| i.id.0 == s.id)
                .ok_or_else(|| snap_err(format!("tenant slot {} belongs to no unit", s.id)))?;
            plane.slots.push(installed.swap_remove(pos));
        }

        // Transplant the dynamic state: switch partitions first, then NIC
        // routed positions and per-shard engine state.
        need(
            plane.switch.load_stats(&mut r),
            "shared switch link counters",
        )?;
        for &g in &groups {
            let gid = new_group(g)?;
            need(
                r.get_section(|r| plane.switch.load_tenant_state(gid, r)),
                "switch partition state",
            )?;
        }
        let npos = need(r.get_u16(), "group position count")? as usize;
        for _ in 0..npos {
            let old = need(r.get_u16(), "group position id")?;
            let routed = need(r.get_u64(), "group routed counter")?;
            let gid = new_group(old)?;
            if !plane.nic.set_group_position(gid, routed) {
                return Err(snap_err(format!(
                    "saved group {old} is not attached on the rebuilt NIC"
                )));
            }
        }
        let ndumps = need(r.get_u16(), "unit dump count")? as usize;
        for _ in 0..ndumps {
            let old = need(r.get_u16(), "dump unit id")?;
            let uid = new_unit(old)?;
            let unit = plane
                .units
                .iter()
                .find(|u| u.id == uid)
                .ok_or_else(|| snap_err(format!("dump for unknown unit {old}")))?;
            let nshards = need(r.get_u32(), "dump shard count")? as usize;
            if nshards != workers {
                return Err(snap_err(format!(
                    "unit {old} dump carries {nshards} shard states for {workers} workers"
                )));
            }
            let mut shards = Vec::with_capacity(nshards);
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
                let nseqs = need(r.get_u16(), "member seq count")? as usize;
                let mut member_seqs = Vec::with_capacity(nseqs);
                for _ in 0..nseqs {
                    let m = need(r.get_u16(), "member id")?;
                    let seq = need(r.get_u64(), "member seq")?;
                    member_seqs.push((TenantId(m), seq));
                }
                let npkts = need(r.get_u32(), "accumulated vector count")? as usize;
                let mut pkts_accum = Vec::with_capacity(npkts);
                for _ in 0..npkts {
                    pkts_accum.push(need(
                        FeatureVector::load_state(&mut r),
                        "accumulated vector",
                    )?);
                }
                shards.push(ShardUnitState {
                    shard,
                    engine,
                    member_seqs,
                    pkts_accum,
                });
            }
            plane.nic.restore_unit(uid, shards)?;
        }
        if !r.is_empty() {
            return Err(snap_err(format!(
                "{} trailing bytes after the last section",
                r.remaining()
            )));
        }
        plane.next_id = next_id;
        plane.epoch = epoch;
        plane.pushed = pushed;
        Ok(plane)
    }
}
