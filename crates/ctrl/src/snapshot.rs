//! Live state snapshot and restore for the multi-tenant control plane.
//!
//! [`CtrlPlane::snapshot`] serializes everything a restarted plane needs to
//! resume mid-stream with **bitwise-identical** remaining output:
//!
//! - plane metadata (epoch, stream position, id allocator, sharing flags,
//!   worker count),
//! - the tenant topology — slots, execution units with their member
//!   rosters, and prefix groups — as *names and ids*, not policies,
//! - every switch partition's dynamic MGPV state
//!   ([`SharedSwitch::save_tenant_state`](superfe_switch::tenant::SharedSwitch::save_tenant_state)),
//! - every NIC unit's per-shard engine state, member egress sequence
//!   numbers, and accumulated per-packet vectors
//!   ([`ShardPool::dump_state`](superfe_nic::ShardPool::dump_state)),
//! - per-group events-routed counters (they gate late fusion/prefix
//!   joins, so they must survive).
//!
//! **Structure is rebuilt, not stored.** Policies are not serializable (and
//! a snapshot must not become an alternative deployment channel that skips
//! the admission gate), so [`CtrlPlane::restore`] is handed the original
//! [`TenantSpec`]s, replays each attach through the same compile/gate path,
//! and then transplants the dynamic state on top. Saved canonical hashes
//! and prefix hashes are checked against the recomputed ones, so feeding
//! the wrong spec file is rejected rather than silently producing drift.
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
use superfe_policy::analyze::{equiv, share as pshare};
use superfe_policy::SwitchProgram;
use superfe_switch::resources::model;
use superfe_switch::tenant::{union_metadata, TenantId};

use crate::error::CtrlError;
use crate::plane::{CtrlPlane, Group, Slot, TenantSpec, Unit};

/// Format version of plane snapshot bytes. Bumped on any layout change;
/// [`CtrlPlane::restore`] refuses other versions rather than guessing.
pub const SNAPSHOT_VERSION: u16 = 2;

const MAGIC: &[u8] = b"SFSN";

fn snap_err(msg: impl Into<String>) -> CtrlError {
    CtrlError::Snapshot(msg.into())
}

fn need<T>(v: Option<T>, what: &str) -> Result<T, CtrlError> {
    v.ok_or_else(|| snap_err(format!("truncated or corrupt snapshot: {what}")))
}

struct SlotMeta {
    id: u16,
    name: String,
    unit: u16,
}

struct UnitMeta {
    id: u16,
    hash: u64,
    attach_pos: u64,
    members: Vec<u16>,
}

struct GroupMeta {
    id: u16,
    prefix: u64,
    attach_pos: u64,
    units: Vec<u16>,
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
        w.put_bool(self.fusion);
        w.put_bool(self.cse);
        w.put_u16(self.next_id);
        w.put_u64(self.epoch);
        w.put_u64(self.pushed);
        // Topology: slots, units, groups — names and ids only.
        w.put_u16(self.slots.len() as u16);
        for s in &self.slots {
            w.put_u16(s.id.0);
            w.put_str(&s.name);
            w.put_u16(s.unit.0);
        }
        w.put_u16(self.units.len() as u16);
        for u in &self.units {
            w.put_u16(u.id.0);
            w.put_u64(u.hash);
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
            w.put_u64(g.prefix);
            w.put_u64(g.attach_pos);
            w.put_u16(g.units.len() as u16);
            for u in &g.units {
                w.put_u16(u.0);
            }
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
        let fusion = need(r.get_bool(), "fusion flag")?;
        let cse = need(r.get_bool(), "cse flag")?;
        let next_id = need(r.get_u16(), "id allocator")?;
        let epoch = need(r.get_u64(), "epoch")?;
        let pushed = need(r.get_u64(), "stream position")?;

        let nslots = need(r.get_u16(), "slot count")? as usize;
        let mut slots = Vec::with_capacity(nslots);
        for _ in 0..nslots {
            let id = need(r.get_u16(), "slot id")?;
            let name = need(r.get_str(), "slot name")?.to_string();
            let unit = need(r.get_u16(), "slot unit")?;
            slots.push(SlotMeta { id, name, unit });
        }
        let nunits = need(r.get_u16(), "unit count")? as usize;
        let mut units = Vec::with_capacity(nunits);
        let mut unit_groups = Vec::with_capacity(nunits);
        for _ in 0..nunits {
            let id = need(r.get_u16(), "unit id")?;
            let hash = need(r.get_u64(), "unit hash")?;
            unit_groups.push(need(r.get_u16(), "unit group")?);
            let attach_pos = need(r.get_u64(), "unit attach position")?;
            let nmembers = need(r.get_u16(), "unit member count")? as usize;
            let mut members = Vec::with_capacity(nmembers);
            for _ in 0..nmembers {
                members.push(need(r.get_u16(), "unit member")?);
            }
            units.push(UnitMeta {
                id,
                hash,
                attach_pos,
                members,
            });
        }
        let ngroups = need(r.get_u16(), "group count")? as usize;
        let mut groups = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            let id = need(r.get_u16(), "group id")?;
            let prefix = need(r.get_u64(), "group prefix")?;
            let attach_pos = need(r.get_u64(), "group attach position")?;
            let nunits = need(r.get_u16(), "group unit count")? as usize;
            let mut gunits = Vec::with_capacity(nunits);
            for _ in 0..nunits {
                gunits.push(need(r.get_u16(), "group unit")?);
            }
            groups.push(GroupMeta {
                id,
                prefix,
                attach_pos,
                units: gunits,
            });
        }
        if slots.iter().any(|s| s.id >= next_id) {
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
        let new_unit = |old: u16| -> Result<TenantId, CtrlError> {
            unit_new
                .iter()
                .find(|(o, _)| *o == old)
                .map(|&(_, n)| n)
                .ok_or_else(|| snap_err(format!("unknown unit id {old}")))
        };
        let mut group_new: Vec<(u16, TenantId)> = Vec::with_capacity(groups.len());
        for g in &groups {
            let first = *g
                .units
                .first()
                .ok_or_else(|| snap_err(format!("group {} has no units", g.id)))?;
            group_new.push((g.id, new_unit(first)?));
        }
        let new_group = |old: u16| -> Result<TenantId, CtrlError> {
            group_new
                .iter()
                .find(|(o, _)| *o == old)
                .map(|&(_, n)| n)
                .ok_or_else(|| snap_err(format!("unknown group id {old}")))
        };

        let mut plane = CtrlPlane::build(workers, analyze, fusion, cse);
        let vc = plane.analyze.value_config();

        // Replay every unit attach through the same compile/gate path the
        // original attach took, validating recomputed hashes against the
        // saved ones so mismatched specs are caught here.
        let spec_of = |name: &str| -> Result<&TenantSpec, CtrlError> {
            specs
                .iter()
                .find(|sp| sp.name == name)
                .ok_or_else(|| snap_err(format!("no spec provided for saved tenant '{name}'")))
        };
        for (i, u) in units.iter().enumerate() {
            let uid = new_unit(u.id)?;
            let gid = new_group(unit_groups[i])?;
            let rep = spec_of(name_of(u.members[0])?)?;
            let demand = plane.gate(rep)?;
            let hash = equiv::canonical_hash(&rep.policy, &vc);
            if hash != u.hash {
                return Err(snap_err(format!(
                    "spec '{}' does not match saved unit {} (canonical hash differs)",
                    rep.name, u.id
                )));
            }
            let gmeta = groups
                .iter()
                .find(|g| g.id == unit_groups[i])
                .ok_or_else(|| snap_err(format!("unit {} references unknown group", u.id)))?;
            let founding = gmeta.units.first() == Some(&u.id);
            if founding {
                if pshare::prefix_form(&rep.policy, &vc).switch_prefix != gmeta.prefix {
                    return Err(snap_err(format!(
                        "spec '{}' does not match saved group {} (prefix hash differs)",
                        rep.name, gmeta.id
                    )));
                }
                plane.nic.attach(
                    uid,
                    &demand.compiled,
                    rep.cfg.cache.fg_table_size,
                    sinks(&rep.name),
                    None,
                )?;
            } else {
                plane.nic.attach_to_group(
                    gid,
                    uid,
                    &demand.compiled,
                    rep.cfg.cache.fg_table_size,
                    sinks(&rep.name),
                )?;
            }
            for &m in &u.members[1..] {
                let mname = name_of(m)?;
                plane.nic.join(uid, TenantId(m), sinks(mname))?;
            }
            plane.units.push(Unit {
                id: uid,
                hash,
                policy: rep.policy.clone(),
                cfg: rep.cfg,
                demand,
                members: u.members.iter().map(|&m| TenantId(m)).collect(),
                group: gid,
                attach_pos: u.attach_pos,
            });
        }

        // Rebuild the switch partitions (one per group; shared-prefix
        // groups get the canonical union record layout, exactly as the
        // original prefix joins left them).
        for g in &groups {
            let gid = new_group(g.id)?;
            let member_units: Vec<&Unit> = g
                .units
                .iter()
                .map(|&old| {
                    let nid = new_unit(old)?;
                    plane
                        .units
                        .iter()
                        .find(|u| u.id == nid)
                        .ok_or_else(|| snap_err(format!("group {} lost unit {old}", g.id)))
                })
                .collect::<Result<_, _>>()?;
            let first = member_units[0];
            let cfg = first.cfg;
            let progs: Vec<&SwitchProgram> = member_units
                .iter()
                .map(|u| &u.demand.compiled.switch)
                .collect();
            let (usage, ok) = if progs.len() == 1 {
                (
                    first.demand.switch,
                    plane
                        .switch
                        .attach(gid, progs[0].clone(), cfg.cache, cfg.mode),
                )
            } else {
                let union = SwitchProgram {
                    filter: progs[0].filter.clone(),
                    levels: progs[0].levels.clone(),
                    metadata: union_metadata(&progs),
                };
                (
                    model(&union, &cfg.cache),
                    plane.switch.attach_shared(gid, &progs, cfg.cache, cfg.mode),
                )
            };
            if !ok {
                return Err(snap_err(format!(
                    "switch refused re-attach of saved partition {}",
                    g.id
                )));
            }
            plane.groups.push(Group {
                id: gid,
                prefix: g.prefix,
                policy: first.policy.clone(),
                cfg,
                switch: usage,
                levels: first.demand.compiled.switch.levels.clone(),
                attach_pos: g.attach_pos,
                units: member_units.iter().map(|u| u.id).collect(),
            });
        }
        for s in &slots {
            plane.slots.push(Slot {
                id: TenantId(s.id),
                name: s.name.clone(),
                unit: new_unit(s.unit)?,
            });
        }

        // Transplant the dynamic state: switch partitions first, then NIC
        // routed positions and per-shard engine state.
        need(
            plane.switch.load_stats(&mut r),
            "shared switch link counters",
        )?;
        for g in &groups {
            let gid = new_group(g.id)?;
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
