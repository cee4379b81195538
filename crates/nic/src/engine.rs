//! The FE-NIC execution engine.
//!
//! Consumes the switch's ordered event stream, mirrors the FG key table,
//! recovers every granularity level of each batched record (the MGPV
//! recovery step of §5.1), drives the compiled `map`/`reduce`/`synthesize`
//! program per group, and emits feature vectors per the policy's `collect`
//! units.

use superfe_net::snap::{StateReader, StateWriter};
use superfe_net::{Granularity, GroupKey};
use superfe_policy::ast::CollectUnit;
use superfe_policy::exec::{GroupExec, GroupSlab, LevelPlan, RecordView};
use superfe_policy::{CompiledPolicy, LevelProgram};
use superfe_streaming::DecayMemo;
use superfe_switch::{MgpvMessage, SwitchEvent};

use crate::table::{GroupTable, TableBudget};

/// One emitted feature vector.
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureVector {
    /// The key of the group (or finest-granularity key for per-packet
    /// vectors).
    pub key: GroupKey,
    /// The features, in policy order.
    pub values: Vec<f64>,
}

impl FeatureVector {
    /// The fewest bytes [`FeatureVector::save_state`] writes: a host key
    /// (tag and address) and an empty value count. A decoder bounds a
    /// vector count by it before reserving room for the vectors.
    pub const MIN_STATE_BYTES: usize = 1 + 4 + 2;

    /// The feature values as a plain slice.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Serializes the vector (key + feature block).
    pub fn save_state(&self, w: &mut StateWriter) {
        self.key.save_state(w);
        w.put_u16(self.values.len() as u16);
        for v in self.values.iter() {
            w.put_f64(*v);
        }
    }

    /// Reads a vector written by [`FeatureVector::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        let key = GroupKey::load_state(r)?;
        // The `u16` count sizes nothing: values are read one at a time.
        let n = r.get_u16()?;
        let values = (0..n).map(|_| r.get_f64()).collect::<Option<_>>()?;
        Some(FeatureVector { key, values })
    }
}

/// A group finalized early because the DRAM budget evicted it — the typed
/// record the pipeline surfaces instead of silently losing state.
#[derive(Clone, Debug, PartialEq)]
pub struct EvictedVector {
    /// The level the group lived at.
    pub level: Granularity,
    /// The group's features at eviction time.
    pub vector: FeatureVector,
}

/// Engine counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct NicStats {
    /// MGPV messages consumed.
    pub msgs: u64,
    /// Metadata records consumed.
    pub records: u64,
    /// FG table updates applied.
    pub fg_updates: u64,
    /// Records whose FG index could not be resolved (should stay 0).
    pub unresolved_fg: u64,
    /// Feature vectors emitted.
    pub vectors: u64,
    /// Group-key hashes taken from the switch (hash-reuse fast path).
    pub hashes_reused: u64,
    /// Group-key hashes computed locally.
    pub hashes_computed: u64,
    /// Groups finalized early by DRAM budget eviction.
    pub evicted_groups: u64,
    /// Record-level updates dropped because a new group was refused at the
    /// DRAM cap ([`crate::table::EvictionPolicy::DropNew`]).
    pub overflow_drops: u64,
}

impl NicStats {
    /// Adds `other`'s counters into `self` (merging per-shard engines).
    pub fn absorb(&mut self, other: &NicStats) {
        self.msgs += other.msgs;
        self.records += other.records;
        self.fg_updates += other.fg_updates;
        self.unresolved_fg += other.unresolved_fg;
        self.vectors += other.vectors;
        self.hashes_reused += other.hashes_reused;
        self.hashes_computed += other.hashes_computed;
        self.evicted_groups += other.evicted_groups;
        self.overflow_drops += other.overflow_drops;
    }

    /// Serializes the counters.
    pub fn save_state(&self, w: &mut StateWriter) {
        for c in [
            self.msgs,
            self.records,
            self.fg_updates,
            self.unresolved_fg,
            self.vectors,
            self.hashes_reused,
            self.hashes_computed,
            self.evicted_groups,
            self.overflow_drops,
        ] {
            w.put_u64(c);
        }
    }

    /// Reads counters written by [`NicStats::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        Some(NicStats {
            msgs: r.get_u64()?,
            records: r.get_u64()?,
            fg_updates: r.get_u64()?,
            unresolved_fg: r.get_u64()?,
            vectors: r.get_u64()?,
            hashes_reused: r.get_u64()?,
            hashes_computed: r.get_u64()?,
            evicted_groups: r.get_u64()?,
            overflow_drops: r.get_u64()?,
        })
    }
}

/// A table slot holds a group key and the group's slab index, and nothing
/// else: 32 bytes, so a level's 65,536 bucket slots take 2 MiB.
const _: () = assert!(std::mem::size_of::<Option<(GroupKey, GroupExec)>>() <= 32);

/// An emitted vector is its key and the buffer of its values: 48 bytes,
/// whatever its width.
const _: () = assert!(std::mem::size_of::<FeatureVector>() <= 48);

struct LevelState {
    program: LevelProgram,
    /// What every group of the level shares; the table's groups are
    /// indices into `slab` and are driven through it.
    plan: LevelPlan,
    table: GroupTable<GroupExec>,
    /// All state of the table's groups, which are indices into it: cloned,
    /// cleared and restored with the table.
    slab: GroupSlab,
    /// Reused scratch receiving the table's raw evictions; empty between
    /// records.
    evictions: Vec<(GroupKey, GroupExec)>,
}

impl LevelState {
    fn new(program: &LevelProgram, budget: TableBudget) -> Option<Self> {
        let plan = LevelPlan::new(program);
        Some(LevelState {
            program: program.clone(),
            table: GroupTable::with_budget(TABLE_BUCKETS, TABLE_WIDTH, budget)?,
            slab: GroupSlab::new(&plan),
            plan,
            evictions: Vec::new(),
        })
    }
}

impl Clone for LevelState {
    fn clone(&self) -> Self {
        LevelState {
            program: self.program.clone(),
            plan: self.plan.clone(),
            table: self.table.clone_with(GroupExec::fork),
            slab: self.slab.clone(),
            evictions: Vec::new(),
        }
    }
}

/// The SmartNIC feature-computation engine for one deployed policy.
///
/// `Clone` snapshots the complete engine state (group tables, FG mirror,
/// accumulated vectors, counters) — the mechanism behind non-destructive
/// member finalization on shared (fused) engines.
#[derive(Clone)]
pub struct FeNic {
    cg: Granularity,
    levels: Vec<LevelState>,
    fg_mirror: Vec<Option<GroupKey>>,
    per_pkt: bool,
    /// Values of a per-packet vector: every level's features.
    pkt_width: usize,
    pkt_vectors: Vec<FeatureVector>,
    /// Decay factors of the record in hand, shared by its levels.
    memo: DecayMemo,
    /// Groups evicted by the DRAM budget, finalized and awaiting drain.
    evicted: Vec<EvictedVector>,
    stats: NicStats,
}

/// Group-table geometry: buckets per level.
const TABLE_BUCKETS: usize = 16_384;
/// Group-table width (entries per bucket).
const TABLE_WIDTH: usize = 4;

impl FeNic {
    /// Instantiates the engine for a compiled policy with the default
    /// (effectively unbounded for test workloads) DRAM budget.
    ///
    /// `fg_table_size` must match the switch's FG table configuration.
    pub fn new(compiled: &CompiledPolicy, fg_table_size: usize) -> Option<Self> {
        Self::with_budget(compiled, fg_table_size, TableBudget::default())
    }

    /// Instantiates the engine with an explicit per-level DRAM budget.
    pub fn with_budget(
        compiled: &CompiledPolicy,
        fg_table_size: usize,
        budget: TableBudget,
    ) -> Option<Self> {
        let levels = (compiled.nic.levels.iter())
            .map(|lp| LevelState::new(lp, budget))
            .collect::<Option<Vec<_>>>()?;
        let per_pkt = compiled
            .nic
            .levels
            .iter()
            .any(|l| l.collect == Some(CollectUnit::Pkt));
        // Single-granularity policies run without an FG table on the switch;
        // mirror that so fg_idx = 0 placeholders are never "unresolved".
        let fg_size = if compiled.switch.needs_fg_table() {
            fg_table_size
        } else {
            0
        };
        Some(FeNic {
            cg: compiled.switch.cg(),
            levels,
            fg_mirror: vec![None; fg_size],
            per_pkt,
            pkt_width: compiled.nic.feature_dimension(),
            pkt_vectors: Vec::new(),
            memo: DecayMemo::new(),
            evicted: Vec::new(),
            stats: NicStats::default(),
        })
    }

    /// Engine counters.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// The DRAM budget the engine's group tables run under (every level
    /// is built under one, and a restore loads it back); `None` for an
    /// engine without levels.
    pub(crate) fn table_budget(&self) -> Option<TableBudget> {
        self.levels.first().map(|l| l.table.budget())
    }

    /// Number of live groups per level.
    pub fn groups_per_level(&self) -> Vec<(Granularity, usize)> {
        self.levels
            .iter()
            .map(|l| (l.program.granularity, l.table.len()))
            .collect()
    }

    /// Applies one switch event.
    pub fn handle(&mut self, event: &SwitchEvent) {
        match event {
            SwitchEvent::FgUpdate(u) => {
                let idx = u.idx as usize;
                if idx < self.fg_mirror.len() {
                    self.fg_mirror[idx] = Some(u.key);
                    self.stats.fg_updates += 1;
                }
            }
            SwitchEvent::Mgpv(msg) => self.consume_mgpv(msg),
        }
    }

    /// Applies a batch of events in order.
    pub fn handle_all<'a>(&mut self, events: impl IntoIterator<Item = &'a SwitchEvent>) {
        for e in events {
            self.handle(e);
        }
    }

    fn consume_mgpv(&mut self, msg: &MgpvMessage) {
        self.stats.msgs += 1;
        for rec in &msg.records {
            self.stats.records += 1;
            let view = RecordView {
                size: f64::from(rec.size),
                ts_ns: rec.ts_ns(),
                direction: rec.direction_factor(),
                tcp_flags: rec.dir_flags & 0x7F,
            };

            // Resolve the finest-granularity key once per record.
            let fg_key: Option<GroupKey> = if self.fg_mirror.is_empty() {
                None
            } else {
                let idx = rec.fg_idx as usize;
                match self.fg_mirror.get(idx).copied().flatten() {
                    Some(k) => Some(k),
                    None => {
                        self.stats.unresolved_fg += 1;
                        None
                    }
                }
            };

            let mut emit_pkt_vector = self.per_pkt;
            // The record's vector is emitted straight into the buffer it
            // leaves in.
            let mut pkt_values = if self.per_pkt {
                Vec::with_capacity(self.pkt_width)
            } else {
                Vec::new()
            };
            let mut pkt_key: Option<GroupKey> = None;
            self.memo.clear();

            for level in &mut self.levels {
                let LevelState {
                    program,
                    plan,
                    table,
                    slab,
                    evictions,
                } = level;
                let g = program.granularity;
                // MGPV recovery: the CG level uses the message key (and the
                // switch-computed hash); finer levels project the FG key.
                let (key, hash) = if g == self.cg {
                    self.stats.hashes_reused += 1;
                    (msg.cg_key, msg.hash)
                } else {
                    match fg_key.and_then(|k| k.project(g)) {
                        Some(k) => {
                            self.stats.hashes_computed += 1;
                            let h = k.hash32();
                            (k, h)
                        }
                        None => {
                            // Cannot place this record at this level.
                            emit_pkt_vector = false;
                            continue;
                        }
                    }
                };
                match table.get_or_insert_with(key, hash, || GroupExec::new(slab), evictions) {
                    Some(exec) => {
                        // A per-packet record emits each level's block in
                        // the walk that updates it.
                        let out = self.per_pkt.then_some(&mut pkt_values);
                        exec.update(plan, slab, &view, hash, &mut self.memo, out);
                        if self.per_pkt {
                            pkt_key.get_or_insert(key);
                        }
                    }
                    None => {
                        // Budget refused the new group: the update is
                        // dropped (counted) and no per-packet vector is
                        // emitted for this record.
                        self.stats.overflow_drops += 1;
                        emit_pkt_vector = false;
                    }
                }
                for (ekey, eexec) in evictions.drain(..) {
                    self.stats.evicted_groups += 1;
                    let values = eexec.finalize(plan, slab);
                    eexec.release(slab);
                    self.evicted.push(EvictedVector {
                        level: g,
                        vector: FeatureVector { key: ekey, values },
                    });
                }
            }

            if emit_pkt_vector {
                if let Some(key) = fg_key.or(pkt_key) {
                    self.stats.vectors += 1;
                    let values = std::mem::take(&mut pkt_values);
                    self.pkt_vectors.push(FeatureVector { key, values });
                }
            }
        }
    }

    /// Drains the per-packet feature vectors accumulated so far.
    pub fn take_packet_vectors(&mut self) -> Vec<FeatureVector> {
        std::mem::take(&mut self.pkt_vectors)
    }

    /// Drains the budget-evicted group vectors accumulated so far.
    pub fn take_evicted(&mut self) -> Vec<EvictedVector> {
        std::mem::take(&mut self.evicted)
    }

    /// Emits per-group feature vectors for every level that collects per
    /// group, in policy order.
    pub fn finish(&mut self) -> Vec<FeatureVector> {
        let mut out = Vec::new();
        for level in &self.levels {
            if let Some(CollectUnit::Group(_)) = level.program.collect {
                for (key, exec) in level.table.iter() {
                    out.push(FeatureVector {
                        key: *key,
                        values: exec.finalize(&level.plan, &level.slab),
                    });
                }
            }
        }
        self.stats.vectors += out.len() as u64;
        out
    }

    /// Serializes the engine's dynamic state (group tables, FG mirror,
    /// pending vectors, counters). Structure — the compiled policy and
    /// table geometry — is *not* stored; [`FeNic::load_state`] validates it
    /// against a freshly constructed engine instead.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.cg.save_state(w);
        w.put_u16(self.levels.len() as u16);
        for level in &self.levels {
            level.program.granularity.save_state(w);
            let LevelState {
                plan, table, slab, ..
            } = level;
            w.put_section(|w| table.save_state(w, |g, w| g.save_state(plan, slab, w)));
        }
        w.put_u32(self.fg_mirror.len() as u32);
        for slot in &self.fg_mirror {
            match slot {
                Some(k) => {
                    w.put_bool(true);
                    k.save_state(w);
                }
                None => w.put_bool(false),
            }
        }
        w.put_u32(self.pkt_vectors.len() as u32);
        for v in &self.pkt_vectors {
            v.save_state(w);
        }
        w.put_u32(self.evicted.len() as u32);
        for e in &self.evicted {
            e.level.save_state(w);
            e.vector.save_state(w);
        }
        self.stats.save_state(w);
    }

    /// Restores dynamic state saved by [`FeNic::save_state`] into this
    /// freshly constructed engine. Returns `None` when the snapshot was
    /// taken against a different policy structure or is corrupt.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Option<()> {
        if Granularity::load_state(r)? != self.cg || r.get_u16()? as usize != self.levels.len() {
            return None;
        }
        for level in &mut self.levels {
            if Granularity::load_state(r)? != level.program.granularity {
                return None;
            }
            let LevelState {
                plan, table, slab, ..
            } = level;
            slab.clear();
            r.get_section(|r| table.load_state(r, |r| GroupExec::load_state(plan, slab, r)))?;
        }
        if r.get_u32()? as usize != self.fg_mirror.len() {
            return None;
        }
        for slot in &mut self.fg_mirror {
            *slot = if r.get_bool()? {
                Some(GroupKey::load_state(r)?)
            } else {
                None
            };
        }
        let n = r.get_u32()? as usize;
        self.pkt_vectors = (0..n)
            .map(|_| FeatureVector::load_state(r))
            .collect::<Option<Vec<_>>>()?;
        let n = r.get_u32()? as usize;
        self.evicted = (0..n)
            .map(|_| {
                Some(EvictedVector {
                    level: Granularity::load_state(r)?,
                    vector: FeatureVector::load_state(r)?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        self.stats = NicStats::load_state(r)?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_net::{Direction, PacketRecord};
    use superfe_policy::dsl::parse;
    use superfe_policy::{compile, CompiledPolicy};
    use superfe_switch::FeSwitch;

    fn compiled(src: &str) -> CompiledPolicy {
        compile(&parse(src).unwrap()).unwrap()
    }

    /// Runs packets through a real switch into the NIC engine.
    fn run_pipeline(
        c: &CompiledPolicy,
        packets: &[PacketRecord],
    ) -> (FeNic, Vec<FeatureVector>, Vec<FeatureVector>) {
        let mut sw = FeSwitch::new(c.switch.clone()).unwrap();
        let mut nic = FeNic::new(c, 16_384).unwrap();
        for p in packets {
            for e in sw.process(p) {
                nic.handle(&e);
            }
        }
        for e in sw.flush() {
            nic.handle(&e);
        }
        let group_vectors = nic.finish();
        let pkt_vectors = nic.take_packet_vectors();
        (nic, group_vectors, pkt_vectors)
    }

    #[test]
    fn flow_statistics_end_to_end() {
        let c = compiled(
            "pktstream\n.groupby(flow)\n.reduce(size, [f_mean, f_min, f_max])\n.collect(flow)",
        );
        let pkts: Vec<PacketRecord> = (0..10)
            .map(|i| PacketRecord::tcp(i * 1000, (100 + i * 10) as u16, 1, 1000, 2, 80))
            .collect();
        let (nic, groups, _) = run_pipeline(&c, &pkts);
        assert_eq!(nic.stats().records, 10);
        assert_eq!(groups.len(), 1);
        let f = &groups[0].values;
        assert!((f[0] - 145.0).abs() < 1e-9, "mean {}", f[0]);
        assert_eq!(f[1], 100.0);
        assert_eq!(f[2], 190.0);
    }

    #[test]
    fn multi_granularity_recovery() {
        // Group at socket (fine) and host (coarse); the switch groups by
        // host and the NIC recovers sockets from the FG table.
        let c = compiled(
            "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
             .groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
        );
        // Host 1 has two sockets (ports 1000, 2000), host 5 has one.
        let pkts = vec![
            PacketRecord::tcp(0, 100, 1, 1000, 2, 80),
            PacketRecord::tcp(1_000, 100, 1, 2000, 2, 80),
            PacketRecord::tcp(2_000, 100, 1, 1000, 2, 80),
            PacketRecord::tcp(3_000, 100, 5, 3000, 2, 80),
        ];
        let (nic, groups, _) = run_pipeline(&c, &pkts);
        assert_eq!(nic.stats().unresolved_fg, 0);
        // 3 socket groups + 2 host groups.
        assert_eq!(groups.len(), 5);
        let host1: Vec<_> = groups
            .iter()
            .filter(|v| v.key == GroupKey::Host(1))
            .collect();
        assert_eq!(host1.len(), 1);
        assert_eq!(host1[0].values, vec![300.0]);
        let sock1000: Vec<_> = groups
            .iter()
            .filter(|v| matches!(v.key, GroupKey::Socket(ft) if ft.src_port == 1000))
            .collect();
        assert_eq!(sock1000[0].values, vec![200.0]);
    }

    #[test]
    fn per_packet_collect_emits_one_vector_per_record() {
        let c =
            compiled("pktstream\n.groupby(host)\n.reduce(size, [f_damped{0.1}])\n.collect(pkt)");
        let pkts: Vec<PacketRecord> = (0..5)
            .map(|i| PacketRecord::tcp(i * 1_000_000, 100, 1, 1000, 2, 80))
            .collect();
        let (nic, groups, pkt_vecs) = run_pipeline(&c, &pkts);
        assert_eq!(groups.len(), 0, "collect(pkt) emits no group vectors");
        assert_eq!(pkt_vecs.len(), 5);
        assert_eq!(nic.stats().vectors, 5);
        // Damped triple per vector.
        assert!(pkt_vecs.iter().all(|v| v.values.len() == 3));
        // Weight grows with each packet of the host.
        assert!(pkt_vecs[4].values[0] > pkt_vecs[0].values[0]);
    }

    #[test]
    fn hash_reuse_counted_for_cg_level() {
        let c = compiled("pktstream\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)");
        let pkts: Vec<PacketRecord> = (0..7)
            .map(|i| PacketRecord::tcp(i, 100, 1, 1000, 2, 80))
            .collect();
        let (nic, _, _) = run_pipeline(&c, &pkts);
        assert_eq!(nic.stats().hashes_reused, 7);
        assert_eq!(nic.stats().hashes_computed, 0);
    }

    #[test]
    fn fg_updates_are_mirrored() {
        let c = compiled(
            "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
             .groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
        );
        let pkts: Vec<PacketRecord> = (0..4)
            .map(|i| PacketRecord::tcp(i, 100, 1, 1000 + i as u16, 2, 80))
            .collect();
        let (nic, _, _) = run_pipeline(&c, &pkts);
        assert_eq!(nic.stats().fg_updates, 4);
    }

    #[test]
    fn direction_sequences_survive_batching() {
        // Order preservation: the NIC sees directions in arrival order even
        // through MGPV batching.
        let c = compiled(
            "pktstream\n.groupby(flow)\n.map(one, _, f_one)\n.map(d, one, f_direction)\n\
             .reduce(d, [f_array{8}])\n.collect(flow)",
        );
        let dirs = [
            Direction::Ingress,
            Direction::Ingress,
            Direction::Egress,
            Direction::Ingress,
            Direction::Egress,
        ];
        let pkts: Vec<PacketRecord> = dirs
            .iter()
            .enumerate()
            .map(|(i, d)| {
                PacketRecord::tcp(i as u64 * 1000, 100, 1, 1000, 2, 80).with_direction(*d)
            })
            .collect();
        let (_, groups, _) = run_pipeline(&c, &pkts);
        assert_eq!(groups.len(), 1);
        assert_eq!(
            groups[0].values,
            vec![1.0, 1.0, -1.0, 1.0, -1.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn evicted_groups_keep_their_width_beside_a_wide_packet_vector() {
        // Three socket features and six host features: a per-packet vector
        // too wide to sit inline, of levels that each fit.
        let c = compiled(
            "pktstream\n.groupby(socket)\n.reduce(size, [f_sum, f_max, f_min])\n.collect(pkt)\n\
             .groupby(host)\n.reduce(size, [f_sum, f_mean, f_max, f_min, f_var, f_std])\n\
             .collect(pkt)",
        );
        // Enough hosts to spill past the fast table and evict under a cap.
        let pkts: Vec<PacketRecord> = (0..TABLE_BUCKETS as u32 * TABLE_WIDTH as u32 + 2_000)
            .map(|i| {
                PacketRecord::tcp(
                    u64::from(i) * 1_000,
                    100 + (i % 7) as u16,
                    i + 1,
                    1000,
                    2,
                    80,
                )
            })
            .collect();
        let mut sw = FeSwitch::new(c.switch.clone()).unwrap();
        let budget = TableBudget::capped(100, crate::table::EvictionPolicy::EvictOldest);
        let mut nic = FeNic::with_budget(&c, 16_384, budget).unwrap();
        for p in &pkts {
            for e in sw.process(p) {
                nic.handle(&e);
            }
        }
        for e in sw.flush() {
            nic.handle(&e);
        }
        let evicted = nic.take_evicted();
        let hosts: Vec<_> = evicted
            .iter()
            .filter(|e| e.level == Granularity::Host)
            .collect();
        assert!(!hosts.is_empty() && evicted.len() > hosts.len());
        for e in &evicted {
            let f = &e.vector.values;
            match e.level {
                Granularity::Socket => assert_eq!(f.len(), 3, "{e:?}"),
                // One packet per host: sum, mean, max and min are its size.
                _ => assert_eq!(f.as_slice(), &[f[0], f[0], f[0], f[0], 0.0, 0.0], "{e:?}"),
            }
        }
    }

    #[test]
    fn a_freed_slab_block_is_a_fresh_group_and_a_fork_runs_on_alike() {
        // One-packet hosts, each a fresh group: every window has weight 1,
        // mean the packet's size and deviation 0, and `f_ipt` has no sample.
        let c = compiled(
            "pktstream\n.groupby(host)\n.map(ipt, tstamp, f_ipt)\n\
             .reduce(size, [f_damped{5}, f_damped{0.1}])\n.reduce(ipt, [f_damped{1}])\n\
             .collect(pkt)",
        );
        let size_of = |host: u32| 100.0 + f64::from((host - 1) % 7);
        let fresh = |host: u32| {
            let s = size_of(host);
            vec![1.0, s, 0.0, 1.0, s, 0.0, 0.0, 0.0, 0.0]
        };
        // Enough hosts to spill past the fast table and evict, again and
        // again, under a small cap: each spilled host reuses the block of
        // the one evicted before it.
        let hosts = TABLE_BUCKETS as u32 * TABLE_WIDTH as u32 + 2_000;
        let mut sw = FeSwitch::new(c.switch.clone()).unwrap();
        let mut events = Vec::new();
        for i in 0..hosts {
            let ts = u64::from(i) * 1_000;
            events.extend(sw.process(&PacketRecord::tcp(
                ts,
                size_of(i + 1) as u16,
                i + 1,
                1000,
                2,
                80,
            )));
        }
        events.extend(sw.flush());
        let budget = TableBudget::capped(16, crate::table::EvictionPolicy::EvictOldest);
        let mut nic = FeNic::with_budget(&c, 16_384, budget).unwrap();
        let host = |key: &GroupKey| match key {
            GroupKey::Host(ip) => *ip,
            other => panic!("not a host: {other:?}"),
        };
        let check = |nic: &mut FeNic| {
            let (vectors, evicted) = (nic.take_packet_vectors(), nic.take_evicted());
            for v in vectors.iter().chain(evicted.iter().map(|e| &e.vector)) {
                assert_eq!(v.values.as_slice(), fresh(host(&v.key)), "{v:?}");
            }
            (vectors, evicted)
        };
        // Fork once evictions are under way; both copies take the rest.
        let fork_at = events.len() * 19 / 20;
        nic.handle_all(&events[..fork_at]);
        let (_, evicted) = check(&mut nic);
        assert!(
            evicted.len() > 100,
            "{} evictions before the fork",
            evicted.len()
        );
        let mut fork = nic.clone();
        nic.handle_all(&events[fork_at..]);
        fork.handle_all(&events[fork_at..]);
        let (ours, theirs) = (check(&mut nic), check(&mut fork));
        assert!(!ours.1.is_empty() && !ours.0.is_empty());
        assert_eq!(ours, theirs);
        let (mut a, mut b) = (StateWriter::new(), StateWriter::new());
        nic.save_state(&mut a);
        fork.save_state(&mut b);
        assert!(a.into_bytes() == b.into_bytes(), "the fork's state differs");
    }

    #[test]
    fn record_conservation_through_pipeline() {
        let c = compiled("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)");
        let pkts: Vec<PacketRecord> = (0..500)
            .map(|i| PacketRecord::tcp(i * 10, 100, (i % 23 + 1) as u32, 1000, 2, 80))
            .collect();
        let (nic, groups, _) = run_pipeline(&c, &pkts);
        assert_eq!(nic.stats().records, 500);
        // Sums over all host groups must equal the total bytes.
        let total: f64 = groups.iter().map(|g| g.values[0]).sum();
        assert!((total - 500.0 * 100.0).abs() < 1e-6, "total {total}");
    }
}
