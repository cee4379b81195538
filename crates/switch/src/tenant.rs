//! Multi-tenant switch sharing: one physical pipeline, N deployed policies.
//!
//! The paper's flexibility claim is that one switch + SmartNIC deployment
//! serves many ML applications at once. This module is the switch half of
//! that story:
//!
//! - **Tenant filter table**: the shared ingress match-action table gains
//!   one entry per tenant — the tenant's compiled filter predicate, which
//!   its partition evaluates once per packet exactly as a solo switch does
//!   — and the packet's downstream events are tagged with the
//!   [`TenantId`] of the partition that emitted them.
//! - **Partitioned MGPV cache**: each tenant owns a cache partition sized
//!   by its own [`MgpvConfig`] — its SRAM quota. Partitioning (rather than
//!   a fully shared slot array) is what makes isolation *exact*: a
//!   tenant's eviction behavior depends only on its own traffic, so its
//!   feature vectors are bitwise-identical to a solo deployment. The
//!   admission controller bounds the sum of quotas against the Tofino SRAM
//!   budget via [`crate::resources::compose`].
//! - **Per-tenant accounting**: every partition keeps the full
//!   [`SwitchStats`](crate::SwitchStats) / [`MgpvStats`](crate::MgpvStats)
//!   counter set — a solo switch's over the packets offered while it was
//!   attached; the shared switch adds link-level totals.
//!
//! Attach and detach are driven through `superfe_core::stream::DataPath`,
//! which the solo pipeline runs with one partition and the control plane
//! with N: [`SharedSwitch::attach`] adds a filter entry and a partition,
//! [`SharedSwitch::detach_into`] drains the departing tenant's partition
//! into the event stream so no in-flight records are lost. A unit that
//! subscribes to a live partition (SF08xx prefix sharing) only widens its
//! record, in place: [`SharedSwitch::relayout`] flushes and rebuilds
//! nothing, so the partition's batched records stay where they are.

use superfe_net::snap::{StateReader, StateWriter};
use superfe_net::PacketRecord;
use superfe_policy::{MetaField, SwitchProgram};

use crate::mgpv::MgpvConfig;
use crate::pipeline::{CacheMode, FeSwitch};
use crate::record::SwitchEvent;

/// Identifies one admitted tenant (policy instance) on the shared data
/// path. Ids are assigned by the control plane and never reused within a
/// plane's lifetime, so a detached tenant's late events can never be
/// misattributed to a successor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A switch event tagged with the tenant whose policy produced it — the
/// wire format of the shared switch→NIC link.
#[derive(Clone, Debug, PartialEq)]
pub struct TaggedEvent {
    /// The owning tenant.
    pub tenant: TenantId,
    /// The event itself (MGPV eviction or FG-table update).
    pub event: SwitchEvent,
}

/// Link-level counters of the shared switch (per-tenant counters live in
/// each partition's [`SwitchStats`](crate::SwitchStats)).
#[derive(Clone, Copy, Debug, Default)]
pub struct SharedSwitchStats {
    /// Packets offered to the shared pipeline.
    pub pkts_in: u64,
    /// Bytes offered to the shared pipeline.
    pub bytes_in: u64,
    /// Packet × tenant matches (one packet can count several times).
    pub tenant_matches: u64,
}

/// The union of several switch programs' metadata records, in canonical
/// field order — deterministic regardless of member order, so a partition
/// re-laid after membership changes gets the same record layout.
pub fn union_metadata(programs: &[&SwitchProgram]) -> Vec<MetaField> {
    const CANONICAL: [MetaField; 4] = [
        MetaField::Size,
        MetaField::TstampUs,
        MetaField::DirFlags,
        MetaField::FgIdx,
    ];
    CANONICAL
        .into_iter()
        .filter(|f| programs.iter().any(|p| p.metadata.contains(f)))
        .collect()
}

/// One tenant's slot: the filter-table entry plus its cache partition.
struct TenantSlot {
    tenant: TenantId,
    switch: FeSwitch,
}

/// One shared switch pipeline running N tenant policies concurrently.
///
/// Tenants are processed in attach order, so the tagged event stream is a
/// deterministic function of the input trace and the attach history.
#[derive(Default)]
pub struct SharedSwitch {
    slots: Vec<TenantSlot>,
    stats: SharedSwitchStats,
    /// What one partition call emits before it is tagged; empty between
    /// calls, so tagging allocates only when a call out-emits every
    /// earlier one.
    scratch: Vec<SwitchEvent>,
}

impl SharedSwitch {
    /// An empty shared switch (no tenants yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Link-level totals.
    pub fn stats(&self) -> &SharedSwitchStats {
        &self.stats
    }

    /// Tenant `tenant`'s partition — its counters, cache counters and
    /// state for a snapshot — or `None` for an unknown tenant.
    pub fn partition(&self, tenant: TenantId) -> Option<&FeSwitch> {
        self.slots
            .iter()
            .find(|s| s.tenant == tenant)
            .map(|s| &s.switch)
    }

    /// Attaches a tenant: one filter-table entry plus a cache partition
    /// sized by `cfg` (the tenant's SRAM quota).
    ///
    /// Returns `false` (and attaches nothing) when the id is already in
    /// use or the cache configuration is degenerate. Admission against the
    /// hardware budget is the control plane's job — this is the data path.
    pub fn attach(
        &mut self,
        tenant: TenantId,
        program: SwitchProgram,
        cfg: MgpvConfig,
        mode: CacheMode,
    ) -> bool {
        if self.partition(tenant).is_some() {
            return false;
        }
        let Some(switch) = FeSwitch::with_config(program, cfg, mode) else {
            return false;
        };
        self.slots.push(TenantSlot { tenant, switch });
        true
    }

    /// Re-lays partition `tenant`'s record, in place, as the **union** of
    /// `programs`' metadata records in canonical field order, so the
    /// partition materializes every field any subscriber's NIC tail reads.
    /// Its filter, granularity chain, cache and counters are untouched (the
    /// SF08xx certificate makes every subscriber's interchangeable).
    ///
    /// The MGPV cache's event stream — record content and eviction timing —
    /// does not depend on the metadata layout (records materialize all
    /// fields; the layout only drives wire-byte accounting), so re-laying
    /// is lossless at any stream position and needs no flush. An unknown
    /// partition is left alone.
    pub fn relayout(&mut self, tenant: TenantId, programs: &[&SwitchProgram]) {
        if let Some(slot) = self.slots.iter_mut().find(|s| s.tenant == tenant) {
            slot.switch.relayout(union_metadata(programs));
        }
    }

    /// Detaches a tenant, draining its partition into `out` (tagged with
    /// its id) so in-flight batched records reach the NIC before the
    /// partition is reclaimed. Returns `false` for an unknown tenant.
    pub fn detach_into(&mut self, tenant: TenantId, out: &mut Vec<TaggedEvent>) -> bool {
        let Some(pos) = self.slots.iter().position(|s| s.tenant == tenant) else {
            return false;
        };
        let mut slot = self.slots.remove(pos);
        Self::tag_tail(&mut slot, &mut self.scratch, out, FeSwitch::flush_into);
        true
    }

    /// Drains a *clone* of `tenant`'s partition into `out` (tagged with its
    /// id), leaving the live partition untouched — the switch half of a
    /// member detaching from a shared (fused) partition: the clone's flush
    /// shows exactly what a destructive [`SharedSwitch::detach_into`] would
    /// have emitted at this point of the stream, while surviving members
    /// keep the real partition's batching state. Returns `false` for an
    /// unknown tenant.
    pub fn snapshot_into(&mut self, tenant: TenantId, out: &mut Vec<TaggedEvent>) -> bool {
        let Some(switch) = self.partition(tenant).cloned() else {
            return false;
        };
        let clone = &mut TenantSlot { tenant, switch };
        Self::tag_tail(clone, &mut self.scratch, out, FeSwitch::flush_into);
        true
    }

    /// Offers one packet to every partition, appending tagged events in
    /// tenant attach order. Each partition applies its own filter entry and
    /// counts exactly as a solo switch does; a packet that matches no entry
    /// touches no cache.
    pub fn process_into(&mut self, p: &PacketRecord, out: &mut Vec<TaggedEvent>) {
        self.stats.pkts_in += 1;
        self.stats.bytes_in += u64::from(p.size);
        for slot in &mut self.slots {
            let matched = slot.switch.stats().pkts_matched;
            Self::tag_tail(slot, &mut self.scratch, out, |sw, frame| {
                sw.process_into(p, frame);
            });
            self.stats.tenant_matches += slot.switch.stats().pkts_matched - matched;
        }
    }

    /// Flushes every tenant partition at end of trace (attach order).
    pub fn flush_into(&mut self, out: &mut Vec<TaggedEvent>) {
        for slot in &mut self.slots {
            Self::tag_tail(slot, &mut self.scratch, out, FeSwitch::flush_into);
        }
    }

    /// Restores one tenant partition's state written by its
    /// [`FeSwitch::save_state`]. The tenant must already be attached with
    /// the same program and cache configuration.
    pub fn load_tenant_state(&mut self, tenant: TenantId, r: &mut StateReader<'_>) -> Option<()> {
        let slot = self.slots.iter_mut().find(|s| s.tenant == tenant)?;
        slot.switch.load_state(r)
    }

    /// Serializes the link-level totals.
    pub fn save_stats(&self, w: &mut StateWriter) {
        w.put_u64(self.stats.pkts_in);
        w.put_u64(self.stats.bytes_in);
        w.put_u64(self.stats.tenant_matches);
    }

    /// Restores link-level totals written by [`SharedSwitch::save_stats`].
    pub fn load_stats(&mut self, r: &mut StateReader<'_>) -> Option<()> {
        self.stats.pkts_in = r.get_u64()?;
        self.stats.bytes_in = r.get_u64()?;
        self.stats.tenant_matches = r.get_u64()?;
        Some(())
    }

    /// Runs `f` on the slot's switch with the (empty) scratch frame and
    /// moves the produced events to `out`, tagged with the slot's tenant id.
    fn tag_tail(
        slot: &mut TenantSlot,
        scratch: &mut Vec<SwitchEvent>,
        out: &mut Vec<TaggedEvent>,
        f: impl FnOnce(&mut FeSwitch, &mut Vec<SwitchEvent>),
    ) {
        f(&mut slot.switch, scratch);
        if scratch.is_empty() {
            return;
        }
        let tenant = slot.tenant;
        out.extend(scratch.drain(..).map(|event| TaggedEvent { tenant, event }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_policy::dsl::parse;
    use superfe_policy::{compile, SwitchProgram};

    fn program(src: &str) -> SwitchProgram {
        compile(&parse(src).unwrap()).unwrap().switch
    }

    fn host_sum() -> SwitchProgram {
        program("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)")
    }

    fn tcp_only() -> SwitchProgram {
        program(
            "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_sum])\n\
             .collect(flow)",
        )
    }

    /// Attaches `program` as partition `id` under the default cache quota.
    fn attach(sw: &mut SharedSwitch, id: u16, program: SwitchProgram) -> bool {
        sw.attach(
            TenantId(id),
            program,
            MgpvConfig::default(),
            CacheMode::Mgpv,
        )
    }

    fn packets(n: u64) -> impl Iterator<Item = PacketRecord> {
        (0..n).map(|i| {
            if i % 3 == 0 {
                PacketRecord::udp(i * 1000, 100, (i % 7 + 1) as u32, 53, 9, 53)
            } else {
                PacketRecord::tcp(i * 1000, 200, (i % 7 + 1) as u32, 1000, 9, 443)
            }
        })
    }

    #[test]
    fn tenants_attach_and_detach() {
        let mut sw = SharedSwitch::new();
        assert!(attach(&mut sw, 0, host_sum()));
        assert!(attach(&mut sw, 1, tcp_only()));
        // Duplicate ids are refused.
        assert!(!attach(&mut sw, 1, host_sum()));
        let mut out = Vec::new();
        assert!(sw.detach_into(TenantId(0), &mut out));
        assert!(!sw.detach_into(TenantId(0), &mut out));
    }

    #[test]
    fn filter_table_routes_per_tenant() {
        let mut sw = SharedSwitch::new();
        attach(&mut sw, 0, host_sum());
        attach(&mut sw, 1, tcp_only());
        let mut out = Vec::new();
        for p in packets(300) {
            sw.process_into(&p, &mut out);
        }
        sw.flush_into(&mut out);
        // Both partitions were offered every packet, as solo switches would
        // be; tenant 0 (no filter) matched everything, tenant 1 only TCP.
        for (tenant, matched) in [(TenantId(0), 300), (TenantId(1), 200)] {
            let stats = sw.partition(tenant).unwrap().stats();
            assert_eq!((stats.pkts_in, stats.pkts_matched), (300, matched));
        }
        assert_eq!(sw.stats().pkts_in, 300);
        assert_eq!(sw.stats().tenant_matches, 500);
        assert!(out.iter().any(|e| e.tenant == TenantId(0)));
        assert!(out.iter().any(|e| e.tenant == TenantId(1)));
    }

    #[test]
    fn partition_matches_solo_switch_exactly() {
        // The switch-level isolation invariant: tenant 0's tagged event
        // subsequence equals a solo FeSwitch fed the same trace, even with
        // a second tenant attached and detached mid-stream.
        let mut solo = FeSwitch::new(host_sum()).unwrap();
        let mut solo_events = Vec::new();
        let mut shared = SharedSwitch::new();
        attach(&mut shared, 0, host_sum());
        let mut tagged = Vec::new();
        for (i, p) in packets(600).enumerate() {
            if i == 100 {
                attach(&mut shared, 1, tcp_only());
            }
            if i == 400 {
                shared.detach_into(TenantId(1), &mut tagged);
            }
            solo.process_into(&p, &mut solo_events);
            shared.process_into(&p, &mut tagged);
        }
        solo.flush_into(&mut solo_events);
        shared.flush_into(&mut tagged);
        let tenant0: Vec<&SwitchEvent> = tagged
            .iter()
            .filter(|e| e.tenant == TenantId(0))
            .map(|e| &e.event)
            .collect();
        assert_eq!(tenant0.len(), solo_events.len());
        for (a, b) in tenant0.iter().zip(&solo_events) {
            assert_eq!(*a, b);
        }
    }

    #[test]
    fn snapshot_flush_leaves_live_partition_untouched() {
        let mut sw = SharedSwitch::new();
        attach(&mut sw, 0, host_sum());
        let mut out = Vec::new();
        for p in packets(100) {
            sw.process_into(&p, &mut out);
        }
        assert!(!sw.snapshot_into(TenantId(9), &mut Vec::new()));
        let mut snap = Vec::new();
        assert!(sw.snapshot_into(TenantId(0), &mut snap));
        // The live partition kept its state: a destructive detach right
        // after emits exactly the events the snapshot predicted.
        assert_eq!(sw.partition(TenantId(0)).unwrap().stats().pkts_in, 100);
        let mut drained = Vec::new();
        assert!(sw.detach_into(TenantId(0), &mut drained));
        assert_eq!(snap, drained);
    }

    #[test]
    fn shared_partition_event_stream_is_metadata_independent() {
        // Two policies with the same switch prefix (no filter, groupby
        // host) but different metadata demands: one reads sizes, the other
        // inter-packet times. Re-laying either's partition as the union
        // record, at the start or mid-stream, must leave its event stream
        // bitwise identical, because record content and eviction timing do
        // not depend on the metadata layout.
        let bytes = host_sum();
        let times = program(
            "pktstream\n.groupby(host)\n.map(ipt, tstamp, f_ipt)\n\
             .reduce(ipt, [f_mean])\n.collect(host)",
        );
        assert_ne!(bytes.metadata, times.metadata);
        let union = [&bytes, &times];
        let run = |program: &SwitchProgram, relayout_at: Option<usize>| {
            let mut sw = SharedSwitch::new();
            attach(&mut sw, 0, program.clone());
            let mut out = Vec::new();
            for (i, p) in packets(500).enumerate() {
                if relayout_at == Some(i) {
                    sw.relayout(TenantId(0), &union);
                    let laid = &sw.partition(TenantId(0)).unwrap().program().metadata;
                    assert_eq!(laid, &union_metadata(&union));
                }
                sw.process_into(&p, &mut out);
            }
            sw.flush_into(&mut out);
            out
        };
        for program in union {
            let alone = run(program, None);
            assert_eq!(run(program, Some(0)), alone);
            assert_eq!(run(program, Some(250)), alone);
        }
        // An unknown partition is left alone.
        let mut sw = SharedSwitch::new();
        sw.relayout(TenantId(0), &union);
        assert!(sw.partition(TenantId(0)).is_none());
    }
}
