//! The FE-Switch per-packet pipeline: parse → filter → group & batch.

use superfe_net::snap::{StateReader, StateWriter};
use superfe_net::wire::{parse_frame, ParseError};
use superfe_net::{Direction, PacketRecord};
use superfe_policy::ast::{Field, Predicate};
use superfe_policy::{MetaField, SwitchProgram};

use crate::gpv::GpvBank;
use crate::mgpv::{MgpvCache, MgpvConfig, MgpvStats};
use crate::record::SwitchEvent;

/// Which cache architecture the switch runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Multi-granularity GPV (SuperFE, §5.1).
    Mgpv,
    /// Per-granularity GPV bank (the \*Flow baseline).
    Gpv,
}

/// Link-level counters of the switch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets received.
    pub pkts_in: u64,
    /// Bytes received (original traffic).
    pub bytes_in: u64,
    /// Packets accepted by the filter.
    pub pkts_matched: u64,
    /// MGPV messages sent to the NIC.
    pub msgs_out: u64,
    /// MGPV bytes sent to the NIC.
    pub bytes_out: u64,
    /// FG-table update notifications sent.
    pub fg_msgs_out: u64,
    /// FG-table update bytes sent.
    pub fg_bytes_out: u64,
}

impl SwitchStats {
    /// Fraction of the original *throughput* still sent to the NIC
    /// (the Fig. 12 "aggregation ratio" by bytes; lower is better).
    pub fn byte_aggregation_ratio(&self) -> f64 {
        if self.bytes_in == 0 {
            return 0.0;
        }
        (self.bytes_out + self.fg_bytes_out) as f64 / self.bytes_in as f64
    }

    /// Fraction of the original *packet rate* still sent to the NIC
    /// (the Fig. 12 aggregation ratio by messages). FG-table notifications
    /// are piggybacked onto the next data message on the wire (their bytes
    /// are counted by [`SwitchStats::byte_aggregation_ratio`]), so they do
    /// not add to the message rate.
    pub fn rate_aggregation_ratio(&self) -> f64 {
        if self.pkts_in == 0 {
            return 0.0;
        }
        self.msgs_out as f64 / self.pkts_in as f64
    }

    /// Serializes the link counters for state snapshots.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.pkts_in);
        w.put_u64(self.bytes_in);
        w.put_u64(self.pkts_matched);
        w.put_u64(self.msgs_out);
        w.put_u64(self.bytes_out);
        w.put_u64(self.fg_msgs_out);
        w.put_u64(self.fg_bytes_out);
    }

    /// Reads counters written by [`SwitchStats::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        Some(SwitchStats {
            pkts_in: r.get_u64()?,
            bytes_in: r.get_u64()?,
            pkts_matched: r.get_u64()?,
            msgs_out: r.get_u64()?,
            bytes_out: r.get_u64()?,
            fg_msgs_out: r.get_u64()?,
            fg_bytes_out: r.get_u64()?,
        })
    }
}

#[derive(Clone)]
enum CacheImpl {
    Mgpv(Box<MgpvCache>),
    Gpv(Box<GpvBank>),
}

/// The switch half of a deployed SuperFE instance.
///
/// `Clone` snapshots the full pipeline state (program, cache contents,
/// counters) — the mechanism behind non-destructive partition flushes when
/// a member detaches from a shared (fused) tenant partition.
#[derive(Clone)]
pub struct FeSwitch {
    program: SwitchProgram,
    cache: CacheImpl,
    stats: SwitchStats,
}

impl FeSwitch {
    /// Deploys a compiled switch program with the default (§7) cache sizes.
    pub fn new(program: SwitchProgram) -> Option<Self> {
        Self::with_config(program, MgpvConfig::default(), CacheMode::Mgpv)
    }

    /// Deploys with explicit cache configuration and architecture.
    pub fn with_config(
        program: SwitchProgram,
        mut cfg: MgpvConfig,
        mode: CacheMode,
    ) -> Option<Self> {
        let cache = match mode {
            CacheMode::Mgpv => {
                if !program.needs_fg_table() {
                    cfg.fg_table_size = 0;
                }
                CacheImpl::Mgpv(Box::new(MgpvCache::new(cfg)?))
            }
            CacheMode::Gpv => CacheImpl::Gpv(Box::new(GpvBank::new(&program.levels, cfg)?)),
        };
        Some(FeSwitch {
            program,
            cache,
            stats: SwitchStats::default(),
        })
    }

    /// The deployed program.
    pub fn program(&self) -> &SwitchProgram {
        &self.program
    }

    /// Re-lays the record the program materializes per packet (see
    /// [`crate::tenant::SharedSwitch::relayout`]).
    pub(crate) fn relayout(&mut self, metadata: Vec<MetaField>) {
        self.program.metadata = metadata;
    }

    /// Link counters.
    pub fn stats(&self) -> &SwitchStats {
        &self.stats
    }

    /// Cache counters (aggregated for GPV banks).
    pub fn cache_stats(&self) -> MgpvStats {
        match &self.cache {
            CacheImpl::Mgpv(c) => *c.stats(),
            CacheImpl::Gpv(b) => b.stats(),
        }
    }

    /// Static cache SRAM footprint in bytes.
    pub fn cache_memory_bytes(&self) -> usize {
        match &self.cache {
            CacheImpl::Mgpv(c) => c.config().memory_bytes(self.program.cg().key_bytes()),
            CacheImpl::Gpv(b) => b.memory_bytes(),
        }
    }

    /// Processes a raw Ethernet frame observed at `ts_ns` / `direction`.
    ///
    /// # Panics
    ///
    /// On a packet at or past [`TS_HORIZON_NS`](crate::record::TS_HORIZON_NS)
    /// (~71.6 minutes) that reaches the MGPV cache: its 32-bit microsecond
    /// record timestamp would wrap. A caller replaying longer captures
    /// rebases timestamps first, or feeds `superfe_core`'s
    /// `DataPath::push`, which refuses such a packet with the typed
    /// `NicError::PastHorizon`.
    pub fn process_frame(
        &mut self,
        frame: &[u8],
        ts_ns: u64,
        direction: Direction,
    ) -> Result<Vec<SwitchEvent>, ParseError> {
        let rec = parse_frame(frame, ts_ns, direction)?;
        Ok(self.process(&rec))
    }

    /// Processes a pre-parsed packet record.
    ///
    /// # Panics
    ///
    /// On a packet at or past [`TS_HORIZON_NS`](crate::record::TS_HORIZON_NS)
    /// (~71.6 minutes) that reaches the MGPV cache: its 32-bit microsecond
    /// record timestamp would wrap. A caller replaying longer captures
    /// rebases timestamps first, or feeds `superfe_core`'s
    /// `DataPath::push`, which refuses such a packet with the typed
    /// `NicError::PastHorizon`.
    pub fn process(&mut self, p: &PacketRecord) -> Vec<SwitchEvent> {
        let mut events = Vec::new();
        self.process_into(p, &mut events);
        events
    }

    /// Processes a pre-parsed packet record, appending the emitted events to
    /// a caller-supplied frame. The allocation-free form of
    /// [`FeSwitch::process`]: the streaming pipeline recycles one frame
    /// across packets instead of allocating a `Vec` per packet.
    ///
    /// # Panics
    ///
    /// On a packet at or past [`TS_HORIZON_NS`](crate::record::TS_HORIZON_NS)
    /// (~71.6 minutes) that reaches the MGPV cache: its 32-bit microsecond
    /// record timestamp would wrap. A caller replaying longer captures
    /// rebases timestamps first, or feeds `superfe_core`'s
    /// `DataPath::push`, which refuses such a packet with the typed
    /// `NicError::PastHorizon`.
    pub fn process_into(&mut self, p: &PacketRecord, out: &mut Vec<SwitchEvent>) {
        self.stats.pkts_in += 1;
        self.stats.bytes_in += u64::from(p.size);

        if let Some(pred) = &self.program.filter {
            if !eval_predicate(pred, p) {
                return;
            }
        }
        self.stats.pkts_matched += 1;

        let start = out.len();
        match &mut self.cache {
            CacheImpl::Mgpv(c) => {
                let cg = self.program.cg().key_of(p);
                let fg = if self.program.needs_fg_table() {
                    Some(self.program.fg().key_of(p))
                } else {
                    None
                };
                c.insert_into(p, cg, fg, out);
            }
            CacheImpl::Gpv(b) => b.insert_into(p, out),
        }
        self.account_tail(out, start);
    }

    /// Flushes the cache at end of trace.
    pub fn flush(&mut self) -> Vec<SwitchEvent> {
        let mut events = Vec::new();
        self.flush_into(&mut events);
        events
    }

    /// Flushes the cache into a caller-supplied frame.
    pub fn flush_into(&mut self, out: &mut Vec<SwitchEvent>) {
        let start = out.len();
        match &mut self.cache {
            CacheImpl::Mgpv(c) => c.flush_into(out),
            CacheImpl::Gpv(b) => b.flush_into(out),
        }
        self.account_tail(out, start);
    }

    /// Accounts the events appended at or after `start`.
    fn account_tail(&mut self, events: &[SwitchEvent], start: usize) {
        self.account(&events[start..]);
    }

    /// Serializes the pipeline's dynamic state (cache contents + counters)
    /// for snapshots. The program is not stored — the restoring side
    /// redeploys it and [`FeSwitch::load_state`] only refills state.
    pub fn save_state(&self, w: &mut StateWriter) {
        match &self.cache {
            CacheImpl::Mgpv(c) => {
                w.put_u8(0);
                c.save_state(w);
            }
            CacheImpl::Gpv(b) => {
                w.put_u8(1);
                b.save_state(w);
            }
        }
        self.stats.save_state(w);
    }

    /// Restores state written by [`FeSwitch::save_state`] into a switch
    /// deployed with the same program and cache configuration. Returns
    /// `None` on cache-mode or geometry mismatch.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Option<()> {
        let tag = r.get_u8()?;
        match (&mut self.cache, tag) {
            (CacheImpl::Mgpv(c), 0) => c.load_state(r)?,
            (CacheImpl::Gpv(b), 1) => b.load_state(r)?,
            _ => return None,
        }
        self.stats = SwitchStats::load_state(r)?;
        Some(())
    }

    fn account(&mut self, events: &[SwitchEvent]) {
        for e in events {
            match e {
                SwitchEvent::Mgpv(m) => {
                    self.stats.msgs_out += 1;
                    self.stats.bytes_out += m.wire_bytes(&self.program.metadata) as u64;
                }
                SwitchEvent::FgUpdate(u) => {
                    self.stats.fg_msgs_out += 1;
                    self.stats.fg_bytes_out += u.wire_bytes() as u64;
                }
            }
        }
    }
}

/// Evaluates a filter predicate against a packet (the match-action table).
pub fn eval_predicate(p: &Predicate, pkt: &PacketRecord) -> bool {
    match p {
        Predicate::TcpExists => pkt.is_tcp(),
        Predicate::UdpExists => pkt.is_udp(),
        Predicate::Cmp { field, op, value } => {
            let lhs: u64 = match field {
                Field::SrcIp => u64::from(pkt.src_ip),
                Field::DstIp => u64::from(pkt.dst_ip),
                Field::SrcPort => u64::from(pkt.src_port),
                Field::DstPort => u64::from(pkt.dst_port),
                Field::Proto => u64::from(pkt.proto.number()),
                Field::Size => u64::from(pkt.size),
                Field::Tstamp => pkt.ts_ns,
                Field::Direction => u64::from(pkt.direction == Direction::Ingress),
                Field::TcpFlags => u64::from(pkt.tcp_flags),
                Field::Named(_) => return false,
            };
            op.eval(lhs, *value)
        }
        Predicate::And(a, b) => eval_predicate(a, pkt) && eval_predicate(b, pkt),
        Predicate::Or(a, b) => eval_predicate(a, pkt) || eval_predicate(b, pkt),
        Predicate::Not(a) => !eval_predicate(a, pkt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_net::wire::build_frame;
    use superfe_policy::dsl::parse;
    use superfe_policy::{compile, CompiledPolicy};

    fn compiled(src: &str) -> CompiledPolicy {
        compile(&parse(src).unwrap()).unwrap()
    }

    fn fig4_switch() -> FeSwitch {
        let c = compiled(
            "pktstream\n.groupby(flow)\n.map(ipt, tstamp, f_ipt)\n\
             .reduce(ipt, [ft_hist{10000, 100}])\n.reduce(size, [ft_hist{100, 16}])\n\
             .collect(flow)",
        );
        FeSwitch::new(c.switch).unwrap()
    }

    #[test]
    fn processes_frames_through_parser() {
        let mut sw = fig4_switch();
        let p = PacketRecord::tcp(100, 200, 1, 1000, 2, 80);
        let frame = build_frame(&p);
        sw.process_frame(&frame, 100, Direction::Ingress).unwrap();
        assert_eq!(sw.stats().pkts_in, 1);
        assert_eq!(sw.stats().bytes_in, 200);
    }

    #[test]
    fn rejects_malformed_frames() {
        let mut sw = fig4_switch();
        assert!(sw.process_frame(&[0; 3], 0, Direction::Ingress).is_err());
    }

    #[test]
    fn filter_drops_non_matching() {
        let c = compiled(
            "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n\
             .reduce(size, [f_sum])\n.collect(flow)",
        );
        let mut sw = FeSwitch::new(c.switch).unwrap();
        sw.process(&PacketRecord::udp(0, 100, 1, 53, 2, 99));
        sw.process(&PacketRecord::tcp(1, 100, 1, 1000, 2, 80));
        assert_eq!(sw.stats().pkts_in, 2);
        assert_eq!(sw.stats().pkts_matched, 1);
    }

    #[test]
    fn aggregation_ratio_below_one_for_batched_traffic() {
        let mut sw = fig4_switch();
        // One busy flow: 1000 × 1500 B packets batch into few messages.
        for i in 0..1000u64 {
            sw.process(&PacketRecord::tcp(i * 1000, 1500, 1, 1000, 2, 80));
        }
        sw.flush();
        let s = sw.stats();
        assert!(
            s.byte_aggregation_ratio() < 0.2,
            "{}",
            s.byte_aggregation_ratio()
        );
        assert!(
            s.rate_aggregation_ratio() < 0.2,
            "{}",
            s.rate_aggregation_ratio()
        );
        // Conservation: all records eventually evicted.
        assert_eq!(sw.cache_stats().evicted_records, 1000);
    }

    #[test]
    fn gpv_mode_emits_more_bytes_than_mgpv() {
        let src = "pktstream\n.groupby(socket)\n.reduce(size, [f_mean])\n.collect(socket)\n\
                   .groupby(channel)\n.reduce(size, [f_mean])\n.collect(channel)\n\
                   .groupby(host)\n.reduce(size, [f_mean])\n.collect(host)";
        let run = |mode: CacheMode| {
            let c = compiled(src);
            let mut sw = FeSwitch::with_config(c.switch, MgpvConfig::default(), mode).unwrap();
            for i in 0..2000u64 {
                let p = PacketRecord::tcp(i * 100, 400, (i % 17 + 1) as u32, 1000, 2, 80);
                sw.process(&p);
            }
            sw.flush();
            (sw.stats().bytes_out, sw.cache_memory_bytes())
        };
        let (mgpv_bytes, mgpv_mem) = run(CacheMode::Mgpv);
        let (gpv_bytes, gpv_mem) = run(CacheMode::Gpv);
        assert!(
            gpv_bytes > 2 * mgpv_bytes,
            "gpv {gpv_bytes} vs mgpv {mgpv_bytes}"
        );
        assert!(gpv_mem > 2 * mgpv_mem, "gpv {gpv_mem} vs mgpv {mgpv_mem}");
    }

    #[test]
    fn single_granularity_disables_fg_table() {
        let mut sw = fig4_switch();
        for i in 0..100u64 {
            sw.process(&PacketRecord::tcp(i, 100, 1, 1000, 2, 80));
        }
        assert_eq!(sw.stats().fg_msgs_out, 0);
    }

    #[test]
    fn multi_granularity_sends_fg_updates() {
        let c = compiled(
            "pktstream\n.groupby(socket)\n.reduce(size, [f_mean])\n.collect(socket)\n\
             .groupby(host)\n.reduce(size, [f_mean])\n.collect(host)",
        );
        let mut sw = FeSwitch::new(c.switch).unwrap();
        for i in 0..10u64 {
            sw.process(&PacketRecord::tcp(i, 100, 1, (1000 + i) as u16, 2, 80));
        }
        assert!(sw.stats().fg_msgs_out >= 10, "{}", sw.stats().fg_msgs_out);
    }

    #[test]
    fn predicate_evaluation_covers_fields() {
        use superfe_policy::ast::CmpOp;
        let pkt = PacketRecord::tcp(55, 700, 0xC0A80001, 1234, 0x0A000001, 443);
        let cases = vec![
            (Predicate::TcpExists, true),
            (Predicate::UdpExists, false),
            (
                Predicate::Cmp {
                    field: Field::DstPort,
                    op: CmpOp::Eq,
                    value: 443,
                },
                true,
            ),
            (
                Predicate::Cmp {
                    field: Field::Size,
                    op: CmpOp::Gt,
                    value: 1000,
                },
                false,
            ),
            (Predicate::Not(Box::new(Predicate::TcpExists)), false),
            (
                Predicate::And(
                    Box::new(Predicate::TcpExists),
                    Box::new(Predicate::Cmp {
                        field: Field::SrcPort,
                        op: CmpOp::Eq,
                        value: 1234,
                    }),
                ),
                true,
            ),
            (
                Predicate::Or(
                    Box::new(Predicate::UdpExists),
                    Box::new(Predicate::Cmp {
                        field: Field::Proto,
                        op: CmpOp::Eq,
                        value: 6,
                    }),
                ),
                true,
            ),
        ];
        for (pred, expected) in cases {
            assert_eq!(eval_predicate(&pred, &pkt), expected, "{pred:?}");
        }
    }
}
