//! The one threaded data path, and the streaming pipeline that drives it.
//!
//! [`DataPath`] is a [`SharedSwitch`] — one partition per deployed switch
//! program — feeding a [`ShardPool`]: CG-key-sharded worker threads fed
//! over bounded rings. Its methods are the one place switch output becomes
//! shard frames: per packet, at a detach, and at end of stream. A unit that
//! subscribes to a live partition (SF08xx prefix sharing) changes nothing
//! in that stream: the partition's record is re-laid in place, with no
//! flush and no rebuild, and every vector leaves the pool through its
//! member's own outlet.
//!
//! [`StreamingPipeline`] is the staged form of [`crate::SuperFe`]: the data
//! path with one partition and one unit, [`TenantId`]`(0)`, attached at
//! stream position zero, so feature computation overlaps packet processing
//! and the full event stream is never materialized. The multi-tenant
//! control plane (`superfe-ctrl`) drives the same type with N partitions.
//! Results are identical to the single-threaded pipeline up to group
//! ordering (see DESIGN.md "Threading model").

use superfe_net::wire::ParseError;
use superfe_net::{Direction, PacketRecord};
use superfe_nic::{NicError, ShardPool, StreamOutput, VectorSink};
use superfe_policy::dsl;
use superfe_policy::{CompiledPolicy, Policy, PolicyError, SwitchProgram};
use superfe_switch::record::TS_HORIZON_NS;
use superfe_switch::tenant::{SharedSwitch, TaggedEvent, TenantId};

use crate::pipeline::{Extraction, SuperFeConfig};

/// Why [`DataPath::attach`] refused a partition.
#[derive(Debug)]
pub enum AttachError {
    /// The switch cannot build the partition: a degenerate cache
    /// configuration, or an id already in use.
    Switch,
    /// The pool refused the unit; the partition was rolled back.
    Nic(NicError),
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::Switch => write!(f, "degenerate switch cache configuration"),
            AttachError::Nic(e) => write!(f, "{e}"),
        }
    }
}

/// One shared switch feeding one NIC shard pool.
///
/// Partitions and the units they feed are keyed by [`TenantId`]: a
/// partition tags its events with its id, and the pool routes them to every
/// unit subscribed to it. Operations that move no events — joining a fused
/// member, detectors, state dumps, pressure, budgets — are the pool's own,
/// reached through [`DataPath::nic_mut`]. Which unit may share which
/// partition, and when, is the caller's decision: the data path counts
/// packets ([`DataPath::pushed`]) and does not second-guess it.
pub struct DataPath {
    switch: SharedSwitch,
    nic: ShardPool,
    /// Reused frame between switch and pool; empty between calls.
    frame: Vec<TaggedEvent>,
    /// Packets pushed so far.
    pushed: u64,
}

impl DataPath {
    /// An empty data path over `workers` NIC shards.
    pub fn new(workers: usize) -> Self {
        DataPath {
            switch: SharedSwitch::new(),
            nic: ShardPool::new(workers),
            frame: Vec::new(),
            pushed: 0,
        }
    }

    /// The switch, whose partitions keep a solo switch's counters.
    pub fn switch(&self) -> &SharedSwitch {
        &self.switch
    }

    /// The switch, for restoring partition state.
    pub fn switch_mut(&mut self) -> &mut SharedSwitch {
        &mut self.switch
    }

    /// The shard pool.
    pub fn nic(&self) -> &ShardPool {
        &self.nic
    }

    /// The shard pool, for the operations that move no events.
    pub fn nic_mut(&mut self) -> &mut ShardPool {
        &mut self.nic
    }

    /// Packets pushed so far: the stream position.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Moves the stream position (replaying a saved plane's attaches, and
    /// resuming it).
    pub fn set_pushed(&mut self, pushed: u64) {
        self.pushed = pushed;
    }

    /// Attaches partition `id`, running `compiled.switch` under `cfg`'s
    /// cache quota, and unit `id` on it (see [`ShardPool::attach`] for
    /// `sinks`). When the pool refuses the unit the partition is detached
    /// again, so nothing is left half attached.
    pub fn attach(
        &mut self,
        id: TenantId,
        compiled: &CompiledPolicy,
        cfg: &SuperFeConfig,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<(), AttachError> {
        let SuperFeConfig { cache, mode, .. } = *cfg;
        if !self.switch.attach(id, compiled.switch.clone(), cache, mode) {
            return Err(AttachError::Switch);
        }
        let fg_table_size = cache.fg_table_size;
        self.nic
            .attach(id, id, compiled, fg_table_size, sinks)
            .map_err(|e| {
                self.switch.detach_into(id, &mut self.frame);
                self.frame.clear();
                AttachError::Nic(e)
            })
    }

    /// Attaches unit `unit` to the event stream of partition `partition`,
    /// whose record is re-laid in place as the metadata union of `programs`
    /// (every subscriber's switch program, the new unit's included): no
    /// flush, no rebuild, so the records the partition batched stay with
    /// it. An unknown partition is refused before the pool is touched.
    /// Whether the new unit may share the partition's history is the
    /// caller's decision (the control plane's position gate).
    pub fn attach_to_partition(
        &mut self,
        partition: TenantId,
        unit: TenantId,
        compiled: &CompiledPolicy,
        programs: &[&SwitchProgram],
        cfg: &SuperFeConfig,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<(), NicError> {
        if self.switch.partition(partition).is_none() {
            return Err(NicError::UnknownPartition { partition });
        }
        let fg_table_size = cfg.cache.fg_table_size;
        self.nic
            .attach(unit, partition, compiled, fg_table_size, sinks)?;
        self.switch.relayout(partition, programs);
        Ok(())
    }

    /// Offers one packet to every partition and routes what they emit.
    /// Blocks when a shard is saturated (backpressure). A packet at or past
    /// [`TS_HORIZON_NS`] is refused with [`NicError::PastHorizon`] before
    /// any partition sees it and is not counted.
    pub fn push(&mut self, p: &PacketRecord) -> Result<(), NicError> {
        if p.ts_ns >= TS_HORIZON_NS {
            return Err(NicError::PastHorizon { ts_ns: p.ts_ns });
        }
        self.pushed += 1;
        self.switch.process_into(p, &mut self.frame);
        self.nic.push_all(self.frame.drain(..))
    }

    /// Detaches `member`, fed from `partition`, and returns its complete
    /// output. The partition ends the member's window with its draining
    /// flush when it dies with the member, and with a snapshot flush
    /// (live state untouched) when `partition_survives` for other members
    /// or units (see [`ShardPool::detach`]).
    pub fn detach(
        &mut self,
        member: TenantId,
        partition: TenantId,
        partition_survives: bool,
    ) -> Result<StreamOutput, NicError> {
        if partition_survives {
            self.switch.snapshot_into(partition, &mut self.frame);
        } else {
            self.switch.detach_into(partition, &mut self.frame);
        }
        self.nic.detach(member, self.frame.drain(..))
    }

    /// Flushes every partition, drains the shards, and returns each
    /// remaining member's output in attach order, with the flushed switch,
    /// whose partitions hold their final counters.
    pub fn finish(mut self) -> Result<(Vec<(TenantId, StreamOutput)>, SharedSwitch), NicError> {
        self.switch.flush_into(&mut self.frame);
        self.nic.push_all(self.frame.drain(..))?;
        Ok((self.nic.finish()?, self.switch))
    }
}

/// The pipeline's only partition and unit.
const UNIT: TenantId = TenantId(0);

/// A deployed streaming SuperFE instance: one switch partition feeding
/// `workers` NIC shards.
pub struct StreamingPipeline {
    compiled: CompiledPolicy,
    path: DataPath,
}

impl StreamingPipeline {
    /// Deploys a policy with default configuration and `workers` NIC
    /// shards.
    pub fn new(policy: &Policy, workers: usize) -> Result<Self, PolicyError> {
        Self::with_config(policy, SuperFeConfig::default(), workers)
    }

    /// Parses a textual policy and deploys it.
    pub fn from_dsl(src: &str, workers: usize) -> Result<Self, PolicyError> {
        Self::new(&dsl::parse(src)?, workers)
    }

    /// Deploys with explicit configuration, gated on the same static
    /// analysis as [`crate::SuperFe::with_config`].
    pub fn with_config(
        policy: &Policy,
        cfg: SuperFeConfig,
        workers: usize,
    ) -> Result<Self, PolicyError> {
        Self::build(policy, cfg, workers, None)
    }

    /// Deploys with a detector: every finalized feature vector is scored
    /// *inside the NIC worker shard that computed it* (see
    /// [`superfe_nic::ShardPool::score_with`]), and alerts come back in
    /// [`Extraction::inline_alerts`]. Any [`superfe_ml::Scorer`] serves — a
    /// float [`superfe_ml::FrozenDetector`], or its fixed-point lowering,
    /// which should first be certified against the policy by the SF09xx
    /// analysis pass.
    pub fn with_inference(
        policy: &Policy,
        cfg: SuperFeConfig,
        workers: usize,
        model: superfe_ml::SharedScorer,
    ) -> Result<Self, PolicyError> {
        let mut fe = Self::build(policy, cfg, workers, None)?;
        fe.path
            .nic_mut()
            .score_with(UNIT, model)
            .map_err(|e| PolicyError::BadParameters(e.to_string()))?;
        Ok(fe)
    }

    /// Deploys with one [`superfe_nic::VectorSink`] attached per NIC shard:
    /// egressing feature vectors flow into the sinks incrementally instead
    /// of accumulating in [`Extraction::packet_vectors`] (see
    /// [`superfe_nic::ShardPool::attach`]).
    pub fn with_sinks(
        policy: &Policy,
        cfg: SuperFeConfig,
        workers: usize,
        sinks: Vec<Box<dyn VectorSink>>,
    ) -> Result<Self, PolicyError> {
        Self::build(policy, cfg, workers, Some(sinks))
    }

    fn build(
        policy: &Policy,
        cfg: SuperFeConfig,
        workers: usize,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<Self, PolicyError> {
        let compiled = crate::deploy::gate(policy, &cfg)?;
        let mut path = DataPath::new(workers);
        path.attach(UNIT, &compiled, &cfg, sinks)
            .map_err(|e| PolicyError::BadParameters(e.to_string()))?;
        Ok(StreamingPipeline { compiled, path })
    }

    /// The compiled policy (switch and NIC halves).
    pub fn compiled(&self) -> &CompiledPolicy {
        &self.compiled
    }

    /// Number of NIC worker shards.
    pub fn workers(&self) -> usize {
        self.path.nic().workers()
    }

    /// Feeds one parsed packet through the switch and into the worker
    /// shards. Blocks when a shard is saturated (backpressure).
    pub fn push(&mut self, p: &PacketRecord) -> Result<(), NicError> {
        self.path.push(p)
    }

    /// Feeds a raw Ethernet frame (exercising the switch parser).
    ///
    /// Parse failures surface as `Ok(Err(ParseError))`-style layered
    /// results: the outer error is pipeline loss, the inner is a malformed
    /// frame (counted, but not fatal to the stream).
    pub fn push_frame(
        &mut self,
        frame: &[u8],
        ts_ns: u64,
        direction: Direction,
    ) -> Result<Result<(), ParseError>, NicError> {
        match superfe_net::wire::parse_frame(frame, ts_ns, direction) {
            Ok(rec) => self.push(&rec).map(Ok),
            Err(e) => Ok(Err(e)),
        }
    }

    /// Flushes the switch cache, drains the shards, and collects all
    /// outputs. Group vectors are merged in shard order (deterministic for
    /// a given input and worker count).
    pub fn finish(self) -> Result<Extraction, NicError> {
        let (mut outs, switch) = self.path.finish()?;
        let (_, out) = outs.pop().expect("the one unit is never detached");
        let partition = switch.partition(UNIT).expect("the one partition");
        Ok(Extraction {
            group_vectors: out.group_vectors,
            packet_vectors: out.packet_vectors,
            switch_stats: *partition.stats(),
            cache_stats: partition.cache_stats(),
            nic_stats: out.stats,
            groups_per_level: out.groups_per_level,
            inline_alerts: out.inline_alerts,
            inline_stats: out.inline_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuperFe;
    use superfe_net::wire::build_frame;
    use superfe_switch::{FeSwitch, SwitchEvent};

    const POLICY: &str =
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum, f_mean])\n.collect(host)";

    fn packets(n: u64) -> impl Iterator<Item = PacketRecord> {
        (0..n).map(|i| PacketRecord::tcp(i * 1000, 200, (i % 17 + 1) as u32, 1000, 9, 443))
    }

    fn sorted(mut v: Vec<superfe_nic::FeatureVector>) -> Vec<superfe_nic::FeatureVector> {
        v.sort_by(|a, b| format!("{:?}", a.key).cmp(&format!("{:?}", b.key)));
        v
    }

    #[test]
    fn streaming_matches_superfe() {
        // A filtered policy over mixed traffic: the partition is offered
        // every packet and counts it, as the lock-step switch does.
        const TCP_HOSTS: &str = "pktstream\n.filter(tcp.exist)\n.groupby(host)\n\
                                 .reduce(size, [f_sum, f_mean])\n.collect(host)";
        let mixed = || {
            packets(4000).enumerate().map(|(i, p)| match i % 3 {
                0 => PacketRecord::udp(p.ts_ns, 90, p.src_ip, 53, 9, 53),
                _ => p,
            })
        };
        let mut base = SuperFe::from_dsl(TCP_HOSTS).unwrap();
        for p in mixed() {
            base.push(&p);
        }
        let expect = base.finish();
        let offered = expect.switch_stats;
        assert_eq!((offered.pkts_in, offered.pkts_matched), (4000, 2666));

        for workers in [1, 2, 4] {
            let mut fe = StreamingPipeline::from_dsl(TCP_HOSTS, workers).unwrap();
            for p in mixed() {
                fe.push(&p).unwrap();
            }
            let got = fe.finish().unwrap();
            assert_eq!(
                sorted(expect.group_vectors.clone()),
                sorted(got.group_vectors),
                "workers={workers}"
            );
            assert_eq!(got.nic_stats.records, expect.nic_stats.records);
            assert_eq!(got.switch_stats, expect.switch_stats, "workers={workers}");
            assert_eq!(got.cache_stats, expect.cache_stats, "workers={workers}");
            assert_eq!(got.groups_per_level, expect.groups_per_level);
        }
    }

    #[test]
    fn vectors_leave_a_slow_stream_before_finish() {
        use std::sync::{Arc, Mutex};
        use std::time::{Duration, Instant};
        use superfe_nic::{EgressVector, VectorSink};

        struct StampSink(Arc<Mutex<Vec<Instant>>>);
        impl VectorSink for StampSink {
            fn emit(&mut self, _: EgressVector) {
                self.0.lock().unwrap().push(Instant::now());
            }
        }

        let policy =
            dsl::parse("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(pkt)").unwrap();
        let cfg = SuperFeConfig::default();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sinks: Vec<Box<dyn VectorSink>> = vec![Box::new(StampSink(seen.clone()))];
        let mut fe = StreamingPipeline::with_sinks(&policy, cfg, 1, sinks).unwrap();
        // A second switch fed the same packets says how many vectors the
        // events emitted so far will produce: one per batched record.
        let mut mirror =
            FeSwitch::with_config(fe.compiled().switch.clone(), cfg.cache, cfg.mode).unwrap();
        let mut emitted = Vec::new();
        // Two hosts, so their MGPV buffers fill and evict every few dozen
        // packets: a handful of events, far less than a frame; then
        // silence for several ring dwells (1 ms each); then a trickle, which
        // must shake the earlier vectors loose long before a frame fills.
        let mut trace = packets(u64::MAX).enumerate().map(|(i, p)| PacketRecord {
            src_ip: (i % 2 + 1) as u32,
            ..p
        });
        for p in trace.by_ref().take(300) {
            mirror.process_into(&p, &mut emitted);
            fe.push(&p).unwrap();
        }
        let early: usize = emitted
            .iter()
            .map(|e| match e {
                SwitchEvent::Mgpv(m) => m.records.len(),
                SwitchEvent::FgUpdate(_) => 0,
            })
            .sum();
        assert!(early > 0 && emitted.len() < superfe_nic::stream::FRAME_SIZE / 8);
        std::thread::sleep(Duration::from_millis(5));
        let mut pushed = 300;
        let deadline = Instant::now() + Duration::from_secs(2);
        while seen.lock().unwrap().len() < early {
            assert!(Instant::now() < deadline, "vectors wait for finish");
            fe.push(&trace.next().unwrap()).unwrap();
            pushed += 1;
            std::thread::sleep(Duration::from_micros(200));
        }
        let finishing = Instant::now();
        fe.finish().unwrap();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), pushed);
        assert!(seen[..early].iter().all(|at| *at < finishing));
    }

    #[test]
    fn a_partition_re_laid_mid_stream_keeps_the_records_it_batched() {
        // Unit 1 subscribes to unit 0's partition after 1,000 packets, with
        // a tail that reads another metadata field: the partition's record
        // is re-laid, and unit 0 still gets every record it batched.
        let cfg = SuperFeConfig::default();
        let gate = |src: &str| crate::deploy::gate(&dsl::parse(src).unwrap(), &cfg).unwrap();
        let a = gate(POLICY);
        let b = gate("pktstream\n.groupby(host)\n.map(ipt, tstamp, f_ipt)\n.reduce(ipt, [f_mean])\n.collect(host)");
        assert_ne!(a.switch.metadata, b.switch.metadata);
        let pkts: Vec<PacketRecord> = packets(2000).collect();
        let mut path = DataPath::new(2);
        path.attach(TenantId(0), &a, &cfg, None).unwrap();
        for p in &pkts[..1000] {
            path.push(p).unwrap();
        }
        let programs = [&a.switch, &b.switch];
        path.attach_to_partition(TenantId(0), TenantId(1), &b, &programs, &cfg, None)
            .unwrap();
        for p in &pkts[1000..] {
            path.push(p).unwrap();
        }
        let (outs, _) = path.finish().unwrap();
        let mut alone = StreamingPipeline::from_dsl(POLICY, 2).unwrap();
        for p in &pkts {
            alone.push(p).unwrap();
        }
        let alone = alone.finish().unwrap();
        assert_eq!(outs[0].0, TenantId(0));
        assert_eq!(outs[0].1.stats.records, 2000);
        assert_eq!(outs[0].1.group_vectors, alone.group_vectors);
    }

    #[test]
    fn an_unknown_partition_is_refused_before_the_pool_is_touched() {
        let cfg = SuperFeConfig::default();
        let c = crate::deploy::gate(&dsl::parse(POLICY).unwrap(), &cfg).unwrap();
        let mut path = DataPath::new(1);
        let unknown =
            path.attach_to_partition(TenantId(9), TenantId(1), &c, &[&c.switch], &cfg, None);
        assert!(matches!(unknown, Err(NicError::UnknownPartition { .. })));
        // The pool never saw unit 1, so it attaches as a partition of its own.
        path.attach(TenantId(1), &c, &cfg, None).unwrap();
        path.finish().unwrap();
    }

    #[test]
    fn push_frame_layers_parse_errors() {
        let mut fe = StreamingPipeline::from_dsl(POLICY, 2).unwrap();
        let p = PacketRecord::tcp(5, 500, 1, 1, 2, 2);
        let frame = build_frame(&p);
        fe.push_frame(&frame, 5, Direction::Ingress)
            .unwrap()
            .unwrap();
        // A malformed frame is an inner error, not a dead pipeline.
        assert!(fe
            .push_frame(&[0; 4], 6, Direction::Ingress)
            .unwrap()
            .is_err());
        let out = fe.finish().unwrap();
        assert_eq!(out.nic_stats.records, 1);
    }

    #[test]
    fn infeasible_configuration_refused() {
        let policy = dsl::parse(POLICY).unwrap();
        let cfg = SuperFeConfig {
            cache: superfe_switch::MgpvConfig {
                short_count: 4_000_000,
                ..superfe_switch::MgpvConfig::default()
            },
            ..SuperFeConfig::default()
        };
        assert!(matches!(
            StreamingPipeline::with_config(&policy, cfg, 2).map(|_| ()),
            Err(PolicyError::Infeasible(_))
        ));
    }
}
