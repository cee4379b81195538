//! The streaming multi-core extraction pipeline.
//!
//! [`StreamingPipeline`] is the staged form of [`crate::SuperFe`]: the
//! switch simulator acts as a producer whose emitted events flow straight
//! into a [`superfe_nic::ShardPool`] — CG-key-sharded worker threads fed
//! over bounded rings — so feature computation overlaps packet processing
//! and the full event stream is never materialized. It is the one-unit
//! case of the executor the multi-tenant control plane drives: a pool with
//! a single unit attached at stream position zero. Results are identical
//! to the single-threaded pipeline up to group ordering (see DESIGN.md
//! "Threading model").

use superfe_net::wire::ParseError;
use superfe_net::{Direction, PacketRecord};
use superfe_nic::{NicError, ShardPool};
use superfe_policy::dsl;
use superfe_policy::{CompiledPolicy, Policy, PolicyError};
use superfe_switch::tenant::{TaggedEvent, TenantId};
use superfe_switch::{FeSwitch, SwitchEvent};

use crate::pipeline::{Extraction, SuperFeConfig};

/// The pipeline's only unit (and its only switch partition).
const UNIT: TenantId = TenantId(0);

/// A deployed streaming SuperFE instance: one switch producer feeding
/// `workers` NIC shards.
pub struct StreamingPipeline {
    compiled: CompiledPolicy,
    switch: FeSwitch,
    nic: ShardPool,
    /// Reusable event frame between switch and executor.
    frame: Vec<SwitchEvent>,
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
        fe.nic
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
        sinks: Vec<Box<dyn superfe_nic::VectorSink>>,
    ) -> Result<Self, PolicyError> {
        Self::build(policy, cfg, workers, Some(sinks))
    }

    fn build(
        policy: &Policy,
        cfg: SuperFeConfig,
        workers: usize,
        sinks: Option<Vec<Box<dyn superfe_nic::VectorSink>>>,
    ) -> Result<Self, PolicyError> {
        let compiled = crate::deploy::gate(policy, &cfg)?;
        let switch = FeSwitch::with_config(compiled.switch.clone(), cfg.cache, cfg.mode)
            .ok_or_else(|| {
                PolicyError::BadParameters("degenerate switch cache configuration".into())
            })?;
        let mut nic = ShardPool::new(workers);
        nic.attach(UNIT, &compiled, cfg.cache.fg_table_size, sinks)
            .map_err(|e| PolicyError::BadParameters(e.to_string()))?;
        Ok(StreamingPipeline {
            compiled,
            switch,
            nic,
            frame: Vec::new(),
        })
    }

    /// The compiled policy (switch and NIC halves).
    pub fn compiled(&self) -> &CompiledPolicy {
        &self.compiled
    }

    /// Number of NIC worker shards.
    pub fn workers(&self) -> usize {
        self.nic.workers()
    }

    /// Feeds one parsed packet through the switch and into the worker
    /// shards. Blocks when a shard is saturated (backpressure).
    pub fn push(&mut self, p: &PacketRecord) -> Result<(), NicError> {
        self.frame.clear();
        self.switch.process_into(p, &mut self.frame);
        self.forward()
    }

    /// Tags the switch's pending events for the unit and routes them.
    fn forward(&mut self) -> Result<(), NicError> {
        let tagged = self.frame.drain(..).map(|event| TaggedEvent {
            tenant: UNIT,
            event,
        });
        self.nic.push_all(tagged)
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
    pub fn finish(mut self) -> Result<Extraction, NicError> {
        self.frame.clear();
        self.switch.flush_into(&mut self.frame);
        self.forward()?;
        let cache_stats = self.switch.cache_stats();
        let switch_stats = *self.switch.stats();
        let (_, out) = self
            .nic
            .finish()?
            .pop()
            .expect("the pipeline's one unit is never detached");
        Ok(Extraction {
            group_vectors: out.group_vectors,
            packet_vectors: out.packet_vectors,
            switch_stats,
            cache_stats,
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
        let mut base = SuperFe::from_dsl(POLICY).unwrap();
        for p in packets(4000) {
            base.push(&p);
        }
        let expect = base.finish();

        for workers in [1, 2, 4] {
            let mut fe = StreamingPipeline::from_dsl(POLICY, workers).unwrap();
            for p in packets(4000) {
                fe.push(&p).unwrap();
            }
            let got = fe.finish().unwrap();
            assert_eq!(
                sorted(expect.group_vectors.clone()),
                sorted(got.group_vectors),
                "workers={workers}"
            );
            assert_eq!(got.nic_stats.records, expect.nic_stats.records);
            assert_eq!(got.switch_stats.pkts_in, 4000);
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
