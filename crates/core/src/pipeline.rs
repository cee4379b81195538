//! The end-to-end SuperFE pipeline: policy → FE-Switch → FE-NIC → features.

use superfe_net::wire::ParseError;
use superfe_net::{Direction, PacketRecord};
use superfe_nic::{FeNic, FeatureVector, NicStats};
use superfe_policy::dsl;
use superfe_policy::{CompiledPolicy, Policy, PolicyError};
use superfe_switch::{CacheMode, FeSwitch, MgpvConfig, MgpvStats, SwitchStats};

/// Deployment configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuperFeConfig {
    /// Switch cache configuration (§7 defaults).
    pub cache: MgpvConfig,
    /// Cache architecture (MGPV, or the GPV baseline).
    pub mode: CacheMode,
}

impl Default for SuperFeConfig {
    fn default() -> Self {
        SuperFeConfig {
            cache: MgpvConfig::default(),
            mode: CacheMode::Mgpv,
        }
    }
}

/// Everything a finished extraction produced.
#[derive(Clone, Debug)]
pub struct Extraction {
    /// Per-group feature vectors (for `collect(g)` policies).
    pub group_vectors: Vec<FeatureVector>,
    /// Per-packet feature vectors (for `collect(pkt)` policies).
    pub packet_vectors: Vec<FeatureVector>,
    /// Switch link counters.
    pub switch_stats: SwitchStats,
    /// Switch cache counters.
    pub cache_stats: MgpvStats,
    /// NIC engine counters.
    pub nic_stats: NicStats,
    /// Live groups per granularity level at the end of the run.
    pub groups_per_level: Vec<(superfe_net::Granularity, usize)>,
    /// Alerts raised by the in-shard inference stage, in shard order. Empty
    /// unless the pipeline was built with
    /// [`crate::StreamingPipeline::with_inference`].
    pub inline_alerts: Vec<superfe_nic::InlineAlert>,
    /// Counters of the in-shard inference stage; `None` when no detector
    /// was attached.
    pub inline_stats: Option<superfe_nic::InlineStats>,
}

/// A deployed SuperFE instance (one switch + NIC pair).
pub struct SuperFe {
    compiled: CompiledPolicy,
    switch: FeSwitch,
    nic: FeNic,
    /// Reusable event frame: one allocation for the whole run instead of
    /// one `Vec` per packet.
    frame: Vec<superfe_switch::SwitchEvent>,
}

impl SuperFe {
    /// Deploys a policy with default configuration.
    pub fn new(policy: &Policy) -> Result<Self, PolicyError> {
        Self::with_config(policy, SuperFeConfig::default())
    }

    /// Parses a textual policy and deploys it.
    pub fn from_dsl(src: &str) -> Result<Self, PolicyError> {
        Self::new(&dsl::parse(src)?)
    }

    /// Deploys with explicit configuration.
    ///
    /// Deployment is gated on static analysis: when the policy and
    /// configuration produce any error-severity finding (the hardware cannot
    /// fit the program — `superfe check` shows the details), this returns
    /// [`PolicyError::Infeasible`] with the rendered report instead of
    /// deploying a program the target could not actually run.
    pub fn with_config(policy: &Policy, cfg: SuperFeConfig) -> Result<Self, PolicyError> {
        let compiled = crate::deploy::gate(policy, &cfg)?;
        let switch = FeSwitch::with_config(compiled.switch.clone(), cfg.cache, cfg.mode)
            .ok_or_else(|| {
                PolicyError::BadParameters("degenerate switch cache configuration".into())
            })?;
        let nic = FeNic::new(&compiled, cfg.cache.fg_table_size).ok_or_else(|| {
            PolicyError::BadParameters("degenerate NIC table configuration".into())
        })?;
        Ok(SuperFe {
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

    /// Feeds one parsed packet through switch and NIC.
    pub fn push(&mut self, p: &PacketRecord) {
        self.frame.clear();
        self.switch.process_into(p, &mut self.frame);
        for e in &self.frame {
            self.nic.handle(e);
        }
    }

    /// Feeds a raw Ethernet frame (exercising the switch parser).
    pub fn push_frame(
        &mut self,
        frame: &[u8],
        ts_ns: u64,
        direction: Direction,
    ) -> Result<(), ParseError> {
        let rec = superfe_net::wire::parse_frame(frame, ts_ns, direction)?;
        self.push(&rec);
        Ok(())
    }

    /// Drains per-packet feature vectors produced so far without ending the
    /// extraction (the streaming consumption path).
    pub fn drain_packet_vectors(&mut self) -> Vec<FeatureVector> {
        self.nic.take_packet_vectors()
    }

    /// Flushes the switch cache and collects all outputs.
    pub fn finish(mut self) -> Extraction {
        self.frame.clear();
        self.switch.flush_into(&mut self.frame);
        for e in &self.frame {
            self.nic.handle(e);
        }
        let group_vectors = self.nic.finish();
        let packet_vectors = self.nic.take_packet_vectors();
        Extraction {
            group_vectors,
            packet_vectors,
            switch_stats: *self.switch.stats(),
            cache_stats: self.switch.cache_stats(),
            nic_stats: *self.nic.stats(),
            groups_per_level: self.nic.groups_per_level(),
            inline_alerts: Vec::new(),
            inline_stats: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_net::wire::build_frame;
    use superfe_net::GroupKey;

    const FIG4: &str = "
pktstream
.groupby(flow)
.map(ipt, tstamp, f_ipt)
.reduce(ipt, [ft_hist{10000, 100}])
.reduce(size, [ft_hist{100, 16}])
.collect(flow)";

    #[test]
    fn from_dsl_end_to_end() {
        let mut fe = SuperFe::from_dsl(FIG4).unwrap();
        for i in 0..50u64 {
            fe.push(&PacketRecord::tcp(i * 1_000_000, 750, 9, 999, 8, 80));
        }
        let out = fe.finish();
        assert_eq!(out.group_vectors.len(), 1);
        assert_eq!(out.group_vectors[0].values.len(), 116);
        // Size histogram: 50 packets of 750 B land in bin 7 of the 16-bin
        // width-100 histogram (offset 100 after the IPT histogram).
        assert_eq!(out.group_vectors[0].values[100 + 7], 50.0);
        assert_eq!(out.nic_stats.records, 50);
        assert_eq!(out.switch_stats.pkts_in, 50);
    }

    #[test]
    fn push_frame_exercises_parser() {
        let mut fe = SuperFe::from_dsl(FIG4).unwrap();
        let p = PacketRecord::tcp(5, 500, 1, 1, 2, 2);
        let frame = build_frame(&p);
        fe.push_frame(&frame, 5, Direction::Ingress).unwrap();
        assert!(fe.push_frame(&[0; 4], 6, Direction::Ingress).is_err());
        let out = fe.finish();
        assert_eq!(out.nic_stats.records, 1);
    }

    #[test]
    fn invalid_policy_rejected() {
        assert!(SuperFe::from_dsl("pktstream\n.collect(flow)").is_err());
    }

    #[test]
    fn infeasible_configuration_refused() {
        // A cache far beyond the Tofino SRAM budget must not deploy; the
        // error carries the rendered analysis report.
        let policy = superfe_policy::dsl::parse(FIG4).unwrap();
        let cfg = SuperFeConfig {
            cache: MgpvConfig {
                short_count: 4_000_000,
                ..MgpvConfig::default()
            },
            ..SuperFeConfig::default()
        };
        match SuperFe::with_config(&policy, cfg).map(|_| ()) {
            Err(PolicyError::Infeasible(report)) => {
                assert!(report.contains("SF0303"), "{report}");
                assert!(report.contains("% utilization"), "{report}");
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn optimized_deployment_matches_unoptimized() {
        // A tautological filter plus a fusable f_one/f_direction pair: the
        // optimizer rewrites both, and the extraction must not change.
        let src = "pktstream\n.filter(size <= 65535)\n.groupby(flow)\n\
                   .map(one, _, f_one)\n.map(d, one, f_direction)\n\
                   .reduce(d, [f_sum])\n.reduce(one, [f_sum])\n.collect(flow)";
        let policy = superfe_policy::dsl::parse(src).unwrap();
        let o = superfe_policy::ir::opt::optimize(
            &policy,
            &crate::analyze::AnalyzeConfig::default().value_config(),
        );
        let run = |policy: &Policy| {
            let mut fe = SuperFe::new(policy).unwrap();
            for i in 0..200u64 {
                fe.push(&PacketRecord::tcp(
                    i * 1000,
                    100 + i as u16,
                    (i % 5) as u32,
                    1,
                    2,
                    2,
                ));
            }
            let mut out = fe.finish().group_vectors;
            out.sort_by_key(|v| format!("{:?}", v.key));
            out.into_iter()
                .map(|v| (format!("{:?}", v.key), v.values))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&policy), run(&o.policy));
        // And the optimizer really did rewrite something.
        assert!(o.changed(), "expected rewrites on this policy");
        assert!(o.policy.ops.len() < policy.ops.len());
    }

    #[test]
    fn multi_flow_extraction() {
        let mut fe =
            SuperFe::from_dsl("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)")
                .unwrap();
        for i in 0..300u64 {
            fe.push(&PacketRecord::tcp(i, 100, (i % 3 + 1) as u32, 1000, 99, 80));
        }
        let out = fe.finish();
        assert_eq!(out.group_vectors.len(), 3);
        for v in &out.group_vectors {
            assert!(matches!(v.key, GroupKey::Host(_)));
            assert_eq!(v.values, vec![10_000.0]);
        }
    }

    #[test]
    fn drain_packet_vectors_streams() {
        let mut fe = SuperFe::from_dsl(
            "pktstream\n.groupby(host)\n.reduce(size, [f_damped{0.1}])\n.collect(pkt)",
        )
        .unwrap();
        fe.push(&PacketRecord::tcp(0, 100, 1, 1, 2, 2));
        // Records may still sit in the switch cache; force some flow churn.
        for i in 0..2000u64 {
            fe.push(&PacketRecord::tcp(
                i * 1000,
                100,
                (i % 997) as u32 + 10,
                1,
                2,
                2,
            ));
        }
        let drained = fe.drain_packet_vectors();
        let out = fe.finish();
        assert!(
            drained.len() + out.packet_vectors.len() >= 2001,
            "{} + {}",
            drained.len(),
            out.packet_vectors.len()
        );
    }
}
