//! The single-server software baseline (the paper's comparison point).
//!
//! Mainstream feature extractors mirror traffic to servers and evaluate the
//! extraction logic packet-at-a-time in software. This module implements the
//! same policy semantics as the hardware pipeline with *full-precision*
//! timestamps and no batching — it is both the Fig. 9 throughput baseline
//! and the fidelity reference for Fig. 10 (its outputs are the "standard
//! feature definitions" when driven with exact float arithmetic).
//!
//! To model the real capture path honestly, [`SoftwareExtractor::push_frame`]
//! accepts raw frames and pays the parsing cost per packet, like a
//! pcap-based extractor does.

use std::collections::HashMap;

use superfe_net::wire::ParseError;
use superfe_net::{wire, Direction, GroupKey, PacketRecord};
use superfe_nic::FeatureVector;
use superfe_policy::ast::CollectUnit;
use superfe_policy::dsl;
use superfe_policy::exec::{view_of_packet, GroupExec, GroupSlab, LevelPlan};
use superfe_policy::{compile, CompiledPolicy, Policy, PolicyError};
use superfe_streaming::DecayMemo;
use superfe_switch::pipeline::eval_predicate;

/// A software (single-server) feature extractor for one policy.
pub struct SoftwareExtractor {
    compiled: CompiledPolicy,
    /// One plan per level of `compiled.nic`, driving that level's groups.
    plans: Vec<LevelPlan>,
    levels: Vec<HashMap<GroupKey, GroupExec>>,
    /// Each level's group state, which its groups index.
    slabs: Vec<GroupSlab>,
    /// Decay factors of the packet in hand, shared by its levels.
    memo: DecayMemo,
    per_pkt: bool,
    packet_vectors: Vec<FeatureVector>,
    pkts: u64,
    bytes: u64,
}

impl SoftwareExtractor {
    /// Builds the extractor for a policy.
    pub fn new(policy: &Policy) -> Result<Self, PolicyError> {
        let compiled = compile(policy)?;
        let plans: Vec<LevelPlan> = compiled.nic.levels.iter().map(LevelPlan::new).collect();
        let levels = plans.iter().map(|_| HashMap::new()).collect();
        let slabs = plans.iter().map(GroupSlab::new).collect();
        let per_pkt = compiled
            .nic
            .levels
            .iter()
            .any(|l| l.collect == Some(CollectUnit::Pkt));
        Ok(SoftwareExtractor {
            compiled,
            plans,
            levels,
            slabs,
            memo: DecayMemo::new(),
            per_pkt,
            packet_vectors: Vec::new(),
            pkts: 0,
            bytes: 0,
        })
    }

    /// Parses a textual policy and builds the extractor.
    pub fn from_dsl(src: &str) -> Result<Self, PolicyError> {
        Self::new(&dsl::parse(src)?)
    }

    /// Packets processed.
    pub fn packets(&self) -> u64 {
        self.pkts
    }

    /// Bytes processed.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Processes one parsed packet.
    pub fn push(&mut self, p: &PacketRecord) {
        self.pkts += 1;
        self.bytes += u64::from(p.size);
        if let Some(f) = &self.compiled.switch.filter {
            if !eval_predicate(f, p) {
                return;
            }
        }
        let view = view_of_packet(p);
        let mut pkt_values = Vec::new();
        let mut pkt_key: Option<GroupKey> = None;
        self.memo.clear();
        for (li, level) in self.compiled.nic.levels.iter().enumerate() {
            let key = level.granularity.key_of(p);
            let hash = key.hash32();
            let (plan, slab) = (&self.plans[li], &mut self.slabs[li]);
            let exec = self.levels[li]
                .entry(key)
                .or_insert_with(|| GroupExec::new(slab));
            // Update, then finalize: the oracle keeps the two walks the
            // engine fuses into one.
            exec.update(plan, slab, &view, hash, &mut self.memo, None);
            if self.per_pkt {
                exec.finalize_into(plan, slab, &mut pkt_values);
                pkt_key.get_or_insert(key);
            }
        }
        if self.per_pkt {
            if let Some(key) = pkt_key {
                self.packet_vectors.push(FeatureVector {
                    key,
                    values: pkt_values,
                });
            }
        }
    }

    /// Processes one raw Ethernet frame (the pcap-style capture path).
    pub fn push_frame(
        &mut self,
        frame: &[u8],
        ts_ns: u64,
        direction: Direction,
    ) -> Result<(), ParseError> {
        let rec = wire::parse_frame(frame, ts_ns, direction)?;
        self.push(&rec);
        Ok(())
    }

    /// Finishes, producing all group and packet vectors.
    pub fn finish(mut self) -> (Vec<FeatureVector>, Vec<FeatureVector>) {
        let mut groups = Vec::new();
        for (li, level) in self.compiled.nic.levels.iter().enumerate() {
            if let Some(CollectUnit::Group(_)) = level.collect {
                for (key, exec) in &self.levels[li] {
                    groups.push(FeatureVector {
                        key: *key,
                        values: exec.finalize(&self.plans[li], &self.slabs[li]),
                    });
                }
            }
        }
        (groups, std::mem::take(&mut self.packet_vectors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SuperFe;

    const FIG3: &str = "
pktstream
.filter(tcp.exist)
.groupby(flow)
.map(one, _, f_one)
.reduce(one, [f_sum])
.collect(flow)
.reduce(size, [f_mean, f_var, f_min, f_max])
.collect(flow)
.map(ipt, tstamp, f_ipt)
.reduce(ipt, [f_mean, f_var, f_min, f_max])
.collect(flow)";

    fn packets() -> Vec<PacketRecord> {
        (0..200u64)
            .map(|i| {
                PacketRecord::tcp(
                    i * 1_000_000 + (i % 7) * 137_000,
                    (64 + (i * 13) % 1400) as u16,
                    3,
                    4444,
                    7,
                    443,
                )
            })
            .collect()
    }

    #[test]
    fn software_matches_hardware_pipeline() {
        // Fidelity: the software reference and the switch+NIC pipeline must
        // agree on every feature (timestamps here are µs-aligned, so the
        // switch's µs truncation is lossless for this input).
        let mut sw = SoftwareExtractor::from_dsl(FIG3).unwrap();
        let mut hw = SuperFe::from_dsl(FIG3).unwrap();
        for p in packets() {
            sw.push(&p);
            hw.push(&p);
        }
        let (sw_groups, _) = sw.finish();
        let hw_out = hw.finish();
        assert_eq!(sw_groups.len(), 1);
        assert_eq!(hw_out.group_vectors.len(), 1);
        let a = &sw_groups[0].values;
        let b = &hw_out.group_vectors[0].values;
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let denom = x.abs().max(1.0);
            assert!(
                (x - y).abs() / denom < 1e-2,
                "feature {i}: software {x} vs hardware {y}"
            );
        }
    }

    #[test]
    fn filter_applies() {
        let mut sw = SoftwareExtractor::from_dsl(FIG3).unwrap();
        sw.push(&PacketRecord::udp(0, 100, 1, 53, 2, 53));
        let (groups, _) = sw.finish();
        assert!(groups.is_empty());
    }

    #[test]
    fn frame_path_counts_bytes() {
        let mut sw = SoftwareExtractor::from_dsl(FIG3).unwrap();
        let p = PacketRecord::tcp(0, 500, 1, 1, 2, 2);
        let frame = superfe_net::wire::build_frame(&p);
        sw.push_frame(&frame, 0, Direction::Ingress).unwrap();
        assert_eq!(sw.packets(), 1);
        assert_eq!(sw.bytes(), 500);
        assert!(sw.push_frame(&[1, 2, 3], 0, Direction::Ingress).is_err());
    }
}
