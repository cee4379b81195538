//! Every member of a shared unit, and every unit of a shared partition,
//! keeps its own outlet — through a snapshot/restore and a founder detach.
//!
//! One per-packet policy is attached three times: a founder without a
//! sink, a fused member with sinks and a fused member without. A prefix
//! sharer with another tail subscribes a unit of its own to their switch
//! partition. One plane runs uninterrupted; a second is restored from its
//! snapshot at packet [`SNAP`]. Both detach the founder at [`DETACH`] and
//! finish at [`END`]. Every tenant's vectors must be equal between the two
//! planes and equal to its solo run over its window, and the sinked
//! member's egress — `(shard, seq)` tags included — must be its solo
//! sinked run's.

use std::sync::{Arc, Mutex};

use superfe_core::analyze::AnalyzeConfig;
use superfe_core::pipeline::SuperFeConfig;
use superfe_core::StreamingPipeline;
use superfe_ctrl::{CtrlPlane, TenantSpec};
use superfe_net::PacketRecord;
use superfe_nic::{EgressVector, StreamOutput, VectorSink};
use superfe_policy::dsl::parse;

const SNAP: usize = 300;
const DETACH: usize = 600;
const END: usize = 1_000;

/// The fused per-packet policy.
const PER_PACKET: &str = "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(pkt)";

/// Its switch prefix with another tail, reading another metadata field.
const PER_PACKET_IPT: &str = "pktstream\n.groupby(host)\n.map(ipt, tstamp, f_ipt)\n\
                              .reduce(ipt, [f_mean])\n.collect(pkt)";

/// The founder, without a sink.
const FOUNDER: &str = "founder";
/// A fused member with one sink per shard.
const SINKED: &str = "sinked";
/// A fused member without a sink.
const SINKLESS: &str = "sinkless";
/// A unit of its own on the founder's partition.
const SHARER: &str = "sharer";

fn spec(name: &str, src: &str) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        policy: parse(src).unwrap(),
        cfg: SuperFeConfig::default(),
    }
}

fn specs() -> [TenantSpec; 4] {
    [
        spec(FOUNDER, PER_PACKET),
        spec(SINKED, PER_PACKET),
        spec(SINKLESS, PER_PACKET),
        spec(SHARER, PER_PACKET_IPT),
    ]
}

fn packets(n: usize) -> Vec<PacketRecord> {
    (0..n as u64)
        .map(|i| {
            let host = (i % 13 + 1) as u32;
            if i % 5 == 0 {
                PacketRecord::udp(i * 700, 90, host, 53, 4, 53)
            } else {
                PacketRecord::tcp(i * 700, 400 + (i % 37) as u16, host, 1500, 4, 443)
            }
        })
        .collect()
}

/// One egressed vector: shard, seq, key and value bits.
type Egress = (usize, u64, String, Vec<u64>);

/// Collects egressed vectors, shared across a tenant's shards.
struct Collect(Arc<Mutex<Vec<Egress>>>);

impl VectorSink for Collect {
    fn emit(&mut self, e: EgressVector) {
        let bits = e.vector.values.iter().map(|v| v.to_bits()).collect();
        let key = format!("{:?}", e.vector.key);
        self.0.lock().unwrap().push((e.shard, e.seq, key, bits));
    }
}

fn sinks(workers: usize, into: &Arc<Mutex<Vec<Egress>>>) -> Vec<Box<dyn VectorSink>> {
    (0..workers)
        .map(|_| Box::new(Collect(into.clone())) as Box<dyn VectorSink>)
        .collect()
}

/// What is egressed, in `(shard, seq)` order (shards emit concurrently).
fn egressed(from: &Arc<Mutex<Vec<Egress>>>) -> Vec<Egress> {
    let mut all = from.lock().unwrap().clone();
    all.sort();
    all
}

/// A tenant's vectors, bitwise.
fn vectors(group: &[superfe_nic::FeatureVector], packet: &[superfe_nic::FeatureVector]) -> String {
    format!("{group:?} {packet:?}")
}

fn output(out: &StreamOutput) -> String {
    vectors(&out.group_vectors, &out.packet_vectors)
}

/// `spec` alone over `window`, with sinks when `sinked`: its vectors and
/// its egress.
fn solo(
    spec: &TenantSpec,
    window: &[PacketRecord],
    workers: usize,
    sinked: bool,
) -> (String, Vec<Egress>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut fe = if sinked {
        StreamingPipeline::with_sinks(&spec.policy, spec.cfg, workers, sinks(workers, &seen))
    } else {
        StreamingPipeline::with_config(&spec.policy, spec.cfg, workers)
    }
    .unwrap();
    for p in window {
        fe.push(p).unwrap();
    }
    let out = fe.finish().unwrap();
    (
        vectors(&out.group_vectors, &out.packet_vectors),
        egressed(&seen),
    )
}

/// Pushes `window`, detaching the founder once the plane reaches
/// [`DETACH`], and returns every tenant's output by name (the founder's
/// from its detach) in name order.
fn drive(mut plane: CtrlPlane, window: &[PacketRecord]) -> Vec<(String, String)> {
    let founder = plane.tenants()[0].0;
    let mut outs = Vec::new();
    for p in window {
        if plane.pushed() == DETACH as u64 {
            outs.push((FOUNDER.to_string(), output(&plane.detach(founder).unwrap())));
        }
        plane.push(p).unwrap();
    }
    for run in plane.finish().unwrap() {
        outs.push((run.name, output(&run.output)));
    }
    outs.sort();
    outs
}

#[test]
fn every_member_and_unit_keeps_its_outlet_across_restore_and_founder_detach() {
    let pkts = packets(END);
    let specs = specs();
    for workers in [1, 3] {
        let live_egress = Arc::new(Mutex::new(Vec::new()));
        let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
        for s in &specs {
            let given = (s.name == SINKED).then(|| sinks(workers, &live_egress));
            plane.attach(s, given).unwrap();
        }
        let founder = plane.tenants()[0].0;
        assert_eq!(plane.units(), vec![(founder, 3), (plane.tenants()[3].0, 1)]);
        assert_eq!(plane.groups(), vec![(founder, 2)]);
        for p in &pkts[..SNAP] {
            plane.push(p).unwrap();
        }
        let bytes = plane.snapshot().unwrap();
        let cut: Vec<(usize, u64)> = live_egress
            .lock()
            .unwrap()
            .iter()
            .map(|e| (e.0, e.1))
            .collect();

        let restored_egress = Arc::new(Mutex::new(Vec::new()));
        let restored = CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes, |name| {
            (name == SINKED).then(|| sinks(workers, &restored_egress))
        })
        .unwrap();
        assert_eq!(restored.units(), plane.units());
        assert_eq!(restored.groups(), plane.groups());

        let live = drive(plane, &pkts[SNAP..]);
        let resumed = drive(restored, &pkts[SNAP..]);
        assert_eq!(live, resumed, "{workers} workers");
        for (name, got) in &live {
            let s = specs.iter().find(|s| &s.name == name).unwrap();
            let window = if name == FOUNDER {
                &pkts[..DETACH]
            } else {
                &pkts[..]
            };
            let (alone, _) = solo(s, window, workers, name == SINKED);
            assert_eq!(got, &alone, "{name} at {workers} workers");
        }

        // The sinked member's egress: the live plane's is its solo sinked
        // run's, and the restored plane's is the live plane's after the
        // snapshot point.
        let mut live_egress = egressed(&live_egress);
        let (_, alone) = solo(&specs[1], &pkts, workers, true);
        assert_eq!(alone.len(), END);
        assert_eq!(live_egress, alone, "{workers} workers");
        assert!(!cut.is_empty() && cut.len() < END);
        live_egress.retain(|e| !cut.contains(&(e.0, e.1)));
        assert_eq!(egressed(&restored_egress), live_egress, "{workers} workers");
    }
}
