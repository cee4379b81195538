//! Differential property test of the streaming multi-core pipeline: for
//! random policies and random traces, the CG-key-sharded
//! [`superfe::StreamingPipeline`] must produce byte-identical feature
//! vectors to the single-threaded [`superfe::SuperFe`] at every worker
//! count — the executable form of the shard-by-CG-key determinism argument
//! in DESIGN.md ("Threading model"). Both run the same switch simulation,
//! so this isolates exactly the sharding, broadcast, transport, and merge
//! machinery.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use superfe::net::{Direction, PacketRecord};
use superfe::nic::{EgressVector, VectorSink};
use superfe::policy::dsl;
use superfe::{StreamingPipeline, SuperFe, SuperFeConfig};

/// Worker counts every property must hold for.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Valid policies across granularities, collect units, and reducer shapes,
/// including multi-granularity programs that exercise the FG broadcast.
fn policy_source() -> impl Strategy<Value = String> {
    let single = {
        let gran = prop_oneof![Just("flow"), Just("host"), Just("socket")];
        let filt = prop_oneof![Just(""), Just(".filter(tcp.exist)\n")];
        let maps = prop_oneof![
            Just(""),
            Just(".map(ipt, tstamp, f_ipt)\n.reduce(ipt, [f_mean])\n"),
            Just(".map(d, _, f_direction)\n.reduce(d, [f_sum])\n"),
        ];
        let reduce = prop_oneof![
            Just("[f_sum]"),
            Just("[f_mean, f_var]"),
            Just("[f_min, f_max, f_std]"),
            Just("[ft_hist{100, 16}]"),
            Just("[f_card]"),
        ];
        let unit = prop_oneof![Just("{g}"), Just("pkt")];
        (gran, filt, maps, reduce, unit).prop_map(|(g, f, m, r, u)| {
            let unit = if u == "{g}" { g } else { "pkt" };
            format!("pktstream\n{f}.groupby({g})\n{m}.reduce(size, {r})\n.collect({unit})")
        })
    };
    // Multi-granularity: the finer level's records resolve through the FG
    // key table, which the executor must broadcast to every shard.
    let multi = prop_oneof![
        Just(
            "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
             .groupby(host)\n.reduce(size, [f_mean, f_var])\n.collect(host)"
                .to_string()
        ),
        Just(
            "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
             .groupby(channel)\n.reduce(size, [f_mean])\n.collect(channel)\n\
             .groupby(host)\n.reduce(size, [f_sum])\n.collect(host)"
                .to_string()
        ),
    ];
    prop_oneof![single, multi]
}

/// Random short traces with mixed protocols, directions, and group keys.
fn trace() -> impl Strategy<Value = Vec<PacketRecord>> {
    proptest::collection::vec(
        (
            0u64..5_000_000u64,
            40u16..1500u16,
            1u32..6u32,
            1u16..4u16,
            1u32..3u32,
            prop_oneof![Just(53u16), Just(80u16), Just(443u16)],
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        1..200,
    )
    .prop_map(|mut specs| {
        specs.sort_by_key(|s| s.0);
        specs
            .into_iter()
            .map(|(ts, size, sip, sport, dip, dport, is_tcp, egress)| {
                let mut p = if is_tcp {
                    PacketRecord::tcp(ts, size, sip, sport, dip, dport)
                } else {
                    PacketRecord::udp(ts, size, sip, sport, dip, dport)
                };
                if egress {
                    p.direction = Direction::Egress;
                }
                p
            })
            .collect()
    })
}

/// Key-sorted `(key, values)` pairs: the order-independent comparison form.
type Sorted = Vec<(String, Vec<f64>)>;

fn sort_vectors(vs: Vec<superfe::nic::FeatureVector>) -> Sorted {
    let mut out: Sorted = vs
        .into_iter()
        .map(|v| (format!("{:?}", v.key), v.values))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Runs the single-threaded pipeline: (groups, packet vectors).
fn run_sequential(src: &str, pkts: &[PacketRecord]) -> (Sorted, Sorted) {
    let mut fe = SuperFe::from_dsl(src).expect("valid policy");
    for p in pkts {
        fe.push(p);
    }
    let out = fe.finish();
    (
        sort_vectors(out.group_vectors),
        sort_vectors(out.packet_vectors),
    )
}

/// Runs the streaming pipeline with `workers` shards.
fn run_streaming(src: &str, pkts: &[PacketRecord], workers: usize) -> (Sorted, Sorted) {
    let mut fe = StreamingPipeline::from_dsl(src, workers).expect("valid policy");
    for p in pkts {
        fe.push(p).expect("workers alive");
    }
    let out = fe.finish().expect("workers alive");
    (
        sort_vectors(out.group_vectors),
        sort_vectors(out.packet_vectors),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_matches_sequential_at_every_worker_count(
        src in policy_source(),
        pkts in trace(),
    ) {
        dsl::parse(&src).expect("generated policy is valid");
        let (base_groups, base_pkts) = run_sequential(&src, &pkts);
        for workers in WORKER_COUNTS {
            let (groups, pkt_vecs) = run_streaming(&src, &pkts, workers);
            prop_assert!(
                base_groups == groups,
                "group vectors diverged at workers={} for:\n{}",
                workers,
                src
            );
            prop_assert!(
                base_pkts == pkt_vecs,
                "packet vectors diverged at workers={} for:\n{}",
                workers,
                src
            );
        }
    }
}

/// How long the stalled producer sleeps: two and a half ring dwells (the
/// dwell is 1 ms, private to `superfe::net::ring`), so every worker has
/// asked for its partial frame by the time the next packet is pushed.
const STALL: Duration = Duration::from_micros(2_500);

/// One egressed vector with its `(shard, seq)` tag, comparable bitwise.
type Tagged = (usize, u64, String, Vec<u64>);

/// Records every egressing vector with its stream-position tag.
struct TagSink(Arc<Mutex<Vec<Tagged>>>);

impl VectorSink for TagSink {
    fn emit(&mut self, v: EgressVector) {
        let bits = v.vector.values.iter().map(|x| x.to_bits()).collect();
        let key = format!("{:?}", v.vector.key);
        self.0
            .lock()
            .expect("no sink panics")
            .push((v.shard, v.seq, key, bits));
    }
}

/// Runs the streaming pipeline with tagging sinks, the producer sleeping
/// [`STALL`] before each packet index in `stalls`: every egressed vector
/// in `(shard, seq)` order, and the returned group vectors in merge order.
fn run_tagged(
    src: &str,
    pkts: &[PacketRecord],
    workers: usize,
    stalls: &[usize],
) -> (Vec<Tagged>, Vec<(String, Vec<u64>)>) {
    let policy = dsl::parse(src).expect("valid policy");
    let egressed = Arc::new(Mutex::new(Vec::new()));
    let sinks = (0..workers)
        .map(|_| Box::new(TagSink(egressed.clone())) as Box<dyn VectorSink>)
        .collect();
    let mut fe = StreamingPipeline::with_sinks(&policy, SuperFeConfig::default(), workers, sinks)
        .expect("valid policy");
    for (i, p) in pkts.iter().enumerate() {
        if stalls.contains(&i) {
            std::thread::sleep(STALL);
        }
        fe.push(p).expect("workers alive");
    }
    let out = fe.finish().expect("workers alive");
    let mut egressed = std::mem::take(&mut *egressed.lock().expect("no sink panics"));
    // Shards egress concurrently; the tag is the order.
    egressed.sort();
    let groups = out
        .group_vectors
        .into_iter()
        .map(|v| {
            let bits = v.values.iter().map(|x| x.to_bits()).collect();
            (format!("{:?}", v.key), bits)
        })
        .collect();
    (egressed, groups)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Frame boundaries now depend on time — a worker that sat out a dwell
    /// gets its partial frame — and the output must not: a producer that
    /// stalls long enough for every worker to ask, at random packet
    /// indices, yields the same vectors under the same `(shard, seq)` tags
    /// and the same merged group sequence as one that never stalls.
    #[test]
    fn stalled_producer_moves_frame_boundaries_not_output(
        src in policy_source(),
        pkts in trace(),
        stalls in proptest::collection::vec(0usize..200, 0..=6),
    ) {
        let stalls: Vec<usize> = stalls.into_iter().map(|i| i % pkts.len()).collect();
        for workers in WORKER_COUNTS {
            let steady = run_tagged(&src, &pkts, workers, &[]);
            let stalled = run_tagged(&src, &pkts, workers, &stalls);
            prop_assert!(
                steady == stalled,
                "stalls at {:?} changed the output at workers={} for:\n{}",
                stalls,
                workers,
                src
            );
        }
    }
}

/// Merge order is a function of the input alone: repeated runs at the same
/// worker count must produce the same vector *sequence* (not just the same
/// set), because workers are joined in shard order.
#[test]
fn merge_order_is_deterministic_across_runs() {
    let src = "pktstream\n.groupby(host)\n.reduce(size, [f_sum, f_mean])\n.collect(host)";
    let pkts: Vec<PacketRecord> = (0..3_000u64)
        .map(|i| PacketRecord::tcp(i * 700, 120, (i % 23 + 1) as u32, 1000, 7, 443))
        .collect();
    let run_once = || {
        let mut fe = StreamingPipeline::from_dsl(src, 4).expect("valid policy");
        for p in &pkts {
            fe.push(p).expect("workers alive");
        }
        let out = fe.finish().expect("workers alive");
        out.group_vectors
            .into_iter()
            .map(|v| (format!("{:?}", v.key), v.values))
            .collect::<Vec<_>>()
    };
    let first = run_once();
    assert!(!first.is_empty());
    for _ in 0..4 {
        assert_eq!(first, run_once(), "merge order varied between runs");
    }
}
