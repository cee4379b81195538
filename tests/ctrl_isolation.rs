//! Keystone isolation differential for the multi-tenant control plane:
//! for random tenant subsets, random traces, and every worker count, each
//! tenant's feature vectors on the shared switch/NIC must be **bitwise
//! identical** to the same policy running alone on its own
//! [`superfe::StreamingPipeline`] — including under mid-stream hot attach
//! and detach of *other* tenants. This is the executable form of the
//! control plane's isolation contract: tenancy is invisible in the output.
//!
//! A second, deterministic differential extends the claim through the
//! serving layer: a tenant's alert stream alongside a noisy neighbor must
//! equal its alert stream running alone.

use proptest::prelude::*;

use superfe::ctrl::{CtrlPlane, TenantSpec};
use superfe::net::{Direction, PacketRecord};
use superfe::policy::dsl;
use superfe::{AnalyzeConfig, StreamingPipeline, SuperFeConfig};

/// Worker counts every property must hold for.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The tenant candidate pool: distinct granularities, filters, collect
/// units, and a multi-granularity program (exercises the per-tenant FG
/// broadcast on the shared NIC). Any subset fits the default Tofino
/// budget.
const POOL: [&str; 4] = [
    "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
    "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_mean, f_max])\n.collect(flow)",
    "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
     .groupby(host)\n.reduce(size, [f_mean])\n.collect(host)",
    "pktstream\n.filter(udp.exist)\n.groupby(channel)\n.reduce(size, [f_min, f_max])\n.collect(pkt)",
];

/// One tenant's randomized lifecycle, as fractions of the trace length:
/// attach at `attach_pct`%, detach at `detach_pct`% when set.
#[derive(Clone, Copy, Debug)]
struct Lifecycle {
    pool_index: usize,
    attach_pct: u8,
    detach_pct: Option<u8>,
}

/// Random non-empty tenant subsets with per-tenant attach/detach epochs.
fn subset() -> impl Strategy<Value = Vec<Lifecycle>> {
    proptest::collection::vec(
        (0usize..POOL.len(), 0u8..50, proptest::bool::ANY, 55u8..100),
        1..4,
    )
    .prop_map(|picks| {
        let mut out: Vec<Lifecycle> = Vec::new();
        for (pool_index, attach_pct, detaches, detach_pct) in picks {
            // One tenant per pool policy: duplicates would be legal but
            // make the differential redundant.
            if out.iter().any(|l| l.pool_index == pool_index) {
                continue;
            }
            out.push(Lifecycle {
                pool_index,
                attach_pct,
                detach_pct: detaches.then_some(detach_pct),
            });
        }
        out
    })
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
        20..200,
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

fn spec(pool_index: usize) -> TenantSpec {
    TenantSpec {
        name: format!("pool{pool_index}"),
        policy: dsl::parse(POOL[pool_index]).expect("pool policy is valid"),
        cfg: SuperFeConfig::default(),
    }
}

/// Runs each tenant's policy alone over its attach..detach window.
fn solo_run(
    l: &Lifecycle,
    pkts: &[PacketRecord],
    workers: usize,
) -> (
    Vec<superfe::nic::FeatureVector>,
    Vec<superfe::nic::FeatureVector>,
) {
    let s = spec(l.pool_index);
    let lo = l.attach_pct as usize * pkts.len() / 100;
    let hi = l
        .detach_pct
        .map_or(pkts.len(), |d| d as usize * pkts.len() / 100);
    let mut fe = StreamingPipeline::with_config(&s.policy, s.cfg, workers).expect("policy deploys");
    for p in &pkts[lo..hi] {
        fe.push(p).expect("workers alive");
    }
    let out = fe.finish().expect("workers alive");
    (out.group_vectors, out.packet_vectors)
}

/// Replays `tenants` against a fused control plane at every worker count
/// and checks each tenant's vectors bitwise against its solo run.
fn assert_bitwise_solo(
    tenants: &[Lifecycle],
    pkts: &[PacketRecord],
) -> Result<(), proptest::test_runner::TestCaseError> {
    assert_bitwise_solo_stalling(tenants, pkts, &[])
}

/// How long the stalled producer sleeps: two and a half ring dwells (the
/// dwell is 1 ms, private to `superfe::net::ring`), so every worker has
/// asked for its partial frame by the time the next packet is pushed.
const STALL: std::time::Duration = std::time::Duration::from_micros(2_500);

/// [`assert_bitwise_solo`] with the plane's producer sleeping [`STALL`]
/// before each packet index in `stalls`; the solo runs never stall.
fn assert_bitwise_solo_stalling(
    tenants: &[Lifecycle],
    pkts: &[PacketRecord],
    stalls: &[usize],
) -> Result<(), proptest::test_runner::TestCaseError> {
    for &workers in &WORKER_COUNTS {
        let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
        let mut ids = vec![None; tenants.len()];
        let mut outputs: Vec<Option<superfe::nic::StreamOutput>> =
            (0..tenants.len()).map(|_| None).collect();
        for (i, p) in pkts.iter().enumerate() {
            for (ti, l) in tenants.iter().enumerate() {
                if l.attach_pct as usize * pkts.len() / 100 == i {
                    let id = plane
                        .attach(&spec(l.pool_index), None)
                        .expect("pool subsets are admissible");
                    ids[ti] = Some(id);
                }
                if l.detach_pct.map(|d| d as usize * pkts.len() / 100) == Some(i) {
                    let id = ids[ti].expect("detach window follows attach");
                    outputs[ti] = Some(plane.detach(id).expect("drain handshake"));
                }
            }
            if stalls.contains(&i) {
                std::thread::sleep(STALL);
            }
            plane.push(p).expect("workers alive");
        }
        for run in plane.finish().expect("workers alive") {
            let ti = ids
                .iter()
                .position(|id| *id == Some(run.id))
                .expect("run belongs to a scheduled tenant");
            outputs[ti] = Some(run.output);
        }
        for (ti, l) in tenants.iter().enumerate() {
            let out = outputs[ti].as_ref().expect("every tenant ran");
            let (solo_groups, solo_pkts) = solo_run(l, pkts, workers);
            prop_assert_eq!(
                &out.group_vectors,
                &solo_groups,
                "tenant {} group vectors diverged at {} workers",
                ti,
                workers
            );
            prop_assert_eq!(
                &out.packet_vectors,
                &solo_pkts,
                "tenant {} packet vectors diverged at {} workers",
                ti,
                workers
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The isolation differential: every tenant of every random subset,
    /// under random hot attach/detach schedules, produces vectors bitwise
    /// equal to its solo run — at every worker count.
    #[test]
    fn shared_plane_is_bitwise_identical_to_solo(
        tenants in subset(),
        pkts in trace(),
    ) {
        assert_bitwise_solo(&tenants, &pkts)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Frame boundaries depend on time since a hungry worker can ask for
    /// its partial frame; isolation must not. A plane whose producer stalls
    /// past the ring dwell at random packet indices — between attach and
    /// detach epochs, with some tenants' shards idle and others' busy —
    /// still gives every tenant its (never stalled) solo run, bitwise.
    #[test]
    fn stalled_plane_is_bitwise_identical_to_solo(
        tenants in subset(),
        pkts in trace(),
        stalls in proptest::collection::vec(0usize..200, 1..=6),
    ) {
        let stalls: Vec<usize> = stalls.into_iter().map(|i| i % pkts.len()).collect();
        assert_bitwise_solo_stalling(&tenants, &pkts, &stalls)?;
    }
}

mod fusion_isolation {
    use super::*;

    /// Duplicate-friendly lifecycles: pool indices may repeat and attach
    /// points are quantized to two sites, so equivalent tenants land on
    /// the same epoch and **fuse** into one execution unit; random
    /// detaches of fused members exercise the snapshot handshake.
    fn fused_subset() -> impl Strategy<Value = Vec<Lifecycle>> {
        proptest::collection::vec(
            (
                0usize..POOL.len(),
                prop_oneof![Just(0u8), Just(30u8)],
                proptest::bool::ANY,
                55u8..100,
            ),
            2..5,
        )
        .prop_map(|picks| {
            picks
                .into_iter()
                .map(|(pool_index, attach_pct, detaches, detach_pct)| Lifecycle {
                    pool_index,
                    attach_pct,
                    detach_pct: detaches.then_some(detach_pct),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The same bitwise differential with SF07xx fusion actively
        /// engaged: duplicate policies share one plan through the demux
        /// fan-out and leave it mid-stream through snapshot detaches —
        /// every member must still match its solo run exactly, at every
        /// worker count.
        #[test]
        fn fused_plane_is_bitwise_identical_to_solo(
            tenants in fused_subset(),
            pkts in trace(),
        ) {
            assert_bitwise_solo(&tenants, &pkts)?;
        }
    }
}

mod prefix_isolation {
    use super::*;

    /// A pool whose members all share the parse → filter(tcp.exist) →
    /// groupby(flow) switch prefix but keep distinct reduce tails: none
    /// are SF07xx-equivalent, so co-attached members engage SF08xx prefix
    /// sharing (one switch partition, one execution unit each).
    const PREFIX_POOL: [&str; 4] = [
        "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)",
        "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_mean])\n.collect(flow)",
        "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_max])\n.collect(flow)",
        "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_min, f_max])\n\
         .collect(flow)",
    ];

    fn prefix_spec(pool_index: usize) -> TenantSpec {
        TenantSpec {
            name: format!("prefix{pool_index}"),
            policy: dsl::parse(PREFIX_POOL[pool_index]).expect("pool policy is valid"),
            cfg: SuperFeConfig::default(),
        }
    }

    fn prefix_solo_run(
        l: &Lifecycle,
        pkts: &[PacketRecord],
        workers: usize,
    ) -> (
        Vec<superfe::nic::FeatureVector>,
        Vec<superfe::nic::FeatureVector>,
    ) {
        let s = prefix_spec(l.pool_index);
        let lo = l.attach_pct as usize * pkts.len() / 100;
        let hi = l
            .detach_pct
            .map_or(pkts.len(), |d| d as usize * pkts.len() / 100);
        let mut fe =
            StreamingPipeline::with_config(&s.policy, s.cfg, workers).expect("policy deploys");
        for p in &pkts[lo..hi] {
            fe.push(p).expect("workers alive");
        }
        let out = fe.finish().expect("workers alive");
        (out.group_vectors, out.packet_vectors)
    }

    /// Like [`assert_bitwise_solo`] but over the prefix pool, so
    /// co-attached tenants land on one shared partition and mid-stream
    /// detaches of shared-prefix members exercise the prefix-detach
    /// handshake.
    fn assert_prefix_bitwise_solo(
        tenants: &[Lifecycle],
        pkts: &[PacketRecord],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        for &workers in &WORKER_COUNTS {
            let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
            let mut ids = vec![None; tenants.len()];
            let mut outputs: Vec<Option<superfe::nic::StreamOutput>> =
                (0..tenants.len()).map(|_| None).collect();
            for (i, p) in pkts.iter().enumerate() {
                for (ti, l) in tenants.iter().enumerate() {
                    if l.attach_pct as usize * pkts.len() / 100 == i {
                        let id = plane
                            .attach(&prefix_spec(l.pool_index), None)
                            .expect("pool subsets are admissible");
                        ids[ti] = Some(id);
                    }
                    if l.detach_pct.map(|d| d as usize * pkts.len() / 100) == Some(i) {
                        let id = ids[ti].expect("detach window follows attach");
                        outputs[ti] = Some(plane.detach(id).expect("drain handshake"));
                    }
                }
                plane.push(p).expect("workers alive");
            }
            // Co-attached distinct tails must actually share partitions.
            prop_assert!(
                plane.groups().len() <= plane.units().len(),
                "groups cannot outnumber units"
            );
            for run in plane.finish().expect("workers alive") {
                let ti = ids
                    .iter()
                    .position(|id| *id == Some(run.id))
                    .expect("run belongs to a scheduled tenant");
                outputs[ti] = Some(run.output);
            }
            for (ti, l) in tenants.iter().enumerate() {
                let out = outputs[ti].as_ref().expect("every tenant ran");
                let (solo_groups, solo_pkts) = prefix_solo_run(l, pkts, workers);
                prop_assert_eq!(
                    &out.group_vectors,
                    &solo_groups,
                    "tenant {} group vectors diverged at {} workers",
                    ti,
                    workers
                );
                prop_assert_eq!(
                    &out.packet_vectors,
                    &solo_pkts,
                    "tenant {} packet vectors diverged at {} workers",
                    ti,
                    workers
                );
            }
        }
        Ok(())
    }

    /// Shared-prefix lifecycles: distinct tails from the prefix pool with
    /// attach points quantized to two sites, so co-attached tenants hash
    /// to one partition; random detaches of shared-prefix members
    /// exercise the partition-sparing prefix detach.
    fn prefix_subset() -> impl Strategy<Value = Vec<Lifecycle>> {
        proptest::collection::vec(
            (
                0usize..PREFIX_POOL.len(),
                prop_oneof![Just(0u8), Just(30u8)],
                proptest::bool::ANY,
                55u8..100,
            ),
            2..5,
        )
        .prop_map(|picks| {
            let mut out: Vec<Lifecycle> = Vec::new();
            for (pool_index, attach_pct, detaches, detach_pct) in picks {
                if out.iter().any(|l| l.pool_index == pool_index) {
                    continue;
                }
                out.push(Lifecycle {
                    pool_index,
                    attach_pct,
                    detach_pct: detaches.then_some(detach_pct),
                });
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The same bitwise differential with SF08xx prefix sharing
        /// actively engaged: distinct reduce tails ride one switch
        /// partition and leave it mid-stream through prefix detaches —
        /// every tenant must still match its solo run exactly, at every
        /// worker count.
        #[test]
        fn prefix_shared_plane_is_bitwise_identical_to_solo(
            tenants in prefix_subset(),
            pkts in trace(),
        ) {
            assert_prefix_bitwise_solo(&tenants, &pkts)?;
        }
    }
}

mod bundled_isolation {
    use super::*;
    use superfe::apps::policies;
    use superfe_trafficgen::Workload;

    /// The bundled applications at trace scale, where the properties above
    /// use synthetic pools on ≤ 200 packets: AWF twice (the SF07xx
    /// duplicate — 5,000-wide `f_array` vectors cloned at the demux), NPOD
    /// and CUMUL over a MAWI-like trace. Every tenant's vectors must be the
    /// same through the fused plane, the unfused plane, and alone.
    #[test]
    fn bundled_set_is_bitwise_identical_fused_unfused_and_solo() {
        const WORKERS: usize = 2;
        let trace = Workload::mawi().packets(3_000).seed(4).generate();
        let specs: Vec<TenantSpec> = [
            ("awf-0", policies::AWF),
            ("awf-1", policies::AWF),
            ("npod", policies::NPOD),
            ("cumul", policies::CUMUL),
        ]
        .into_iter()
        .map(|(name, src)| TenantSpec {
            name: name.into(),
            policy: dsl::parse(src).expect("bundled policy parses"),
            cfg: SuperFeConfig::default(),
        })
        .collect();
        let serve = |fuse: bool| {
            let mut plane = if fuse {
                CtrlPlane::new(WORKERS, AnalyzeConfig::default())
            } else {
                CtrlPlane::without_fusion(WORKERS, AnalyzeConfig::default())
            };
            for spec in &specs {
                plane.attach(spec, None).expect("the set is admissible");
            }
            let units = plane.units().len();
            for p in &trace.records {
                plane.push(p).expect("workers alive");
            }
            (plane.finish().expect("workers alive"), units)
        };
        let (fused, fused_units) = serve(true);
        let (unfused, unfused_units) = serve(false);
        assert_eq!(fused_units, 3, "the AWF pair shares one execution unit");
        assert_eq!(unfused_units, 4);
        for ((f, u), spec) in fused.iter().zip(&unfused).zip(&specs) {
            let mut fe = StreamingPipeline::with_config(&spec.policy, spec.cfg, WORKERS)
                .expect("policy deploys");
            for p in &trace.records {
                fe.push(p).expect("workers alive");
            }
            let solo = fe.finish().expect("workers alive");
            assert!(
                !solo.group_vectors.is_empty() || !solo.packet_vectors.is_empty(),
                "{} emitted nothing",
                spec.name
            );
            for (how, run) in [("fused", f), ("unfused", u)] {
                assert_eq!(run.name, spec.name);
                assert_eq!(
                    run.output.group_vectors, solo.group_vectors,
                    "{} group vectors diverged {how}",
                    spec.name
                );
                assert_eq!(
                    run.output.packet_vectors, solo.packet_vectors,
                    "{} packet vectors diverged {how}",
                    spec.name
                );
            }
        }
    }
}

mod join_rule_isolation {
    use super::*;

    /// One fused pair, one prefix-sharing unit on their partition, one
    /// tenant that shares nothing: every depth of the sharing lattice in
    /// one tenant set.
    const SET: [(&str, &str); 4] = [
        (
            "host-sum",
            "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
        ),
        (
            "host-sum-renamed",
            "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
        ),
        (
            "host-max",
            "pktstream\n.groupby(host)\n.reduce(size, [f_max])\n.collect(host)",
        ),
        (
            "flow-stats",
            "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_mean, f_max])\n\
             .collect(flow)",
        ),
    ];
    /// `flow-stats`, the one tenant outside the shared `groupby(host)`
    /// partition.
    const LONER: usize = 3;
    const WORKERS: usize = 2;

    fn set_spec(i: usize) -> TenantSpec {
        TenantSpec {
            name: SET[i].0.into(),
            policy: dsl::parse(SET[i].1).expect("set policy is valid"),
            cfg: SuperFeConfig::default(),
        }
    }

    fn packets() -> Vec<PacketRecord> {
        (0..1200u64)
            .map(|i| {
                if i % 5 == 0 {
                    PacketRecord::udp(i * 700, 90, (i % 11 + 1) as u32, 53, 4, 53)
                } else {
                    PacketRecord::tcp(
                        i * 700,
                        400 + (i % 29) as u16,
                        (i % 11 + 1) as u32,
                        1500,
                        4,
                        443,
                    )
                }
            })
            .collect()
    }

    fn solo(i: usize, pkts: &[PacketRecord]) -> superfe::Extraction {
        let s = set_spec(i);
        let mut fe =
            StreamingPipeline::with_config(&s.policy, s.cfg, WORKERS).expect("policy deploys");
        for p in pkts {
            fe.push(p).expect("workers alive");
        }
        fe.finish().expect("workers alive")
    }

    /// All orderings of `0..4`.
    fn orders() -> Vec<[usize; 4]> {
        let mut out = Vec::new();
        for a in 0..4 {
            for b in (0..4).filter(|&b| b != a) {
                for c in (0..4).filter(|&c| c != a && c != b) {
                    out.push([a, b, c, 6 - a - b - c]);
                }
            }
        }
        out
    }

    /// The regression guard for the one join rule: whatever order the four
    /// tenants arrive in at position 0, the plane converges on the same
    /// topology — three units on two partitions — and stays bitwise-solo,
    /// also when the shared partition's founding tenant leaves mid-stream.
    #[test]
    fn every_attach_order_converges_and_stays_bitwise_solo() {
        let pkts = packets();
        let half = pkts.len() / 2;
        let full: Vec<_> = (0..4).map(|i| solo(i, &pkts)).collect();
        let window: Vec<_> = (0..4).map(|i| solo(i, &pkts[..half])).collect();
        let orders = orders();
        assert_eq!(orders.len(), 24);
        for order in orders {
            for detach_founder in [false, true] {
                let mut plane = CtrlPlane::new(WORKERS, AnalyzeConfig::default());
                let ids: Vec<_> = order
                    .iter()
                    .map(|&i| plane.attach(&set_spec(i), None).expect("admissible"))
                    .collect();
                assert_eq!(plane.units().len(), 3, "units in order {order:?}");
                assert_eq!(plane.groups().len(), 2, "partitions in order {order:?}");
                // The shared partition's founder: the first of the three
                // `groupby(host)` tenants to arrive.
                let founder = order.iter().position(|&i| i != LONER).expect("three hosts");
                for (n, p) in pkts.iter().enumerate() {
                    if detach_founder && n == half {
                        let gone = plane.detach(ids[founder]).expect("drain handshake");
                        let want = &window[order[founder]];
                        assert_eq!(gone.group_vectors, want.group_vectors, "{order:?}");
                        assert_eq!(gone.packet_vectors, want.packet_vectors, "{order:?}");
                        assert_eq!(
                            plane.groups().len(),
                            2,
                            "the partition outlives its founder"
                        );
                    }
                    plane.push(p).expect("workers alive");
                }
                let runs = plane.finish().expect("workers alive");
                assert_eq!(runs.len(), if detach_founder { 3 } else { 4 });
                for run in runs {
                    let at = ids.iter().position(|&id| id == run.id).expect("attached");
                    let want = &full[order[at]];
                    assert_eq!(run.name, SET[order[at]].0);
                    assert_eq!(
                        run.output.group_vectors, want.group_vectors,
                        "{} diverged in order {order:?} (founder detached: {detach_founder})",
                        run.name
                    );
                    assert_eq!(run.output.packet_vectors, want.packet_vectors);
                }
            }
        }
    }
}

mod alert_isolation {
    use std::sync::Arc;

    use superfe::ctrl::{CtrlPlane, TenantSpec};
    use superfe::detect::score_offline;
    use superfe::ml::{train_and_calibrate, CalibrationConfig, CentroidDetector, FrozenDetector};
    use superfe::net::PacketRecord;
    use superfe::nic::{canonicalize, StreamOutput};
    use superfe::policy::dsl;
    use superfe::{AnalyzeConfig, SuperFeConfig};

    /// Per-packet flow statistics for the monitored tenant (dim 2).
    const MONITORED: &str =
        "pktstream\n.groupby(flow)\n.reduce(size, [f_mean, f_var])\n.collect(pkt)";
    /// The noisy neighbor: different granularity, heavy eviction churn.
    const NOISY: &str =
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum, f_min, f_max])\n.collect(host)";
    /// Shares the monitored tenant's switch prefix, not its tail (dim 1).
    const PREFIX: &str = "pktstream\n.groupby(flow)\n.reduce(size, [f_max])\n.collect(pkt)";

    /// Who runs next to the monitored tenant, and so which arm of the join
    /// rule places it.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Neighbor {
        /// Nobody: the solo reference.
        None,
        /// A partition of its own, no detector.
        Noisy,
        /// The same policy under another name, no detector: one fused unit.
        Fused,
        /// Another unit on the monitored tenant's partition, with a
        /// detector of its own.
        Prefix,
    }

    fn detector(benign: &[Vec<f64>]) -> Arc<FrozenDetector> {
        let refs: Vec<&[f64]> = benign.iter().map(Vec::as_slice).collect();
        let det = CentroidDetector::new(refs[0].len()).expect("valid dim");
        let cfg = CalibrationConfig::default();
        Arc::new(train_and_calibrate(Box::new(det), &refs, 0.2, cfg).expect("calibrates"))
    }

    /// Benign profile: flows of ~400 B packets, near-zero variance.
    fn monitored_detector() -> Arc<FrozenDetector> {
        let benign: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![395.0 + f64::from(i % 11), f64::from(i % 7)])
            .collect();
        detector(&benign)
    }

    fn traffic() -> Vec<PacketRecord> {
        let mut pkts = Vec::new();
        for i in 0..800u64 {
            // Benign flows: steady 400-ish byte packets.
            pkts.push(PacketRecord::tcp(
                i * 900,
                398 + (i % 9) as u16,
                (i % 6 + 1) as u32,
                1000 + (i % 3) as u16,
                7,
                443,
            ));
            // The anomaly: one flow alternating tiny/huge packets — large
            // mean shift and variance, far from the benign profile.
            if i % 8 == 0 {
                pkts.push(PacketRecord::tcp(
                    i * 900 + 450,
                    if i % 16 == 0 { 40 } else { 1500 },
                    66,
                    6666,
                    7,
                    443,
                ));
            }
        }
        pkts
    }

    /// Serves the monitored tenant with its detector in the NIC shards,
    /// alongside `neighbor`; returns its output (alerts in canonical
    /// order) and the neighbor's.
    fn serve(neighbor: Neighbor, workers: usize) -> (StreamOutput, Option<StreamOutput>) {
        let spec = |name: &str, src| TenantSpec {
            name: name.into(),
            policy: dsl::parse(src).expect("valid"),
            cfg: SuperFeConfig::default(),
        };
        let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
        let id = plane
            .attach(&spec("monitored", MONITORED), None)
            .expect("admitted");
        plane
            .score_with(id, monitored_detector())
            .expect("attached");
        let src = match neighbor {
            Neighbor::None => None,
            Neighbor::Noisy => Some(NOISY),
            Neighbor::Fused => Some(MONITORED),
            Neighbor::Prefix => Some(PREFIX),
        };
        if let Some(src) = src {
            let other = plane
                .attach(&spec("neighbor", src), None)
                .expect("admitted");
            if neighbor == Neighbor::Prefix {
                // Opposed to everything it will see: every vector alerts.
                let elsewhere = detector(&[vec![-1.0], vec![-2.0], vec![-3.0]]);
                plane.score_with(other, elsewhere).expect("attached");
            }
            let (units, groups) = match neighbor {
                Neighbor::Fused => (vec![(id, 2)], vec![(id, 1)]),
                Neighbor::Prefix => (vec![(id, 1), (other, 1)], vec![(id, 2)]),
                _ => (vec![(id, 1), (other, 1)], vec![(id, 1), (other, 1)]),
            };
            assert_eq!((plane.units(), plane.groups()), (units, groups));
        }
        for p in traffic() {
            plane.push(&p).expect("workers alive");
        }
        let mut runs = plane.finish().expect("workers alive").into_iter();
        let mut monitored = runs.next().expect("monitored tenant").output;
        canonicalize(&mut monitored.inline_alerts, |a| (a.key, a.seq));
        (monitored, runs.next().map(|r| r.output))
    }

    /// Tenant A's alert stream must be bitwise identical to A's alert
    /// stream running alone — scored counts, scores, and every alert's
    /// key/score/position — alongside a noisy neighbor, fused with a
    /// neighbor that has no detector, and sharing its switch partition with
    /// a neighbor that has a different one.
    #[test]
    fn alerts_unchanged_by_noisy_neighbor() {
        let det = monitored_detector();
        let scores = |o: &StreamOutput| {
            format!(
                "{:?}",
                score_offline(&*det, &o.packet_vectors, &o.group_vectors).scores
            )
        };
        for workers in [1, 2, 4] {
            let (alone, _) = serve(Neighbor::None, workers);
            assert!(
                !alone.inline_alerts.is_empty(),
                "the anomalous flow must trip the detector at {workers} workers"
            );
            for neighbor in [Neighbor::Noisy, Neighbor::Fused, Neighbor::Prefix] {
                let (shared, other) = serve(neighbor, workers);
                let other = other.expect("the neighbor's output");
                let at = format!("next to {neighbor:?} at {workers} workers");
                assert_eq!(
                    alone.inline_stats, shared.inline_stats,
                    "scored count changed {at}"
                );
                assert_eq!(
                    format!("{:?}", alone.inline_alerts),
                    format!("{:?}", shared.inline_alerts),
                    "alert stream changed {at}"
                );
                assert_eq!(scores(&alone), scores(&shared), "score stream changed {at}");
                // A detector is its member's alone, under every join arm.
                match (neighbor, other.inline_stats) {
                    (Neighbor::Prefix, Some(stats)) => {
                        assert_eq!(stats.scored as usize, other.packet_vectors.len(), "{at}");
                        assert!(!other.inline_alerts.is_empty(), "{at}");
                        let own = |a: &superfe::nic::InlineAlert| a.threshold != det.threshold();
                        assert!(other.inline_alerts.iter().all(own), "{at}");
                    }
                    (Neighbor::Prefix, None) => panic!("the neighbor's detector is gone {at}"),
                    (_, stats) => {
                        assert!(stats.is_none() && other.inline_alerts.is_empty(), "{at}");
                    }
                }
            }
        }
    }
}

mod eviction_isolation {
    use superfe::ctrl::{CtrlPlane, TenantSpec};
    use superfe::net::PacketRecord;
    use superfe::nic::{EvictedVector, EvictionPolicy, FeNic, TableBudget};
    use superfe::policy::dsl;
    use superfe::switch::FeSwitch;
    use superfe::{gate, AnalyzeConfig, SuperFeConfig};

    const FLOW_BYTES: &str = "pktstream\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)";

    fn spec(name: &str) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            policy: dsl::parse(FLOW_BYTES).expect("valid"),
            cfg: SuperFeConfig::default(),
        }
    }

    /// A 64-entry DRAM spill: the trace overfills thousands of group-table
    /// buckets, so the budget evicts constantly.
    fn budget() -> TableBudget {
        TableBudget::capped(64, EvictionPolicy::EvictOldest)
    }

    /// ~35k flows from scattered sources (consecutive addresses would
    /// fill the buckets evenly and never spill), every fourth packet
    /// revisiting an earlier flow.
    fn churn() -> Vec<PacketRecord> {
        (0..40_000u32)
            .map(|i| {
                let flow = if i % 4 == 3 { i / 2 } else { i };
                let src = flow.wrapping_mul(2_654_435_761) | 1;
                let size = 60 + (i % 1400) as u16;
                PacketRecord::tcp(u64::from(i) * 50, size, src, 4000, 9, 443)
            })
            .collect()
    }

    /// What the budget evicts when the same switch and engine run in
    /// lock-step on one thread, no executor in between.
    fn lockstep_evicted(pkts: &[PacketRecord]) -> Vec<EvictedVector> {
        let s = spec("lockstep");
        let compiled = gate(&s.policy, &s.cfg).expect("gates");
        let mut sw = FeSwitch::with_config(compiled.switch.clone(), s.cfg.cache, s.cfg.mode)
            .expect("deploys");
        let mut nic =
            FeNic::with_budget(&compiled, s.cfg.cache.fg_table_size, budget()).expect("engine");
        let mut frame = Vec::new();
        for p in pkts {
            sw.process_into(p, &mut frame);
            nic.handle_all(frame.iter());
            frame.clear();
        }
        sw.flush_into(&mut frame);
        nic.handle_all(frame.iter());
        nic.finish();
        nic.take_evicted()
    }

    fn multiset(mut v: Vec<EvictedVector>) -> Vec<EvictedVector> {
        v.sort_by_cached_key(|e| format!("{:?}", e.vector.key));
        v
    }

    /// Serves `names` (equivalent tenants, so they fuse) under the budget,
    /// detaching the first at `detach_at` when set; returns every tenant's
    /// output in attach order.
    fn serve(
        names: &[&str],
        pkts: &[PacketRecord],
        workers: usize,
        detach_at: Option<usize>,
    ) -> Vec<superfe::nic::StreamOutput> {
        let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
        plane.set_table_budget(budget());
        let ids: Vec<_> = names
            .iter()
            .map(|n| plane.attach(&spec(n), None).expect("admitted"))
            .collect();
        assert_eq!(plane.units().len(), 1, "equivalent tenants fuse");
        let mut first = None;
        for (i, p) in pkts.iter().enumerate() {
            if detach_at == Some(i) {
                first = Some(plane.detach(ids[0]).expect("detach handshake"));
            }
            plane.push(p).expect("workers alive");
        }
        let rest = plane.finish().expect("workers alive");
        first
            .into_iter()
            .chain(rest.into_iter().map(|r| r.output))
            .collect()
    }

    /// A budgeted plane hands back every vector its budget evicts: a lone
    /// tenant's equal the lock-step engine's as a multiset, every member of
    /// a fused unit gets its own full copy, and a fused member leaving
    /// mid-stream takes exactly its window's.
    #[test]
    fn budgeted_plane_returns_every_evicted_vector() {
        let pkts = churn();
        let due = multiset(lockstep_evicted(&pkts));
        assert!(due.len() > 1_000, "only {} evictions", due.len());
        let alone = serve(&["a"], &pkts, 1, None);
        assert_eq!(multiset(alone[0].evicted_vectors.clone()), due);
        for member in serve(&["a", "b"], &pkts, 1, None) {
            assert_eq!(multiset(member.evicted_vectors), due);
        }
        let half = pkts.len() / 2;
        let outs = serve(&["a", "b"], &pkts, 1, Some(half));
        let due_half = multiset(lockstep_evicted(&pkts[..half]));
        assert_eq!(multiset(outs[0].evicted_vectors.clone()), due_half);
        assert_eq!(multiset(outs[1].evicted_vectors.clone()), due);
        // Sharded, each shard budgets its own table, so which groups are
        // evicted moves — but every byte still lands in exactly one
        // evicted or final vector of every member.
        let offered: f64 = pkts.iter().map(|p| f64::from(p.size)).sum();
        for member in serve(&["a", "b"], &pkts, 4, None) {
            assert!(!member.evicted_vectors.is_empty());
            let evicted = member.evicted_vectors.iter().map(|e| &e.vector);
            let returned: f64 = evicted
                .chain(&member.group_vectors)
                .map(|v| v.values[0])
                .sum();
            assert_eq!(returned, offered);
        }
    }
}
