//! Differential property test of the analysis-gated optimizer: for random
//! valid policies seeded with rewrite opportunities (tautological filters,
//! fusable `f_one`/`f_direction` pairs, dead maps) and random traces, the
//! optimized policy must produce exactly the feature vectors of the
//! original. This is the executable form of the rewrite-legality argument in
//! DESIGN.md: every rewrite the optimizer is willing to apply is
//! output-preserving on real packet streams, not just on the abstraction.

use proptest::prelude::*;

use superfe::net::{Direction, PacketRecord};
use superfe::policy::ir::opt::optimize;
use superfe::policy::{dsl, Policy, ValueConfig};
use superfe::SoftwareExtractor;

/// Valid single-level policies, biased toward optimizer-relevant shapes.
fn policy_source() -> impl Strategy<Value = String> {
    let gran = prop_oneof![Just("flow"), Just("host"), Just("socket")];
    let filt = prop_oneof![
        Just(""),
        // A real filter the optimizer must keep.
        Just(".filter(tcp.exist)\n"),
        // Provably true on the packet abstraction: removed entirely.
        Just(".filter(size <= 65535)\n"),
        // One tautological conjunct: dropped, the rest kept.
        Just(".filter(tcp.exist and size <= 65535)\n"),
        // Adjacent filters: fused into one conjunction.
        Just(".filter(tcp.exist)\n.filter(size > 100)\n"),
    ];
    let maps = prop_oneof![
        Just(""),
        // f_one feeds f_direction and nothing else: fusable, feeder dies.
        Just(".map(one, _, f_one)\n.map(d, one, f_direction)\n.reduce(d, [f_sum])\n"),
        // The feeder is still consumed downstream: it must survive fusion.
        Just(
            ".map(one, _, f_one)\n.map(d, one, f_direction)\n.reduce(d, [f_sum])\n\
             .reduce(one, [f_sum])\n"
        ),
        // A map nothing reads: dead-field elimination.
        Just(".map(unused, tstamp, f_ipt)\n"),
    ];
    let reduce = prop_oneof![
        Just("[f_sum]"),
        Just("[f_mean, f_var]"),
        Just("[f_min, f_max, f_std]"),
        Just("[ft_hist{100, 16}]"),
    ];
    (gran, filt, maps, reduce).prop_map(|(g, f, m, r)| {
        format!("pktstream\n{f}.groupby({g})\n{m}.reduce(size, {r})\n.collect({g})")
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

/// Runs the software reference extractor, returning key-sorted vectors.
fn run(policy: &Policy, pkts: &[PacketRecord]) -> Vec<(String, Vec<f64>)> {
    let mut fe = SoftwareExtractor::new(policy).expect("valid policy");
    for p in pkts {
        fe.push(p);
    }
    let (groups, per_pkt) = fe.finish();
    let mut out: Vec<(String, Vec<f64>)> = groups
        .into_iter()
        .chain(per_pkt)
        .map(|v| (format!("{:?}", v.key), v.values))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn optimized_policies_are_output_preserving(
        src in policy_source(),
        pkts in trace(),
    ) {
        let policy = dsl::parse(&src).expect("generated policy is valid");
        let optimized = optimize(&policy, &ValueConfig::default());
        let base = run(&policy, &pkts);
        let opt = run(&optimized.policy, &pkts);
        prop_assert!(
            base == opt,
            "rewrites {:?} changed outputs for:\n{}",
            optimized.rewrites,
            src
        );
    }
}
