//! Property-based equivalence: for arbitrary small traces, the switch+NIC
//! pipeline computes exactly the same features as the software reference
//! (fed µs-truncated timestamps, the metadata resolution).

use std::collections::HashMap;

use proptest::prelude::*;

use superfe::net::{Direction, GroupKey, PacketRecord};
use superfe::{SoftwareExtractor, SuperFe};

#[derive(Clone, Debug)]
struct Spec {
    host: u8,
    port: u8,
    dst: u8,
    size: u16,
    gap_us: u32,
    ingress: bool,
    udp: bool,
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        0u8..6,
        0u8..3,
        0u8..4,
        64u16..1500,
        0u32..50_000,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(host, port, dst, size, gap_us, ingress, udp)| Spec {
            host,
            port,
            dst,
            size,
            gap_us,
            ingress,
            udp,
        })
}

fn to_packets(specs: &[Spec]) -> Vec<PacketRecord> {
    let mut ts = 0u64;
    specs
        .iter()
        .map(|s| {
            ts += u64::from(s.gap_us) * 1_000; // µs-aligned: truncation-lossless
            let mut p = if s.udp {
                PacketRecord::udp(
                    ts,
                    s.size,
                    u32::from(s.host) + 1,
                    1000 + u16::from(s.port),
                    u32::from(s.dst) + 100,
                    443,
                )
            } else {
                PacketRecord::tcp(
                    ts,
                    s.size,
                    u32::from(s.host) + 1,
                    1000 + u16::from(s.port),
                    u32::from(s.dst) + 100,
                    443,
                )
            };
            p.direction = if s.ingress {
                Direction::Ingress
            } else {
                Direction::Egress
            };
            p
        })
        .collect()
}

fn compare(policy: &str, packets: &[PacketRecord]) -> Result<(), TestCaseError> {
    let mut sw = SoftwareExtractor::from_dsl(policy).expect("policy valid");
    let mut hw = SuperFe::from_dsl(policy).expect("policy valid");
    for p in packets {
        sw.push(p);
        hw.push(p);
    }
    let (sw_groups, _) = sw.finish();
    let hw_out = hw.finish();
    let a: HashMap<GroupKey, Vec<f64>> = sw_groups.into_iter().map(|v| (v.key, v.values)).collect();
    let b: HashMap<GroupKey, Vec<f64>> = hw_out
        .group_vectors
        .into_iter()
        .map(|v| (v.key, v.values))
        .collect();
    prop_assert_eq!(a.len(), b.len());
    for (k, va) in &a {
        let vb = b.get(k).expect("group present in pipeline output");
        prop_assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(vb) {
            prop_assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                "group {:?}: {} vs {}",
                k,
                x,
                y
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stats_policy_equivalent(specs in proptest::collection::vec(spec(), 1..250)) {
        let policy = "pktstream\n.groupby(flow)\n.map(ipt, tstamp, f_ipt)\n\
                      .reduce(size, [f_sum, f_mean, f_var, f_min, f_max])\n.collect(flow)\n\
                      .reduce(ipt, [f_mean, f_max])\n.collect(flow)";
        compare(policy, &to_packets(&specs))?;
    }

    #[test]
    fn multi_level_policy_equivalent(specs in proptest::collection::vec(spec(), 1..250)) {
        let policy = "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
                      .groupby(channel)\n.reduce(size, [f_mean])\n.collect(channel)\n\
                      .groupby(host)\n.reduce(size, [f_max])\n.collect(host)";
        compare(policy, &to_packets(&specs))?;
    }

    #[test]
    fn filtered_histogram_policy_equivalent(specs in proptest::collection::vec(spec(), 1..250)) {
        let policy = "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n\
                      .reduce(size, [ft_hist{100, 16}, ft_histlog{64, 2, 8}])\n.collect(flow)";
        compare(policy, &to_packets(&specs))?;
    }

    #[test]
    fn direction_sequence_policy_equivalent(specs in proptest::collection::vec(spec(), 1..200)) {
        let policy = "pktstream\n.groupby(flow)\n.map(one, _, f_one)\n\
                      .map(d, one, f_direction)\n.reduce(d, [f_array{64}])\n\
                      .synthesize(f_norm)\n.collect(flow)";
        compare(policy, &to_packets(&specs))?;
    }
}
