//! The stream-position gate, checked at the plane.
//!
//! A candidate may share a unit or a switch partition only while the
//! stream is still at that unit's attach point; past it, the shared state
//! would owe the candidate history it must not see. Both shapes here put a
//! would-be sharer past the point — live, and across a snapshot/restore —
//! and require fresh hardware and bitwise solo output for every tenant.

use superfe_core::analyze::AnalyzeConfig;
use superfe_core::pipeline::SuperFeConfig;
use superfe_core::StreamingPipeline;
use superfe_ctrl::{CtrlPlane, TenantRun, TenantSpec};
use superfe_net::PacketRecord;
use superfe_policy::dsl::parse;

/// Packets pushed before the late candidate attaches.
const LATE: usize = 100;

fn spec(name: &str, src: &str) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        policy: parse(src).unwrap(),
        cfg: SuperFeConfig::default(),
    }
}

fn host_sum() -> TenantSpec {
    spec(
        "host-sum",
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
    )
}

/// The same program as [`host_sum`]: fuses with it at its attach point.
fn host_sum_b() -> TenantSpec {
    spec(
        "host-sum-b",
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
    )
}

/// Shares [`host_sum`]'s switch prefix with another reduce tail: shares
/// its partition at its attach point.
fn host_max() -> TenantSpec {
    spec(
        "host-max",
        "pktstream\n.groupby(host)\n.reduce(size, [f_max])\n.collect(host)",
    )
}

fn packets(n: u64) -> Vec<PacketRecord> {
    (0..n)
        .map(|i| {
            if i % 5 == 0 {
                PacketRecord::udp(i * 700, 90, (i % 13 + 1) as u32, 53, 4, 53)
            } else {
                PacketRecord::tcp(
                    i * 700,
                    400 + (i % 37) as u16,
                    (i % 13 + 1) as u32,
                    1500,
                    4,
                    443,
                )
            }
        })
        .collect()
}

/// `spec` run alone over `window`.
fn solo(spec: &TenantSpec, window: &[PacketRecord], workers: usize) -> String {
    let mut fe = StreamingPipeline::with_config(&spec.policy, spec.cfg, workers).unwrap();
    for p in window {
        fe.push(p).unwrap();
    }
    let out = fe.finish().unwrap();
    format!("{:?} {:?}", out.group_vectors, out.packet_vectors)
}

/// Requires every run to be bitwise its tenant's solo run over its window:
/// the whole trace for tenants attached at position zero, the trace from
/// [`LATE`] on for the rest.
fn assert_solo(runs: &[TenantRun], early: &[TenantSpec], pkts: &[PacketRecord], workers: usize) {
    for run in runs {
        let spec = [host_sum(), host_sum_b(), host_max()]
            .into_iter()
            .find(|s| s.name == run.name)
            .unwrap();
        let window = if early.iter().any(|s| s.name == run.name) {
            pkts
        } else {
            &pkts[LATE..]
        };
        let got = format!(
            "{:?} {:?}",
            run.output.group_vectors, run.output.packet_vectors
        );
        assert_eq!(
            got,
            solo(&spec, window, workers),
            "{} at {workers} workers",
            run.name
        );
    }
}

#[test]
fn a_late_prefix_sharer_gets_a_partition_of_its_own() {
    let pkts = packets(600);
    for workers in [1, 3] {
        let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
        let a = plane.attach(&host_sum(), None).unwrap();
        for p in &pkts[..LATE] {
            plane.push(p).unwrap();
        }
        let b = plane.attach(&host_max(), None).unwrap();
        assert_eq!(plane.units(), vec![(a, 1), (b, 1)]);
        assert_eq!(plane.groups(), vec![(a, 1), (b, 1)]);
        for p in &pkts[LATE..] {
            plane.push(p).unwrap();
        }
        let runs = plane.finish().unwrap();
        assert_eq!(runs.len(), 2);
        assert_solo(&runs, &[host_sum()], &pkts, workers);
    }
}

#[test]
fn a_restored_plane_past_the_attach_point_shares_nothing() {
    let pkts = packets(600);
    for workers in [1, 3] {
        let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
        let a = plane.attach(&host_sum(), None).unwrap();
        for p in &pkts[..LATE] {
            plane.push(p).unwrap();
        }
        let bytes = plane.snapshot().unwrap();
        plane.finish().unwrap();

        // An equivalent candidate and a prefix-sharing one, each on a plane
        // restored from the same bytes.
        for candidate in [host_sum_b(), host_max()] {
            let mut plane =
                CtrlPlane::restore(AnalyzeConfig::default(), &[host_sum()], &bytes, |_| None)
                    .unwrap();
            assert_eq!(plane.pushed(), LATE as u64);
            let b = plane.attach(&candidate, None).unwrap();
            assert_eq!(plane.units(), vec![(a, 1), (b, 1)], "{}", candidate.name);
            assert_eq!(plane.groups(), vec![(a, 1), (b, 1)], "{}", candidate.name);
            for p in &pkts[LATE..] {
                plane.push(p).unwrap();
            }
            let runs = plane.finish().unwrap();
            assert_eq!(runs.len(), 2);
            assert_solo(&runs, &[host_sum()], &pkts, workers);
        }
    }
}
