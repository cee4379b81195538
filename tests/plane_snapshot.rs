//! Differential tests for live control-plane snapshot/restore: a plane
//! snapshotted mid-stream and restored into a fresh process-equivalent
//! plane must produce **bitwise-identical** remaining output — across
//! worker counts, with SF07xx fusion and SF08xx prefix sharing engaged,
//! after detach of a fused unit's founder, under bounded-state eviction
//! churn with epoch markers in flight, and under a NIC table budget whose
//! evicted vectors are part of the output.

mod plane;

use plane::Op::{Attach, Budget, Detach, Duplicate, Restore, Sharer};
use plane::{attach, budget, check, push, steady, WORKER_COUNTS};
use superfe::ctrl::CtrlError;
use superfe::ctrl::{CtrlPlane, TenantSpec};
use superfe::net::snap::StateReader;
use superfe::net::PacketRecord;
use superfe::policy::dsl;
use superfe::{AnalyzeConfig, SuperFeConfig};

fn spec(name: &str, src: &str) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        policy: dsl::parse(src).expect("pool policy is valid"),
        cfg: SuperFeConfig::default(),
    }
}

fn host_sum() -> TenantSpec {
    spec(
        "host-sum",
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
    )
}

/// Shares the `groupby(host)` switch prefix with [`host_sum`] but keeps a
/// distinct reduce tail — prefix-shares, never fuses.
fn host_max() -> TenantSpec {
    spec(
        "host-max",
        "pktstream\n.groupby(host)\n.reduce(size, [f_max])\n.collect(host)",
    )
}

fn flow_stats() -> TenantSpec {
    spec(
        "flow-stats",
        "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_mean, f_max])\n\
         .collect(flow)",
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

/// The headline differential: a plane serving a fused pair, a sinked
/// prefix sharer and an independent tenant is snapshotted mid-stream, and
/// the restored plane goes on bitwise as the uninterrupted one — at every
/// worker count.
#[test]
fn restore_mid_stream_is_bitwise_identical() {
    let ops = [
        attach(0),
        Duplicate { n: 0, sinks: false },
        Sharer { n: 0, sinks: true },
        attach(1),
        push(600),
        Restore,
    ];
    let reached = check(&ops, &steady(1200), &WORKER_COUNTS);
    let shape = "restored with fusion and prefix sharing";
    assert!(reached.contains(shape), "{reached:?}");
}

/// Restore after the fused unit's *founder* detached: the surviving
/// member keeps running under the founder's unit id, and restore re-seats
/// the unit onto the survivor.
#[test]
fn restore_after_founder_detach_of_fused_unit() {
    let ops = [
        attach(0),
        Duplicate { n: 0, sinks: false },
        push(300),
        Detach(0),
        push(300),
        Restore,
    ];
    let reached = check(&ops, &steady(1200), &[1, 4]);
    assert!(
        reached.contains("restored after founder detach"),
        "{reached:?}"
    );
}

/// Bounded state + epoch churn: a tenant under the tight cache (CG
/// eviction on nearly every insert) rides out its neighbor's detach, an
/// epoch marker in flight between evictions, and a later restore.
#[test]
fn restore_under_bounded_state_churn_and_epoch_markers() {
    let ops = [
        Attach {
            policy: 0,
            sinks: false,
            tight: true,
        },
        attach(1),
        push(400),
        Detach(1),
        push(200),
        Restore,
    ];
    let reached = check(&ops, &steady(1000), &[1, 2, 8]);
    assert!(
        reached.contains("tight cache across a restore"),
        "{reached:?}"
    );
}

/// A table budget and everything it evicted survive the round trip: the
/// restored plane, still bounded by the budget, hands back exactly the
/// evicted and final vectors of the solo run.
#[test]
fn restore_keeps_the_budget_and_what_it_evicted() {
    let ops = [Budget(budget(1, 1)), attach(1), push(500), Restore];
    let reached = check(&ops, &steady(1000), &[1, 4]);
    let shape = "restored under a budget that evicts";
    assert!(reached.contains(shape), "{reached:?}");
}

/// Corrupt, truncated, or mismatched snapshots are refused — and a spec
/// set that doesn't match the saved topology is named in the error.
#[test]
fn restore_rejects_bad_bytes_and_wrong_specs() {
    let specs = [host_sum()];
    let pkts = packets(200);
    let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
    plane.attach(&specs[0], None).expect("admitted");
    for p in &pkts {
        plane.push(p).expect("workers alive");
    }
    let bytes = plane.snapshot().expect("snapshot");
    plane.finish().expect("workers alive");

    assert!(CtrlPlane::restore(AnalyzeConfig::default(), &specs, b"junk", |_| None).is_err());
    assert!(
        CtrlPlane::restore(
            AnalyzeConfig::default(),
            &specs,
            &bytes[..bytes.len() / 2],
            |_| None
        )
        .is_err(),
        "truncated snapshot must be refused"
    );
    // Same tenant name, different program: the canonical-hash check
    // refuses the swap instead of silently diverging.
    let mut wrong = flow_stats();
    wrong.name = "host-sum".into();
    assert!(
        CtrlPlane::restore(AnalyzeConfig::default(), &[wrong], &bytes, |_| None).is_err(),
        "hash-mismatched spec must be refused"
    );
    // And the happy path still works with the right spec.
    let restored =
        CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes, |_| None).expect("restore");
    assert_eq!(restored.tenants().len(), 1);
    assert_eq!(restored.workers(), 2);
    restored.finish().expect("workers alive");
}

/// The format is versioned strictly: bytes that claim the previous layout
/// (v3, which carried a section of per-partition routed counters) restore
/// to the typed version error, never to a misread.
#[test]
fn restore_refuses_a_version_3_snapshot() {
    let specs = [host_sum()];
    let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
    plane.attach(&specs[0], None).expect("admitted");
    for p in &packets(200) {
        plane.push(p).expect("workers alive");
    }
    let mut bytes = plane.snapshot().expect("snapshot");
    plane.finish().expect("workers alive");

    // The version follows the length-prefixed magic.
    let mut r = StateReader::new(&bytes);
    r.get_bytes().expect("magic");
    let version_field = bytes.len() - r.remaining();
    assert_eq!(r.get_u16(), Some(superfe::ctrl::SNAPSHOT_VERSION));
    bytes[version_field..version_field + 2].copy_from_slice(&3u16.to_le_bytes());
    match CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes, |_| None) {
        Err(CtrlError::Snapshot(msg)) => assert!(msg.contains("version 3"), "{msg}"),
        Err(other) => panic!("expected a snapshot error, got {other}"),
        Ok(_) => panic!("a version 3 snapshot must not restore"),
    }
}

/// Bytes that claim v4 — whose NIC section kept one vector buffer per unit
/// for its sinkless members, where v5 writes one per member — restore to
/// the typed version error too.
#[test]
fn restore_refuses_a_version_4_snapshot() {
    let specs = [host_sum()];
    let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
    plane.attach(&specs[0], None).expect("admitted");
    let mut bytes = plane.snapshot().expect("snapshot");
    plane.finish().expect("workers alive");

    let mut r = StateReader::new(&bytes);
    r.get_bytes().expect("magic");
    let version_field = bytes.len() - r.remaining();
    assert_eq!(r.get_u16(), Some(superfe::ctrl::SNAPSHOT_VERSION));
    bytes[version_field..version_field + 2].copy_from_slice(&4u16.to_le_bytes());
    match CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes, |_| None) {
        Err(CtrlError::Snapshot(msg)) => assert!(msg.contains("version 4"), "{msg}"),
        Err(other) => panic!("expected a snapshot error, got {other}"),
        Ok(_) => panic!("a version 4 snapshot must not restore"),
    }
}

/// A vector count is checked against the bytes left before anything is
/// reserved for it: a per-group policy's snapshot ends in its one shard's
/// (zero) count of accumulated per-packet vectors, and a count patched to
/// `u32::MAX` restores to a typed error, not an abort.
#[test]
fn restore_rejects_a_vector_count_the_bytes_cannot_hold() {
    let specs = [host_sum()];
    let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
    plane.attach(&specs[0], None).expect("admitted");
    for p in &packets(200) {
        plane.push(p).expect("workers alive");
    }
    let mut bytes = plane.snapshot().expect("snapshot");
    plane.finish().expect("workers alive");

    let count = bytes.len() - 4;
    assert_eq!(bytes[count..], [0; 4]);
    bytes[count..].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes, |_| None)
        .err()
        .expect("a count past the end of the bytes restored");
    assert!(
        matches!(&err, CtrlError::Snapshot(m) if m.contains("accumulated vector count")),
        "{err}"
    );
}

/// A group's general-lane reducer is checked against the policy before it
/// is adopted: a histogram whose bin count is patched to `u32::MAX` restores
/// to a typed error, not a 32 GiB reservation and an abort.
#[test]
fn restore_rejects_a_histogram_bin_count_the_bytes_cannot_hold() {
    let specs = [spec(
        "host-hist",
        "pktstream\n.groupby(host)\n.reduce(size, [ft_hist{100, 16}])\n.collect(host)",
    )];
    let mut plane = CtrlPlane::new(1, AnalyzeConfig::default());
    plane.attach(&specs[0], None).expect("admitted");
    for p in &packets(5_000) {
        plane.push(p).expect("workers alive");
    }
    let bytes = plane.snapshot().expect("snapshot");
    plane.finish().expect("workers alive");

    // Each host group's histogram: the reducer's tag, the fixed binning's
    // tag and width, then the bin count.
    let mut head = vec![6, 0];
    head.extend(100f64.to_le_bytes());
    head.extend(16u32.to_le_bytes());
    let mut patched = bytes.clone();
    let mut groups = 0;
    for at in 0..bytes.len() - head.len() {
        if bytes[at..at + head.len()] == head[..] {
            let bins = at + head.len() - 4;
            patched[bins..bins + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            groups += 1;
        }
    }
    assert_eq!(groups, 13, "one histogram per host");
    match CtrlPlane::restore(AnalyzeConfig::default(), &specs, &patched, |_| None) {
        Err(CtrlError::Snapshot(msg)) => assert!(msg.contains("engine state"), "{msg}"),
        Err(other) => panic!("expected a snapshot error, got {other}"),
        Ok(_) => panic!("a histogram of u32::MAX bins must not restore"),
    }
    let restored =
        CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes, |_| None).expect("restore");
    restored.finish().expect("workers alive");
}

/// The topology section is checked edge by edge, not trusted: bytes that
/// point a unit at another partition's group restore to a typed error,
/// never to a plane that would feed the unit a foreign event stream.
#[test]
fn restore_rejects_a_unit_rewired_to_a_foreign_group() {
    let specs = [host_sum(), flow_stats(), host_max()];
    let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
    let a = plane.attach(&specs[0], None).expect("admitted");
    let b = plane.attach(&specs[1], None).expect("admitted");
    let c = plane.attach(&specs[2], None).expect("admitted");
    // host-max is the *second* unit of host-sum's partition — the edge a
    // founder-only check never looks at.
    assert_eq!(plane.groups(), vec![(a, 2), (b, 1)], "two partitions");
    for p in &packets(200) {
        plane.push(p).expect("workers alive");
    }
    let bytes = plane.snapshot().expect("snapshot");
    plane.finish().expect("workers alive");

    // Walk the header to host-max's group field: magic, version, workers,
    // sharing flag, id allocator, epoch, position; the slots (id, name);
    // then per unit id, plan hash, *group*, position, members.
    let mut r = StateReader::new(&bytes);
    r.get_bytes().expect("magic");
    r.get_u16().expect("version");
    r.get_u32().expect("workers");
    r.get_bool().expect("sharing flag");
    r.get_u32().expect("id allocator");
    r.get_u64().expect("epoch");
    r.get_u64().expect("position");
    for _ in 0..r.get_u16().expect("slot count") {
        r.get_u16().expect("slot id");
        r.get_str().expect("slot name");
    }
    assert_eq!(r.get_u16(), Some(3), "three units");
    let mut group_field = 0;
    for (unit, group) in [(a, a), (b, b), (c, a)] {
        assert_eq!(r.get_u16(), Some(unit.0), "unit id");
        r.get_u64().expect("plan hash");
        group_field = bytes.len() - r.remaining();
        assert_eq!(r.get_u16(), Some(group.0), "unit group");
        r.get_u64().expect("attach position");
        assert_eq!(r.get_u16(), Some(1), "one member");
        r.get_u16().expect("member");
    }
    let mut rewired = bytes.clone();
    rewired[group_field..group_field + 2].copy_from_slice(&b.0.to_le_bytes());

    match CtrlPlane::restore(AnalyzeConfig::default(), &specs, &rewired, |_| None) {
        Err(CtrlError::Snapshot(msg)) => assert!(msg.contains("host-max"), "{msg}"),
        Err(other) => panic!("expected a snapshot error, got {other}"),
        Ok(_) => panic!("a unit rewired to a foreign group must not restore"),
    }
    // The untouched bytes still restore.
    let restored =
        CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes, |_| None).expect("restore");
    assert_eq!(restored.groups(), vec![(a, 2), (b, 1)]);
    restored.finish().expect("workers alive");
}
