//! Differential tests for live control-plane snapshot/restore: a plane
//! snapshotted mid-stream and restored into a fresh process-equivalent
//! plane must produce **bitwise-identical** remaining output — across
//! worker counts, with SF07xx fusion and SF08xx prefix sharing engaged,
//! after detach of a fused unit's founder, under bounded-state eviction
//! churn with epoch markers in flight, and under a NIC table budget whose
//! evicted vectors are part of the output.

use superfe::ctrl::CtrlError;
use superfe::ctrl::{CtrlPlane, TenantSpec};
use superfe::net::snap::StateReader;
use superfe::net::PacketRecord;
use superfe::nic::{EvictionPolicy, StreamOutput, TableBudget};
use superfe::policy::dsl;
use superfe::switch::CgEvictPolicy;
use superfe::{AnalyzeConfig, SuperFeConfig};

/// Worker counts the snapshot differential must hold for.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

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

/// Same program as [`host_sum`] under another name — fuses with it.
fn host_sum_b() -> TenantSpec {
    spec(
        "host-sum-b",
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

/// Attaches every spec, pushes `pkts`, and returns each tenant's final
/// output keyed by name.
fn run_uninterrupted(
    specs: &[TenantSpec],
    pkts: &[PacketRecord],
    workers: usize,
) -> Vec<(String, StreamOutput)> {
    let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
    for s in specs {
        plane.attach(s, None).expect("admitted");
    }
    for p in pkts {
        plane.push(p).expect("workers alive");
    }
    plane
        .finish()
        .expect("workers alive")
        .into_iter()
        .map(|r| (r.name, r.output))
        .collect()
}

/// Same schedule, but snapshots at `split`, abandons the original plane,
/// restores a fresh one from the bytes, and serves the remainder there.
fn run_restored(
    specs: &[TenantSpec],
    pkts: &[PacketRecord],
    split: usize,
    workers: usize,
) -> Vec<(String, StreamOutput)> {
    let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
    for s in specs {
        plane.attach(s, None).expect("admitted");
    }
    for p in &pkts[..split] {
        plane.push(p).expect("workers alive");
    }
    let bytes = plane.snapshot().expect("snapshot");
    // The snapshotted plane is abandoned (the crash it models); drain it
    // so its worker threads exit cleanly.
    plane.finish().expect("workers alive");
    let mut restored =
        CtrlPlane::restore(AnalyzeConfig::default(), specs, &bytes, |_| None).expect("restore");
    assert_eq!(restored.tenants().len(), specs.len());
    for p in &pkts[split..] {
        restored.push(p).expect("workers alive");
    }
    restored
        .finish()
        .expect("workers alive")
        .into_iter()
        .map(|r| (r.name, r.output))
        .collect()
}

fn assert_outputs_bitwise(
    full: &[(String, StreamOutput)],
    resumed: &[(String, StreamOutput)],
    workers: usize,
) {
    assert_eq!(
        full.len(),
        resumed.len(),
        "tenant count at {workers} workers"
    );
    for (name, out) in full {
        let (_, res) = resumed
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("tenant {name} missing after restore"));
        assert_eq!(
            out.group_vectors, res.group_vectors,
            "{name} group vectors diverged at {workers} workers"
        );
        assert_eq!(
            out.packet_vectors, res.packet_vectors,
            "{name} packet vectors diverged at {workers} workers"
        );
        assert_eq!(
            out.stats.records, res.stats.records,
            "{name} record count diverged at {workers} workers"
        );
        assert_eq!(
            out.stats.vectors, res.stats.vectors,
            "{name} vector count diverged at {workers} workers"
        );
        assert_eq!(
            out.evicted_vectors, res.evicted_vectors,
            "{name} budget-evicted vectors diverged at {workers} workers"
        );
    }
}

/// The headline differential: a plane serving a fused pair, a
/// prefix-shared tenant, and an independent tenant is snapshotted
/// mid-stream; the restored plane's remaining output is bitwise the
/// uninterrupted run's — at every worker count.
#[test]
fn restore_mid_stream_is_bitwise_identical() {
    let specs = [host_sum(), host_sum_b(), host_max(), flow_stats()];
    let pkts = packets(1200);
    for &workers in &WORKER_COUNTS {
        let full = run_uninterrupted(&specs, &pkts, workers);
        let resumed = run_restored(&specs, &pkts, 600, workers);
        assert_outputs_bitwise(&full, &resumed, workers);
    }
}

/// Restore after the fused unit's *founder* detached: the surviving
/// member keeps running under the founder's unit id; restore re-seats the
/// unit onto the survivor and the remaining output stays bitwise.
#[test]
fn restore_after_founder_detach_of_fused_unit() {
    let specs = [host_sum(), host_sum_b()];
    let pkts = packets(1200);
    for &workers in &[1usize, 4] {
        // Reference: attach both, detach the founder at 300, run through.
        let mut reference = CtrlPlane::new(workers, AnalyzeConfig::default());
        let a = reference.attach(&specs[0], None).expect("admitted");
        reference.attach(&specs[1], None).expect("admitted");
        for p in &pkts[..300] {
            reference.push(p).expect("workers alive");
        }
        let ref_gone = reference.detach(a).expect("drain handshake");
        for p in &pkts[300..] {
            reference.push(p).expect("workers alive");
        }
        let full: Vec<_> = reference
            .finish()
            .expect("workers alive")
            .into_iter()
            .map(|r| (r.name, r.output))
            .collect();

        // Same schedule, snapshotted at 600 — after the founder left.
        let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
        let a = plane.attach(&specs[0], None).expect("admitted");
        plane.attach(&specs[1], None).expect("admitted");
        for p in &pkts[..300] {
            plane.push(p).expect("workers alive");
        }
        let gone = plane.detach(a).expect("drain handshake");
        for p in &pkts[300..600] {
            plane.push(p).expect("workers alive");
        }
        let bytes = plane.snapshot().expect("snapshot");
        plane.finish().expect("workers alive");
        // Only the survivor's spec is needed — the founder is gone.
        let mut restored =
            CtrlPlane::restore(AnalyzeConfig::default(), &specs[1..], &bytes, |_| None)
                .expect("restore");
        for p in &pkts[600..] {
            restored.push(p).expect("workers alive");
        }
        let resumed: Vec<_> = restored
            .finish()
            .expect("workers alive")
            .into_iter()
            .map(|r| (r.name, r.output))
            .collect();

        assert_eq!(
            gone.group_vectors, ref_gone.group_vectors,
            "founder's detach output must not depend on the later snapshot"
        );
        assert_outputs_bitwise(&full, &resumed, workers);
    }
}

/// Bounded state + epoch churn: a tenant under an aggressive random-way
/// cache budget (constant CG eviction churn) rides out a mid-stream
/// detach of its neighbor (epoch marker in flight between evictions) and
/// a later snapshot/restore — both tenants stay bitwise.
#[test]
fn restore_under_bounded_state_churn_and_epoch_markers() {
    let mut churn = spec(
        "churny",
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum, f_max])\n.collect(host)",
    );
    churn.cfg.cache.short_count = 64;
    churn.cfg.cache.short_size = 2;
    churn.cfg.cache.aging_t_ns = Some(50_000);
    churn.cfg.cache.policy = CgEvictPolicy::RandomWay { ways: 4, seed: 9 };
    let neighbor = flow_stats();
    let pkts = packets(1000);

    for &workers in &[1usize, 2, 8] {
        let drive = |snapshot_at: Option<usize>| -> (StreamOutput, Vec<(String, StreamOutput)>) {
            let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
            let c = plane.attach(&churn, None).expect("admitted");
            let n = plane.attach(&neighbor, None).expect("admitted");
            assert!(c != n);
            for p in &pkts[..400] {
                plane.push(p).expect("workers alive");
            }
            // Epoch marker between evictions: the churny tenant's cache is
            // evicting on nearly every insert while this detach drains.
            let gone = plane.detach(n).expect("drain handshake");
            for p in &pkts[400..600] {
                plane.push(p).expect("workers alive");
            }
            let mut plane = match snapshot_at {
                Some(_) => {
                    let bytes = plane.snapshot().expect("snapshot");
                    plane.finish().expect("workers alive");
                    CtrlPlane::restore(
                        AnalyzeConfig::default(),
                        std::slice::from_ref(&churn),
                        &bytes,
                        |_| None,
                    )
                    .expect("restore")
                }
                None => plane,
            };
            for p in &pkts[600..] {
                plane.push(p).expect("workers alive");
            }
            let outs = plane
                .finish()
                .expect("workers alive")
                .into_iter()
                .map(|r| (r.name, r.output))
                .collect();
            (gone, outs)
        };
        let (ref_gone, full) = drive(None);
        let (gone, resumed) = drive(Some(600));
        assert!(
            ref_gone.stats.records > 0,
            "neighbor saw records before its detach"
        );
        assert_eq!(gone.group_vectors, ref_gone.group_vectors);
        assert_outputs_bitwise(&full, &resumed, workers);
    }
}

/// A table budget and everything it evicted survive the round trip: a
/// tenant churning through a 64-entry DRAM spill is snapshotted while
/// thousands of evicted vectors wait in its engines, and the restored
/// plane — still bounded by the same budget — hands back exactly the
/// evicted and final vectors of the uninterrupted run.
#[test]
fn restore_keeps_the_budget_and_what_it_evicted() {
    let specs = [spec(
        "flow-bytes",
        "pktstream\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)",
    )];
    // Scattered sources: consecutive addresses would fill the group-table
    // buckets evenly and never spill.
    let pkts: Vec<PacketRecord> = (0..40_000u32)
        .map(|i| {
            let src = i.wrapping_mul(2_654_435_761) | 1;
            PacketRecord::tcp(u64::from(i) * 50, 60 + (i % 1400) as u16, src, 4000, 9, 443)
        })
        .collect();
    for &workers in &[1usize, 4] {
        let drive = |snapshot_at: Option<usize>| -> Vec<(String, StreamOutput)> {
            let mut plane = CtrlPlane::new(workers, AnalyzeConfig::default());
            plane.set_table_budget(TableBudget::capped(64, EvictionPolicy::EvictOldest));
            plane.attach(&specs[0], None).expect("admitted");
            let split = snapshot_at.unwrap_or(0);
            for p in &pkts[..split] {
                plane.push(p).expect("workers alive");
            }
            if snapshot_at.is_some() {
                let bytes = plane.snapshot().expect("snapshot");
                plane.finish().expect("workers alive");
                plane = CtrlPlane::restore(AnalyzeConfig::default(), &specs, &bytes, |_| None)
                    .expect("restore");
            }
            for p in &pkts[split..] {
                plane.push(p).expect("workers alive");
            }
            let runs = plane.finish().expect("workers alive");
            runs.into_iter().map(|r| (r.name, r.output)).collect()
        };
        let full = drive(None);
        assert!(
            full[0].1.evicted_vectors.len() > 1_000,
            "the budget must bite at {workers} workers"
        );
        assert_outputs_bitwise(&full, &drive(Some(25_000)), workers);
    }
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
