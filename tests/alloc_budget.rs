//! The allocation budget of the NIC hot path, held deterministically: how
//! many heap allocations `FeNic::handle` makes for one Kitsune record that
//! lands in existing groups, and how many more for one that opens a socket
//! and a channel — and that scoring the record's vector in the shard's
//! inference stage, with the float KitNET or its fixed-point plan, adds
//! none, one vector at a time or a frame's vectors as one batch — and that a
//! one-partition shared switch, the front-end the threaded
//! pipelines drive, allocates what a solo switch does. Timing benches show
//! the same thing on a quiet host; this counts, so it fails the same way
//! everywhere.
//!
//! A counting `#[global_allocator]` needs `unsafe impl GlobalAlloc`, which is
//! why this file — and only this file — lifts the workspace's
//! `unsafe_code = "deny"`. It is a test binary of its own so the allocator
//! is installed nowhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use superfe::apps::policies::{KITSUNE, NPOD};
use superfe::ml::{
    quantize, train_and_calibrate, CalibrationConfig, DetectorKind, KernelWidth, QuantConfig,
    SharedScorer,
};
use superfe::net::PacketRecord;
use superfe::nic::{FeNic, InlineInference};
use superfe::policy::exec::SLAB_CHUNK_GROUPS;
use superfe::policy::{compile, dsl};
use superfe::switch::tenant::{SharedSwitch, TenantId};
use superfe::switch::{CacheMode, FeSwitch, MgpvConfig, MgpvMessage, SwitchEvent};
use superfe::trafficgen::intrusion::{generate, IntrusionConfig, Scenario};

thread_local! {
    /// Allocations made by this thread (the harness's other threads do not
    /// disturb the count). `const` so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds (`try_with` covers thread teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growing a buffer counts as an allocation.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Runs `packets` through the switch and flushes it, then splits every MGPV
/// message into one message per record, so one `handle` is one record.
fn events_per_record(sw: &mut FeSwitch, packets: &[PacketRecord]) -> Vec<SwitchEvent> {
    let mut events = Vec::new();
    for p in packets {
        sw.process_into(p, &mut events);
    }
    sw.flush_into(&mut events);
    let mut split = Vec::new();
    for e in events {
        match e {
            SwitchEvent::Mgpv(m) => split.extend(m.records.iter().map(|r| {
                SwitchEvent::Mgpv(MgpvMessage {
                    records: vec![*r],
                    ..m.clone()
                })
            })),
            other => split.push(other),
        }
    }
    split
}

fn is_record(e: &SwitchEvent) -> bool {
    matches!(e, SwitchEvent::Mgpv(_))
}

#[test]
fn kitsune_records_stay_within_their_allocation_budget() {
    const RECORDS: usize = 64;
    let compiled = compile(&dsl::parse(KITSUNE).unwrap()).unwrap();
    let mut sw = FeSwitch::new(compiled.switch.clone()).unwrap();
    let mut nic = FeNic::new(&compiled, MgpvConfig::default().fg_table_size).unwrap();
    let mut ts = 0u64;
    let mut packet = |src_port: u16, dst_ip: u32| {
        ts += 1_000;
        PacketRecord::tcp(ts, 400, 1, src_port, dst_ip, 80)
    };

    // One socket of host 1, long enough that every buffer has its size.
    let warm: Vec<_> = (0..RECORDS).map(|_| packet(1000, 2)).collect();
    for e in events_per_record(&mut sw, &warm) {
        nic.handle(&e);
        drop(nic.take_packet_vectors());
    }

    // Steady state: the record's 115-value vector, and the buffer of pending
    // vectors regrown because `take_packet_vectors` handed it away.
    const STEADY: u64 = 2;
    let steady: Vec<_> = (0..RECORDS).map(|_| packet(1000, 2)).collect();
    let steady = events_per_record(&mut sw, &steady);
    assert_eq!(steady.iter().filter(|e| is_record(e)).count(), RECORDS);
    for e in &steady {
        let n = allocations(|| {
            nic.handle(e);
            drop(nic.take_packet_vectors());
        });
        assert_eq!(n, STEADY * u64::from(is_record(e)), "steady record");
    }

    // Every record a new socket and a new channel of the same host: at most
    // five allocations above steady state (two lanes for the socket group,
    // three for the channel group).
    let fresh: Vec<_> = (0..RECORDS as u16)
        .map(|i| packet(2000 + i, 100 + u32::from(i)))
        .collect();
    let fresh = events_per_record(&mut sw, &fresh);
    let before = nic.groups_per_level();
    for e in &fresh {
        let n = allocations(|| {
            nic.handle(e);
            drop(nic.take_packet_vectors());
        });
        assert!(
            n <= (STEADY + 5) * u64::from(is_record(e)),
            "opening record: {n}"
        );
    }
    let after = nic.groups_per_level();
    assert_eq!(after[0].1 - before[0].1, RECORDS, "sockets opened");
    assert_eq!(after[1].1 - before[1].1, RECORDS, "channels opened");
    assert_eq!(after[2].1, before[2].1, "same host throughout");
}

/// A record that opens a socket and a channel allocates the groups' state
/// and nothing more: one block of damped banks for the socket, and one block
/// plus the `f_ipt` map state for the channel.
#[test]
fn opening_a_socket_and_a_channel_allocates_their_state_and_nothing_more() {
    const RECORDS: usize = 64;
    const STEADY: u64 = 2;
    let compiled = compile(&dsl::parse(KITSUNE).unwrap()).unwrap();
    let mut sw = FeSwitch::new(compiled.switch.clone()).unwrap();
    let mut nic = FeNic::new(&compiled, MgpvConfig::default().fg_table_size).unwrap();
    // One socket of host 1 first, so every buffer has its size.
    let warm: Vec<_> = (0..RECORDS as u64)
        .map(|i| PacketRecord::tcp(1_000 * (i + 1), 400, 1, 1000, 2, 80))
        .collect();
    for e in events_per_record(&mut sw, &warm) {
        nic.handle(&e);
        drop(nic.take_packet_vectors());
    }
    let fresh: Vec<_> = (0..RECORDS as u16)
        .map(|i| {
            let ts = 1_000 * (RECORDS as u64 + 1 + u64::from(i));
            PacketRecord::tcp(ts, 400, 1, 2000 + i, 100 + u32::from(i), 80)
        })
        .collect();
    let before = nic.groups_per_level();
    for e in &events_per_record(&mut sw, &fresh) {
        let n = allocations(|| {
            nic.handle(e);
            drop(nic.take_packet_vectors());
        });
        assert!(
            n <= (STEADY + 3) * u64::from(is_record(e)),
            "opening record: {n}"
        );
    }
    let after = nic.groups_per_level();
    assert_eq!(after[0].1 - before[0].1, RECORDS, "sockets opened");
    assert_eq!(after[1].1 - before[1].1, RECORDS, "channels opened");
    assert_eq!(after[2].1, before[2].1, "same host throughout");
}

/// A Kitsune group allocates nothing of its own: its state is a block of its
/// level's slab. Sixty-four records that each open a socket and a channel
/// cost the steady-state allocations plus the chunks the slabs grew by — one
/// per `SLAB_CHUNK_GROUPS` groups of a slab: a socket's bank words, and a
/// channel's (or a host's) bank words and `f_ipt` map state.
#[test]
fn opening_groups_costs_only_the_slab_chunks_they_fill() {
    const RECORDS: usize = 64;
    const STEADY: u64 = 2;
    let compiled = compile(&dsl::parse(KITSUNE).unwrap()).unwrap();
    let mut sw = FeSwitch::new(compiled.switch.clone()).unwrap();
    let mut nic = FeNic::new(&compiled, MgpvConfig::default().fg_table_size).unwrap();
    let warm: Vec<_> = (0..RECORDS as u64)
        .map(|i| PacketRecord::tcp(1_000 * (i + 1), 400, 1, 1000, 2, 80))
        .collect();
    for e in events_per_record(&mut sw, &warm) {
        nic.handle(&e);
        drop(nic.take_packet_vectors());
    }
    let fresh: Vec<_> = (0..RECORDS as u16)
        .map(|i| {
            let ts = 1_000 * (RECORDS as u64 + 1 + u64::from(i));
            PacketRecord::tcp(ts, 400, 1, 2000 + i, 100 + u32::from(i), 80)
        })
        .collect();
    let fresh = events_per_record(&mut sw, &fresh);
    let before = nic.groups_per_level();
    let n = allocations(|| {
        for e in &fresh {
            nic.handle(e);
            drop(nic.take_packet_vectors());
        }
    });
    let after = nic.groups_per_level();
    let chunks = |level: usize| {
        (after[level].1.div_ceil(SLAB_CHUNK_GROUPS) - before[level].1.div_ceil(SLAB_CHUNK_GROUPS))
            as u64
    };
    let grown = chunks(0) + 2 * chunks(1) + 2 * chunks(2);
    assert!(grown > 0, "the fresh groups filled no chunk");
    assert!(
        n <= RECORDS as u64 * STEADY + grown,
        "{n} allocations for {RECORDS} opening records ({grown} chunks grown)"
    );
}

/// Flows a test opens at once.
const FLOWS: usize = 64;

/// One packet of each of [`FLOWS`] flows at `ts` (source ports from 3000),
/// through the switch and flushed, one event per record.
fn flow_records(sw: &mut FeSwitch, ts: u64) -> Vec<SwitchEvent> {
    let packets: Vec<_> = (0..FLOWS as u16)
        .map(|i| PacketRecord::tcp(ts + u64::from(i), 400, 1, 3000 + i, 2, 80))
        .collect();
    events_per_record(sw, &packets)
}

/// A flow policy's switch and engine, warmed by one flow of its own so
/// every buffer has its size.
fn flow_engine(src: &str) -> (FeSwitch, FeNic) {
    let compiled = compile(&dsl::parse(src).unwrap()).unwrap();
    let mut sw = FeSwitch::new(compiled.switch.clone()).unwrap();
    let mut nic = FeNic::new(&compiled, MgpvConfig::default().fg_table_size).unwrap();
    let warm: Vec<_> = (0..4u64)
        .map(|i| PacketRecord::tcp(1_000 * (i + 1), 400, 1, 1000, 2, 80))
        .collect();
    nic.handle_all(&events_per_record(&mut sw, &warm));
    drop(nic.finish());
    (sw, nic)
}

/// Allocations of `nic` handling `events`, and the chunks its one level's
/// slab grew by in them, one per [`SLAB_CHUNK_GROUPS`] groups of a lane.
fn open_flows(nic: &mut FeNic, events: &[SwitchEvent]) -> (u64, u64) {
    let before = nic.groups_per_level()[0].1;
    let n = allocations(|| nic.handle_all(events));
    let after = nic.groups_per_level()[0].1;
    let grown = after.div_ceil(SLAB_CHUNK_GROUPS) - before.div_ceil(SLAB_CHUNK_GROUPS);
    (n, grown as u64)
}

/// Groups outside the damped family allocate nothing of their own either:
/// a `flow_bytes`, `flow_stats` or NPOD group's sums, extremes, Welford
/// moments and histograms are words of its level's slab, so records that
/// each open a flow cost the chunks the slab grew by and nothing more — a
/// word lane, and a map-state lane for the two with maps.
#[test]
fn opening_flow_groups_costs_only_the_slab_chunks_they_fill() {
    const FLOW_BYTES: &str =
        "pktstream\n.groupby(flow)\n.reduce(size, [f_sum, f_max])\n.collect(flow)";
    let flow_stats = include_str!("../examples/flow_stats.sfe");
    for (name, src, lanes) in [
        ("flow_bytes", FLOW_BYTES, 1),
        ("flow_stats", flow_stats, 2),
        ("npod", NPOD, 2),
    ] {
        let (mut sw, mut nic) = flow_engine(src);
        let (n, grown) = open_flows(&mut nic, &flow_records(&mut sw, 1_000_000));
        assert_eq!(
            nic.groups_per_level()[0].1,
            1 + FLOWS,
            "{name}: flows opened"
        );
        assert!(grown > 0, "{name}: the fresh groups filled no chunk");
        assert!(
            n <= lanes * grown,
            "{name}: {n} allocations for {FLOWS} opening records ({grown} chunks grown)"
        );
    }
}

/// An `f_array` keeps one growing sequence per group, and the sequence
/// allocates on its first sample, not before: over `f_ipt`, a flow's first
/// packet brings no sample, so opening the flows costs the slab's chunks
/// alone, and each flow's second packet allocates once.
#[test]
fn an_array_allocates_on_its_first_sample() {
    const IPT_SEQ: &str = "pktstream\n.groupby(flow)\n.map(ipt, tstamp, f_ipt)\n\
                           .reduce(ipt, [f_array{5000}])\n.collect(flow)";
    let (mut sw, mut nic) = flow_engine(IPT_SEQ);
    let (opened, grown) = open_flows(&mut nic, &flow_records(&mut sw, 1_000_000));
    // Map states, words and sequences: three lanes.
    assert!(
        grown > 0 && opened <= 3 * grown,
        "{opened} allocations to open"
    );
    let (sampled, grown) = open_flows(&mut nic, &flow_records(&mut sw, 2_000_000));
    assert_eq!((sampled, grown), (FLOWS as u64, 0), "first samples");
    let (steady, _) = open_flows(&mut nic, &flow_records(&mut sw, 3_000_000));
    assert_eq!(steady, 0, "second samples");
}

/// A steady-state Kitsune record whose vector is scored where it is
/// finalized costs the allocations of the unscored record: the scorers keep
/// their activations in per-thread scratch that has its size after one score.
#[test]
fn scoring_a_kitsune_record_in_the_shard_allocates_nothing() {
    const RECORDS: usize = 64;
    const STEADY: u64 = 2;
    let compiled = compile(&dsl::parse(KITSUNE).unwrap()).unwrap();
    let mut sw = FeSwitch::new(compiled.switch.clone()).unwrap();
    let mut nic = FeNic::new(&compiled, MgpvConfig::default().fg_table_size).unwrap();
    let mut ts = 0u64;
    let mut packets = |n: usize| -> Vec<PacketRecord> {
        (0..n)
            .map(|i| {
                ts += 1_000 + (i as u64 % 7) * 300;
                PacketRecord::tcp(ts, 100 + (i % 11) as u16 * 120, 1, 1000, 2, 80)
            })
            .collect()
    };

    // Train on the socket's own vectors; a threshold far above them, so no
    // record raises an alert (an alert is buffered, which allocates).
    let mut train = Vec::new();
    for e in events_per_record(&mut sw, &packets(400)) {
        nic.handle(&e);
        train.extend(nic.take_packet_vectors());
    }
    let refs: Vec<&[f64]> = train.iter().map(|v| v.values.as_slice()).collect();
    let float = train_and_calibrate(
        DetectorKind::KitNet.build(refs[0].len(), 4).unwrap(),
        &refs,
        0.2,
        CalibrationConfig {
            quantile: 1.0,
            margin: 100.0,
        },
    )
    .unwrap();
    let quant = quantize(&float, &QuantConfig::default()).unwrap();

    let models: [(&str, SharedScorer); 2] =
        [("Q39.24", Arc::new(quant)), ("float", Arc::new(float))];
    for (name, model) in models {
        let mut stage = InlineInference::new(model, 0);
        for e in events_per_record(&mut sw, &packets(RECORDS)) {
            nic.handle(&e);
            score_pending(&mut nic, &mut stage);
        }
        let steady = events_per_record(&mut sw, &packets(RECORDS));
        for e in &steady {
            let n = allocations(|| {
                nic.handle(e);
                score_pending(&mut nic, &mut stage);
            });
            assert_eq!(n, STEADY * u64::from(is_record(e)), "scored by {name}");
        }
        let (alerts, stats) = stage.into_parts();
        assert!(alerts.is_empty(), "scored by {name}");
        assert_eq!(stats.scored as usize, 2 * RECORDS, "scored by {name}");
    }
}

/// A shard scores the vectors a frame drained as one batch: the Q39.24
/// plan runs full tiles in exact `f64` lanes and the rest one vector at a
/// time. Steady frames scored that way cost what the same frames cost an
/// engine that scores nothing: the stage's scores and the tile's
/// activations are scratch that keeps its size from frame to frame.
#[test]
fn scoring_a_frame_as_one_batch_allocates_nothing() {
    // Two full tiles of sixteen and a remainder of eight.
    const FRAME: usize = 40;
    let compiled = compile(&dsl::parse(KITSUNE).unwrap()).unwrap();
    let mut sw = FeSwitch::new(compiled.switch.clone()).unwrap();
    let engine = || FeNic::new(&compiled, MgpvConfig::default().fg_table_size).unwrap();
    let (mut scored, mut unscored) = (engine(), engine());
    let mut ts = 0u64;
    let mut packets = |n: usize| -> Vec<PacketRecord> {
        (0..n)
            .map(|i| {
                ts += 1_000 + (i as u64 % 7) * 300;
                PacketRecord::tcp(ts, 100 + (i % 11) as u16 * 120, 1, 1000, 2, 80)
            })
            .collect()
    };
    let mut both = |events: &[SwitchEvent]| {
        unscored.handle_all(events);
        drop(unscored.take_packet_vectors());
        scored.handle_all(events);
        scored.take_packet_vectors()
    };

    let train: Vec<_> = both(&events_per_record(&mut sw, &packets(400)));
    let refs: Vec<&[f64]> = train.iter().map(|v| v.values.as_slice()).collect();
    let float = train_and_calibrate(
        DetectorKind::KitNet.build(refs[0].len(), 4).unwrap(),
        &refs,
        0.2,
        CalibrationConfig {
            quantile: 1.0,
            margin: 100.0,
        },
    )
    .unwrap();
    let quant = quantize(&float, &QuantConfig::default()).unwrap();
    assert_eq!(quant.kernel_width(), Some(KernelWidth::ExactF64));

    let models: [(&str, SharedScorer); 2] =
        [("Q39.24", Arc::new(quant)), ("float", Arc::new(float))];
    for (name, model) in models {
        let mut stage = InlineInference::new(model, 0);
        let mut frames = 0;
        for round in 0..6 {
            let events = events_per_record(&mut sw, &packets(FRAME));
            let plain = allocations(|| {
                unscored.handle_all(&events);
                drop(unscored.take_packet_vectors());
            });
            let batched = allocations(|| {
                scored.handle_all(&events);
                let vectors = scored.take_packet_vectors();
                stage.score_batch(&vectors);
                frames += usize::from(vectors.len() == FRAME);
            });
            // Two rounds grow the scratch; the rest are steady.
            if round >= 2 {
                assert_eq!(batched, plain, "scored by {name}, round {round}");
            }
        }
        let (alerts, stats) = stage.into_parts();
        assert!(alerts.is_empty(), "scored by {name}");
        assert_eq!(frames, 6, "scored by {name}");
        assert_eq!(stats.scored as usize, 6 * FRAME, "scored by {name}");
    }
}

/// Takes the engine's pending per-packet vectors and scores each, as the
/// shard does for a member with a detector.
fn score_pending(nic: &mut FeNic, stage: &mut InlineInference) {
    for v in &nic.take_packet_vectors() {
        stage.score(v);
    }
}

/// Tagging a partition's events costs nothing: over the Kitsune Mirai trace,
/// a one-partition `SharedSwitch` allocates exactly as often as the solo
/// `FeSwitch` it wraps. Both emit into frames reused across packets; the
/// partition's scratch frame grows when, and only when, the solo switch's
/// does, and the tagged frame already has its size.
#[test]
fn a_one_partition_shared_switch_allocates_what_the_solo_switch_does() {
    let packets = generate(&IntrusionConfig {
        scenario: Scenario::Mirai,
        benign_packets: 1_500,
        attack_packets: 500,
        seed: 4,
    })
    .trace()
    .records;
    let compiled = compile(&dsl::parse(KITSUNE).unwrap()).unwrap();

    let mut solo = FeSwitch::new(compiled.switch.clone()).unwrap();
    let mut frame = Vec::new();
    let mut most = 0;
    let alone = allocations(|| {
        for p in &packets {
            frame.clear();
            solo.process_into(p, &mut frame);
            most = most.max(frame.len());
        }
    });

    let mut shared = SharedSwitch::new();
    let cfg = MgpvConfig::default();
    assert!(shared.attach(TenantId(0), compiled.switch, cfg, CacheMode::Mgpv));
    let mut tagged = Vec::with_capacity(most);
    let partitioned = allocations(|| {
        for p in &packets {
            tagged.clear();
            shared.process_into(p, &mut tagged);
        }
    });
    assert!(most > 0 && alone > 0);
    assert_eq!(partitioned, alone);
    assert_eq!(
        (shared.stats().pkts_in, shared.stats().tenant_matches),
        (packets.len() as u64, packets.len() as u64)
    );
}
