//! One generated schedule oracle for the control plane.
//!
//! Draws schedules of plane operations over random traces, from one tenant
//! pool that makes disjoint partitions, SF08xx prefix sharing and SF07xx
//! fusion all drawable, and holds every schedule to the oracle in
//! `plane/mod.rs`: each tenant equals its solo run over its window, a
//! restored plane goes on as the uninterrupted one, `finish` returns
//! tenants in ascending id. The draws are seeded from the test's name, so
//! the same schedules run in the same order every time.
//!
//! It prints how many schedules reached each named shape, next to the
//! hand-written test whose case the shape carries. Those tests were
//! deleted or cut down to one fixed schedule each, so every shape must be
//! reached. Run it alone with
//! `cargo test --test plane_schedules -- --nocapture`.

mod plane;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use plane::{Op, Schedule, POOL, WORKER_COUNTS};
use superfe::net::{Direction, PacketRecord};

/// Schedules drawn per run.
const SCHEDULES: usize = 84;

/// The worker count of schedule `i` cycles through these: a plane's cost
/// grows with its shards, so half the schedules run at one worker and one
/// in sixteen at eight.
const WORKERS: [usize; 16] = [1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1, 4];

/// Every shape the oracle names, with the hand-written test it stands for.
const SHAPES: [(&str, &str); 20] = [
    (
        "disjoint partitions",
        "shared_plane_is_bitwise_identical_to_solo",
    ),
    ("stalled", "stalled_plane_is_bitwise_identical_to_solo"),
    ("fused", "fused_plane_is_bitwise_identical_to_solo"),
    (
        "fused member detached",
        "fused_plane_is_bitwise_identical_to_solo",
    ),
    (
        "prefix-shared",
        "prefix_shared_plane_is_bitwise_identical_to_solo",
    ),
    (
        "prefix unit detached",
        "prefix_shared_plane_is_bitwise_identical_to_solo",
    ),
    (
        "founder detached",
        "every_attach_order_converges_and_stays_bitwise_solo",
    ),
    (
        "late sharer",
        "a_late_prefix_sharer_gets_a_partition_of_its_own",
    ),
    (
        "late sharer on a restored plane",
        "a_restored_plane_past_the_attach_point_shares_nothing",
    ),
    ("alerts raised", "alerts_unchanged_by_noisy_neighbor"),
    (
        "alerts on a shared unit or partition",
        "alerts_unchanged_by_noisy_neighbor",
    ),
    (
        "budget evicted",
        "budgeted_plane_returns_every_evicted_vector",
    ),
    (
        "sink egress",
        "every_member_and_unit_keeps_its_outlet_across_restore_and_founder_detach",
    ),
    (
        "sink egress across a restore",
        "every_member_and_unit_keeps_its_outlet_across_restore_and_founder_detach",
    ),
    ("restored", "restore_mid_stream_is_bitwise_identical"),
    (
        "restored with fusion and prefix sharing",
        "restore_mid_stream_is_bitwise_identical",
    ),
    (
        "restored after founder detach",
        "restore_after_founder_detach_of_fused_unit",
    ),
    (
        "restored under a budget that evicts",
        "restore_keeps_the_budget_and_what_it_evicted",
    ),
    (
        "restored out of attach order",
        "a_restored_plane_finishes_in_attach_order",
    ),
    (
        "tight cache across a restore",
        "restore_under_bounded_state_churn_and_epoch_markers",
    ),
];

/// One operation. Six in sixteen attach, half of those a duplicate or a
/// prefix sharer of a live tenant, so sharing is common.
fn op() -> impl Strategy<Value = Op> {
    (0u8..16, 1usize..80, 0u8..8, 0u8..8).prop_map(|(kind, n, a, b)| match kind {
        0..=2 => Op::Push { n, stall: a == 0 },
        3 | 4 => Op::Attach {
            policy: n % POOL.len(),
            sinks: a < 2,
            tight: b == 0,
        },
        5 | 6 => Op::Duplicate { n, sinks: a < 2 },
        7 | 8 => Op::Sharer { n, sinks: a < 2 },
        9 | 10 => Op::Detach(n),
        11 => Op::Score(n),
        12 => Op::Budget(plane::budget(1 + usize::from(a % 3), b)),
        _ => Op::Restore,
    })
}

/// A short trace over a few hosts, ports and protocols in both
/// directions, with [`plane::colliders`] — once or twice each — at random
/// times among it.
fn trace() -> impl Strategy<Value = Vec<PacketRecord>> {
    let packet = (
        0u64..5_000_000,
        40u16..1500,
        1u32..6,
        1u16..4,
        1u32..3,
        prop_oneof![Just(53u16), Just(80u16), Just(443u16)],
        proptest::bool::ANY,
        proptest::bool::ANY,
    );
    let times = proptest::collection::vec(0u64..5_000_000, 16..=32);
    let colliders = plane::colliders();
    (proptest::collection::vec(packet, 40..160), times).prop_map(move |(specs, times)| {
        let mut pkts: Vec<PacketRecord> = (specs.into_iter())
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
            .collect();
        for (ts, c) in times.into_iter().zip(colliders.iter().cycle()) {
            pkts.push(PacketRecord { ts_ns: ts, ..*c });
        }
        pkts.sort_by_key(|p| p.ts_ns);
        pkts
    })
}

#[test]
fn generated_schedules_hold_every_tenant_to_its_solo_run() {
    let started = Instant::now();
    let mut rng = TestRng::for_test("generated_schedules_hold_every_tenant_to_its_solo_run");
    let draw = (trace(), proptest::collection::vec(op(), 6..16));
    let mut reach: BTreeMap<&str, usize> = SHAPES.iter().map(|&(shape, _)| (shape, 0)).collect();
    let schedules: Vec<Schedule> = (0..SCHEDULES)
        .map(|i| {
            let (trace, ops) = draw.generate(&mut rng);
            let workers = WORKERS[i % WORKERS.len()];
            Schedule {
                workers,
                trace,
                ops,
            }
        })
        .collect();
    // Two schedules at a time: most of a plane's cost is building and
    // tearing down its engines, on one thread.
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<_, String>>>> =
        schedules.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(s) = schedules.get(i) else { break };
                // A plane that panics fails its schedule, which is named.
                let result = std::panic::catch_unwind(|| plane::run(s));
                let result = result.unwrap_or_else(|_| Err("the plane panicked".into()));
                *results[i].lock().unwrap() = Some(result);
            });
        }
    });
    let mut per_workers = [0usize; 4];
    for (i, (s, result)) in schedules.iter().zip(results).enumerate() {
        match result.into_inner().unwrap().expect("every schedule ran") {
            Ok(shapes) => {
                for shape in shapes {
                    *reach.get_mut(shape).expect("every shape is listed") += 1;
                }
                let w = WORKER_COUNTS.iter().position(|&w| w == s.workers);
                per_workers[w.expect("a listed worker count")] += 1;
            }
            Err(e) => panic!("schedule {i} failed: {e}\n{s:#?}"),
        }
    }
    println!(
        "plane schedules: {SCHEDULES} in {:.1} s, at workers 1/2/4/8: {per_workers:?}",
        started.elapsed().as_secs_f64()
    );
    for (shape, stands_for) in SHAPES {
        let n = reach[shape];
        println!("plane schedules: {n:3} reached {shape} (stands for {stands_for})");
    }
    let unreached: Vec<&str> = (SHAPES.iter())
        .filter(|&&(shape, _)| reach[shape] == 0)
        .map(|&(shape, _)| shape)
        .collect();
    assert!(
        unreached.is_empty(),
        "shapes no schedule reached: {unreached:?}"
    );
}
