//! Hot-path microbenches: MGPV cache insert/evict, the NIC reduce loop, the
//! NIC engine on Kitsune with and without new groups, the group-key hash,
//! and one KitNET score.
//!
//! These isolate the inner loops the streaming pipeline spends its time in,
//! below the end-to-end benches in `e2e.rs`/`nic.rs`: the switch cache
//! insert (with evictions into a recycled event frame), one group's
//! map/reduce update through its `LevelPlan` plus finalization, and
//! `FeNic::handle` over a real switch's events — every packet in one socket
//! (`kitsune_steady`: update and finalize only) against every packet opening
//! a socket and a channel (`kitsune_churn`: two group creations on top), and
//! the benchmark's Mirai trace with `finish` and teardown (`kitsune_mirai`)
//! and its teardown alone (`kitsune_teardown`).
//! `key_hash` is `GroupKey::hash32` alone, on host, channel and socket keys,
//! against the byte-at-a-time `crc32` of the same bytes (`socket_bytewise`).
//! `kitnet_score` is the scorer alone — the Q39.24 plan one vector at a
//! time and as one batch (`q39_24_batch`), and the float model it was
//! lowered from — on a model of Kitsune's width with flat training
//! dimensions, which is what constant folding acts on.

use criterion::{criterion_group, criterion_main, BatchSize, Bencher, Criterion, Throughput};
use std::hint::black_box;

use superfe_ml::{
    quantize, train_and_calibrate, CalibrationConfig, DetectorKind, KernelWidth, QuantConfig,
    Scorer,
};
use superfe_net::{crc32, FiveTuple, Granularity, GroupKey, PacketRecord};
use superfe_nic::FeNic;
use superfe_policy::exec::{GroupExec, GroupSlab, LevelPlan, RecordView};
use superfe_policy::{compile, dsl};
use superfe_streaming::DecayMemo;
use superfe_switch::{FeSwitch, MgpvCache, MgpvConfig, SwitchEvent};
use superfe_trafficgen::intrusion::{self, IntrusionConfig, Scenario};
use superfe_trafficgen::Workload;

const PACKETS: usize = 20_000;

fn bench_mgpv_insert_evict(c: &mut Criterion) {
    let trace = Workload::mawi().packets(PACKETS).seed(11).generate();
    // A small cache so the trace constantly evicts: the worst case for the
    // insert path, and the one the event-frame recycling targets.
    let cfg = MgpvConfig {
        short_count: 256,
        ..MgpvConfig::default()
    };
    let mut g = c.benchmark_group("mgpv_hotpath");
    g.sample_size(10);
    g.throughput(Throughput::Elements(PACKETS as u64));
    // Every record through a fresh cache, events into one recycled frame.
    let insert_all = |cfg: MgpvConfig, records: &[PacketRecord], b: &mut Bencher| {
        b.iter_batched(
            || MgpvCache::new(cfg).expect("cache"),
            |mut cache| {
                let mut frame: Vec<SwitchEvent> = Vec::new();
                for p in records {
                    frame.clear();
                    cache.insert_into(p, Granularity::Flow.key_of(p), None, &mut frame);
                    black_box(frame.len());
                }
                cache.stats().evictions
            },
            BatchSize::SmallInput,
        );
    };
    g.bench_function("insert_evict", |b| insert_all(cfg, &trace.records, b));
    // The same trace at the default geometry, respaced to a dense (1 µs) and
    // a sparse (1 ms) inter-packet gap: the aging probes owed per insert grow
    // with the gap (3 vs 1,002 at the default 1 MHz probe rate), the insert's
    // cost must not. `ci.sh` holds sparse to within 3× of dense.
    for (name, gap_ns) in [
        ("insert_dense_gap", 1_000u64),
        ("insert_sparse_gap", 1_000_000),
    ] {
        let mut respaced = trace.records.clone();
        for (i, p) in respaced.iter_mut().enumerate() {
            p.ts_ns = i as u64 * gap_ns;
        }
        g.bench_function(name, |b| insert_all(MgpvConfig::default(), &respaced, b));
    }
    g.finish();
}

fn bench_nic_reduce(c: &mut Criterion) {
    let trace = Workload::mawi().packets(PACKETS).seed(11).generate();
    let compiled =
        compile(&dsl::parse(superfe_apps::policies::NPOD).expect("parses")).expect("compiles");
    let plan = LevelPlan::new(&compiled.nic.levels[0]);
    let mut g = c.benchmark_group("nic_hotpath");
    g.sample_size(10);
    g.throughput(Throughput::Elements(PACKETS as u64));
    g.bench_function("reduce_update", |b| {
        b.iter_batched(
            || {
                let mut slab = GroupSlab::new(&plan);
                (GroupExec::new(&plan, &mut slab), slab)
            },
            |(mut exec, mut slab)| {
                let mut memo = DecayMemo::new();
                for p in &trace.records {
                    let view = RecordView {
                        size: f64::from(p.size),
                        ts_ns: p.ts_ns,
                        direction: p.direction_factor(),
                        tcp_flags: p.tcp_flags,
                    };
                    memo.clear();
                    exec.update(&plan, &mut slab, &view, 7, &mut memo, None);
                }
                let mut out = Vec::new();
                exec.finalize_into(&plan, &slab, &mut out);
                black_box(out.len())
            },
            BatchSize::SmallInput,
        );
    });

    // The Kitsune engine, fed what a real switch emits for `packets`, its
    // per-packet vectors taken every 256 events as a shard frame would.
    let kitsune =
        compile(&dsl::parse(superfe_apps::policies::KITSUNE).expect("parses")).expect("compiles");
    let mut engine_over = |name: &str, packets: Vec<PacketRecord>| {
        let mut sw = FeSwitch::new(kitsune.switch.clone()).expect("switch");
        let mut events = Vec::new();
        for p in &packets {
            sw.process_into(p, &mut events);
        }
        sw.flush_into(&mut events);
        g.bench_function(name, |b| {
            b.iter_batched(
                || FeNic::new(&kitsune, MgpvConfig::default().fg_table_size).expect("engine"),
                |mut nic| {
                    let mut vectors = 0;
                    for frame in events.chunks(256) {
                        nic.handle_all(frame);
                        vectors += black_box(nic.take_packet_vectors()).len();
                    }
                    assert_eq!(vectors, PACKETS);
                    nic
                },
                BatchSize::SmallInput,
            );
        });
    };
    let packet = |i: usize, src_port: u16, dst: u32| {
        PacketRecord::tcp(
            i as u64 * 1_000,
            100 + (i % 1400) as u16,
            1,
            src_port,
            dst,
            80,
        )
    };
    engine_over(
        "kitsune_steady",
        (0..PACKETS).map(|i| packet(i, 1000, 2)).collect(),
    );
    engine_over(
        "kitsune_churn",
        (0..PACKETS)
            .map(|i| packet(i, i as u16, 2 + i as u32))
            .collect(),
    );

    // The `kitsune_extract` input: 60k benign and 30k Mirai packets, which
    // open ~49k groups. Group creation, cold state, `finish` and tearing the
    // engine down are all timed, as a repetition of that workload times them.
    let mirai = intrusion::generate(&IntrusionConfig {
        scenario: Scenario::Mirai,
        benign_packets: 60_000,
        attack_packets: 30_000,
        seed: 4,
    })
    .trace()
    .records;
    let mut sw = FeSwitch::new(kitsune.switch.clone()).expect("switch");
    let mut events = Vec::new();
    for p in &mirai {
        sw.process_into(p, &mut events);
    }
    sw.flush_into(&mut events);
    g.throughput(Throughput::Elements(mirai.len() as u64));
    let engine = || FeNic::new(&kitsune, MgpvConfig::default().fg_table_size).expect("engine");
    let run = |mut nic: FeNic| {
        let mut vectors = 0;
        for frame in events.chunks(256) {
            nic.handle_all(frame);
            vectors += black_box(nic.take_packet_vectors()).len();
        }
        black_box(nic.finish());
        assert_eq!(vectors, mirai.len());
        nic
    };
    g.bench_function("kitsune_mirai", |b| {
        b.iter_batched(engine, |nic| drop(run(nic)), BatchSize::SmallInput);
    });
    // The same engine after `finish`, dropped alone: the teardown a
    // repetition of that workload times inside its `finish`.
    g.bench_function("kitsune_teardown", |b| {
        b.iter_batched(|| run(engine()), drop, BatchSize::SmallInput);
    });
    g.finish();
}

/// `GroupKey::hash32` over the keys of a trace at three granularities, as
/// one dependent chain: each hash is folded into the next key's source
/// address, so the rate is the hash's latency, which is what the switch's
/// per-packet path waits on. `socket_bytewise` is the same chain through
/// the byte-at-a-time [`crc32`] of `write_bytes`; `ci.sh` holds `socket` to
/// at least 1.5× of it.
fn bench_key_hash(c: &mut Criterion) {
    const KEYS: usize = 4_096;
    let trace = Workload::mawi().packets(KEYS).seed(11).generate();
    let keys =
        |g: Granularity| -> Vec<GroupKey> { trace.records.iter().map(|p| g.key_of(p)).collect() };
    let chained = |k: &GroupKey, h: u32| match *k {
        GroupKey::Host(ip) => GroupKey::Host(ip ^ h),
        GroupKey::Channel(s, d) => GroupKey::Channel(s ^ h, d),
        GroupKey::Socket(ft) | GroupKey::Flow(ft) => GroupKey::Socket(FiveTuple {
            src_ip: ft.src_ip ^ h,
            ..ft
        }),
    };
    let mut g = c.benchmark_group("key_hash");
    g.sample_size(10);
    g.throughput(Throughput::Elements(KEYS as u64));
    for (name, gran) in [
        ("host", Granularity::Host),
        ("channel", Granularity::Channel),
        ("socket", Granularity::Socket),
    ] {
        let ks = keys(gran);
        g.bench_function(name, |b| {
            b.iter(|| ks.iter().fold(0, |h, k| chained(k, h).hash32()));
        });
    }
    let sockets = keys(Granularity::Socket);
    let bytewise = |k: GroupKey| {
        let mut buf = [0u8; GroupKey::MAX_KEY_BYTES];
        let len = k.write_bytes(&mut buf);
        crc32(&buf[..len])
    };
    assert!(sockets.iter().all(|&k| bytewise(k) == k.hash32()));
    g.bench_function("socket_bytewise", |b| {
        b.iter(|| sockets.iter().fold(0, |h, k| bytewise(chained(k, h))));
    });
    g.finish();
}

/// One score of a 115-dimension KitNET: nine blocks of ten correlated
/// columns (ten-input autoencoders), five independent ones and twenty that
/// never moved in training — the shape of the benchmark's certified model.
fn bench_kitnet_score(c: &mut Criterion) {
    const DIM: usize = 115;
    const VECTORS: usize = 1_000;
    // A splitmix-style sequence: the bench needs spread, not quality.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut sample = || -> Vec<f64> {
        let mut x = Vec::with_capacity(DIM);
        for block in 0..9 {
            let latent = unit() * f64::from(block + 1);
            x.extend((0..10).map(|_| latent + 0.05 * unit()));
        }
        x.extend((0..5).map(|_| unit()));
        x.extend((0..20).map(|i| f64::from(i) - 7.5));
        x
    };
    let train: Vec<Vec<f64>> = (0..1_500).map(|_| sample()).collect();
    let refs: Vec<&[f64]> = train.iter().map(Vec::as_slice).collect();
    let detector = DetectorKind::KitNet.build(DIM, 4).expect("detector");
    let float =
        train_and_calibrate(detector, &refs, 0.2, CalibrationConfig::default()).expect("trains");
    let quant = quantize(&float, &QuantConfig::default()).expect("lowers");
    let vectors: Vec<Vec<f64>> = (0..VECTORS).map(|_| sample()).collect();

    let mut g = c.benchmark_group("kitnet_score");
    g.sample_size(10);
    g.throughput(Throughput::Elements(VECTORS as u64));
    g.bench_function("q39_24", |b| {
        b.iter(|| {
            let sum: f64 = vectors.iter().map(|x| quant.score(x).expect("115")).sum();
            black_box(sum)
        });
    });
    // The same vectors as one batch, as a shard hands over a frame's: full
    // tiles in f64 lanes when the plan proved exact-f64.
    let width = quant.kernel_width().expect("a KitNET");
    println!("kitnet_score/q39_24 plan width: {width}");
    if width != KernelWidth::ExactF64 {
        println!("kitnet_score/q39_24_batch: no accumulator bound below 2^53, one lane a vector");
    }
    let mut scores = Vec::with_capacity(VECTORS);
    g.bench_function("q39_24_batch", |b| {
        b.iter(|| {
            scores.clear();
            quant.score_batch(&mut vectors.iter().map(Vec::as_slice), &mut scores);
            let sum: f64 = scores.iter().map(|s| s.as_ref().expect("115")).sum();
            black_box(sum)
        });
    });
    g.bench_function("float", |b| {
        b.iter(|| {
            let sum: f64 = vectors.iter().map(|x| float.score(x).expect("115")).sum();
            black_box(sum)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_mgpv_insert_evict,
    bench_nic_reduce,
    bench_key_hash,
    bench_kitnet_score
);
criterion_main!(benches);
