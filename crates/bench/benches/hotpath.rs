//! Hot-path microbenches: MGPV cache insert/evict and the NIC reduce loop.
//!
//! These isolate the two inner loops the streaming pipeline spends its time
//! in, below the end-to-end benches in `e2e.rs`/`nic.rs`: the switch cache
//! insert (with evictions into a recycled event frame) and the per-record
//! `GroupExec` map/reduce update plus finalization.

use criterion::{criterion_group, criterion_main, BatchSize, Bencher, Criterion, Throughput};
use std::hint::black_box;

use superfe_net::{Granularity, PacketRecord};
use superfe_policy::exec::{GroupExec, RecordView};
use superfe_policy::{compile, dsl};
use superfe_switch::{MgpvCache, MgpvConfig, SwitchEvent};
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
    let level = &compiled.nic.levels[0];
    let mut g = c.benchmark_group("nic_hotpath");
    g.sample_size(10);
    g.throughput(Throughput::Elements(PACKETS as u64));
    g.bench_function("reduce_update", |b| {
        b.iter_batched(
            || GroupExec::new(level),
            |mut exec| {
                for p in &trace.records {
                    let view = RecordView {
                        size: f64::from(p.size),
                        ts_ns: p.ts_ns,
                        direction: p.direction_factor(),
                        tcp_flags: p.tcp_flags,
                    };
                    exec.update(&view, 7);
                }
                let mut out = Vec::new();
                exec.finalize_into(&mut out);
                black_box(out.len())
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_mgpv_insert_evict, bench_nic_reduce);
criterion_main!(benches);
