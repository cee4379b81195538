//! FE-NIC engine throughput: MGPV records processed per second, sequential
//! and sharded across workers.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use superfe_apps::policies;
use superfe_nic::{FeNic, ShardPool};
use superfe_policy::{compile, dsl, CompiledPolicy};
use superfe_switch::{FeSwitch, SwitchEvent, TaggedEvent, TenantId};
use superfe_trafficgen::Workload;

const PACKETS: usize = 20_000;

fn events_for(src: &str) -> (CompiledPolicy, Vec<SwitchEvent>) {
    let compiled = compile(&dsl::parse(src).expect("parses")).expect("ok");
    let trace = Workload::mawi().packets(PACKETS).seed(9).generate();
    let mut sw = FeSwitch::new(compiled.switch.clone()).expect("deploys");
    let mut events = Vec::new();
    for p in &trace.records {
        events.extend(sw.process(p));
    }
    events.extend(sw.flush());
    (compiled, events)
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("nic_engine");
    g.sample_size(10);
    g.throughput(Throughput::Elements(PACKETS as u64));
    for (name, src) in [("npod", policies::NPOD), ("kitsune", policies::KITSUNE)] {
        let (compiled, events) = events_for(src);
        g.bench_function(name, |b| {
            b.iter_batched(
                || FeNic::new(&compiled, 16_384).expect("engine"),
                |mut nic| {
                    for e in &events {
                        nic.handle(e);
                    }
                    black_box(nic.stats().records)
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let (compiled, events) = events_for(policies::NPOD);
    let tenant = TenantId(0);
    let events: Vec<TaggedEvent> = events
        .into_iter()
        .map(|event| TaggedEvent { tenant, event })
        .collect();
    let mut g = c.benchmark_group("nic_parallel");
    g.sample_size(10);
    g.throughput(Throughput::Elements(PACKETS as u64));
    for workers in [1usize, 2, 4, 8] {
        g.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| {
                let mut pool = ShardPool::new(workers);
                pool.attach(tenant, tenant, &compiled, 16_384, None)
                    .expect("engine");
                pool.push_all(events.iter().cloned()).expect("runs");
                let out = pool.finish().expect("runs");
                black_box(out[0].1.stats.records)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engine, bench_parallel);
criterion_main!(benches);
