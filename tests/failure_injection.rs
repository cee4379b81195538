//! Failure injection: the NIC engine must degrade gracefully — never panic,
//! never fabricate features — when the switch event stream is damaged, the
//! switch must shrug off malformed frames, and a shard worker that dies
//! must surface as an error, never as a hung handshake.

use superfe::net::{Direction, PacketRecord};
use superfe::nic::{EgressVector, FeNic, NicError, ShardPool, ShardUnitState, VectorSink};
use superfe::policy::{compile, dsl, CompiledPolicy};
use superfe::switch::{FeSwitch, MgpvRecord, SwitchEvent, TaggedEvent, TenantId};
use superfe::trafficgen::Workload;

fn multi_level_policy() -> CompiledPolicy {
    compile(
        &dsl::parse(
            "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
             .groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
        )
        .expect("parses"),
    )
    .expect("compiles")
}

fn events_for(c: &CompiledPolicy, n: u32) -> Vec<SwitchEvent> {
    let mut sw = FeSwitch::new(c.switch.clone()).expect("deploys");
    let mut events = Vec::new();
    for i in 0..n {
        let p = PacketRecord::tcp(
            u64::from(i) * 1_000,
            100,
            i % 23 + 1,
            1000 + (i % 5) as u16,
            2,
            80,
        );
        events.extend(sw.process(&p));
    }
    events.extend(sw.flush());
    events
}

/// Dropping every FG update leaves all records unresolved at finer levels,
/// counted (not panicking), while the CG level still works.
#[test]
fn dropped_fg_updates_are_counted_not_fatal() {
    let c = multi_level_policy();
    let events = events_for(&c, 1_000);
    let mut nic = FeNic::new(&c, 16_384).expect("engine");
    for e in &events {
        if matches!(e, SwitchEvent::FgUpdate(_)) {
            continue; // inject: control channel loss
        }
        nic.handle(e);
    }
    assert_eq!(nic.stats().records, 1_000);
    assert_eq!(nic.stats().unresolved_fg, 1_000, "every record unresolved");
    let groups = nic.finish();
    // Host (CG) groups still exist; socket groups could not be recovered.
    assert!(groups
        .iter()
        .all(|v| matches!(v.key, superfe::net::GroupKey::Host(_))));
    // Host sums still conserve all bytes.
    let total: f64 = groups.iter().map(|g| g.values[0]).sum();
    assert_eq!(total, 1_000.0 * 100.0);
}

/// Reordering an FG update after its data message loses only the affected
/// records' fine-level placement.
#[test]
fn reordered_fg_update_degrades_gracefully() {
    let c = multi_level_policy();
    let events = events_for(&c, 200);
    // Move all FG updates to the end.
    let (fg, data): (Vec<_>, Vec<_>) = events
        .into_iter()
        .partition(|e| matches!(e, SwitchEvent::FgUpdate(_)));
    let mut nic = FeNic::new(&c, 16_384).expect("engine");
    for e in data.iter().chain(fg.iter()) {
        nic.handle(e);
    }
    assert_eq!(nic.stats().records, 200);
    assert!(nic.stats().unresolved_fg > 0);
    let _ = nic.finish(); // no panic
}

/// Corrupted FG indices (beyond the mirror) are counted as unresolved.
#[test]
fn corrupted_fg_index_is_unresolved() {
    let c = multi_level_policy();
    let events = events_for(&c, 100);
    let mut nic = FeNic::new(&c, 16_384).expect("engine");
    for e in &events {
        match e {
            SwitchEvent::Mgpv(m) => {
                let mut m = m.clone();
                for r in &mut m.records {
                    r.fg_idx = u16::MAX; // inject: bit flip / overflow
                }
                nic.handle(&SwitchEvent::Mgpv(m));
            }
            other => nic.handle(other),
        }
    }
    assert_eq!(nic.stats().unresolved_fg, 100);
}

/// An empty or nonsense MGPV message must not panic the engine.
#[test]
fn degenerate_messages_are_harmless() {
    let c = multi_level_policy();
    let mut nic = FeNic::new(&c, 16).expect("engine");
    let msg = superfe::switch::MgpvMessage {
        cg_key: superfe::net::GroupKey::Host(42),
        hash: 7,
        records: vec![MgpvRecord {
            size: 0,
            tstamp_us: u32::MAX,
            dir_flags: 0xFF,
            fg_idx: 3,
        }],
        cause: superfe::switch::EvictionCause::Flush,
    };
    nic.handle(&SwitchEvent::Mgpv(msg));
    let _ = nic.finish();
    assert_eq!(nic.stats().records, 1);
}

/// Malformed frames are rejected by the switch parser without corrupting
/// the cache (well-formed traffic before/after is unaffected).
#[test]
fn malformed_frames_do_not_corrupt_switch_state() {
    let c = compile(
        &dsl::parse("pktstream\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)")
            .expect("parses"),
    )
    .expect("compiles");
    let mut sw = FeSwitch::new(c.switch).expect("deploys");
    let good = PacketRecord::tcp(1, 300, 1, 1, 2, 2);
    let frame = superfe::net::wire::build_frame(&good);

    sw.process_frame(&frame, 1, Direction::Ingress)
        .expect("good frame");
    for garbage in [&[][..], &[0u8; 10][..], &frame[..20]] {
        assert!(sw.process_frame(garbage, 2, Direction::Ingress).is_err());
    }
    // Truncate mid-IP header.
    let mut bad_version = frame.clone();
    bad_version[14] = 0x05;
    assert!(sw
        .process_frame(&bad_version, 3, Direction::Ingress)
        .is_err());

    sw.process_frame(&frame, 4, Direction::Ingress)
        .expect("still healthy");
    assert_eq!(sw.stats().pkts_in, 2, "only parsed frames are counted");
    assert_eq!(sw.cache_stats().resident_records, 2);
}

/// Splitting the stream by CG key across the three shards of a `ShardPool`
/// (a worker count no differential covers) and merging the outputs gives
/// exactly the monolithic result.
#[test]
fn load_balanced_nics_match_single_nic() {
    let c = multi_level_policy();
    let trace = Workload::campus().packets(10_000).seed(31).generate();
    let mut sw = FeSwitch::new(c.switch.clone()).expect("deploys");
    let mut events = Vec::new();
    for p in &trace.records {
        events.extend(sw.process(p));
    }
    events.extend(sw.flush());

    // Monolithic.
    let mut single = FeNic::new(&c, 16_384).expect("engine");
    for e in &events {
        single.handle(e);
    }
    let mut expected = single.finish();

    // Routed across 3 shards.
    let tenant = TenantId(0);
    let mut pool = ShardPool::new(3);
    pool.attach(tenant, tenant, &c, 16_384, None)
        .expect("engine");
    pool.push_all(
        events
            .into_iter()
            .map(|event| TaggedEvent { tenant, event }),
    )
    .expect("workers alive");
    let (_, out) = pool.finish().expect("workers alive").remove(0);
    let mut merged = out.group_vectors;

    let key = |v: &superfe::nic::FeatureVector| format!("{:?}", v.key);
    expected.sort_by_key(key);
    merged.sort_by_key(key);
    assert_eq!(expected, merged);
}

/// The worker that owns this sink dies on the first vector it egresses.
struct PanickingSink;

impl VectorSink for PanickingSink {
    fn emit(&mut self, _: EgressVector) {
        panic!("injected sink failure");
    }
}

/// A shard worker that dies with an epoch already in its ring can never
/// ack it — and the epoch keeps the ack channel open — so every wait on the
/// pool must notice the dead thread instead: `detach`, `dump_state`,
/// `state_pressure`, `restore_unit` (of a dump taken while the worker
/// lived) and `finish` all return `WorkerLost`, under a watchdog, whether
/// the pool serves the doomed unit alone or next to a healthy one.
#[test]
fn dead_worker_is_an_error_not_a_hung_handshake() {
    type Op = fn(ShardPool, TenantId, Vec<ShardUnitState>) -> Result<(), NicError>;
    let ops: [(&str, Op); 5] = [
        ("detach", |mut pool, t, _| {
            pool.detach(t, Vec::new()).map(drop)
        }),
        ("dump_state", |mut pool, _, _| pool.dump_state().map(drop)),
        ("state_pressure", |mut pool, _, _| {
            pool.state_pressure().map(drop)
        }),
        ("restore_unit", |mut pool, t, saved| {
            pool.restore_unit(t, saved)
        }),
        ("finish", |pool, _, _| pool.finish().map(drop)),
    ];
    let per_packet = compile(
        &dsl::parse("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(pkt)")
            .expect("parses"),
    )
    .expect("compiles");
    let doomed = TenantId(0);
    let events = events_for(&per_packet, 100);
    assert!(events.len() < 256, "must stay pending in one frame");
    for units in [1u16, 2] {
        for (name, op) in ops {
            let mut pool = ShardPool::new(1);
            let sinks: Vec<Box<dyn VectorSink>> = vec![Box::new(PanickingSink)];
            pool.attach(doomed, doomed, &per_packet, 16_384, Some(sinks))
                .expect("attaches");
            let healthy = TenantId(units - 1);
            if healthy != doomed {
                pool.attach(healthy, healthy, &per_packet, 16_384, None)
                    .expect("attaches");
            }
            let saved = pool.dump_state().expect("the worker still lives");
            let saved = saved.into_iter().find(|d| d.unit == healthy);
            let saved = saved.expect("the healthy unit is dumped").shards;
            // Less than a frame: the events (and the panic they cause) are
            // usually still pending when the operation under test starts.
            // Not always: a worker that idled a whole ring dwell through
            // the attach may ask for its partial frame, and then it dies
            // under these pushes instead — the same `WorkerLost`, earlier.
            for event in events.iter().cloned() {
                let tagged = TaggedEvent {
                    tenant: doomed,
                    event,
                };
                match pool.push_all([tagged]) {
                    Ok(()) | Err(NicError::WorkerLost { worker: 0 }) => {}
                    Err(e) => panic!("push: {e}"),
                }
            }
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || done_tx.send(op(pool, healthy, saved)));
            let result = done_rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{name} hung on a dead worker ({units} units)"));
            assert_eq!(
                result,
                Err(NicError::WorkerLost { worker: 0 }),
                "{name} with {units} units"
            );
        }
    }
}

/// Holds its worker inside the first `emit` until released, then kills it.
struct StallThenPanicSink {
    entered: std::sync::mpsc::Sender<()>,
    release: std::sync::mpsc::Receiver<()>,
}

impl VectorSink for StallThenPanicSink {
    fn emit(&mut self, _: EgressVector) {
        let _ = self.entered.send(());
        let _ = self.release.recv();
        panic!("injected sink failure");
    }
}

/// The other half of a dead worker: it dies while the **producer** is
/// parked on its full ring. The worker's unwinding drops the ring's
/// consumer, which must wake the producer into `WorkerLost` — under a
/// watchdog, because the failure mode is a producer parked forever. The
/// interleaving is forced, not hoped for: the worker is held inside its
/// first `emit`, so the producer *must* fill the ring and block, and only
/// once its push count has stopped moving is the worker let go to die.
#[test]
fn worker_dying_under_a_blocked_producer_is_an_error_not_a_hang() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use superfe::nic::stream::{CHANNEL_DEPTH, FRAME_SIZE};

    let watchdog = Duration::from_secs(10);
    let per_packet = compile(
        &dsl::parse("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(pkt)")
            .expect("parses"),
    )
    .expect("compiles");
    // What fits between the producer and a worker that consumes nothing:
    // the ring, the frame the worker holds and the frame being filled.
    let in_flight = (CHANNEL_DEPTH + 2) * FRAME_SIZE;
    // Far more than that, by replaying a short trace's events: the worker
    // never gets past its first frame, so what the later ones hold is moot.
    let trace = events_for(&per_packet, 5_000);
    let events: Vec<SwitchEvent> = trace.iter().cycle().take(3 * in_flight).cloned().collect();

    let doomed = TenantId(0);
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let mut pool = ShardPool::new(1);
    let sink = StallThenPanicSink {
        entered: entered_tx,
        release: release_rx,
    };
    pool.attach(
        doomed,
        doomed,
        &per_packet,
        16_384,
        Some(vec![Box::new(sink)]),
    )
    .expect("attaches");
    let pushed = Arc::new(AtomicUsize::new(0));
    let (done_tx, done) = channel();
    let producer = {
        let pushed = pushed.clone();
        std::thread::spawn(move || {
            let outcome = events.into_iter().try_for_each(|event| {
                pool.push_all([TaggedEvent {
                    tenant: doomed,
                    event,
                }])?;
                pushed.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
            let _ = done_tx.send(outcome);
        })
    };
    entered
        .recv_timeout(watchdog)
        .expect("the worker reaches its sink");
    let started = Instant::now();
    loop {
        let before = pushed.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        if before >= CHANNEL_DEPTH * FRAME_SIZE && pushed.load(Ordering::SeqCst) == before {
            break;
        }
        assert!(started.elapsed() < watchdog, "the producer never blocked");
    }
    assert!(pushed.load(Ordering::SeqCst) <= in_flight);
    release.send(()).expect("the worker waits in its sink");
    let outcome = done
        .recv_timeout(watchdog)
        .expect("push hung on a worker that died under a full ring");
    assert_eq!(outcome, Err(NicError::WorkerLost { worker: 0 }));
    producer.join().expect("producer thread");
}

/// Serves 20,000 packets over 23 hosts with `model` scoring in the shards
/// of a two-worker pipeline, on a thread of its own under a 10 s watchdog:
/// whatever the scorer does, the caller gets an answer, not a hang and not
/// a panic of its own.
fn serve_with(
    policy: &str,
    model: superfe::ml::SharedScorer,
) -> Result<superfe::Extraction, NicError> {
    let policy = dsl::parse(policy).expect("parses");
    let (done_tx, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let cfg = superfe::SuperFeConfig::default();
        let mut fe =
            superfe::StreamingPipeline::with_inference(&policy, cfg, 2, model).expect("deploys");
        let pushed = (0..20_000u32).try_for_each(|i| {
            fe.push(&PacketRecord::tcp(
                u64::from(i) * 1_000,
                100,
                i % 23 + 1,
                1000,
                2,
                80,
            ))
        });
        let _ = done_tx.send(pushed.and_then(|()| fe.finish()));
    });
    done.recv_timeout(std::time::Duration::from_secs(10))
        .expect("the caller hung, or panicked itself, on a failing scorer")
}

/// A detector that dies on its `fatal`-th vector, whichever shard has it.
struct PanickingScorer {
    seen: std::sync::atomic::AtomicU64,
    fatal: u64,
}

impl superfe::ml::Scorer for PanickingScorer {
    fn name(&self) -> &'static str {
        "panicking"
    }
    fn feature_dim(&self) -> usize {
        1
    }
    fn score(&self, _: &[f64]) -> Result<f64, superfe::ml::MlError> {
        let n = self.seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        assert!(n + 1 < self.fatal, "injected scorer failure");
        Ok(0.0)
    }
    fn threshold(&self) -> f64 {
        1.0
    }
}

/// Scoring runs in the shard worker, so a scorer that panics kills that
/// worker — and must surface the way any dead worker does: `WorkerLost`
/// from `push` (the producer blocked on, or sent to, the dead ring) or from
/// `finish` (the join), early or late in the stream.
#[test]
fn a_panicking_scorer_is_a_lost_worker_not_a_hang() {
    const PER_PACKET: &str = "pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect(pkt)";
    for fatal in [1, 700, 19_999] {
        let model = std::sync::Arc::new(PanickingScorer {
            seen: 0.into(),
            fatal,
        });
        match serve_with(PER_PACKET, model) {
            Err(NicError::WorkerLost { worker }) => assert!(worker < 2),
            other => panic!("a scorer dying on vector {fatal} gave {:?}", other.err()),
        }
    }
}

/// A detector of the wrong dimension for some of what the policy emits
/// rejects those vectors, which is counted, and the stream goes on: every
/// vector is still returned and the rest are scored.
#[test]
fn dim_mismatch_is_counted_not_fatal() {
    use superfe::ml::{train_and_calibrate, CalibrationConfig, DetectorKind};
    // Socket vectors have one value, host vectors two.
    const TWO_DIMS: &str = "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n\
         .collect(socket)\n.groupby(host)\n.reduce(size, [f_sum, f_mean])\n.collect(host)";
    let refs: [&[f64]; 4] = [&[1.0, 1.0], &[2.0, 1.5], &[3.0, 2.0], &[4.0, 2.5]];
    let det = DetectorKind::Centroid.build(2, 0).expect("dim 2");
    let frozen =
        train_and_calibrate(det, &refs, 0.25, CalibrationConfig::default()).expect("calibrates");
    let out = serve_with(TWO_DIMS, std::sync::Arc::new(frozen)).expect("the stream continues");
    let dims = |d| {
        out.group_vectors
            .iter()
            .filter(|v| v.values.len() == d)
            .count() as u64
    };
    let stats = out.inline_stats.expect("inference was attached");
    assert!(dims(1) > 0 && dims(2) > 0, "{} / {}", dims(1), dims(2));
    assert_eq!((stats.dim_errors, stats.scored), (dims(1), dims(2)));
}

/// A packet at or past the switch's timestamp horizon is refused with a
/// typed error by both data-path entry points — the solo pipeline and the
/// control plane — before any partition sees it, and is not counted: the
/// stream then continues exactly as if it had never been offered.
#[test]
fn a_packet_past_the_timestamp_horizon_is_refused_not_a_panic() {
    use superfe::ctrl::{CtrlError, CtrlPlane, TenantSpec};
    use superfe::switch::record::TS_HORIZON_NS;
    use superfe::{AnalyzeConfig, StreamingPipeline, SuperFeConfig};

    let src = "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
               .groupby(host)\n.reduce(size, [f_sum])\n.collect(host)";
    let policy = dsl::parse(src).expect("parses");
    let packets: Vec<PacketRecord> = (0..2_000u64)
        .map(|i| PacketRecord::tcp(i * 1_000, 100, (i % 23 + 1) as u32, 1000, 2, 80))
        .collect();
    let late = PacketRecord::tcp(TS_HORIZON_NS, 100, 1, 1000, 2, 80);
    let refused = Err(NicError::PastHorizon {
        ts_ns: TS_HORIZON_NS,
    });

    let solo = |offer_late: bool| {
        let mut fe =
            StreamingPipeline::with_config(&policy, SuperFeConfig::default(), 2).expect("deploys");
        for (i, p) in packets.iter().enumerate() {
            if offer_late && i == 1_000 {
                assert_eq!(fe.push(&late), refused);
            }
            fe.push(p).expect("pushes");
        }
        fe.finish().expect("finishes")
    };
    let (clean, offered) = (solo(false), solo(true));
    assert_eq!(offered.switch_stats.pkts_in, clean.switch_stats.pkts_in);
    assert_eq!(offered.group_vectors, clean.group_vectors);
    assert_eq!(offered.packet_vectors, clean.packet_vectors);

    let spec = TenantSpec {
        name: "multi-level".into(),
        policy: policy.clone(),
        cfg: SuperFeConfig::default(),
    };
    let plane = |offer_late: bool| {
        let mut plane = CtrlPlane::new(2, AnalyzeConfig::default());
        plane.attach(&spec, None).expect("admits");
        for (i, p) in packets.iter().enumerate() {
            if offer_late && i == 1_000 {
                match plane.push(&late) {
                    Err(CtrlError::Nic(e)) => assert_eq!(Err(e), refused),
                    other => panic!("expected the horizon refusal, got {other:?}"),
                }
                assert_eq!(plane.pushed(), 1_000, "a refused packet is not counted");
            }
            plane.push(p).expect("pushes");
        }
        plane.finish().expect("finishes").remove(0).output
    };
    let (clean, offered) = (plane(false), plane(true));
    assert_eq!(offered.group_vectors, clean.group_vectors);
    assert_eq!(offered.packet_vectors, clean.packet_vectors);
}
