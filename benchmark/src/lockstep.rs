//! The single-threaded side of the benchmark: the inputs, the output digest,
//! the `SuperFe` reference run, and the lock-step replay through one
//! `FeSwitch` and one `FeNic` that the traced pass wraps in spans (and that
//! `scale_churn` uses as its executor).

use superfe_core::{gate, SuperFe, SuperFeConfig};
use superfe_ml::QuantizedDetector;
use superfe_net::wire::{build_frame, parse_frame};
use superfe_net::PacketRecord;
use superfe_nic::{FeNic, FeatureVector, TableBudget};
use superfe_policy::Policy;
use superfe_switch::{EvictionCause, FeSwitch, SwitchEvent};

use crate::stats::{Clock, Digest, Fnv, Sojourn};
use crate::trace::Tracer;

/// Packets per lock-step chunk of the single-threaded replay.
const CHUNK: usize = 4096;

/// Raw Ethernet frames in one contiguous arena, so feeding them costs no
/// pointer chase per packet.
pub struct Frames {
    arena: Vec<u8>,
    ends: Vec<usize>,
}

impl Frames {
    pub fn build(records: &[PacketRecord]) -> Frames {
        let mut arena = Vec::with_capacity(records.iter().map(|r| r.size as usize).sum());
        let mut ends = Vec::with_capacity(records.len());
        for r in records {
            arena.extend_from_slice(&build_frame(r));
            ends.push(arena.len());
        }
        Frames { arena, ends }
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start..self.ends[i]]
    }
}

/// What a workload feeds: parsed records, and for the frame-fed workload the
/// same packets on the wire.
pub struct Input {
    pub records: Vec<PacketRecord>,
    pub frames: Option<Frames>,
}

pub fn vector_hash(v: &FeatureVector) -> u64 {
    let mut h = Fnv::new();
    let mut key = [0u8; superfe_net::GroupKey::MAX_KEY_BYTES];
    let len = v.key.write_bytes(&mut key);
    h.word(v.key.granularity() as u64);
    h.bytes(&key[..len]);
    for x in v.values.iter() {
        h.word(x.to_bits());
    }
    h.finish()
}

pub fn digest_vectors<'a>(vectors: impl IntoIterator<Item = &'a FeatureVector>) -> Digest {
    let mut d = Digest::default();
    for v in vectors {
        d.add(vector_hash(v));
    }
    d
}

/// The counts and timings one single-threaded replay yields. Counts come
/// from the events and vectors the layers return, never from `*Stats`.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    pub parse_errors: u64,
    pub events: u64,
    pub msgs: u64,
    pub records: u64,
    pub aging_msgs: u64,
    pub fg_updates: u64,
    pub vectors: u64,
    pub evicted: u64,
    pub alerts: u64,
    /// Σ of every output vector's first value (bytes, for `flow_bytes`).
    pub first_value_sum: f64,
    pub digest: Digest,
    /// Arrival stamps, one per chunk: a packet could have been taken when
    /// its chunk began.
    pub arrivals: Sojourn,
    pub push_ns: u64,
    pub finish_ns: u64,
}

/// One policy the single-threaded replay runs, with the options the
/// workload deploys it under.
pub struct Plan<'a> {
    pub policy: &'a Policy,
    pub budget: Option<TableBudget>,
    pub model: Option<&'a QuantizedDetector>,
}

pub fn deploy_lockstep(plan: &Plan<'_>) -> Result<(FeSwitch, FeNic), String> {
    let cfg = SuperFeConfig::default();
    let compiled = gate(plan.policy, &cfg).map_err(|e| e.to_string())?;
    let switch = FeSwitch::with_config(compiled.switch.clone(), cfg.cache, cfg.mode)
        .ok_or("degenerate switch cache configuration")?;
    let fg = cfg.cache.fg_table_size;
    let nic = match plan.budget {
        Some(b) => FeNic::with_budget(&compiled, fg, b),
        None => FeNic::new(&compiled, fg),
    }
    .ok_or("degenerate NIC table configuration")?;
    Ok((switch, nic))
}

impl Replay {
    fn count_events(&mut self, events: &[SwitchEvent]) {
        self.events += events.len() as u64;
        for e in events {
            match e {
                SwitchEvent::Mgpv(m) => {
                    self.msgs += 1;
                    self.records += m.records.len() as u64;
                    self.aging_msgs += u64::from(m.cause == EvictionCause::Aging);
                }
                SwitchEvent::FgUpdate(_) => self.fg_updates += 1,
            }
        }
    }

    fn sink(&mut self, v: &FeatureVector) {
        self.vectors += 1;
        self.first_value_sum += v.values.first().copied().unwrap_or(0.0);
        self.digest.add(vector_hash(v));
    }
}

/// Deploys `plan` and replays `input` through it; see [`run_lockstep`].
pub fn replay(
    plan: &Plan<'_>,
    input: &Input,
    clock: &Clock,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let (switch, nic) = deploy_lockstep(plan)?;
    Ok(run_lockstep(switch, nic, plan.model, input, clock, tracer))
}

/// Replays `input` through one `FeSwitch` and one `FeNic` on this thread in
/// lock-step chunks, one span per layer call per chunk. With a disabled
/// tracer this is also the executor of `scale_churn`.
pub fn run_lockstep(
    mut switch: FeSwitch,
    mut nic: FeNic,
    model: Option<&QuantizedDetector>,
    input: &Input,
    clock: &Clock,
    tracer: &mut Tracer,
) -> Replay {
    let mut r = Replay::default();
    let mut parsed: Vec<PacketRecord> = Vec::with_capacity(CHUNK);
    let mut events: Vec<SwitchEvent> = Vec::new();
    let n = input.records.len();
    let t0 = clock.now_ns();
    let root = tracer.enter("core.replay");

    // Hands one batch of switch events to the NIC and takes what comes out;
    // `last` also finalizes the groups still in the tables.
    let deliver = |events: &[SwitchEvent],
                   nic: &mut FeNic,
                   r: &mut Replay,
                   tracer: &mut Tracer,
                   last: bool| {
        let s = tracer.enter("nic.handle");
        for e in events {
            nic.handle(e);
        }
        tracer.exit(s);
        let s = tracer.enter("nic.output");
        let groups = if last { nic.finish() } else { Vec::new() };
        let pkts = nic.take_packet_vectors();
        let evicted = nic.take_evicted();
        tracer.exit(s);
        if let Some(model) = model {
            let s = tracer.enter("ml.score");
            for v in pkts.iter().chain(&groups) {
                let alert = model.score(v.values()).is_ok_and(|x| model.is_alert(x));
                r.alerts += u64::from(alert);
            }
            tracer.exit(s);
        }
        let s = tracer.enter("bench.sink");
        r.count_events(events);
        r.evicted += evicted.len() as u64;
        let evicted = evicted.iter().map(|e| &e.vector);
        pkts.iter()
            .chain(&groups)
            .chain(evicted)
            .for_each(|v| r.sink(v));
        tracer.exit(s);
    };

    for start in (0..n).step_by(CHUNK) {
        let end = (start + CHUNK).min(n);
        r.arrivals.arrive(clock.now_ns(), (end - start) as u64);
        let records = match &input.frames {
            Some(frames) => {
                let s = tracer.enter("net.parse");
                parsed.clear();
                for i in start..end {
                    let meta = &input.records[i];
                    match parse_frame(frames.get(i), meta.ts_ns, meta.direction) {
                        Ok(p) => parsed.push(p),
                        Err(_) => r.parse_errors += 1,
                    }
                }
                tracer.exit(s);
                &parsed[..]
            }
            None => &input.records[start..end],
        };
        let s = tracer.enter("switch.process");
        events.clear();
        for p in records {
            switch.process_into(p, &mut events);
        }
        tracer.exit(s);
        deliver(&events, &mut nic, &mut r, tracer, false);
    }
    let t_pushed = clock.now_ns();

    let s = tracer.enter("switch.flush");
    events.clear();
    switch.flush_into(&mut events);
    tracer.exit(s);
    deliver(&events, &mut nic, &mut r, tracer, true);

    tracer.exit(root);
    r.push_ns = t_pushed - t0;
    r.finish_ns = clock.now_ns() - t_pushed;
    r
}

/// The single-threaded `SuperFe` run of one policy: the correctness
/// reference of the solo workloads and the `core.single_thread` baseline.
/// Returns the extraction and the `push…finish` time.
pub fn superfe_run(
    policy: &Policy,
    input: &Input,
    clock: &Clock,
) -> Result<(superfe_core::Extraction, u64), String> {
    let mut fe =
        SuperFe::with_config(policy, SuperFeConfig::default()).map_err(|e| e.to_string())?;
    let t0 = clock.now_ns();
    match &input.frames {
        Some(frames) => {
            for (i, meta) in input.records.iter().enumerate() {
                fe.push_frame(frames.get(i), meta.ts_ns, meta.direction)
                    .map_err(|e| format!("generated frame {i} does not parse: {e:?}"))?;
            }
        }
        None => input.records.iter().for_each(|p| fe.push(p)),
    }
    let out = fe.finish();
    Ok((out, clock.now_ns() - t0))
}
