//! The NIC executor: one CG-key-sharded worker pool serving N execution
//! units over bounded SPSC frame rings.
//!
//! The NFP's ingress NBI distributes packets to cores on a per-IP basis so
//! cores never contend on group state (§6.2), and one switch + SmartNIC
//! serves many applications at once. [`ShardPool`] is the software analogue
//! of both as a *pipeline stage*: the producer (the switch simulator) pushes
//! [`TaggedEvent`]s as they are emitted, the pool routes each one to the
//! worker owning its CG-key shard, and workers compute features
//! concurrently while the producer is still parsing packets — the full
//! event stream is never materialized. A solo deployment
//! (`superfe_core::StreamingPipeline`) is the one-unit case: a pool with a
//! single unit attached at stream position zero.
//!
//! Design invariants (see DESIGN.md "Threading model"):
//!
//! - **Shard-by-CG-key, never tenant-salted**: an MGPV eviction goes to
//!   worker `hash % workers` whoever owns it. Every record of a group
//!   carries the same CG hash, so a group's state lives on exactly one
//!   worker — no locks, no cross-worker merges of partial group state —
//!   and each tenant's per-shard event subsequence (hence its merged
//!   output order and `(shard, seq)` egress tags) is the same whether it
//!   runs alone or next to others.
//! - **FG broadcast**: FG-table updates are appended to *every* worker's
//!   frame, in stream order relative to the MGPV events around them, which
//!   preserves the switch's FgUpdate-before-reference ordering per worker.
//! - **Bounded rings, bounded frame inventory**: each worker is fed over a
//!   [`superfe_net::ring`] holding at most [`CHANNEL_DEPTH`] frames of
//!   [`FRAME_SIZE`] events; a producer outrunning a worker blocks
//!   (backpressure). Drained frames return over a per-worker recycle ring
//!   of [`RECYCLE_DEPTH`] slots with drop-on-full semantics, so
//!   steady-state inventory is capped at
//!   `workers × (CHANNEL_DEPTH + RECYCLE_DEPTH + 2)` frames.
//! - **A frame is published when it is full, or when its worker asked**:
//!   a frame goes to its ring at [`FRAME_SIZE`] events and the doorbell
//!   rings every [`DOORBELL_FRAMES`] frames — unless the worker has sat out
//!   one ring dwell with nothing to do and raised its ring's `hungry` flag,
//!   in which case the next push *to any worker* sends that worker's
//!   partial frame and rings at once. The consumer keeps the time; the push
//!   path reads no clock, only one relaxed flag per worker with something
//!   pending. A saturated worker never asks, so under load frames fill
//!   exactly as if the rule were "full" alone. A source that stops
//!   mid-frame is flushed by its next push, a handshake or
//!   [`ShardPool::finish`], not by a timer.
//! - **Deterministic merge**: per-shard outputs are concatenated in shard
//!   order, never completion order.
//! - **Execution units with member demux**: each worker owns one private
//!   [`FeNic`] per *unit* — a set of tenants the SF07xx analysis proved
//!   equivalent, fused by the control plane; a lone tenant is a unit of
//!   one. The engine runs the extraction once and fans the results out to
//!   each member's own outlet — its [`VectorSink`] under its own egress
//!   numbering, or the vectors kept for its output — every outlet but the
//!   last getting a copy, so a one-member unit copies nothing. A member
//!   given a scorer ([`ShardPool::score_with`]) has each vector scored by
//!   its own inference stage on the way; a detaching member takes both
//!   with it. Several units may consume one switch partition's events (an
//!   SF08xx prefix *group*); state never crosses unit boundaries.
//! - **Epoch-based reconfiguration**: a ring carries event frames and
//!   *epochs* — an operation on the worker's shard, run between the frames
//!   around it. [`ShardPool::attach`], [`ShardPool::join`],
//!   [`ShardPool::score_with`], [`ShardPool::detach`] and the state
//!   handshakes are each one epoch, sent to every worker by one send path
//!   after a flush, so every worker applies it at the same point of the
//!   event stream — the epoch boundary. An epoch rings the doorbell
//!   immediately (`send_now`), so a handshake is never parked behind a
//!   half-staged frame batch, and every wait for its acks gives up with
//!   [`NicError::WorkerLost`] once the worker's thread has finished.
//! - **The caller keeps the topology**: which tenant may share which unit
//!   or partition, and whether the stream is still at the point where
//!   sharing loses nothing, is the control plane's decision
//!   (`superfe_ctrl::CtrlPlane`). The pool keeps only what routing and
//!   demux need: each member's unit and partition.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

use superfe_ml::SharedScorer;
use superfe_net::ring;
use superfe_net::Granularity;
use superfe_policy::CompiledPolicy;
use superfe_switch::tenant::{TaggedEvent, TenantId};
use superfe_switch::SwitchEvent;

use crate::engine::{FeNic, FeatureVector};
use crate::error::NicError;
use crate::inference::InlineInference;
use crate::stream::{
    add_levels, EgressVector, StreamOutput, VectorSink, CHANNEL_DEPTH, DOORBELL_FRAMES, FRAME_SIZE,
    RECYCLE_DEPTH,
};
use crate::table::TableBudget;

/// The most shard threads a pool is asked for: the modelled NFP-4000's
/// hardware threads (`total_cores() × threads_per_core`, 60 × 8). A larger
/// count is a corrupt snapshot or a mistyped flag, not a deployment, and is
/// refused before any thread is spawned (`CtrlPlane::restore`, the CLI's
/// `--workers`).
pub const MAX_WORKERS: usize = 480;

/// How often a wait for handshake acks re-checks that the workers it is
/// waiting on are still running.
const ACK_POLL: Duration = Duration::from_millis(20);

/// One shard's dump payload: `(unit, state)` per resident unit.
type ShardDump = Vec<(TenantId, ShardUnitState)>;

/// What travels to a worker: an event frame, or an epoch — an operation
/// on the shard, run between the frames around it.
enum ShardMsg {
    /// A batch of tagged events in stream order.
    Frame(Vec<TaggedEvent>),
    /// An operation every shard runs at the same point of the event
    /// stream (see [`ShardPool::epoch`]).
    Epoch(Box<dyn FnOnce(&mut Shard) + Send>),
}

/// One unit's dumped state on one shard (see [`ShardPool::dump_state`]).
pub struct ShardUnitState {
    /// The shard this state came from (and must return to).
    pub shard: usize,
    /// A clone of the unit's engine at the dump's stream cut.
    pub engine: Box<FeNic>,
    /// Every member's own state, in join order.
    pub members: Vec<MemberState>,
}

/// One member's dumped state on one shard: what its outlet holds.
pub struct MemberState {
    /// The member.
    pub member: TenantId,
    /// Its next egress sequence number on this shard.
    pub seq: u64,
    /// The per-packet vectors kept for its output (empty with sinks).
    pub kept: Vec<FeatureVector>,
}

/// One execution unit's dumped state across every shard, in shard order.
pub struct UnitStateDump {
    /// The unit id.
    pub unit: TenantId,
    /// Per-shard state, sorted by shard index.
    pub shards: Vec<ShardUnitState>,
}

/// One unit's live state occupancy, merged across shards (see
/// [`ShardPool::state_pressure`]). This is the population feedback the
/// control plane's admission uses in place of static estimates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitPressure {
    /// The unit id.
    pub unit: TenantId,
    /// Resident groups per granularity level, summed across shards.
    pub groups_per_level: Vec<(Granularity, usize)>,
    /// Group-table overflow drops (DropNew budget refusals), summed.
    pub overflow_drops: u64,
    /// Groups evicted by the table budget, summed.
    pub evicted_groups: u64,
}

/// One member's egress half: its outlet — its sink, or the per-packet
/// vectors kept for its output — its `(shard, seq)` numbering and the
/// detector it owns, if any.
struct MemberEgress {
    member: TenantId,
    sink: Option<Box<dyn VectorSink>>,
    /// Per-(member, shard) monotonic egress sequence number.
    seq: u64,
    /// Per-packet vectors kept for a sinkless member's output.
    kept: Vec<FeatureVector>,
    /// The member's inference stage (see [`ShardPool::score_with`]).
    infer: Option<InlineInference>,
}

impl MemberEgress {
    fn new(member: TenantId, sink: Option<Box<dyn VectorSink>>) -> Self {
        MemberEgress {
            member,
            sink,
            seq: 0,
            kept: Vec::new(),
            infer: None,
        }
    }

    /// Hands freshly finalized vectors to the member's outlet: its sink
    /// under its own numbering, or its kept vectors.
    fn deliver(&mut self, shard: usize, vectors: impl IntoIterator<Item = FeatureVector>) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return self.kept.extend(vectors);
        };
        for vector in vectors {
            let seq = self.seq;
            sink.emit(EgressVector { shard, seq, vector });
            self.seq += 1;
        }
    }

    /// Scores freshly finalized vectors as one batch, when the member has a
    /// detector.
    fn score(&mut self, vectors: &[FeatureVector]) {
        if let Some(infer) = self.infer.as_mut() {
            infer.score_batch(vectors);
        }
    }

    /// End of stream for this member on this shard: `out` is the unit's
    /// output, to which the member adds its kept per-packet vectors and
    /// what its own stage raised. A member with a sink streamed its
    /// per-packet vectors out already; it egresses the group vectors and
    /// flushes, and dropping the sink here (before the worker is joined)
    /// closes any downstream channels it holds.
    fn finish(mut self, shard: usize, mut out: StreamOutput) -> (TenantId, StreamOutput) {
        if let Some(infer) = self.infer.take() {
            let (alerts, stats) = infer.into_parts();
            out.inline_alerts = alerts;
            out.inline_stats = Some(stats);
        }
        if self.sink.is_some() {
            self.deliver(shard, out.group_vectors.iter().cloned());
        }
        if let Some(mut sink) = self.sink.take() {
            sink.flush();
        }
        out.packet_vectors = self.kept;
        (self.member, out)
    }
}

/// One execution unit's state on one worker: a single engine shared by
/// every member, plus the per-member demux fan-out.
struct UnitEngine {
    unit: TenantId,
    /// The switch partition (shared-prefix group) whose events feed this
    /// engine; equals `unit` outside prefix sharing.
    group: TenantId,
    nic: Box<FeNic>,
    members: Vec<MemberEgress>,
    shard: usize,
}

impl UnitEngine {
    /// Offers freshly finalized vectors to every member's detector.
    fn score(&mut self, vectors: &[FeatureVector]) {
        self.members.iter_mut().for_each(|m| m.score(vectors));
    }

    /// Scores and demuxes freshly finalized per-packet vectors — the one
    /// place a unit copies them: every member's outlet but the last gets a
    /// clone, the last takes them by move, so a one-member unit (every solo
    /// run) clones nothing.
    fn drain_packets(&mut self) {
        let fresh = self.nic.take_packet_vectors();
        if fresh.is_empty() {
            return;
        }
        self.score(&fresh);
        let (last, rest) = self.members.split_last_mut().expect("a unit has a member");
        for m in rest {
            m.deliver(self.shard, fresh.iter().cloned());
        }
        last.deliver(self.shard, fresh);
    }

    /// End of stream for the whole unit on this shard: finish the engine
    /// once, then demux — every member gets its own copy of the group
    /// vectors and counters (and its sink flushed), the last one by move,
    /// next to its own kept per-packet vectors.
    fn finalize(mut self) -> Vec<(TenantId, StreamOutput)> {
        self.drain_packets();
        let groups = self.nic.finish();
        self.score(&groups);
        let mut whole = StreamOutput {
            group_vectors: groups,
            stats: *self.nic.stats(),
            groups_per_level: self.nic.groups_per_level(),
            evicted_vectors: self.nic.take_evicted(),
            ..StreamOutput::default()
        };
        let (shard, n) = (self.shard, self.members.len());
        self.members
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let out = if i + 1 == n {
                    std::mem::take(&mut whole)
                } else {
                    whole.clone()
                };
                m.finish(shard, out)
            })
            .collect()
    }

    /// Splits the member at `pos` off a still-populated unit as a unit of
    /// its own over a *clone* of the engine, so finalizing it cannot touch
    /// the survivors' live state. Its outlet and detector leave with it.
    fn fork(&mut self, pos: usize) -> UnitEngine {
        UnitEngine {
            unit: self.unit,
            group: self.group,
            nic: self.nic.clone(),
            members: vec![self.members.remove(pos)],
            shard: self.shard,
        }
    }
}

/// One worker: the units resident on its shard and its event loop.
struct Shard {
    index: usize,
    engines: Vec<UnitEngine>,
}

impl Shard {
    /// Drains the ring until the pool closes it, then finalizes every unit
    /// still resident: end of stream for everyone left.
    fn run(
        mut self,
        mut rx: ring::Consumer<ShardMsg>,
        mut recycle: ring::Producer<Vec<TaggedEvent>>,
    ) -> Vec<(TenantId, StreamOutput)> {
        while let Ok(msg) = rx.recv() {
            match msg {
                ShardMsg::Frame(mut frame) => {
                    for e in &frame {
                        // One shared-prefix partition's event feeds every
                        // unit in its group.
                        for u in self.engines.iter_mut().filter(|u| u.group == e.tenant) {
                            u.nic.handle(&e.event);
                        }
                    }
                    for u in &mut self.engines {
                        u.drain_packets();
                    }
                    frame.clear();
                    // Bounded recycling: hand the frame back if the ring
                    // has room, otherwise drop (free) it.
                    let _ = recycle.try_send(frame);
                }
                ShardMsg::Epoch(op) => op(&mut self),
            }
        }
        self.engines
            .into_iter()
            .flat_map(UnitEngine::finalize)
            .collect()
    }

    /// Finalizes `member` against `events` (mirroring the end-of-stream
    /// order: partition flush, packet drain, finish): destructively when it
    /// is its unit's last member, on a fork of the unit otherwise.
    /// `events`, this shard's share of the flush ending the member's window,
    /// feeds the leaving member's engine only: nothing else here sees it.
    fn detach(
        &mut self,
        unit: TenantId,
        member: TenantId,
        events: &[SwitchEvent],
    ) -> Option<StreamOutput> {
        let pos = self.engines.iter().position(|u| u.unit == unit)?;
        let members = &self.engines[pos].members;
        let mpos = members.iter().position(|m| m.member == member)?;
        let mut leaving = if members.len() == 1 {
            self.engines.remove(pos)
        } else {
            self.engines[pos].fork(mpos)
        };
        for e in events {
            leaving.nic.handle(e);
        }
        leaving.finalize().pop().map(|(_, out)| out)
    }

    /// Captures every resident unit's state without touching it: the
    /// engine is cloned, so live processing goes on unchanged.
    fn dump(&self) -> ShardDump {
        self.engines
            .iter()
            .map(|u| {
                let members = u.members.iter().map(|m| MemberState {
                    member: m.member,
                    seq: m.seq,
                    kept: m.kept.clone(),
                });
                let state = ShardUnitState {
                    shard: self.index,
                    engine: u.nic.clone(),
                    members: members.collect(),
                };
                (u.unit, state)
            })
            .collect()
    }

    /// Overwrites one unit's dynamic state — its engine, and per member its
    /// egress sequence number and kept per-packet vectors — with a dumped
    /// one. Refuses (`false`) a unit not resident here, and a roster that
    /// differs from the dump's: members are matched by position.
    fn restore(&mut self, unit: TenantId, state: ShardUnitState) -> bool {
        let Some(u) = self.engines.iter_mut().find(|u| u.unit == unit) else {
            return false;
        };
        let roster = u.members.iter().map(|m| m.member);
        if !roster.eq(state.members.iter().map(|m| m.member)) {
            return false;
        }
        u.nic = state.engine;
        for (m, saved) in u.members.iter_mut().zip(state.members) {
            m.seq = saved.seq;
            m.kept = saved.kept;
        }
        true
    }

    /// Every resident unit's live state occupancy on this shard: groups per
    /// level and the budget's eviction and overflow counters.
    fn pressure(&self) -> Vec<UnitPressure> {
        self.engines
            .iter()
            .map(|u| UnitPressure {
                unit: u.unit,
                groups_per_level: u.nic.groups_per_level(),
                overflow_drops: u.nic.stats().overflow_drops,
                evicted_groups: u.nic.stats().evicted_groups,
            })
            .collect()
    }
}

struct Worker {
    tx: ring::Producer<ShardMsg>,
    /// Consumer end of this worker's bounded frame recycle ring.
    recycle: ring::Consumer<Vec<TaggedEvent>>,
    join: JoinHandle<Vec<(TenantId, StreamOutput)>>,
    /// Frame currently being filled for this worker.
    pending: Vec<TaggedEvent>,
}

/// One attached member, the unit whose engine serves it and the switch
/// partition (shared-prefix group) feeding that unit; `group == unit`
/// outside prefix sharing.
struct MemberEntry {
    member: TenantId,
    unit: TenantId,
    group: TenantId,
    /// Whether the member was given a detector ([`ShardPool::score_with`]).
    scored: bool,
    /// The table budget its unit's engines run under: the pool's when the
    /// unit attached, or the one its restored engines carry.
    budget: TableBudget,
}

/// The streaming NIC executor: one worker pool, any number of units.
///
/// Constructed empty; units come and go via [`ShardPool::attach`] /
/// [`ShardPool::detach`], and fused members via [`ShardPool::join`], while
/// the event stream flows. [`ShardPool::push_all`] routes events as they
/// arrive and [`ShardPool::finish`] flushes, joins, and merges
/// deterministically.
pub struct ShardPool {
    workers: Vec<Worker>,
    /// Locally stashed recycled frames ready for reuse (bounded: refilled
    /// only from the fixed-capacity recycle rings).
    spare: Vec<Vec<TaggedEvent>>,
    /// Attached members in attach order.
    members: Vec<MemberEntry>,
    /// Group-table budget applied to every subsequently attached unit.
    budget: TableBudget,
}

impl ShardPool {
    /// Spawns `workers` shard threads (clamped to ≥ 1) with no units.
    pub fn new(workers: usize) -> Self {
        let workers = (0..workers.max(1))
            .map(|index| {
                let (tx, rx) = ring::channel::<ShardMsg>(CHANNEL_DEPTH, DOORBELL_FRAMES);
                // Recycle ring: the worker produces drained frames, the
                // routing thread consumes them. try_send drops on full.
                let (recycle_tx, recycle) = ring::channel::<Vec<TaggedEvent>>(RECYCLE_DEPTH, 1);
                let shard = Shard {
                    index,
                    engines: Vec::new(),
                };
                Worker {
                    tx,
                    recycle,
                    join: std::thread::spawn(move || shard.run(rx, recycle_tx)),
                    pending: Vec::with_capacity(FRAME_SIZE),
                }
            })
            .collect();
        ShardPool {
            workers,
            spare: Vec::new(),
            members: Vec::new(),
            budget: TableBudget::default(),
        }
    }

    /// Sets the group-table budget (DRAM cap + eviction policy) used by
    /// every unit attached *after* this call; already-attached units keep
    /// theirs, and a member joins ([`ShardPool::join`]) only a unit whose
    /// engines run under the budget in force. Lets operators pin
    /// `RandomWay` to an explicit seed (CLI `--evict-seed`) so evictions
    /// replay deterministically. Groups the budget evicts come back in
    /// [`StreamOutput::evicted_vectors`].
    pub fn set_table_budget(&mut self, budget: TableBudget) {
        self.budget = budget;
    }

    /// Number of shards.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Validates and splits an optional per-shard sink list.
    fn split_sinks(
        &self,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<Vec<Option<Box<dyn VectorSink>>>, NicError> {
        let n = self.workers.len();
        match sinks {
            Some(s) if s.len() != n => Err(NicError::Engine(format!(
                "sink count {} does not match worker count {n}",
                s.len()
            ))),
            Some(s) => Ok(s.into_iter().map(Some).collect()),
            None => Ok((0..n).map(|_| None).collect()),
        }
    }

    /// Attaches `unit` as a new unit (of which it is the first member) at
    /// the current epoch, fed by the events switch partition `group` tags
    /// — `unit` itself for a partition of its own, an already-attached
    /// unit's partition for an SF08xx prefix share. All events pushed after
    /// this call are processed by its engines; nothing before is. The unit
    /// gets its own engines and its own NIC program, so its output is
    /// bitwise a solo run's as long as the caller attaches it only while
    /// `group` is still at the stream position where sharing loses nothing.
    ///
    /// `fg_table_size` is the unit's NIC group-table quota. `sinks`, when
    /// given, must hold one sink per shard (`sinks[i]` moves into worker
    /// `i` and receives that shard's vectors as they are computed,
    /// [`EgressVector`]-tagged with their stream position). With sinks
    /// attached the unit's per-packet vectors are *diverted*: they flow to
    /// the sinks incrementally instead of accumulating in
    /// [`StreamOutput::packet_vectors`] (which comes back empty); per-group
    /// vectors are both egressed at end of stream and returned.
    pub fn attach(
        &mut self,
        unit: TenantId,
        group: TenantId,
        compiled: &CompiledPolicy,
        fg_table_size: usize,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<(), NicError> {
        if self
            .members
            .iter()
            .any(|m| m.member == unit || m.unit == unit)
        {
            return Err(NicError::Engine(format!(
                "tenant {unit} is already attached"
            )));
        }
        let sinks = self.split_sinks(sinks)?;
        // All engines are instantiated up front so configuration problems
        // surface here, not inside a worker thread.
        let engines = (0..self.workers.len())
            .map(|_| {
                FeNic::with_budget(compiled, fg_table_size, self.budget)
                    .map(Box::new)
                    .ok_or_else(|| {
                        NicError::Engine("degenerate NIC group-table configuration".into())
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut per_shard = engines.into_iter().zip(sinks);
        self.epoch(|_| {
            let (nic, sink) = per_shard.next().expect("one engine per shard");
            move |s: &mut Shard| {
                s.engines.push(UnitEngine {
                    unit,
                    group,
                    nic,
                    members: vec![MemberEgress::new(unit, sink)],
                    shard: s.index,
                });
            }
        })?;
        self.members.push(MemberEntry {
            member: unit,
            unit,
            group,
            scored: false,
            budget: self.budget,
        });
        Ok(())
    }

    /// Joins `member` to the existing unit `unit`'s demux fan-out.
    ///
    /// The member runs on the unit's engines, table budget and all, so a
    /// unit whose engines do not run under the budget in force
    /// ([`ShardPool::under_current_budget`]) is refused: every member runs
    /// under the budget set before its attach, fused or not. The caller
    /// (the control plane) certifies equivalence and must guarantee that no
    /// packet has been offered to the unit's switch partition since the
    /// unit attached, otherwise the member's output would include history
    /// from before its attach point.
    pub fn join(
        &mut self,
        unit: TenantId,
        member: TenantId,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
    ) -> Result<(), NicError> {
        let Some(&MemberEntry { group, budget, .. }) = self.members.iter().find(|m| m.unit == unit)
        else {
            return Err(NicError::Engine(format!("unit {unit} is not attached")));
        };
        if budget != self.budget {
            return Err(NicError::Engine(format!(
                "unit {unit} runs under another table budget"
            )));
        }
        if self.members.iter().any(|m| m.member == member) {
            return Err(NicError::Engine(format!(
                "tenant {member} is already attached"
            )));
        }
        let mut sinks = self.split_sinks(sinks)?.into_iter();
        self.epoch(|_| {
            let sink = sinks.next().expect("one sink slot per shard");
            move |s: &mut Shard| {
                if let Some(u) = s.engines.iter_mut().find(|u| u.unit == unit) {
                    u.members.push(MemberEgress::new(member, sink));
                }
            }
        })?;
        self.members.push(MemberEntry {
            member,
            unit,
            group,
            scored: false,
            budget,
        });
        Ok(())
    }

    /// Whether `unit`'s engines run under the budget in force, which a
    /// member joining it now is owed ([`ShardPool::join`]).
    pub fn under_current_budget(&self, unit: TenantId) -> bool {
        self.unit_budget(unit) == Some(self.budget)
    }

    /// The table budget `unit`'s engines run under, if it is attached.
    pub fn unit_budget(&self, unit: TenantId) -> Option<TableBudget> {
        (self.members.iter())
            .find(|m| m.unit == unit)
            .map(|m| m.budget)
    }

    /// Gives `member` a detector of its own at the current epoch: every
    /// vector its unit finalizes from here on — per-packet and per-group —
    /// is scored *inside the worker shard that finalized it*, and what the
    /// stage raised comes back as the member's
    /// [`StreamOutput::inline_alerts`] / [`StreamOutput::inline_stats`].
    /// The scorer is shared read-only across shards and pure, so the alert
    /// stream per group key is bitwise identical at every worker count.
    ///
    /// Valid at any stream position and under any sharing: the stage
    /// belongs to the member, not to its unit, so a fused neighbour or a
    /// unit on the same partition neither sees nor pays for it, and it
    /// leaves with the member on [`ShardPool::detach`]. Stage state is not
    /// part of [`ShardPool::dump_state`]. A member has at most one detector.
    pub fn score_with(&mut self, member: TenantId, model: SharedScorer) -> Result<(), NicError> {
        let Some(entry) = self.members.iter_mut().find(|m| m.member == member) else {
            return Err(NicError::Engine(format!("tenant {member} is not attached")));
        };
        if std::mem::replace(&mut entry.scored, true) {
            return Err(NicError::Engine(format!(
                "tenant {member} already has a detector"
            )));
        }
        self.epoch(|_| {
            let model = model.clone();
            move |s: &mut Shard| {
                let mut members = s.engines.iter_mut().flat_map(|u| &mut u.members);
                if let Some(m) = members.find(|m| m.member == member) {
                    m.infer = Some(InlineInference::new(model, s.index));
                }
            }
        })
    }

    /// Detaches `member` at the current epoch and returns its complete
    /// output: pending frames are flushed, every shard finalizes the member
    /// (egressing its remaining vectors and flushing its sink), and the
    /// per-shard pieces are merged once all shards have acked. Blocks until
    /// the epoch completes.
    ///
    /// `events` is the flush of the member's switch partition that ends
    /// its window, chosen by the caller according to what survives: the
    /// partition's *draining* flush (`SharedSwitch::detach_into`) when it
    /// dies with the member, its *snapshot* flush
    /// (`SharedSwitch::snapshot_into`) when other members or units keep
    /// consuming it. It rides in the detach epoch rather than as ordinary
    /// frames — routed per shard exactly like live traffic, but fed to the
    /// departing member's engine only: the unit's own engine when the
    /// member is its last, a clone when fused members survive. Either way
    /// the member gets exactly the output a solo run over its window
    /// produces, and survivors' live state is never touched.
    pub fn detach(
        &mut self,
        member: TenantId,
        events: impl IntoIterator<Item = TaggedEvent>,
    ) -> Result<StreamOutput, NicError> {
        let Some(pos) = self.members.iter().position(|m| m.member == member) else {
            return Err(NicError::Engine(format!("tenant {member} is not attached")));
        };
        let MemberEntry { unit, group, .. } = self.members[pos];
        let mut per_shard = self.route_flush(group, events);
        let pieces = self.handshake(|w| {
            let events = std::mem::take(&mut per_shard[w]);
            move |s: &mut Shard| s.detach(unit, member, &events)
        })?;
        self.members.remove(pos);
        let mut out = StreamOutput::default();
        for (_, piece) in pieces {
            out.absorb(piece);
        }
        Ok(out)
    }

    /// Splits a switch-partition flush per shard with the live routing
    /// rules — MGPV evictions to `hash % workers`, FG updates broadcast —
    /// keeping only events tagged with `group`.
    fn route_flush(
        &self,
        group: TenantId,
        events: impl IntoIterator<Item = TaggedEvent>,
    ) -> Vec<Vec<SwitchEvent>> {
        let n = self.workers.len();
        let mut per_shard: Vec<Vec<SwitchEvent>> = (0..n).map(|_| Vec::new()).collect();
        for e in events.into_iter().filter(|e| e.tenant == group) {
            match &e.event {
                SwitchEvent::FgUpdate(_) => {
                    for v in per_shard.iter_mut() {
                        v.push(e.event.clone());
                    }
                }
                SwitchEvent::Mgpv(m) => per_shard[(m.hash as usize) % n].push(e.event),
            }
        }
        per_shard
    }

    /// Non-destructively captures every unit's engine state on every shard
    /// at the current stream cut — the NIC half of a plane snapshot. The
    /// live engines keep processing afterwards; pending frames are flushed
    /// first so the dump lands on a clean epoch boundary. Units are
    /// returned in creation order — the order every shard keeps them in —
    /// shards sorted within each unit. Inference-stage state is not part of
    /// a dump.
    pub fn dump_state(&mut self) -> Result<Vec<UnitStateDump>, NicError> {
        let acks = self.handshake(|_| |s: &mut Shard| Some(s.dump()))?;
        let mut units: Vec<UnitStateDump> = Vec::new();
        for (unit, state) in acks.into_iter().flat_map(|(_, dump)| dump) {
            match units.iter_mut().find(|x| x.unit == unit) {
                Some(u) => u.shards.push(state),
                None => units.push(UnitStateDump {
                    unit,
                    shards: vec![state],
                }),
            }
        }
        Ok(units)
    }

    /// Overwrites one attached unit's dynamic state with a previously
    /// dumped per-shard state (see [`ShardPool::dump_state`]).
    ///
    /// The unit must already be attached — structurally rebuilt by
    /// replaying its attach/join history — with the same member roster and
    /// at the same worker count; `shards` must hold exactly one state per
    /// shard. Fails without touching the unit otherwise. From here on the
    /// unit runs under the table budget its restored engines carry.
    pub fn restore_unit(
        &mut self,
        unit: TenantId,
        mut shards: Vec<ShardUnitState>,
    ) -> Result<(), NicError> {
        let n = self.workers.len();
        if shards.len() != n {
            return Err(NicError::Engine(format!(
                "restore of unit {unit} carries {} shard states for {n} workers",
                shards.len()
            )));
        }
        shards.sort_by_key(|s| s.shard);
        if shards.iter().enumerate().any(|(w, s)| s.shard != w) {
            return Err(NicError::Engine(format!(
                "restore of unit {unit} has a missing or duplicate shard index"
            )));
        }
        let budget = shards[0].engine.table_budget();
        let mut states = shards.into_iter();
        let acks = self.handshake(|_| {
            let state = states.next().expect("one state per shard");
            move |s: &mut Shard| Some(s.restore(unit, state))
        })?;
        if let Some((shard, _)) = acks.iter().find(|(_, ok)| !ok) {
            return Err(NicError::Engine(format!(
                "shard {shard} rejected the restore of unit {unit}: engine geometry or member roster mismatch"
            )));
        }
        if let Some(budget) = budget {
            let members = self.members.iter_mut().filter(|m| m.unit == unit);
            members.for_each(|m| m.budget = budget);
        }
        Ok(())
    }

    /// Reports every unit's live state occupancy — resident groups per
    /// level plus budget-eviction counters, merged across shards in unit
    /// creation order. This is the population feedback the control plane's
    /// admission consumes in place of its static per-tenant estimates.
    pub fn state_pressure(&mut self) -> Result<Vec<UnitPressure>, NicError> {
        let acks = self.handshake(|_| |s: &mut Shard| Some(s.pressure()))?;
        let mut merged: Vec<UnitPressure> = Vec::new();
        for p in acks.into_iter().flat_map(|(_, pressures)| pressures) {
            match merged.iter_mut().find(|m| m.unit == p.unit) {
                Some(m) => {
                    add_levels(&mut m.groups_per_level, p.groups_per_level);
                    m.overflow_drops += p.overflow_drops;
                    m.evicted_groups += p.evicted_groups;
                }
                None => merged.push(p),
            }
        }
        Ok(merged)
    }

    /// Runs one operation on every shard at the current epoch: pending
    /// frames are flushed first — everything already queued belongs to the
    /// previous epoch — then `op_for_shard(w)` goes to shard `w`, in shard
    /// order, so every worker runs it at the same cut of the event stream.
    ///
    /// Epochs go out with `send_now` (publish + doorbell immediately): a
    /// handshake blocks on its acks, so an epoch left staged behind the
    /// doorbell batch would deadlock it. This is the pool's one send path
    /// for anything but an event frame.
    fn epoch<F>(&mut self, mut op_for_shard: impl FnMut(usize) -> F) -> Result<(), NicError>
    where
        F: FnOnce(&mut Shard) + Send + 'static,
    {
        self.flush_all()?;
        for w in 0..self.workers.len() {
            self.workers[w]
                .tx
                .send_now(ShardMsg::Epoch(Box::new(op_for_shard(w))))
                .map_err(|_| NicError::WorkerLost { worker: w })?;
        }
        Ok(())
    }

    /// One epoch with an answer: every shard runs `op_for_shard(w)` and
    /// acks what it returns — nothing on `None` — and the acks come back
    /// sorted by shard once every shard has answered.
    ///
    /// A worker that dies with its epoch still in the ring never acks —
    /// and the epoch keeps the ack channel open — so the wait polls the
    /// workers' threads.
    fn handshake<T, F>(
        &mut self,
        mut op_for_shard: impl FnMut(usize) -> F,
    ) -> Result<Vec<(usize, T)>, NicError>
    where
        T: Send + 'static,
        F: FnOnce(&mut Shard) -> Option<T> + Send + 'static,
    {
        let n = self.workers.len();
        let (ack_tx, ack_rx) = channel();
        self.epoch(|w| {
            let (op, ack) = (op_for_shard(w), ack_tx.clone());
            move |s: &mut Shard| {
                if let Some(answer) = op(s) {
                    let _ = ack.send((s.index, answer));
                }
            }
        })?;
        drop(ack_tx);
        let mut acks: Vec<(usize, T)> = Vec::with_capacity(n);
        let mut acked = vec![false; n];
        while acks.len() < n {
            // Sampled *before* the wait: a worker already finished here
            // sent its ack, if any, before exiting, so a wait that then
            // times out on an empty channel proves it never will.
            let lost = (0..n).find(|&w| !acked[w] && self.workers[w].join.is_finished());
            match ack_rx.recv_timeout(ACK_POLL) {
                Ok(ack) => {
                    acked[ack.0] = true;
                    acks.push(ack);
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(worker) = lost {
                        return Err(NicError::WorkerLost { worker });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let worker = acked.iter().position(|a| !a).unwrap_or(0);
                    return Err(NicError::WorkerLost { worker });
                }
            }
        }
        // Deterministic merge in shard order, independent of ack arrival.
        acks.sort_by_key(|(shard, _)| *shard);
        Ok(acks)
    }

    /// Routes a batch of tagged events in order — everything the switch
    /// emitted for one packet, possibly nothing: a worker that asked for
    /// its frame is served by the next packet whether or not that packet
    /// produced an event for it. MGPV evictions go to shard
    /// `hash % workers`, FG updates to every shard.
    ///
    /// Blocks when a target worker is [`CHANNEL_DEPTH`] frames behind
    /// (backpressure). Fails only if a worker thread has died.
    pub fn push_all(
        &mut self,
        events: impl IntoIterator<Item = TaggedEvent>,
    ) -> Result<(), NicError> {
        for e in events {
            self.route(e)?;
        }
        self.serve_hungry()
    }

    /// Appends one event to its workers' pending frames and sends the
    /// frames that became full.
    fn route(&mut self, event: TaggedEvent) -> Result<(), NicError> {
        match &event.event {
            SwitchEvent::FgUpdate(_) => {
                for w in 0..self.workers.len() {
                    self.workers[w].pending.push(event.clone());
                    self.flush_if_full(w)?;
                }
                Ok(())
            }
            SwitchEvent::Mgpv(m) => {
                let w = (m.hash as usize) % self.workers.len();
                self.workers[w].pending.push(event);
                self.flush_if_full(w)
            }
        }
    }

    /// The "or the worker asked" half of the publish rule, once per push:
    /// every worker that has something unpublished — a partial frame, or
    /// frames staged behind the doorbell — and whose ring says it sat out a
    /// dwell hungry gets all of it now. The request is taken only when
    /// there is something to give, so it stays up until there is.
    fn serve_hungry(&mut self) -> Result<(), NicError> {
        for w in 0..self.workers.len() {
            let worker = &mut self.workers[w];
            if (!worker.pending.is_empty() || worker.tx.staged() > 0) && worker.tx.take_hungry() {
                self.flush_worker(w)?;
                self.workers[w].tx.doorbell();
            }
        }
        Ok(())
    }

    /// Drains one frame for worker `w` if it reached [`FRAME_SIZE`].
    fn flush_if_full(&mut self, w: usize) -> Result<(), NicError> {
        if self.workers[w].pending.len() >= FRAME_SIZE {
            self.flush_worker(w)?;
        }
        Ok(())
    }

    /// Sends worker `w`'s pending frame, replacing it with a recycled one.
    ///
    /// The ring doorbell batches publication: the worker is woken once per
    /// [`DOORBELL_FRAMES`] frames (or when it asked, when the producer
    /// blocks on a full ring, at a handshake, or at [`ShardPool::finish`]),
    /// not once per frame.
    fn flush_worker(&mut self, w: usize) -> Result<(), NicError> {
        if self.workers[w].pending.is_empty() {
            return Ok(());
        }
        let replacement = self.take_spare();
        let frame = std::mem::replace(&mut self.workers[w].pending, replacement);
        self.workers[w]
            .tx
            .send(ShardMsg::Frame(frame))
            .map_err(|_| NicError::WorkerLost { worker: w })
    }

    fn flush_all(&mut self) -> Result<(), NicError> {
        for w in 0..self.workers.len() {
            self.flush_worker(w)?;
        }
        Ok(())
    }

    /// A recycled frame if one is available, else a fresh allocation.
    fn take_spare(&mut self) -> Vec<TaggedEvent> {
        for w in &mut self.workers {
            while let Ok(f) = w.recycle.try_recv() {
                self.spare.push(f);
            }
        }
        self.spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(FRAME_SIZE))
    }

    /// Flushes remaining frames, closes the rings, joins every worker in
    /// shard order, and returns each remaining member's merged output in
    /// attach order.
    pub fn finish(mut self) -> Result<Vec<(TenantId, StreamOutput)>, NicError> {
        self.flush_all()?;
        let mut merged: Vec<(TenantId, StreamOutput)> = self
            .members
            .iter()
            .map(|m| (m.member, StreamOutput::default()))
            .collect();
        for (i, worker) in self.workers.into_iter().enumerate() {
            // Dropping the producer publishes any staged frames, closes the
            // ring, and wakes the worker; its loop drains and exits.
            drop(worker.tx);
            let pieces = worker
                .join
                .join()
                .map_err(|_| NicError::WorkerLost { worker: i })?;
            for (tenant, piece) in pieces {
                if let Some((_, out)) = merged.iter_mut().find(|(t, _)| *t == tenant) {
                    out.absorb(piece);
                }
            }
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use superfe_net::PacketRecord;
    use superfe_policy::compile;
    use superfe_policy::dsl::parse;
    use superfe_switch::tenant::SharedSwitch;
    use superfe_switch::{CacheMode, MgpvConfig};

    const T0: TenantId = TenantId(0);
    const T1: TenantId = TenantId(1);
    const T2: TenantId = TenantId(2);

    fn compiled(src: &str) -> CompiledPolicy {
        compile(&parse(src).unwrap()).unwrap()
    }

    fn host(reducers: &str, unit: &str) -> CompiledPolicy {
        compiled(&format!(
            "pktstream\n.groupby(host)\n.reduce(size, [{reducers}])\n.collect({unit})"
        ))
    }

    fn host_sum() -> CompiledPolicy {
        host("f_sum", "host")
    }

    fn flow_tcp() -> CompiledPolicy {
        compiled(
            "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_sum, f_max])\n\
             .collect(flow)",
        )
    }

    /// A shared switch with one default-configured partition per entry.
    fn switch(partitions: &[(TenantId, &CompiledPolicy)]) -> SharedSwitch {
        let mut sw = SharedSwitch::new();
        for (id, c) in partitions {
            assert!(sw.attach(
                *id,
                c.switch.clone(),
                MgpvConfig::default(),
                CacheMode::Mgpv
            ));
        }
        sw
    }

    /// All-TCP traffic from 31 hosts.
    fn hosts31(n: u32) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::tcp(u64::from(i) * 100, 100, i % 31 + 1, 1000, 2, 80))
            .collect()
    }

    /// Mixed traffic from 13 hosts, a quarter of it UDP.
    fn packets(n: u64) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| {
                if i % 4 == 0 {
                    PacketRecord::udp(i * 500, 120, (i % 13 + 1) as u32, 53, 7, 53)
                } else {
                    PacketRecord::tcp(i * 500, 300, (i % 13 + 1) as u32, 2000, 7, 443)
                }
            })
            .collect()
    }

    fn feed(sw: &mut SharedSwitch, pool: &mut ShardPool, pkts: &[PacketRecord]) {
        let mut frame = Vec::new();
        for p in pkts {
            sw.process_into(p, &mut frame);
            pool.push_all(frame.drain(..)).unwrap();
        }
    }

    fn flush(sw: &mut SharedSwitch, pool: &mut ShardPool) {
        let mut frame = Vec::new();
        sw.flush_into(&mut frame);
        pool.push_all(frame).unwrap();
    }

    /// The solo case: a fresh pool with one unit attached at position zero
    /// over the whole of `pkts`.
    fn solo_with(
        c: &CompiledPolicy,
        pkts: &[PacketRecord],
        workers: usize,
        sinks: Option<Vec<Box<dyn VectorSink>>>,
        model: Option<SharedScorer>,
    ) -> StreamOutput {
        let mut sw = switch(&[(T0, c)]);
        let mut pool = ShardPool::new(workers);
        pool.attach(T0, T0, c, 16_384, sinks).unwrap();
        if let Some(model) = model {
            pool.score_with(T0, model).unwrap();
        }
        feed(&mut sw, &mut pool, pkts);
        flush(&mut sw, &mut pool);
        let mut outs = pool.finish().unwrap();
        assert_eq!(outs.len(), 1);
        outs.remove(0).1
    }

    fn solo(c: &CompiledPolicy, pkts: &[PacketRecord], workers: usize) -> StreamOutput {
        solo_with(c, pkts, workers, None, None)
    }

    fn sorted(mut v: Vec<FeatureVector>) -> Vec<FeatureVector> {
        v.sort_by_cached_key(|a| format!("{:?}", a.key));
        v
    }

    #[test]
    fn streaming_matches_single_worker() {
        let c = host_sum();
        let pkts = hosts31(2000);
        let seq = solo(&c, &pkts, 1);
        let par = solo(&c, &pkts, 8);
        assert_eq!(seq.stats.records, 2000);
        assert_eq!(par.stats.records, 2000);
        // Shards partition the MGPV messages: none lost, none duplicated.
        assert_eq!(seq.stats.msgs, par.stats.msgs);
        assert_eq!(sorted(seq.group_vectors), sorted(par.group_vectors));
    }

    #[test]
    fn worker_count_clamped_to_one() {
        assert_eq!(ShardPool::new(0).workers(), 1);
    }

    #[test]
    fn merge_order_is_deterministic() {
        // Same input, many runs: output order must be identical every time
        // (workers are joined in shard order, not completion order).
        let c = host_sum();
        let pkts = hosts31(1500);
        let baseline = solo(&c, &pkts, 4);
        for _ in 0..3 {
            let again = solo(&c, &pkts, 4);
            assert_eq!(baseline.group_vectors, again.group_vectors);
            assert_eq!(baseline.packet_vectors, again.packet_vectors);
        }
    }

    #[test]
    fn frames_are_recycled() {
        // Push far more events than CHANNEL_DEPTH × workers frames; with
        // recycling the executor still completes with bounded memory, and
        // every record survives the frame transport.
        let out = solo(&host_sum(), &hosts31(20_000), 2);
        assert_eq!(out.stats.records, 20_000);
        let total: f64 = out.group_vectors.iter().map(|g| g.values[0]).sum();
        assert!((total - 20_000.0 * 100.0).abs() < 1e-6, "total {total}");
    }

    /// Collects egressed vectors into a shared buffer for inspection.
    struct CollectSink {
        out: Arc<Mutex<Vec<EgressVector>>>,
        flushed: Arc<AtomicUsize>,
    }

    impl VectorSink for CollectSink {
        fn emit(&mut self, v: EgressVector) {
            self.out.lock().unwrap().push(v);
        }
        fn flush(&mut self) {
            self.flushed.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn solo_with_sinks(
        c: &CompiledPolicy,
        n: u32,
        workers: usize,
    ) -> (StreamOutput, Vec<EgressVector>, usize) {
        let out = Arc::new(Mutex::new(Vec::new()));
        let flushed = Arc::new(AtomicUsize::new(0));
        let sinks = (0..workers)
            .map(|_| {
                Box::new(CollectSink {
                    out: out.clone(),
                    flushed: flushed.clone(),
                }) as Box<dyn VectorSink>
            })
            .collect();
        let merged = solo_with(c, &hosts31(n), workers, Some(sinks), None);
        let egressed = std::mem::take(&mut *out.lock().unwrap());
        (merged, egressed, flushed.load(Ordering::SeqCst))
    }

    #[test]
    fn sinks_divert_packet_vectors_and_tag_positions() {
        let c = host("f_sum", "pkt");
        let plain = solo(&c, &hosts31(2000), 2);
        let (merged, egressed, flushes) = solo_with_sinks(&c, 2000, 2);
        // Diverted: the sink sees what the plain run buffered.
        assert!(merged.packet_vectors.is_empty());
        assert_eq!(flushes, 2);
        assert_eq!(egressed.len(), plain.packet_vectors.len());
        let sink_sorted = sorted(egressed.iter().map(|e| e.vector.clone()).collect());
        assert_eq!(sorted(plain.packet_vectors), sink_sorted);
        // Tags: per-shard sequence numbers are dense from 0.
        for shard in 0..2 {
            let mut seqs: Vec<u64> = egressed
                .iter()
                .filter(|e| e.shard == shard)
                .map(|e| e.seq)
                .collect();
            seqs.sort_unstable();
            assert!(seqs.iter().enumerate().all(|(i, &s)| s == i as u64));
        }
    }

    #[test]
    fn sinks_also_see_group_vectors() {
        let (merged, egressed, _) = solo_with_sinks(&host_sum(), 500, 3);
        // Group-collect policy: groups are both egressed and returned.
        assert_eq!(egressed.len(), merged.group_vectors.len());
        assert_eq!(
            sorted(egressed.into_iter().map(|e| e.vector).collect()),
            sorted(merged.group_vectors)
        );
    }

    /// Longer than the ring's dwell (1 ms, private to `superfe_net::ring`)
    /// several times over: a worker left alone this long has asked.
    const A_FEW_DWELLS: Duration = Duration::from_millis(5);

    /// Stamps every egressed vector with when it was emitted.
    struct StampSink(Arc<Mutex<Vec<(EgressVector, std::time::Instant)>>>);

    impl VectorSink for StampSink {
        fn emit(&mut self, v: EgressVector) {
            self.0.lock().unwrap().push((v, std::time::Instant::now()));
        }
    }

    /// Everything the switch emits for `pkts`, final flush included.
    fn tagged(c: &CompiledPolicy, pkts: &[PacketRecord]) -> Vec<TaggedEvent> {
        let mut sw = switch(&[(T0, c)]);
        let mut events = Vec::new();
        for p in pkts {
            sw.process_into(p, &mut events);
        }
        sw.flush_into(&mut events);
        events
    }

    /// Per-packet vectors `events` will produce: one per batched record.
    fn records_in(events: &[TaggedEvent]) -> usize {
        events
            .iter()
            .map(|e| match &e.event {
                SwitchEvent::Mgpv(m) => m.records.len(),
                SwitchEvent::FgUpdate(_) => 0,
            })
            .sum()
    }

    /// Polls, under a 2 s watchdog, until `shard`'s sink holds `n` vectors.
    fn wait_for_vectors(
        seen: &Mutex<Vec<(EgressVector, std::time::Instant)>>,
        shard: usize,
        n: usize,
        mut meanwhile: impl FnMut(),
    ) {
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while seen
            .lock()
            .unwrap()
            .iter()
            .filter(|(e, _)| e.shard == shard)
            .count()
            < n
        {
            assert!(
                std::time::Instant::now() < deadline,
                "shard {shard} still waits for its partial frame"
            );
            meanwhile();
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn a_hungry_worker_gets_its_partial_frame_before_finish() {
        let c = host("f_sum", "pkt");
        let events = tagged(&c, &hosts31(600));
        assert!(events.len() < FRAME_SIZE / 2, "must stay one partial frame");
        let (first, last) = events.split_at(events.len() - 1);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut pool = ShardPool::new(1);
        let sinks: Vec<Box<dyn VectorSink>> = vec![Box::new(StampSink(seen.clone()))];
        pool.attach(T0, T0, &c, 16_384, Some(sinks)).unwrap();
        // Far less than a frame, then silence, then one more event: the
        // worker sat out its dwell and asked, and that push serves it —
        // or, on a host too loaded for the worker to have run yet, the
        // next packet does, though the switch emits nothing for it.
        pool.push_all(first.iter().cloned()).unwrap();
        std::thread::sleep(A_FEW_DWELLS);
        pool.push_all([last[0].clone()]).unwrap();
        wait_for_vectors(&seen, 0, records_in(first), || {
            pool.push_all(std::iter::empty()).unwrap();
        });
        // All of that before `finish`, which only has the rest to flush.
        let finishing = std::time::Instant::now();
        pool.finish().unwrap();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 600);
        assert!(seen[..records_in(first)]
            .iter()
            .all(|(_, at)| *at < finishing));
    }

    #[test]
    fn a_hungry_worker_is_served_by_pushes_to_another() {
        // Four workers, one single-granularity unit: each host's events
        // all land on one shard. Shard `idle` gets a partial frame and then
        // nothing; every later push lands on shard `busy`. The idle
        // shard's vectors must come out anyway, while the pushes go on.
        let c = host("f_sum", "pkt");
        let mut by_shard: Vec<Vec<TaggedEvent>> = vec![Vec::new(); 4];
        for e in tagged(&c, &hosts31(600)) {
            let SwitchEvent::Mgpv(m) = &e.event else {
                panic!("a single-granularity policy emits no FG updates");
            };
            by_shard[m.hash as usize % 4].push(e);
        }
        let mut shards = (0..4).filter(|&s| !by_shard[s].is_empty());
        let (idle, busy) = (shards.next().unwrap(), shards.next().unwrap());
        assert!(by_shard[idle].len() < FRAME_SIZE / 2);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut pool = ShardPool::new(4);
        let sinks = (0..4)
            .map(|_| Box::new(StampSink(seen.clone())) as Box<dyn VectorSink>)
            .collect();
        pool.attach(T0, T0, &c, 16_384, Some(sinks)).unwrap();
        pool.push_all(by_shard[idle].iter().cloned()).unwrap();
        std::thread::sleep(A_FEW_DWELLS);
        let mut elsewhere = by_shard[busy].iter().cycle().cloned();
        wait_for_vectors(&seen, idle, records_in(&by_shard[idle]), || {
            pool.push_all(elsewhere.next()).unwrap();
        });
        pool.finish().unwrap();
    }

    fn quant_model(train: &[Vec<f64>]) -> SharedScorer {
        use superfe_ml::{
            quantize, train_and_calibrate, CalibrationConfig, DetectorKind, QuantConfig,
        };
        let refs: Vec<&[f64]> = train.iter().map(Vec::as_slice).collect();
        let frozen = train_and_calibrate(
            DetectorKind::Centroid.build(train[0].len(), 0).unwrap(),
            &refs,
            0.05,
            CalibrationConfig::default(),
        )
        .unwrap();
        Arc::new(quantize(&frozen, &QuantConfig::default()).unwrap())
    }

    /// A model trained far away (second axis dominant) from what
    /// `host(f_sum, f_max)` emits ([~6400, 100], first axis dominant):
    /// every host alerts.
    fn hostile_model() -> SharedScorer {
        let train: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![1.0 + f64::from(i % 5) * 0.1, 500.0 + f64::from(i % 7)])
            .collect();
        quant_model(&train)
    }

    #[test]
    fn inline_inference_raises_alerts_on_group_vectors() {
        let c = host("f_sum, f_max", "host");
        let pkts = hosts31(2000);
        let out = solo_with(&c, &pkts, 2, None, Some(hostile_model()));
        let stats = out.inline_stats.expect("inference was attached");
        assert_eq!(stats.scored, out.group_vectors.len() as u64);
        assert_eq!(stats.dim_errors, 0);
        assert_eq!(stats.alerts, out.group_vectors.len() as u64);
        assert_eq!(out.inline_alerts.len(), out.group_vectors.len());
        for a in &out.inline_alerts {
            assert!(a.score > a.threshold);
        }
        // Without inference the same run reports no inline stage at all.
        let plain = solo(&c, &pkts, 2);
        assert!(plain.inline_stats.is_none());
        assert!(plain.inline_alerts.is_empty());
        // And the vector outputs themselves are unchanged by scoring.
        assert_eq!(
            sorted(plain.group_vectors),
            sorted(out.group_vectors.clone())
        );
    }

    #[test]
    fn a_detector_belongs_to_its_member_not_its_unit() {
        // A fused unit of two: only the member given a detector is scored,
        // and its alert stream is its solo run's, `(shard, seq)` included.
        let c = host("f_sum, f_max", "host");
        let pkts = hosts31(2000);
        let alone = solo_with(&c, &pkts, 2, None, Some(hostile_model()));
        let fused = || {
            let mut pool = ShardPool::new(2);
            pool.attach(T0, T0, &c, 16_384, None).unwrap();
            pool.join(T0, T1, None).unwrap();
            pool.score_with(T1, hostile_model()).unwrap();
            // One detector per member, and only for members.
            assert!(pool.score_with(T1, hostile_model()).is_err());
            assert!(pool.score_with(T2, hostile_model()).is_err());
            (switch(&[(T0, &c)]), pool)
        };
        let (mut sw, mut pool) = fused();
        feed(&mut sw, &mut pool, &pkts);
        flush(&mut sw, &mut pool);
        let outs = pool.finish().unwrap();
        assert!(outs[0].1.inline_stats.is_none() && outs[0].1.inline_alerts.is_empty());
        assert_eq!(outs[1].1.inline_stats, alone.inline_stats);
        let debug = |o: &StreamOutput| format!("{:?}", o.inline_alerts);
        assert_eq!(debug(&outs[1].1), debug(&alone));
        // Detached mid-stream off a fork of the unit, the stage leaves with
        // its member: the alerts of a solo run over the member's window.
        let (sw, pool) = fused();
        let (gone, rest) = detach_midway(sw, pool, &pkts, T1, T0, true);
        let half = solo_with(&c, &pkts[..1000], 2, None, Some(hostile_model()));
        assert!(!half.inline_alerts.is_empty());
        assert_eq!(debug(&gone), debug(&half));
        assert!(rest[0].1.inline_stats.is_none());
    }

    #[test]
    fn inline_alert_stream_is_worker_count_independent() {
        let c = host("f_sum, f_max", "host");
        let model = hostile_model();
        let mut fingerprints = Vec::new();
        for workers in [1, 2, 4, 8] {
            let out = solo_with(&c, &hosts31(2000), workers, None, Some(model.clone()));
            let mut alerts = out.inline_alerts;
            crate::inference::canonicalize(&mut alerts, |a| (a.key, a.seq));
            fingerprints.push(crate::inference::inline_alert_fingerprint(&alerts));
        }
        assert!(!fingerprints[0].is_empty());
        for fp in &fingerprints[1..] {
            assert_eq!(&fingerprints[0], fp, "alert stream depends on worker count");
        }
    }

    #[test]
    fn inline_inference_scores_packet_vectors_without_diverting_them() {
        let c = host("f_sum", "pkt");
        let pkts = hosts31(2000);
        let train: Vec<Vec<f64>> = (0..64).map(|i| vec![100.0 + f64::from(i % 5)]).collect();
        let out = solo_with(&c, &pkts, 2, None, Some(quant_model(&train)));
        // No sink attached: scored per-packet vectors are still returned.
        let plain = solo(&c, &pkts, 2);
        assert_eq!(out.packet_vectors.len(), plain.packet_vectors.len());
        let stats = out.inline_stats.expect("inference was attached");
        assert_eq!(
            stats.scored,
            (plain.packet_vectors.len() + plain.group_vectors.len()) as u64
        );
        assert_eq!(sorted(out.packet_vectors), sorted(plain.packet_vectors));
    }

    #[test]
    fn multi_granularity_fg_broadcast() {
        // FG updates must reach every worker so finer levels resolve on
        // whichever shard their CG records land.
        let c = compiled(
            "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
             .groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
        );
        let out = solo(&c, &hosts31(600), 4);
        assert_eq!(out.stats.unresolved_fg, 0);
        let hosts = out
            .group_vectors
            .iter()
            .filter(|v| matches!(v.key, superfe_net::GroupKey::Host(_)))
            .count();
        assert_eq!(hosts, 31);
    }

    #[test]
    fn two_tenants_match_their_solo_runs() {
        for workers in [1usize, 4] {
            let (a, b) = (host_sum(), flow_tcp());
            let pkts = packets(800);
            let mut sw = switch(&[(T0, &a), (T1, &b)]);
            let mut pool = ShardPool::new(workers);
            pool.attach(T0, T0, &a, 16_384, None).unwrap();
            pool.attach(T1, T1, &b, 16_384, None).unwrap();
            feed(&mut sw, &mut pool, &pkts);
            flush(&mut sw, &mut pool);
            let outs = pool.finish().unwrap();
            assert_eq!(outs.len(), 2);
            for ((_, out), c) in outs.iter().zip([&a, &b]) {
                let alone = solo(c, &pkts, workers);
                assert_eq!(out.group_vectors, alone.group_vectors);
                assert_eq!(out.stats.records, alone.stats.records);
            }
        }
    }

    /// Serves `pkts` on a two-shard pool, detaching `leaver` (fed by
    /// partition `group`) half-way — with the partition's draining flush
    /// when it dies with the leaver, its snapshot flush when it survives —
    /// and returns the leaver's output and the survivors'.
    fn detach_midway(
        mut sw: SharedSwitch,
        mut pool: ShardPool,
        pkts: &[PacketRecord],
        leaver: TenantId,
        group: TenantId,
        partition_survives: bool,
    ) -> (StreamOutput, Vec<(TenantId, StreamOutput)>) {
        let (before, after) = pkts.split_at(pkts.len() / 2);
        feed(&mut sw, &mut pool, before);
        let mut flush_events = Vec::new();
        if partition_survives {
            sw.snapshot_into(group, &mut flush_events);
        } else {
            sw.detach_into(group, &mut flush_events);
        }
        let gone = pool.detach(leaver, flush_events).unwrap();
        feed(&mut sw, &mut pool, after);
        flush(&mut sw, &mut pool);
        (gone, pool.finish().unwrap())
    }

    #[test]
    fn detach_handshake_returns_output_and_isolates_survivor() {
        let (a, b) = (host_sum(), flow_tcp());
        let pkts = packets(1000);
        let sw = switch(&[(T0, &a), (T1, &b)]);
        let mut pool = ShardPool::new(2);
        pool.attach(T0, T0, &a, 16_384, None).unwrap();
        pool.attach(T1, T1, &b, 16_384, None).unwrap();
        // Epoch: drain tenant 1 out of switch and NIC mid-stream.
        let (gone, outs) = detach_midway(sw, pool, &pkts, T1, T1, false);
        assert_eq!(gone.group_vectors, solo(&b, &pkts[..500], 2).group_vectors);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, T0);
        // The survivor is bit-identical to its solo run.
        assert_eq!(outs[0].1.group_vectors, solo(&a, &pkts, 2).group_vectors);
    }

    #[test]
    fn fused_unit_demuxes_members_bitwise() {
        for workers in [1usize, 3] {
            let a = host_sum();
            let pkts = packets(800);
            let mut sw = switch(&[(T0, &a)]);
            let mut pool = ShardPool::new(workers);
            pool.attach(T0, T0, &a, 16_384, None).unwrap();
            pool.join(T0, T1, None).unwrap();
            pool.join(T0, T2, None).unwrap();
            feed(&mut sw, &mut pool, &pkts);
            flush(&mut sw, &mut pool);
            let outs = pool.finish().unwrap();
            assert_eq!(outs.len(), 3);
            let alone = solo(&a, &pkts, workers);
            for (id, out) in &outs {
                assert_eq!(
                    out.group_vectors, alone.group_vectors,
                    "member {id} diverged at {workers} workers"
                );
                assert_eq!(out.stats.records, alone.stats.records);
            }
        }
    }

    #[test]
    fn fused_member_detach_is_bitwise_solo_and_spares_survivors() {
        let a = host_sum();
        let pkts = packets(1000);
        let sw = switch(&[(T0, &a)]);
        let mut pool = ShardPool::new(2);
        pool.attach(T0, T0, &a, 16_384, None).unwrap();
        pool.join(T0, T1, None).unwrap();
        // Member detach: the partition is snapshot-flushed (live state
        // untouched) and member 1 is finalized on a fork of the unit.
        let (gone, outs) = detach_midway(sw, pool, &pkts, T1, T0, true);
        // The departed member equals a solo run over its window; the
        // survivor equals a solo run over the whole trace.
        let half = solo(&a, &pkts[..500], 2);
        assert_eq!(gone.group_vectors, half.group_vectors);
        assert_eq!(gone.packet_vectors, half.packet_vectors);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, T0);
        assert_eq!(outs[0].1.group_vectors, solo(&a, &pkts, 2).group_vectors);
    }

    #[test]
    fn prefix_group_units_match_their_solo_runs() {
        // Two tenants sharing one switch partition (same prefix: no
        // filter, groupby host) but running different reduce tails: each
        // unit's output must be bitwise identical to a solo run of its own
        // full policy.
        for workers in [1usize, 3] {
            let (a, b) = (host_sum(), host("f_max", "host"));
            let pkts = packets(800);
            // One partition, attached under the group id (tenant 0).
            let mut sw = switch(&[(T0, &a)]);
            let mut pool = ShardPool::new(workers);
            pool.attach(T0, T0, &a, 16_384, None).unwrap();
            pool.attach(T1, T0, &b, 16_384, None).unwrap();
            feed(&mut sw, &mut pool, &pkts);
            flush(&mut sw, &mut pool);
            let outs = pool.finish().unwrap();
            assert_eq!(outs.len(), 2);
            for ((_, out), c) in outs.iter().zip([&a, &b]) {
                let alone = solo(c, &pkts, workers);
                assert_eq!(out.group_vectors, alone.group_vectors);
                assert_eq!(out.stats.records, alone.stats.records);
            }
        }
    }

    #[test]
    fn prefix_unit_detach_is_bitwise_solo_and_spares_survivors() {
        let (a, b) = (host_sum(), host("f_max", "host"));
        let pkts = packets(1000);
        let sw = switch(&[(T0, &a)]);
        let mut pool = ShardPool::new(2);
        pool.attach(T0, T0, &a, 16_384, None).unwrap();
        pool.attach(T1, T0, &b, 16_384, None).unwrap();
        // The shared partition stays live for tenant 0; tenant 1's own
        // engines finalize against the partition's snapshot flush.
        let (gone, outs) = detach_midway(sw, pool, &pkts, T1, T0, true);
        let half = solo(&b, &pkts[..500], 2);
        assert_eq!(gone.group_vectors, half.group_vectors);
        assert_eq!(gone.packet_vectors, half.packet_vectors);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, T0);
        assert_eq!(outs[0].1.group_vectors, solo(&a, &pkts, 2).group_vectors);
    }

    #[test]
    fn attach_rejects_duplicates_and_bad_sink_counts() {
        let a = host_sum();
        let mut pool = ShardPool::new(2);
        pool.attach(TenantId(7), TenantId(7), &a, 16_384, None)
            .unwrap();
        assert!(pool
            .attach(TenantId(7), TenantId(7), &a, 16_384, None)
            .is_err());
        // A unit on another's partition is a member like any other: once.
        pool.attach(T1, TenantId(7), &a, 16_384, None).unwrap();
        assert!(pool.attach(T1, TenantId(7), &a, 16_384, None).is_err());
        // One sink per shard, or none at all.
        let no_sinks = pool.attach(TenantId(8), TenantId(8), &a, 16_384, Some(Vec::new()));
        assert!(matches!(no_sinks, Err(NicError::Engine(_))));
        assert!(pool.detach(TenantId(9), Vec::new()).is_err());
        // Joins go to attached units, and only for new members.
        assert!(pool.join(TenantId(9), TenantId(3), None).is_err());
        assert!(pool.join(TenantId(7), TenantId(7), None).is_err());
        pool.finish().unwrap();
    }

    #[test]
    fn dump_restore_resumes_bitwise_identically() {
        // Run half the stream, dump every unit, rebuild a fresh executor
        // (replayed attach), restore the dumped state, run the rest: every
        // member's output must be bitwise what the uninterrupted run made.
        for workers in [1usize, 4] {
            let (a, b) = (host_sum(), flow_tcp());
            let pkts = packets(1000);
            let attach_both = |pool: &mut ShardPool| {
                pool.attach(T0, T0, &a, 16_384, None).unwrap();
                pool.attach(T1, T1, &b, 16_384, None).unwrap();
            };
            // Uninterrupted reference.
            let mut sw = switch(&[(T0, &a), (T1, &b)]);
            let mut pool = ShardPool::new(workers);
            attach_both(&mut pool);
            feed(&mut sw, &mut pool, &pkts);
            flush(&mut sw, &mut pool);
            let full = pool.finish().unwrap();
            // Interrupted run: dump at the half-way cut...
            let mut sw1 = switch(&[(T0, &a), (T1, &b)]);
            let mut pool1 = ShardPool::new(workers);
            attach_both(&mut pool1);
            feed(&mut sw1, &mut pool1, &pkts[..500]);
            let dumps = pool1.dump_state().unwrap();
            assert_eq!(dumps.len(), 2);
            assert!(dumps.iter().all(|d| d.shards.len() == workers));
            drop(pool1.finish().unwrap());
            // ...then rebuild structurally and refill the dumped state.
            // The switch side keeps running (sw1 still holds its state).
            let mut pool2 = ShardPool::new(workers);
            attach_both(&mut pool2);
            for d in dumps {
                pool2.restore_unit(d.unit, d.shards).unwrap();
            }
            feed(&mut sw1, &mut pool2, &pkts[500..]);
            flush(&mut sw1, &mut pool2);
            let resumed = pool2.finish().unwrap();
            assert_eq!(full.len(), resumed.len());
            for ((t1, o1), (t2, o2)) in full.iter().zip(&resumed) {
                assert_eq!(t1, t2);
                assert_eq!(
                    o1.group_vectors, o2.group_vectors,
                    "tenant {t1} diverged at {workers} workers"
                );
                assert_eq!(o1.packet_vectors, o2.packet_vectors);
                assert_eq!(o1.stats.records, o2.stats.records);
                assert_eq!(o1.stats.vectors, o2.stats.vectors);
            }
        }
    }

    #[test]
    fn restore_guards_roster_and_shard_count() {
        let a = host_sum();
        let mut pool = ShardPool::new(2);
        pool.attach(T0, T0, &a, 16_384, None).unwrap();
        let dumps = pool.dump_state().unwrap();
        let shards = dumps.into_iter().next().unwrap().shards;
        // Wrong unit id: the roster check rejects it.
        let rejected = pool.restore_unit(TenantId(9), shards).unwrap_err();
        assert!(
            !rejected.to_string().contains("  "),
            "mangled message: {rejected}"
        );
        // Wrong shard count.
        let dumps = pool.dump_state().unwrap();
        let mut shards = dumps.into_iter().next().unwrap().shards;
        shards.pop();
        assert!(pool.restore_unit(T0, shards).is_err());
        pool.finish().unwrap();
    }

    #[test]
    fn a_member_joins_only_a_unit_under_the_budget_in_force() {
        let a = host_sum();
        let capped = TableBudget::capped(1, crate::table::EvictionPolicy::EvictOldest);
        let mut pool = ShardPool::new(2);
        pool.attach(T0, T0, &a, 16_384, None).unwrap();
        pool.set_table_budget(capped);
        assert!(!pool.under_current_budget(T0));
        assert!(pool.join(T0, T1, None).is_err());
        // A restored unit runs under the budget its engines carry.
        let mut saved = ShardPool::new(2);
        saved.set_table_budget(capped);
        saved.attach(T0, T0, &a, 16_384, None).unwrap();
        let dump = saved.dump_state().unwrap().pop().unwrap();
        saved.finish().unwrap();
        pool.restore_unit(T0, dump.shards).unwrap();
        assert_eq!(pool.unit_budget(T0), Some(capped));
        assert!(pool.under_current_budget(T0));
        pool.join(T0, T1, None).unwrap();
        pool.finish().unwrap();
    }

    #[test]
    fn state_pressure_reports_populations() {
        let (a, b) = (host_sum(), flow_tcp());
        let mut sw = switch(&[(T0, &a), (T1, &b)]);
        let mut pool = ShardPool::new(2);
        pool.attach(T0, T0, &a, 16_384, None).unwrap();
        pool.attach(T1, T1, &b, 16_384, None).unwrap();
        feed(&mut sw, &mut pool, &packets(600));
        let pressure = pool.state_pressure().unwrap();
        assert_eq!(pressure.len(), 2);
        for p in &pressure {
            let total: usize = p.groups_per_level.iter().map(|(_, n)| n).sum();
            assert!(total > 0, "unit {} reports no resident groups", p.unit);
            // Default budgets are far above this workload: no evictions.
            assert_eq!(p.overflow_drops, 0);
            assert_eq!(p.evicted_groups, 0);
        }
        pool.finish().unwrap();
    }
}
