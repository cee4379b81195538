//! The vocabulary of the streaming NIC executor ([`crate::pool`]): what
//! egresses a worker shard, where it can be sent, what a finished run
//! returns, and the ring geometry that bounds everything in flight.
//!
//! The geometry states the *full* half of the pool's publish rule — a
//! frame is published when it is full, or when its worker asked (see
//! [`crate::pool`]): [`FRAME_SIZE`] and [`DOORBELL_FRAMES`] are what a busy
//! worker gets, a worker with nothing to do gets what there is.

use superfe_net::Granularity;

use crate::engine::{EvictedVector, FeatureVector, NicStats};
use crate::inference::{InlineAlert, InlineStats};

/// Events per channel frame (amortizes one synchronization over the frame).
pub const FRAME_SIZE: usize = 256;

/// Frames in flight per worker before the producer blocks.
pub const CHANNEL_DEPTH: usize = 8;

/// Frames published per doorbell ring on the event path: the producer
/// stages up to this many frames locally and wakes the worker once for the
/// batch (at once for a worker that asked). Must stay below
/// [`CHANNEL_DEPTH`] so a full ring still has published frames for the
/// worker to drain.
pub const DOORBELL_FRAMES: usize = 4;

/// Capacity of each worker's frame recycle ring. When a worker drains
/// frames faster than the producer re-takes them the ring fills and excess
/// frames are dropped (freed), never blocked on.
pub const RECYCLE_DEPTH: usize = CHANNEL_DEPTH + 2;

/// A feature vector egressing a worker shard, tagged with its stream
/// position: the shard index and a per-shard monotonic sequence number.
///
/// Per-packet vectors are tagged in arrival order as frames drain;
/// per-group vectors follow at end of stream (policy level order). Because
/// every group key lives on exactly one shard and shards preserve stream
/// order, the `(shard, seq)` tags give a deterministic per-key vector order
/// for a given input and worker count.
#[derive(Clone, Debug)]
pub struct EgressVector {
    /// Shard that computed the vector.
    pub shard: usize,
    /// Per-shard monotonic sequence number (0-based).
    pub seq: u64,
    /// The feature vector itself.
    pub vector: FeatureVector,
}

/// A consumer of feature vectors egressing the streaming executor. Egress
/// is not scoring: a detector is attached with `ShardPool::score_with` and
/// runs in the shard, with or without a sink beside it.
///
/// One sink instance is moved into each worker thread, so implementations
/// need no interior locking; blocking in [`VectorSink::emit`] backpressures
/// the owning NIC shard (and, transitively, the switch producer).
pub trait VectorSink: Send {
    /// Consumes one egressing vector. Called from the worker thread.
    fn emit(&mut self, v: EgressVector);

    /// Called once after the shard's final vector, before the worker
    /// thread exits. Implementations flush any internal batching here.
    fn flush(&mut self) {}
}

/// One member's merged output of a streaming run.
#[derive(Clone, Debug, Default)]
pub struct StreamOutput {
    /// Per-group feature vectors, concatenated in shard order.
    pub group_vectors: Vec<FeatureVector>,
    /// Per-packet feature vectors, concatenated in shard order (arrival
    /// order within each shard). Empty for a member with sinks attached:
    /// its per-packet vectors were diverted to them as they were computed.
    pub packet_vectors: Vec<FeatureVector>,
    /// Aggregated engine counters. Note `fg_updates` counts per worker:
    /// broadcasts are applied once per shard.
    pub stats: NicStats,
    /// Live groups per granularity level, summed across shards (groups
    /// never span shards, so the sum is exact).
    pub groups_per_level: Vec<(Granularity, usize)>,
    /// Groups finalized early by DRAM budget eviction, concatenated in
    /// shard order. Empty under the default budget.
    pub evicted_vectors: Vec<EvictedVector>,
    /// Alerts raised by the member's in-shard inference stage, concatenated
    /// in shard order. Empty unless the member was given a detector
    /// (`ShardPool::score_with`). Use
    /// [`canonicalize`](crate::inference::canonicalize) for a
    /// worker-count-independent order.
    pub inline_alerts: Vec<InlineAlert>,
    /// Merged counters of the member's inference stage; `None` when it has
    /// no detector.
    pub inline_stats: Option<InlineStats>,
}

impl StreamOutput {
    /// Appends the next shard's piece. Called in shard order — that, not
    /// completion order, is what makes the merged output deterministic.
    pub(crate) fn absorb(&mut self, piece: StreamOutput) {
        self.group_vectors.extend(piece.group_vectors);
        self.packet_vectors.extend(piece.packet_vectors);
        self.evicted_vectors.extend(piece.evicted_vectors);
        self.inline_alerts.extend(piece.inline_alerts);
        self.stats.absorb(&piece.stats);
        add_levels(&mut self.groups_per_level, piece.groups_per_level);
        if let Some(stats) = piece.inline_stats {
            self.inline_stats
                .get_or_insert_with(InlineStats::default)
                .absorb(&stats);
        }
    }
}

/// Sums another shard's per-level group counts into `acc`. Every engine of
/// a unit reports the same level list in policy order.
pub(crate) fn add_levels(acc: &mut Vec<(Granularity, usize)>, more: Vec<(Granularity, usize)>) {
    if acc.is_empty() {
        *acc = more;
    } else {
        for (a, (_, n)) in acc.iter_mut().zip(more) {
            a.1 += n;
        }
    }
}
