//! FE-NIC: the SmartNIC half of SuperFE (§6 of the paper).
//!
//! The paper's prototype is ~3K lines of Micro-C on Netronome NFP-4000
//! SmartNICs. This crate provides both a faithful *model* of that hardware
//! and a real, runnable feature-computation engine:
//!
//! - [`arch`]: the NFP SoC model — islands, 8-thread RISC cores at 800 MHz,
//!   and the CLS/CTM/IMEM/EMEM/DRAM memory hierarchy with published
//!   latencies and the 64-byte data bus (§6.2, Fig. 8).
//! - [`placement`]: the group-table placement ILP (Eq. 3–5), solved exactly
//!   by branch and bound (substituting for Gurobi).
//! - [`table`]: the 64-byte-bucket fixed-length-chaining group table with
//!   DRAM overflow (§6.2 "group table implementation").
//! - [`engine`]: [`FeNic`] — consumes the switch's event stream (MGPV
//!   evictions + FG table updates), recovers every granularity level, runs
//!   the compiled `map`/`reduce`/`synthesize`/`collect` program, and emits
//!   feature vectors.
//! - [`perf`]: the cycle model with the three §6.2 optimizations as toggles
//!   (hash reuse, thread-level latency hiding, division elimination) — the
//!   basis of Figs. 16 and 17.
//! - [`pool`]: the one streaming multi-core executor — a pool of
//!   CG-key-sharded worker threads fed over bounded rings with
//!   backpressure, the software analogue of the NBI packet distribution,
//!   serving any number of execution units with epoch-based in-band
//!   attach/detach. A solo pipeline is the one-unit case; the
//!   `superfe-ctrl` control plane drives the many-unit case.
//! - [`stream`]: the executor's vocabulary — egress tags, the
//!   [`VectorSink`] attachment point, [`StreamOutput`], ring geometry.
//! - [`inference`]: the one scoring path — a member's `superfe_ml::Scorer`
//!   (a float detector or its SF09xx-certified fixed-point lowering)
//!   executed on each finalized vector inside the worker shard, so only
//!   alerts leave the pipeline; the alert type and its canonical order.
//! - [`resources`]: NIC memory utilization for Table 4.
//! - [`feasibility`]: the `SF04xx` diagnostics of `superfe check`, combining
//!   the placement ILP and the capacity model into pass/warn/fail findings.

pub mod arch;
pub mod engine;
pub mod error;
pub mod feasibility;
pub mod inference;
pub mod perf;
pub mod placement;
pub mod pool;
pub mod resources;
pub mod stream;
pub mod table;

pub use arch::{MemLevel, NfpModel};
pub use engine::{EvictedVector, FeNic, FeatureVector, NicStats};
pub use error::NicError;
pub use feasibility::{check_capacity, check_nic};
pub use inference::{
    canonicalize, inline_alert_fingerprint, InlineAlert, InlineInference, InlineStats,
};
pub use perf::{cycles_from_cost, estimate, OptFlags, PerfEstimate, RecordWork};
pub use placement::{solve_placement, Placement};
pub use pool::{MemberState, ShardPool, ShardUnitState, UnitPressure, UnitStateDump, MAX_WORKERS};
pub use resources::{model_many, NicResources};
pub use stream::{EgressVector, StreamOutput, VectorSink};
/// The scorer contract of [`ShardPool::score_with`], re-exported because it
/// is part of this crate's public signatures.
pub use superfe_ml::{Scorer, SharedScorer};
pub use table::{EvictionPolicy, GroupTable, TableBudget, TableStats};
