//! FE-Switch: the programmable-switch half of SuperFE (§5 of the paper).
//!
//! The paper implements this component in ~2K lines of P4-16 for the Intel
//! Tofino; here it is a functional simulator of the same pipeline:
//!
//! - [`pipeline`]: the per-packet path — parser, filter match-action table,
//!   and the MGPV cache — exposed as [`FeSwitch`]. Packets can be fed either
//!   pre-parsed or as raw frames (exercising the wire parser).
//! - [`record`]: the switch→NIC message formats: [`MgpvMessage`] (an evicted
//!   grouped packet vector) and [`FgUpdate`] (FG key-table synchronization),
//!   with byte-accurate size accounting for the aggregation-ratio
//!   experiments.
//! - [`mgpv`]: the multi-granularity key-vector cache — short buffers, the
//!   long-buffer stack, the FG group-key table, collision/full/aging
//!   eviction, and recirculation-driven aging probes (§5.1–5.2).
//! - [`gpv`]: the single-granularity GPV baseline (\*Flow), which replicates
//!   the cache per granularity — the Fig. 13 comparison.
//! - [`resources`]: a static resource model (match tables, stateful ALUs,
//!   SRAM) of the generated P4 program against Tofino budgets (Table 4).
//! - [`feasibility`]: the `SF03xx` diagnostics of `superfe check`, mapping
//!   the resource model onto pass/warn/fail findings with utilization
//!   percentages.

pub mod feasibility;
pub mod gpv;
pub mod mgpv;
pub mod pipeline;
pub mod record;
pub mod resources;
pub mod tenant;

pub use feasibility::{check_switch, check_switch_resources};
pub use gpv::GpvBank;
pub use mgpv::{CgEvictPolicy, MgpvCache, MgpvConfig, MgpvStats};
pub use pipeline::{CacheMode, FeSwitch, SwitchStats};
pub use record::{EvictionCause, FgUpdate, MgpvMessage, MgpvRecord, SwitchEvent};
pub use resources::{compose, SwitchResources, TofinoBudget};
pub use tenant::{SharedSwitch, SharedSwitchStats, TaggedEvent, TenantId};
