//! Synthetic traffic generation for SuperFE experiments.
//!
//! The paper evaluates on three private traces (Table 2) plus four public
//! application datasets; neither is shippable, so this crate generates
//! seeded synthetic equivalents whose *distributional* properties match what
//! the evaluation depends on:
//!
//! - [`workload`]: the MAWI-IXP / ENTERPRISE / CAMPUS presets — heavy-tailed
//!   flow lengths and packet-size mixtures calibrated to Table 2's averages.
//! - [`wf`]: website-fingerprinting visits with per-site direction/size
//!   signatures (for TF/AWF/DF/CUMUL).
//! - [`botnet`]: P2P bot beaconing among benign chatter (for
//!   PeerShark/N-BaIoT).
//! - [`covert`]: timing covert channels hidden in normal flows (for
//!   MPTD/NPOD).
//! - [`intrusion`]: Mirai-style attack scenarios with per-packet labels
//!   (for Kitsune/HELAD).
//! - [`dist`]: the underlying samplers (log-normal, Pareto, exponential),
//!   implemented locally so the dependency set stays on the approved list.
//! - [`io`]: a compact binary trace format (save/replay, the pcap stand-in).
//!
//! All generators are deterministic given a seed.

pub mod botnet;
pub mod covert;
pub mod dist;
pub mod intrusion;
pub mod io;
pub mod scale;
pub mod wf;
pub mod workload;

pub use scale::{AttackBurst, Diurnal, FlashCrowd, ScaleConfig, ScaleStream, ScaleWorkload};
pub use workload::{Trace, TraceStats, Workload, WorkloadPreset};
