//! Multi-tenant control plane: N policies on one shared switch/NIC.
//!
//! SuperFE's data path (`superfe-switch` + `superfe-nic`) extracts features
//! for **one** policy. Real deployments run many traffic-analysis
//! applications on the same Tofino + SmartNIC pair; this crate adds the
//! control plane that makes that safe:
//!
//! - **Admission control** ([`admission`]): [`CtrlPlane::attach`] is the
//!   one way in. Before a policy touches hardware, whatever demand the join
//!   rule leaves it is composed with the deployed set — switch demand once
//!   per partition, NIC demand once per execution unit, loaded units at the
//!   group population the NIC pool observes — through the repo's existing
//!   resource models (`superfe_switch::resources`,
//!   `superfe_nic::resources`) and checked by the same `SF03xx`/`SF04xx`
//!   diagnostic passes `superfe check` runs. Over-budget combinations are
//!   refused with a typed [`AdmissionError`] naming the binding resource.
//!   A tenant fused into an existing unit adds no demand and is not
//!   re-admitted.
//! - **Shared data path** ([`plane`]): a tenant gets a switch partition
//!   (its own, or one whose certified prefix it shares) and NIC engines
//!   (its own, or a fused unit's demux fan-out); either way its output is
//!   bitwise identical to running alone.
//! - **Epoch-based hot reconfiguration**: [`CtrlPlane::attach`] /
//!   [`CtrlPlane::detach`] take effect at batch-boundary epochs with a
//!   drain-and-flush handshake; tenants that are not touched lose and
//!   duplicate zero vectors.

pub mod admission;
pub mod error;
pub mod plane;
pub mod snapshot;

pub use admission::{admit, AdmissionReport, TenantDemand};
pub use error::{AdmissionError, CtrlError, Resource};
pub use plane::{CtrlPlane, TenantRun, TenantSpec};
pub use snapshot::SNAPSHOT_VERSION;
