//! Errors of the multi-tenant control plane.

use superfe_core::stream::AttachError;
use superfe_nic::NicError;
use superfe_policy::PolicyError;
use superfe_switch::tenant::TenantId;

/// The hardware resource that made an admission decision bind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resource {
    /// Tofino logical match tables.
    SwitchTables,
    /// Tofino stateful ALUs.
    SwitchSalus,
    /// Tofino SRAM.
    SwitchSram,
    /// SmartNIC aggregate state capacity (on-chip hierarchy plus DRAM).
    NicCapacity,
}

impl Resource {
    /// Human-readable name of the resource.
    pub fn name(self) -> &'static str {
        match self {
            Resource::SwitchTables => "switch match tables",
            Resource::SwitchSalus => "switch stateful ALUs",
            Resource::SwitchSram => "switch SRAM",
            Resource::NicCapacity => "NIC state capacity",
        }
    }
}

/// Why a tenant set was refused admission.
#[derive(Debug)]
pub enum AdmissionError {
    /// One policy failed its own deployment gate (compile error or an
    /// error-severity static-analysis finding) before composition was even
    /// attempted.
    Policy {
        /// Name of the offending tenant policy.
        tenant: String,
        /// The underlying policy/analysis failure.
        source: PolicyError,
    },
    /// The composed demand of the tenant set exceeds a hardware budget.
    /// `resource` names the binding resource.
    Budget {
        /// The resource the set ran out of.
        resource: Resource,
        /// Composed demand of the whole tenant set, in the resource's unit
        /// (tables, sALUs, or bytes).
        demand: u64,
        /// The hardware budget in the same unit.
        limit: u64,
        /// The rendered diagnostic behind the decision (SF03xx/SF04xx).
        detail: String,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Policy { tenant, source } => {
                write!(f, "policy '{tenant}' rejected: {source}")
            }
            AdmissionError::Budget {
                resource,
                demand,
                limit,
                ..
            } => write!(
                f,
                "admission rejected: {} exhausted (composed demand {demand} exceeds budget \
                 {limit})",
                resource.name()
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Why a control-plane operation failed.
#[derive(Debug)]
pub enum CtrlError {
    /// Admission refused the tenant set.
    Admission(AdmissionError),
    /// The shared NIC executor failed (a worker died).
    Nic(NicError),
    /// The tenant id is not attached.
    UnknownTenant(TenantId),
    /// The shared switch refused the data-path attach (degenerate cache
    /// configuration slipping past analysis).
    Switch(String),
    /// A plane snapshot could not be taken or restored (corrupt or
    /// version-mismatched bytes, or specs that do not match the saved
    /// topology).
    Snapshot(String),
    /// Every tenant id has been handed out: ids are 16-bit and never
    /// recycled, so a plane attaches at most 65,536 tenants over its life.
    TenantIdsExhausted,
}

impl std::fmt::Display for CtrlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtrlError::Admission(e) => write!(f, "{e}"),
            CtrlError::Nic(e) => write!(f, "shared NIC error: {e}"),
            CtrlError::UnknownTenant(t) => write!(f, "tenant {t} is not attached"),
            CtrlError::Switch(msg) => write!(f, "shared switch error: {msg}"),
            CtrlError::Snapshot(msg) => write!(f, "plane snapshot error: {msg}"),
            CtrlError::TenantIdsExhausted => {
                write!(f, "tenant id space exhausted (ids are never recycled)")
            }
        }
    }
}

impl std::error::Error for CtrlError {}

impl From<AdmissionError> for CtrlError {
    fn from(e: AdmissionError) -> Self {
        CtrlError::Admission(e)
    }
}

impl From<NicError> for CtrlError {
    fn from(e: NicError) -> Self {
        CtrlError::Nic(e)
    }
}

impl From<AttachError> for CtrlError {
    fn from(e: AttachError) -> Self {
        match e {
            AttachError::Switch => CtrlError::Switch(e.to_string()),
            AttachError::Nic(e) => CtrlError::Nic(e),
        }
    }
}
