//! Errors of the NIC-side executors.

use superfe_switch::record::TS_HORIZON_NS;
use superfe_switch::tenant::TenantId;

/// Why a NIC engine or multi-core executor failed.
///
/// Engine-instantiation failures used to collapse to `None`, which told the
/// caller nothing; every failure now carries a diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NicError {
    /// The [`crate::FeNic`] engine could not be instantiated for the
    /// compiled policy (degenerate table geometry).
    Engine(String),
    /// A worker thread died mid-run (it panicked while processing events).
    WorkerLost {
        /// Shard index of the lost worker.
        worker: usize,
    },
    /// A packet timestamp at or past the switch's 32-bit microsecond
    /// horizon ([`TS_HORIZON_NS`]) was refused before any partition saw it;
    /// the stream continues as if it had never been offered.
    PastHorizon {
        /// The refused packet's timestamp.
        ts_ns: u64,
    },
    /// A unit was asked to subscribe to a switch partition that is not
    /// attached; refused before the pool was touched.
    UnknownPartition {
        /// The missing partition.
        partition: TenantId,
    },
}

impl std::fmt::Display for NicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NicError::Engine(msg) => write!(f, "NIC engine instantiation failed: {msg}"),
            NicError::WorkerLost { worker } => {
                write!(f, "NIC worker {worker} terminated unexpectedly")
            }
            NicError::PastHorizon { ts_ns } => write!(
                f,
                "packet at {ts_ns} ns is at or past the timestamp horizon ({TS_HORIZON_NS} ns); \
                 rebase the trace's timestamps"
            ),
            NicError::UnknownPartition { partition } => {
                write!(f, "switch partition {partition} is not attached")
            }
        }
    }
}

impl std::error::Error for NicError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_diagnostics() {
        let e = NicError::Engine("zero-width group table".into());
        assert!(e.to_string().contains("zero-width group table"));
        assert!(NicError::WorkerLost { worker: 3 }.to_string().contains('3'));
    }
}
