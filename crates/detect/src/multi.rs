//! Per-tenant serving registry for the multi-tenant control plane.
//!
//! Each tenant on the shared data path gets its own [`Serving`] executor —
//! its own detector, inference workers, and alert stream — so alerts stay
//! isolated end to end: a tenant's [`ServeReport`] is a pure function of
//! its own policy, detector, and traffic, bitwise-identical to the same
//! policy served solo. The registry only tracks the per-tenant executors
//! and hands their sinks to `ShardPool::attach`; all scoring and
//! canonical ordering is [`Serving`]'s.

use superfe_ml::FrozenDetector;
use superfe_nic::VectorSink;
use superfe_switch::tenant::TenantId;

use crate::error::DetectError;
use crate::serve::{ServeConfig, ServeReport, Serving};

/// A registry of per-tenant serving executors.
#[derive(Default)]
pub struct MultiServing {
    tenants: Vec<(TenantId, Serving)>,
}

impl MultiServing {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attached tenants in attach order.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.iter().map(|(t, _)| *t).collect()
    }

    /// Spawns a serving executor for `tenant` and returns the per-NIC-shard
    /// sinks to pass to the shared NIC's attach. Returns `None` when the
    /// tenant already has an executor.
    pub fn spawn(
        &mut self,
        tenant: TenantId,
        det: &FrozenDetector,
        cfg: &ServeConfig,
        nic_shards: usize,
    ) -> Option<Vec<Box<dyn VectorSink>>> {
        if self.tenants.iter().any(|(t, _)| *t == tenant) {
            return None;
        }
        let (serving, sinks) = Serving::spawn(det, cfg, nic_shards);
        self.tenants.push((tenant, serving));
        Some(sinks)
    }

    /// Finishes `tenant`'s executor (after its NIC sinks were flushed and
    /// dropped by a shared-NIC detach) and returns its isolated report.
    pub fn finish_tenant(&mut self, tenant: TenantId) -> Result<ServeReport, DetectError> {
        let Some(pos) = self.tenants.iter().position(|(t, _)| *t == tenant) else {
            return Err(DetectError::Config(format!(
                "tenant {tenant} has no serving executor"
            )));
        };
        let (_, serving) = self.tenants.remove(pos);
        serving.finish()
    }

    /// Finishes every remaining executor in attach order.
    pub fn finish_all(self) -> Result<Vec<(TenantId, ServeReport)>, DetectError> {
        self.tenants
            .into_iter()
            .map(|(t, s)| s.finish().map(|r| (t, r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_ml::{train_and_calibrate, CalibrationConfig, CentroidDetector};
    use superfe_net::GroupKey;
    use superfe_nic::{EgressVector, FeatureVector};
    use superfe_streaming::FeatureValues;

    fn frozen(dim: usize) -> FrozenDetector {
        let data: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                (0..dim)
                    .map(|d| 1.0 + 0.02 * ((i + d) % 5) as f64)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        train_and_calibrate(
            Box::new(CentroidDetector::new(dim).unwrap()),
            &refs,
            0.2,
            CalibrationConfig::default(),
        )
        .unwrap()
    }

    fn vector(host: u32, vals: &[f64]) -> FeatureVector {
        let mut values = FeatureValues::new();
        for &v in vals {
            values.push(v);
        }
        FeatureVector {
            key: GroupKey::Host(host),
            values,
        }
    }

    #[test]
    fn tenants_get_isolated_reports() {
        let det = frozen(2);
        let mut reg = MultiServing::new();
        let mut sinks_a = reg
            .spawn(TenantId(0), &det, &ServeConfig::default(), 1)
            .unwrap();
        let mut sinks_b = reg
            .spawn(TenantId(1), &det, &ServeConfig::default(), 1)
            .unwrap();
        assert!(reg
            .spawn(TenantId(0), &det, &ServeConfig::default(), 1)
            .is_none());
        assert_eq!(reg.tenant_ids(), vec![TenantId(0), TenantId(1)]);
        // Tenant 0 sees only benign vectors; tenant 1 sees one anomaly.
        for i in 0..20u64 {
            sinks_a[0].emit(EgressVector {
                shard: 0,
                seq: i,
                vector: vector(1, &[1.0, 1.02]),
            });
            sinks_b[0].emit(EgressVector {
                shard: 0,
                seq: i,
                vector: vector(2, &[1.0, 1.02]),
            });
        }
        sinks_b[0].emit(EgressVector {
            shard: 0,
            seq: 20,
            vector: vector(9, &[-40.0, -40.0]),
        });
        for s in sinks_a.iter_mut().chain(sinks_b.iter_mut()) {
            s.flush();
        }
        drop(sinks_a);
        // Mid-stream detach of tenant 0: its report is complete and clean.
        let report_a = reg.finish_tenant(TenantId(0)).unwrap();
        assert_eq!(report_a.totals.scored, 20);
        assert_eq!(report_a.alerts.len(), 0);
        assert!(reg.finish_tenant(TenantId(0)).is_err());
        drop(sinks_b);
        let rest = reg.finish_all().unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].0, TenantId(1));
        assert_eq!(rest[0].1.totals.scored, 21);
        assert_eq!(rest[0].1.alerts.len(), 1);
    }
}
