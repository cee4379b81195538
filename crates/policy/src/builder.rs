//! A fluent Rust builder mirroring the textual policy interface.

use superfe_net::Granularity;

use crate::ast::{CollectUnit, Field, MapFn, Operator, Policy, Predicate, ReduceFn, SynthFn};
use crate::error::PolicyError;
use crate::validate::validate;

/// Starts a policy chain, like writing `pktstream` in the DSL.
///
/// # Examples
///
/// The paper's Fig. 4 (packet frequency distributions):
///
/// ```
/// use superfe_net::Granularity;
/// use superfe_policy::{pktstream, MapFn, ReduceFn};
///
/// let policy = pktstream()
///     .groupby(Granularity::Flow)
///     .map("ipt", "tstamp", MapFn::FIpt)
///     .reduce("ipt", vec![ReduceFn::Hist { width: 10_000.0, bins: 100 }])
///     .reduce("size", vec![ReduceFn::Hist { width: 100.0, bins: 16 }])
///     .collect_group(Granularity::Flow)
///     .build()
///     .unwrap();
/// assert_eq!(policy.feature_dimension(), 116);
/// ```
pub fn pktstream() -> PolicyBuilder {
    PolicyBuilder { ops: Vec::new() }
}

/// Accumulates operators; see [`pktstream`].
#[derive(Clone, Debug)]
pub struct PolicyBuilder {
    ops: Vec<Operator>,
}

impl PolicyBuilder {
    /// Appends `filter(p)`.
    pub fn filter(mut self, p: Predicate) -> Self {
        self.ops.push(Operator::Filter(p));
        self
    }

    /// Appends `groupby(g)`.
    pub fn groupby(mut self, g: Granularity) -> Self {
        self.ops.push(Operator::GroupBy(g));
        self
    }

    /// Appends `map(dst, src, func)`. Field names follow the DSL; use `"_"`
    /// as the source for functions that ignore it (like `f_one`).
    pub fn map(mut self, dst: &str, src: &str, func: MapFn) -> Self {
        self.ops.push(Operator::Map {
            dst: Field::from_name(dst),
            src: Field::from_name(src),
            func,
        });
        self
    }

    /// Appends `reduce(src, funcs)`.
    pub fn reduce(mut self, src: &str, funcs: Vec<ReduceFn>) -> Self {
        self.ops.push(Operator::Reduce {
            src: Field::from_name(src),
            funcs,
        });
        self
    }

    /// Appends `synthesize(sf)`.
    pub fn synthesize(mut self, sf: SynthFn) -> Self {
        self.ops.push(Operator::Synthesize(sf));
        self
    }

    /// Appends `collect(pkt)`: the builder of the validator's and the
    /// structural lints' per-packet test policies.
    #[cfg(test)]
    pub(crate) fn collect_pkt(mut self) -> Self {
        self.ops.push(Operator::Collect(CollectUnit::Pkt));
        self
    }

    /// Appends `collect(g)`.
    pub fn collect_group(mut self, g: Granularity) -> Self {
        self.ops.push(Operator::Collect(CollectUnit::Group(g)));
        self
    }

    /// Finishes the chain, validating the policy.
    pub fn build(self) -> Result<Policy, PolicyError> {
        let policy = Policy { ops: self.ops };
        validate(&policy)?;
        Ok(policy)
    }

    /// Finishes the chain without validation: the builder of the
    /// validator's and the analyzer's unit-test policies.
    #[cfg(test)]
    pub(crate) fn build_unchecked(self) -> Policy {
        Policy { ops: self.ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_basic_statistics_builds() {
        // Paper Fig. 3: basic statistical features per TCP flow.
        let p = pktstream()
            .filter(Predicate::TcpExists)
            .groupby(Granularity::Flow)
            .map("one", "_", MapFn::FOne)
            .reduce("one", vec![ReduceFn::Sum])
            .reduce(
                "size",
                vec![ReduceFn::Mean, ReduceFn::Var, ReduceFn::Min, ReduceFn::Max],
            )
            .map("ipt", "tstamp", MapFn::FIpt)
            .reduce(
                "ipt",
                vec![ReduceFn::Mean, ReduceFn::Var, ReduceFn::Min, ReduceFn::Max],
            )
            .collect_group(Granularity::Flow)
            .build()
            .expect("valid policy");
        assert_eq!(p.feature_dimension(), 9);
    }

    #[test]
    fn fig5_direction_sequences_builds() {
        // Paper Fig. 5: packet direction sequences.
        let p = pktstream()
            .filter(Predicate::TcpExists)
            .groupby(Granularity::Flow)
            .map("one", "_", MapFn::FOne)
            .map("dirval", "one", MapFn::FDirection)
            .reduce("dirval", vec![ReduceFn::Array { cap: 5000 }])
            .collect_group(Granularity::Flow)
            .build()
            .expect("valid policy");
        assert_eq!(p.feature_dimension(), 5000);
    }

    #[test]
    fn build_rejects_invalid() {
        // reduce before groupby is illegal.
        let r = pktstream().reduce("size", vec![ReduceFn::Sum]).build();
        assert!(r.is_err());
    }

    #[test]
    fn build_unchecked_skips_validation() {
        let p = pktstream()
            .reduce("size", vec![ReduceFn::Sum])
            .build_unchecked();
        assert_eq!(p.ops.len(), 1);
    }
}
