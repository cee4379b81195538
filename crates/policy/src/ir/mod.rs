//! A small typed dataflow IR for policies.
//!
//! The AST in [`crate::ast`] is the *syntax* of a policy; this module gives
//! every dataflow edge a *type* — the physical unit and signedness of the
//! values that flow along it. Lowering walks the operator chain once,
//! threading a field-type environment through `map` definitions, and tags
//! each operator with the level (groupby depth) it executes at.
//!
//! Two consumers build on the IR:
//!
//! - the abstract interpreter in [`crate::analyze::values`] (SF05xx value
//!   range / overflow proofs) and the cost model in [`crate::analyze::cost`]
//!   (SF06xx), which need unit-correct seeds for builtin fields, and
//! - the optimizer in [`opt`], whose rewrites are gated on facts the typed
//!   IR makes checkable (e.g. a field provably being the constant 1).

pub mod opt;

use std::collections::HashMap;
use std::fmt;

use crate::ast::{CollectUnit, Field, MapFn, Operator, Policy, Predicate, ReduceFn, SynthFn};
use superfe_net::Granularity;

/// The physical unit a value carries through the dataflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueUnit {
    /// Wire sizes in bytes (`size`).
    Bytes,
    /// Time in nanoseconds (`tstamp`, `f_ipt`).
    TimeNs,
    /// Bytes per second (`f_speed`).
    Rate,
    /// Dimensionless counters (`f_one`, `f_burst`).
    Count,
    /// Small categorical values (`direction`, `tcpflags`).
    Flag,
    /// Opaque identifiers compared only for equality (addresses, ports,
    /// protocol numbers).
    Ident,
    /// Unknown unit (undefined named fields in unchecked policies).
    Scalar,
}

impl fmt::Display for ValueUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueUnit::Bytes => "bytes",
            ValueUnit::TimeNs => "ns",
            ValueUnit::Rate => "bytes/s",
            ValueUnit::Count => "count",
            ValueUnit::Flag => "flag",
            ValueUnit::Ident => "ident",
            ValueUnit::Scalar => "scalar",
        };
        f.write_str(s)
    }
}

/// A value type: unit plus signedness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueTy {
    /// Physical unit.
    pub unit: ValueUnit,
    /// Whether negative values can occur.
    pub signed: bool,
}

impl ValueTy {
    /// An unsigned value of the given unit.
    pub fn unsigned(unit: ValueUnit) -> Self {
        ValueTy {
            unit,
            signed: false,
        }
    }

    /// A signed value of the given unit.
    pub fn signed(unit: ValueUnit) -> Self {
        ValueTy { unit, signed: true }
    }
}

impl fmt::Display for ValueTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.signed {
            write!(f, "±{}", self.unit)
        } else {
            fmt::Display::fmt(&self.unit, f)
        }
    }
}

/// The type of a builtin (switch-visible) field.
pub fn builtin_ty(field: &Field) -> ValueTy {
    match field {
        Field::Size => ValueTy::unsigned(ValueUnit::Bytes),
        Field::Tstamp => ValueTy::unsigned(ValueUnit::TimeNs),
        Field::Direction => ValueTy::signed(ValueUnit::Flag),
        Field::TcpFlags => ValueTy::unsigned(ValueUnit::Flag),
        Field::SrcIp | Field::DstIp | Field::SrcPort | Field::DstPort | Field::Proto => {
            ValueTy::unsigned(ValueUnit::Ident)
        }
        Field::Named(_) => ValueTy::unsigned(ValueUnit::Scalar),
    }
}

/// The result type of a mapping function applied to a source of type `src`.
pub fn map_result_ty(func: MapFn, src: ValueTy) -> ValueTy {
    match func {
        MapFn::FOne | MapFn::FBurst => ValueTy::unsigned(ValueUnit::Count),
        MapFn::FIpt => ValueTy::unsigned(ValueUnit::TimeNs),
        MapFn::FSpeed => ValueTy::unsigned(ValueUnit::Rate),
        // f_direction multiplies by ±1: same unit, now signed.
        MapFn::FDirection => ValueTy::signed(src.unit),
    }
}

/// One typed operator in the dataflow IR.
#[derive(Clone, Debug, PartialEq)]
pub enum IrOp {
    /// `filter(p)` (switch side, level 0).
    Filter {
        /// The predicate, unchanged from the AST.
        pred: Predicate,
    },
    /// `groupby(g)`: opens the next level.
    GroupBy {
        /// Grouping granularity.
        granularity: Granularity,
    },
    /// `map(dst, src, func)` with resolved source and result types.
    Map {
        /// Destination field.
        dst: Field,
        /// Source field (`Named("_")` when the function ignores it).
        src: Field,
        /// Mapping function.
        func: MapFn,
        /// Type of the source edge.
        src_ty: ValueTy,
        /// Type of the produced field.
        ty: ValueTy,
    },
    /// `reduce(src, funcs)` with the resolved source type.
    Reduce {
        /// Source field.
        src: Field,
        /// Reducing functions.
        funcs: Vec<ReduceFn>,
        /// Type of the reduced edge.
        src_ty: ValueTy,
    },
    /// `synthesize(f)`.
    Synthesize {
        /// Synthesizing function.
        func: SynthFn,
    },
    /// `collect(u)`.
    Collect {
        /// Collection unit.
        unit: CollectUnit,
    },
}

/// A typed IR node: the operator plus its position in the policy.
#[derive(Clone, Debug, PartialEq)]
pub struct IrNode {
    /// Index of the originating operator in `Policy::ops` (for diagnostics).
    pub op_index: usize,
    /// Groupby depth: 0 before the first `groupby`, then 1, 2, …
    pub level: usize,
    /// The typed operator.
    pub op: IrOp,
}

/// A policy lowered to the typed IR.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PolicyIr {
    /// Typed nodes in policy order.
    pub nodes: Vec<IrNode>,
}

/// Lowers a parsed policy into the typed IR.
///
/// Lowering never fails: undefined named fields get the [`ValueUnit::Scalar`]
/// type rather than an error, so the IR can be built even for policies the
/// structural analyzer will reject (its SF01xx diagnostics stay the single
/// source of truth for well-formedness).
pub fn lower(policy: &Policy) -> PolicyIr {
    let mut env: HashMap<Field, ValueTy> = HashMap::new();
    let mut level = 0usize;
    let mut nodes = Vec::with_capacity(policy.ops.len());

    let resolve = |env: &HashMap<Field, ValueTy>, field: &Field| -> ValueTy {
        if field.is_builtin() {
            builtin_ty(field)
        } else {
            env.get(field).copied().unwrap_or_else(|| builtin_ty(field))
        }
    };

    for (op_index, op) in policy.ops.iter().enumerate() {
        let ir_op = match op {
            Operator::Filter(pred) => IrOp::Filter { pred: pred.clone() },
            Operator::GroupBy(g) => {
                level += 1;
                IrOp::GroupBy { granularity: *g }
            }
            Operator::Map { dst, src, func } => {
                let src_ty = resolve(&env, src);
                let ty = map_result_ty(*func, src_ty);
                env.insert(dst.clone(), ty);
                IrOp::Map {
                    dst: dst.clone(),
                    src: src.clone(),
                    func: *func,
                    src_ty,
                    ty,
                }
            }
            Operator::Reduce { src, funcs } => IrOp::Reduce {
                src: src.clone(),
                funcs: funcs.clone(),
                src_ty: resolve(&env, src),
            },
            Operator::Synthesize(func) => IrOp::Synthesize { func: *func },
            Operator::Collect(unit) => IrOp::Collect { unit: *unit },
        };
        nodes.push(IrNode {
            op_index,
            level,
            op: ir_op,
        });
    }
    PolicyIr { nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl;

    #[test]
    fn lowering_types_builtin_and_derived_fields() {
        let policy = dsl::parse(
            "pktstream
             .filter(tcp.exist)
             .groupby(flow)
             .map(ipt, tstamp, f_ipt)
             .map(one, _, f_one)
             .map(dirone, one, f_direction)
             .reduce(ipt, [f_mean])
             .collect(flow)",
        )
        .unwrap();
        let ir = lower(&policy);
        assert_eq!(ir.nodes.len(), policy.ops.len());

        // Levels: filter at 0, everything after groupby at 1.
        assert_eq!(ir.nodes[0].level, 0);
        assert!(ir.nodes[2..].iter().all(|n| n.level == 1));

        // The reduce sees the mapped type on its source edge.
        let reduce = ir
            .nodes
            .iter()
            .find_map(|n| match &n.op {
                IrOp::Reduce { src_ty, .. } => Some(*src_ty),
                _ => None,
            })
            .unwrap();
        assert_eq!(reduce, ValueTy::unsigned(ValueUnit::TimeNs));
    }

    #[test]
    fn builtin_types_cover_all_fields() {
        assert_eq!(builtin_ty(&Field::Size).unit, ValueUnit::Bytes);
        assert!(builtin_ty(&Field::Direction).signed);
        assert!(!builtin_ty(&Field::TcpFlags).signed);
        assert_eq!(builtin_ty(&Field::SrcIp).unit, ValueUnit::Ident);
        assert_eq!(
            builtin_ty(&Field::Named("x".into())).unit,
            ValueUnit::Scalar
        );
    }

    #[test]
    fn value_ty_display_is_compact() {
        assert_eq!(ValueTy::unsigned(ValueUnit::Bytes).to_string(), "bytes");
        assert_eq!(ValueTy::signed(ValueUnit::Count).to_string(), "±count");
    }
}
