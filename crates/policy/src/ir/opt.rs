//! Analysis-gated optimizer rewrites over the typed IR.
//!
//! Three rewrites, each legal only when the abstract semantics certify it,
//! and each exactly output-preserving (feature vectors are bit-identical, a
//! property the differential tests exercise on random traces):
//!
//! 1. **Filter simplification and fusion** (pushdown toward the switch
//!    filter table): conjuncts the wire-format intervals prove tautological
//!    are dropped — `size <= 65535` can never exclude a packet — and the
//!    remaining `filter` operators are fused into a single conjunction, one
//!    match stage instead of several. Proofs use only fields whose wire
//!    encoding bounds every runtime value (sizes, ports, protocol, flags,
//!    addresses); timestamps and direction are never assumed bounded here.
//!    A `not(...)` wrapping a proven-true predicate is left alone — that is
//!    the unsatisfiable-filter case, which `SF0204` reports instead.
//! 2. **Map fusion**: `map(b, a, f_direction)` reads `a` only to scale it
//!    into the ±1 direction; when the interval analysis proves `a ≡ [1, 1]`
//!    at that program point, the source collapses to the `_` placeholder
//!    (whose runtime value is the same constant 1) and the feeding map
//!    becomes a candidate for elimination.
//! 3. **Dead-field elimination**: a `map` whose destination is never read
//!    downstream before redefinition computes state nobody observes; it is
//!    removed. This also shrinks the switch metadata record when the dead
//!    map was the only reader of a builtin field.
//!
//! The passes run to a fixpoint: fusing a map typically kills its feeder on
//! the next round.
//!
//! Cross-policy sharing is not a rewrite of any one policy: the control
//! plane reads [`crate::analyze::share`] and decides it at attach time.

use std::fmt;

use crate::analyze::values::{self, builtin_interval, cmp_always_true, ValueConfig};
use crate::ast::{Field, MapFn, Operator, Policy, Predicate};
use crate::ir::lower;
use superfe_streaming::transfer::Interval;

/// One applied rewrite, for the `superfe explain` report.
#[derive(Clone, Debug, PartialEq)]
pub enum Rewrite {
    /// N `filter` operators were fused into one conjunction.
    FilterFuse {
        /// Number of filters fused.
        count: usize,
    },
    /// A provably tautological conjunct was dropped from a filter.
    FilterSimplify {
        /// DSL rendering of the dropped conjunct.
        dropped: String,
    },
    /// An entire filter was proven tautological and removed.
    FilterRemove {
        /// DSL rendering of the removed predicate.
        pred: String,
    },
    /// A constant-one source was fused into a `f_direction` map.
    MapFuse {
        /// The field proven `≡ 1` that was read.
        src: String,
        /// The map destination that now reads the placeholder.
        dst: String,
    },
    /// A dead map was eliminated.
    DeadMapElim {
        /// The unread destination field.
        field: String,
    },
}

impl fmt::Display for Rewrite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rewrite::FilterFuse { count } => {
                write!(f, "fused {count} filters into one match stage")
            }
            Rewrite::FilterSimplify { dropped } => {
                write!(f, "dropped tautological conjunct '{dropped}'")
            }
            Rewrite::FilterRemove { pred } => {
                write!(f, "removed tautological filter '{pred}'")
            }
            Rewrite::MapFuse { src, dst } => {
                write!(f, "fused constant-one field '{src}' into map '{dst}'")
            }
            Rewrite::DeadMapElim { field } => {
                write!(f, "eliminated dead map '{field}'")
            }
        }
    }
}

/// An optimized policy plus the log of rewrites that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct Optimized {
    /// The rewritten policy (semantically identical to the input).
    pub policy: Policy,
    /// Rewrites applied, in application order.
    pub rewrites: Vec<Rewrite>,
}

impl Optimized {
    /// Whether any rewrite fired.
    pub fn changed(&self) -> bool {
        !self.rewrites.is_empty()
    }
}

/// Runs the rewrites to a fixpoint.
pub fn optimize(policy: &Policy, cfg: &ValueConfig) -> Optimized {
    let mut p = policy.clone();
    let mut rewrites = Vec::new();
    // Each round strictly shrinks or simplifies the policy, so the fixpoint
    // is reached quickly; the cap is a safety net, not a tuning knob.
    for _ in 0..8 {
        let mut changed = false;
        changed |= simplify_filters(&mut p, &mut rewrites);
        changed |= fuse_filters(&mut p, &mut rewrites);
        changed |= fuse_maps(&mut p, cfg, &mut rewrites);
        changed |= eliminate_dead_maps(&mut p, &mut rewrites);
        if !changed {
            break;
        }
    }
    Optimized {
        policy: p,
        rewrites,
    }
}

/// Wire-format interval usable for *filter* tautology proofs. Only fields
/// whose encoding bounds every runtime value qualify; timestamps (an
/// unbounded ns counter at execution time) and the signed direction never
/// prove anything here.
fn proof_interval(field: &Field) -> Interval {
    match field {
        Field::Tstamp | Field::Direction | Field::Named(_) => Interval::TOP,
        other => builtin_interval(other),
    }
}

/// Compact DSL-style rendering of a predicate for rewrite logs.
fn pred_str(p: &Predicate) -> String {
    match p {
        Predicate::TcpExists => "tcp.exist".into(),
        Predicate::UdpExists => "udp.exist".into(),
        Predicate::Cmp { field, op, value } => {
            format!("{} {} {}", field.name(), op.symbol(), value)
        }
        Predicate::And(a, b) => format!("({} and {})", pred_str(a), pred_str(b)),
        Predicate::Or(a, b) => format!("({} or {})", pred_str(a), pred_str(b)),
        Predicate::Not(a) => format!("not ({})", pred_str(a)),
    }
}

/// Simplifies a predicate under the wire-format proofs. Returns `None` when
/// the predicate is provably always true (the filter passes everything).
fn simplify_pred(p: &Predicate, dropped: &mut Vec<String>) -> Option<Predicate> {
    match p {
        Predicate::Cmp { field, op, value }
            if cmp_always_true(proof_interval(field), *op, *value) =>
        {
            dropped.push(pred_str(p));
            None
        }
        Predicate::And(a, b) => match (simplify_pred(a, dropped), simplify_pred(b, dropped)) {
            (None, None) => None,
            (Some(x), None) | (None, Some(x)) => Some(x),
            (Some(x), Some(y)) => Some(Predicate::And(Box::new(x), Box::new(y))),
        },
        Predicate::Or(a, b) => {
            // A true disjunct makes the whole disjunction true; otherwise
            // simplify within each branch (equivalence-preserving).
            let mut probe = Vec::new();
            let sa = simplify_pred(a, &mut probe);
            let sb = simplify_pred(b, &mut probe);
            match (sa, sb) {
                (None, _) | (_, None) => {
                    dropped.push(pred_str(p));
                    None
                }
                (Some(x), Some(y)) => {
                    dropped.extend(probe);
                    Some(Predicate::Or(Box::new(x), Box::new(y)))
                }
            }
        }
        // A provably-true body under `not` means the filter is unsatisfiable
        // — a bug SF0204 reports; rewriting it away would mask it. Simplify
        // strictly inside, keeping the `not`.
        Predicate::Not(a) => {
            let mut probe = Vec::new();
            match simplify_pred(a, &mut probe) {
                None => Some(p.clone()),
                Some(x) => {
                    dropped.extend(probe);
                    Some(Predicate::Not(Box::new(x)))
                }
            }
        }
        other => Some(other.clone()),
    }
}

fn simplify_filters(p: &mut Policy, rewrites: &mut Vec<Rewrite>) -> bool {
    let mut changed = false;
    let mut keep = Vec::with_capacity(p.ops.len());
    for op in p.ops.drain(..) {
        if let Operator::Filter(pred) = &op {
            let mut dropped = Vec::new();
            match simplify_pred(pred, &mut dropped) {
                None => {
                    rewrites.push(Rewrite::FilterRemove {
                        pred: pred_str(pred),
                    });
                    changed = true;
                    continue; // filter(true) is the identity
                }
                Some(s) if s != *pred => {
                    for d in dropped {
                        rewrites.push(Rewrite::FilterSimplify { dropped: d });
                    }
                    keep.push(Operator::Filter(s));
                    changed = true;
                    continue;
                }
                Some(_) => {}
            }
        }
        keep.push(op);
    }
    p.ops = keep;
    changed
}

fn fuse_filters(p: &mut Policy, rewrites: &mut Vec<Rewrite>) -> bool {
    let filters: Vec<usize> = p
        .ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| matches!(op, Operator::Filter(_)).then_some(i))
        .collect();
    if filters.len() < 2 {
        return false;
    }
    // Filters are all pre-groupby (a structural invariant), applied
    // conjunctively per packet, so fusing them in order is exact.
    let mut fused: Option<Predicate> = None;
    for &i in &filters {
        if let Operator::Filter(pred) = &p.ops[i] {
            fused = Some(match fused {
                None => pred.clone(),
                Some(acc) => Predicate::And(Box::new(acc), Box::new(pred.clone())),
            });
        }
    }
    let first = filters[0];
    p.ops[first] = Operator::Filter(fused.expect("at least two filters"));
    for &i in filters[1..].iter().rev() {
        p.ops.remove(i);
    }
    rewrites.push(Rewrite::FilterFuse {
        count: filters.len(),
    });
    true
}

fn fuse_maps(p: &mut Policy, cfg: &ValueConfig, rewrites: &mut Vec<Rewrite>) -> bool {
    let analysis = values::infer(&lower(p), cfg);
    let placeholder = Field::Named("_".into());
    let mut changed = false;
    for i in 0..p.ops.len() {
        let Operator::Map { dst, src, func } = &p.ops[i] else {
            continue;
        };
        if *func != MapFn::FDirection || src.is_builtin() || *src == placeholder {
            continue;
        }
        // IR nodes are 1:1 with operators, so op index == IR node index.
        let iv = analysis.interval_before(i, src);
        if iv == Interval::point(1.0) {
            rewrites.push(Rewrite::MapFuse {
                src: src.name(),
                dst: dst.name(),
            });
            let (dst, func) = (dst.clone(), *func);
            p.ops[i] = Operator::Map {
                dst,
                src: placeholder.clone(),
                func,
            };
            changed = true;
        }
    }
    changed
}

/// Whether `field` is read by any operator in `rest` before being redefined.
fn read_before_redefinition(rest: &[Operator], field: &Field) -> bool {
    for op in rest {
        match op {
            Operator::Map { dst, src, .. } => {
                if src == field {
                    return true;
                }
                if dst == field {
                    return false; // redefined before any read
                }
            }
            Operator::Reduce { src, .. } if src == field => return true,
            _ => {}
        }
    }
    false
}

fn eliminate_dead_maps(p: &mut Policy, rewrites: &mut Vec<Rewrite>) -> bool {
    let dead: Vec<usize> = p
        .ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| match op {
            Operator::Map { dst, .. } if !read_before_redefinition(&p.ops[i + 1..], dst) => Some(i),
            _ => None,
        })
        .collect();
    if dead.is_empty() {
        return false;
    }
    for &i in dead.iter().rev() {
        if let Operator::Map { dst, .. } = &p.ops[i] {
            rewrites.push(Rewrite::DeadMapElim { field: dst.name() });
        }
        p.ops.remove(i);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl;
    use crate::validate::validate;

    fn opt(src: &str) -> Optimized {
        optimize(&dsl::parse(src).unwrap(), &ValueConfig::default())
    }

    #[test]
    fn fuses_multiple_filters_into_one() {
        let o = opt("pktstream
             .filter(tcp.exist)
             .filter(dstport == 443)
             .groupby(flow)
             .reduce(size, [f_sum])
             .collect(flow)");
        let filters = o
            .policy
            .ops
            .iter()
            .filter(|op| matches!(op, Operator::Filter(_)))
            .count();
        assert_eq!(filters, 1);
        assert!(o
            .rewrites
            .iter()
            .any(|r| matches!(r, Rewrite::FilterFuse { count: 2 })));
        assert!(validate(&o.policy).is_ok());
    }

    #[test]
    fn drops_tautological_conjuncts_and_whole_filters() {
        let o = opt("pktstream
             .filter(tcp.exist and size <= 65535)
             .groupby(flow)
             .reduce(size, [f_sum])
             .collect(flow)");
        assert!(matches!(
            &o.policy.ops[0],
            Operator::Filter(Predicate::TcpExists)
        ));
        assert!(o
            .rewrites
            .iter()
            .any(|r| matches!(r, Rewrite::FilterSimplify { .. })));

        let o = opt("pktstream
             .filter(size <= 65535)
             .groupby(flow)
             .reduce(size, [f_sum])
             .collect(flow)");
        assert!(
            !o.policy
                .ops
                .iter()
                .any(|op| matches!(op, Operator::Filter(_))),
            "a fully tautological filter is removed"
        );
        assert!(validate(&o.policy).is_ok());
    }

    #[test]
    fn timestamps_never_prove_filter_tautologies() {
        // The ns clock at execution time is unbounded; the 32-bit metadata
        // bound must not leak into filter proofs.
        let o = opt("pktstream
             .filter(tstamp <= 4294967295000)
             .groupby(flow)
             .reduce(size, [f_sum])
             .collect(flow)");
        assert!(o.rewrites.is_empty(), "{:?}", o.rewrites);
    }

    #[test]
    fn negated_tautologies_are_left_for_sf0204() {
        let o = opt("pktstream
             .filter(not (size <= 65535))
             .groupby(flow)
             .reduce(size, [f_sum])
             .collect(flow)");
        assert!(
            o.policy
                .ops
                .iter()
                .any(|op| matches!(op, Operator::Filter(_))),
            "the unsatisfiable filter is preserved for the dataflow lint"
        );
    }

    #[test]
    fn fuses_constant_one_maps_and_kills_the_feeder() {
        // The AWF pattern: f_one feeds only the f_direction map.
        let o = opt("pktstream
             .filter(tcp.exist)
             .groupby(flow)
             .map(one, _, f_one)
             .map(dirseq, one, f_direction)
             .reduce(dirseq, [f_array{100}])
             .collect(flow)");
        assert!(o
            .rewrites
            .iter()
            .any(|r| matches!(r, Rewrite::MapFuse { .. })));
        assert!(o
            .rewrites
            .iter()
            .any(|r| matches!(r, Rewrite::DeadMapElim { .. })));
        // 'one' is gone; 'dirseq' now reads the placeholder.
        assert!(!o.policy.ops.iter().any(|op| matches!(
            op,
            Operator::Map { dst: Field::Named(n), .. } if n == "one"
        )));
        assert!(o.policy.ops.iter().any(|op| matches!(
            op,
            Operator::Map { src: Field::Named(n), func: MapFn::FDirection, .. } if n == "_"
        )));
        assert!(validate(&o.policy).is_ok());
    }

    #[test]
    fn live_feeders_survive_map_fusion() {
        // The CUMUL pattern: 'one' is also reduced, so fusion must not
        // eliminate it.
        let o = opt("pktstream
             .groupby(flow)
             .map(one, _, f_one)
             .map(dirone, one, f_direction)
             .reduce(one, [f_sum])
             .collect(flow)
             .reduce(dirone, [f_sum])
             .collect(flow)");
        assert!(o.policy.ops.iter().any(|op| matches!(
            op,
            Operator::Map { dst: Field::Named(n), .. } if n == "one"
        )));
        assert!(validate(&o.policy).is_ok());
    }

    #[test]
    fn non_constant_sources_are_not_fused() {
        let o = opt("pktstream
             .groupby(flow)
             .map(ipt, tstamp, f_ipt)
             .map(dipt, ipt, f_direction)
             .reduce(dipt, [f_sum])
             .collect(flow)");
        assert!(
            !o.rewrites
                .iter()
                .any(|r| matches!(r, Rewrite::MapFuse { .. })),
            "{:?}",
            o.rewrites
        );
    }

    #[test]
    fn rewrites_render_for_the_explain_report() {
        for r in [
            Rewrite::FilterFuse { count: 2 },
            Rewrite::FilterSimplify {
                dropped: "size <= 65535".into(),
            },
            Rewrite::FilterRemove {
                pred: "size >= 0".into(),
            },
            Rewrite::MapFuse {
                src: "one".into(),
                dst: "dirseq".into(),
            },
            Rewrite::DeadMapElim {
                field: "one".into(),
            },
        ] {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn clean_policies_are_untouched() {
        let src = "pktstream
             .filter(tcp.exist)
             .groupby(flow)
             .map(ipt, tstamp, f_ipt)
             .reduce(ipt, [f_mean])
             .collect(flow)";
        let o = opt(src);
        assert!(!o.changed());
        assert_eq!(o.policy, dsl::parse(src).unwrap());
    }
}
