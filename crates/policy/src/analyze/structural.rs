//! Structural well-formedness (`SF01xx`).
//!
//! The same rules [`validate`](crate::validate) enforces, restated as
//! diagnostics: the pass recovers after each finding and keeps scanning, so
//! one run reports *every* structural problem, in operator order (end-of-
//! chain findings last). `validate` is a thin adapter over this pass that
//! converts the first error back into a [`PolicyError`](crate::PolicyError),
//! so the two can never disagree.

use superfe_net::Granularity;

use crate::ast::{CollectUnit, Field, Operator, Policy, ReduceFn, SynthFn};

use super::{codes, Diagnostic};

/// Runs the structural pass. All returned diagnostics are errors.
pub fn check(policy: &Policy) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if policy.ops.is_empty() {
        out.push(Diagnostic::error(
            codes::EMPTY_POLICY,
            "policy has no operators",
        ));
        return out;
    }

    let mut seen_groupby = false;
    let mut grans: Vec<Granularity> = Vec::new();
    let mut available: Vec<Field> = Vec::new();
    let mut prev_was_reduce_or_synth = false;
    let mut pending_reduce: Option<usize> = None; // index of an uncommitted reduce

    for (i, op) in policy.ops.iter().enumerate() {
        match op {
            Operator::Filter(_) => {
                if seen_groupby {
                    out.push(
                        Diagnostic::error(
                            codes::FILTER_AFTER_GROUPBY,
                            format!(
                                "filter at operator {i} appears after groupby; filters run on \
                                 the switch ahead of grouping"
                            ),
                        )
                        .at_op(i)
                        .with_suggestion("move the filter before the first groupby"),
                    );
                }
                prev_was_reduce_or_synth = false;
            }
            Operator::GroupBy(g) => {
                if let Some(&prev) = grans.last() {
                    if prev == *g {
                        out.push(
                            Diagnostic::error(
                                codes::DUPLICATE_GROUPBY,
                                format!("duplicate groupby({})", g.name()),
                            )
                            .at_op(i),
                        );
                    } else if !prev.refines_to(*g) {
                        out.push(
                            Diagnostic::error(
                                codes::BAD_GRANULARITY_CHAIN,
                                format!(
                                    "groupby({}) does not coarsen groupby({}); regrouping must \
                                     walk the dependency chain fine → coarse",
                                    g.name(),
                                    prev.name()
                                ),
                            )
                            .at_op(i),
                        );
                    }
                }
                grans.push(*g);
                seen_groupby = true;
                prev_was_reduce_or_synth = false;
            }
            Operator::Map { dst, src, func: _ } => {
                if !seen_groupby {
                    out.push(
                        Diagnostic::error(
                            codes::OP_BEFORE_GROUPBY,
                            format!("map at operator {i} before any groupby"),
                        )
                        .at_op(i),
                    );
                }
                if let Some(d) = check_field(src, &available, true, i, "map") {
                    out.push(d);
                }
                if !available.contains(dst) {
                    available.push(dst.clone());
                }
                prev_was_reduce_or_synth = false;
            }
            Operator::Reduce { src, funcs } => {
                if !seen_groupby {
                    out.push(
                        Diagnostic::error(
                            codes::OP_BEFORE_GROUPBY,
                            format!("reduce at operator {i} before any groupby"),
                        )
                        .at_op(i),
                    );
                }
                if funcs.is_empty() {
                    out.push(
                        Diagnostic::error(
                            codes::EMPTY_REDUCE,
                            format!("reduce at operator {i} has an empty function list"),
                        )
                        .at_op(i),
                    );
                }
                if let Some(d) = check_field(src, &available, false, i, "reduce") {
                    out.push(d);
                }
                for f in funcs {
                    if let Some(msg) = reduce_param_problem(f) {
                        out.push(Diagnostic::error(codes::BAD_PARAMETERS, msg).at_op(i));
                    }
                }
                prev_was_reduce_or_synth = true;
                pending_reduce = Some(i);
            }
            Operator::Synthesize(sf) => {
                if !prev_was_reduce_or_synth {
                    out.push(
                        Diagnostic::error(
                            codes::SYNTH_WITHOUT_REDUCE,
                            format!("synthesize at operator {i} must follow reduce or synthesize"),
                        )
                        .at_op(i),
                    );
                }
                if let SynthFn::Sample { n: 0 } = sf {
                    out.push(
                        Diagnostic::error(codes::BAD_PARAMETERS, "ft_sample with n = 0").at_op(i),
                    );
                }
            }
            Operator::Collect(u) => {
                if !seen_groupby {
                    out.push(
                        Diagnostic::error(
                            codes::OP_BEFORE_GROUPBY,
                            format!("collect at operator {i} before any groupby"),
                        )
                        .at_op(i),
                    );
                }
                if let CollectUnit::Group(g) = u {
                    if !grans.contains(g) {
                        out.push(
                            Diagnostic::error(
                                codes::COLLECT_UNGROUPED,
                                format!(
                                    "collect({}) names a granularity that was never grouped by",
                                    g.name()
                                ),
                            )
                            .at_op(i),
                        );
                    }
                }
                prev_was_reduce_or_synth = false;
                pending_reduce = None;
            }
        }
    }

    if !seen_groupby {
        out.push(Diagnostic::error(
            codes::NO_GROUPBY,
            "policy never calls groupby",
        ));
    }
    if !matches!(policy.ops.last(), Some(Operator::Collect(_))) {
        out.push(Diagnostic::error(
            codes::NO_TRAILING_COLLECT,
            "policy must end with collect",
        ));
    }
    if let Some(i) = pending_reduce {
        out.push(
            Diagnostic::error(
                codes::UNCOMMITTED_REDUCE,
                format!("the reduce at operator {i} is never committed by a collect"),
            )
            .at_op(i),
        );
    }
    out.extend(vector_widths(policy));
    out
}

/// Values one emitted feature vector may hold: a vector's snapshot stores
/// its length as a `u16`. Bounding every vector by it — and `ft_percent`'s
/// bins, which are state but not output — also bounds every reducer's state.
pub const MAX_VECTOR_VALUES: usize = u16::MAX as usize;

/// `SF0113` for a vector the policy would emit wider than
/// [`MAX_VECTOR_VALUES`], named at the narrowest scope that overflows: a
/// reduce's feature block (before and after each `synthesize`), else a
/// level's group vector, else the per-packet vector, which holds every
/// level's features.
fn vector_widths(policy: &Policy) -> Vec<Diagnostic> {
    let too_wide = |what: String, values: usize| {
        (values > MAX_VECTOR_VALUES).then(|| {
            Diagnostic::error(
                codes::BAD_PARAMETERS,
                format!("{what} emits {values} values; a vector holds at most {MAX_VECTOR_VALUES}"),
            )
        })
    };
    let mut out = Vec::new();
    // Each level's reduce blocks, as synthesized so far.
    let mut levels: Vec<(Granularity, Vec<usize>)> = Vec::new();
    let mut per_pkt = false;
    for (i, op) in policy.ops.iter().enumerate() {
        let (what, width) = match op {
            Operator::GroupBy(g) => {
                levels.push((*g, Vec::new()));
                continue;
            }
            Operator::Reduce { funcs, .. } => {
                let block = saturating_sum(funcs.iter().map(ReduceFn::feature_len));
                if let Some((_, blocks)) = levels.last_mut() {
                    blocks.push(block);
                }
                ("reduce", block)
            }
            Operator::Synthesize(sf) => {
                let Some(block) = levels.last_mut().and_then(|(_, b)| b.last_mut()) else {
                    continue;
                };
                *block = sf.output_len(*block);
                ("synthesize", *block)
            }
            Operator::Collect(u) => {
                per_pkt |= *u == CollectUnit::Pkt;
                continue;
            }
            Operator::Filter(_) | Operator::Map { .. } => continue,
        };
        out.extend(too_wide(format!("{what} at operator {i}"), width).map(|d| d.at_op(i)));
    }
    if !out.is_empty() {
        return out;
    }
    let widths: Vec<usize> = levels
        .iter()
        .map(|(_, blocks)| saturating_sum(blocks.iter().copied()))
        .collect();
    for ((g, _), width) in levels.iter().zip(&widths) {
        out.extend(too_wide(format!("a groupby({}) group", g.name()), *width));
    }
    if out.is_empty() && per_pkt {
        out.extend(too_wide(
            "a per-packet record".into(),
            saturating_sum(widths),
        ));
    }
    out
}

fn saturating_sum(values: impl IntoIterator<Item = usize>) -> usize {
    values.into_iter().fold(0, usize::saturating_add)
}

fn check_field(
    field: &Field,
    available: &[Field],
    allow_placeholder: bool,
    op_index: usize,
    op_name: &str,
) -> Option<Diagnostic> {
    if field.is_builtin() {
        return None;
    }
    if let Field::Named(n) = field {
        if allow_placeholder && n == "_" {
            return None;
        }
    }
    if available.contains(field) {
        return None;
    }
    Some(
        Diagnostic::error(
            codes::UNKNOWN_FIELD,
            format!(
                "{op_name} at operator {op_index} reads '{}', which is neither builtin nor \
                 mapped earlier",
                field.name()
            ),
        )
        .at_op(op_index)
        .with_suggestion(format!("add a map producing '{}' first", field.name())),
    )
}

fn reduce_param_problem(f: &ReduceFn) -> Option<String> {
    match f {
        ReduceFn::Card { k } if !(4..=16).contains(k) => {
            Some(format!("f_card bucket exponent {k} outside 4..=16"))
        }
        ReduceFn::Array { cap } if *cap == 0 => Some("f_array with zero capacity".into()),
        ReduceFn::Hist { width, bins }
        | ReduceFn::Pdf { width, bins }
        | ReduceFn::Cdf { width, bins }
            if *width <= 0.0 || *bins == 0 =>
        {
            Some(format!("{} with width {width} and {bins} bins", f.name()))
        }
        ReduceFn::HistLog { unit, base, bins } if *unit <= 0.0 || *base <= 1.0 || *bins == 0 => {
            Some(format!(
                "ft_histlog with unit {unit}, base {base}, {bins} bins"
            ))
        }
        // One value out, but a histogram of `bins` inside.
        ReduceFn::Percent { width, bins, q }
            if *width <= 0.0
                || *bins == 0
                || *bins > MAX_VECTOR_VALUES
                || !(0.0..=100.0).contains(q) =>
        {
            Some(format!("ft_percent with width {width}, {bins} bins, q {q}"))
        }
        ReduceFn::Damped { lambda } | ReduceFn::Damped2d { lambda }
            if !lambda.is_finite() || *lambda < 0.0 =>
        {
            Some(format!("damped statistic with decay rate {lambda}"))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::pktstream;
    use crate::Predicate;

    fn codes_of(p: &Policy) -> Vec<&'static str> {
        check(p).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn sf0101_empty_policy() {
        assert_eq!(codes_of(&Policy::new()), vec![codes::EMPTY_POLICY]);
    }

    #[test]
    fn sf0102_and_sf0103_for_bare_filter() {
        let p = pktstream().filter(Predicate::TcpExists).build_unchecked();
        let cs = codes_of(&p);
        assert!(cs.contains(&codes::NO_GROUPBY));
        assert!(cs.contains(&codes::NO_TRAILING_COLLECT));
    }

    #[test]
    fn sf0104_uncommitted_reduce_with_op_index() {
        let p = pktstream()
            .groupby(Granularity::Socket)
            .reduce("size", vec![ReduceFn::Sum])
            .collect_group(Granularity::Socket)
            .groupby(Granularity::Host)
            .reduce("size", vec![ReduceFn::Sum])
            .build_unchecked();
        let ds = check(&p);
        let d = ds
            .iter()
            .find(|d| d.code == codes::UNCOMMITTED_REDUCE)
            .expect("SF0104 emitted");
        assert_eq!(d.op_index, Some(4));
    }

    #[test]
    fn sf0105_filter_after_groupby() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .filter(Predicate::TcpExists)
            .reduce("size", vec![ReduceFn::Sum])
            .collect_group(Granularity::Flow)
            .build_unchecked();
        assert!(codes_of(&p).contains(&codes::FILTER_AFTER_GROUPBY));
    }

    #[test]
    fn sf0106_reduce_before_groupby() {
        let p = pktstream()
            .reduce("size", vec![ReduceFn::Sum])
            .groupby(Granularity::Flow)
            .collect_group(Granularity::Flow)
            .build_unchecked();
        assert_eq!(codes_of(&p)[0], codes::OP_BEFORE_GROUPBY);
    }

    #[test]
    fn sf0107_dangling_synthesize() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .synthesize(SynthFn::Norm)
            .collect_group(Granularity::Flow)
            .build_unchecked();
        assert!(codes_of(&p).contains(&codes::SYNTH_WITHOUT_REDUCE));
    }

    #[test]
    fn sf0108_duplicate_groupby() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .reduce("size", vec![ReduceFn::Sum])
            .collect_group(Granularity::Flow)
            .groupby(Granularity::Flow)
            .reduce("size", vec![ReduceFn::Sum])
            .collect_group(Granularity::Flow)
            .build_unchecked();
        assert!(codes_of(&p).contains(&codes::DUPLICATE_GROUPBY));
    }

    #[test]
    fn sf0109_coarse_to_fine_chain() {
        let p = pktstream()
            .groupby(Granularity::Host)
            .reduce("size", vec![ReduceFn::Sum])
            .collect_group(Granularity::Host)
            .groupby(Granularity::Socket)
            .reduce("size", vec![ReduceFn::Sum])
            .collect_group(Granularity::Socket)
            .build_unchecked();
        assert!(codes_of(&p).contains(&codes::BAD_GRANULARITY_CHAIN));
    }

    #[test]
    fn sf0110_collect_of_ungrouped_granularity() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .reduce("size", vec![ReduceFn::Sum])
            .collect_group(Granularity::Host)
            .build_unchecked();
        assert!(codes_of(&p).contains(&codes::COLLECT_UNGROUPED));
    }

    #[test]
    fn sf0111_unknown_field() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .reduce("ipt", vec![ReduceFn::Mean])
            .collect_group(Granularity::Flow)
            .build_unchecked();
        let ds = check(&p);
        let d = ds.iter().find(|d| d.code == codes::UNKNOWN_FIELD).unwrap();
        assert!(d.message.contains("'ipt'"));
        assert_eq!(d.op_index, Some(1));
    }

    #[test]
    fn sf0112_empty_reduce() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .reduce("size", vec![])
            .collect_group(Granularity::Flow)
            .build_unchecked();
        assert!(codes_of(&p).contains(&codes::EMPTY_REDUCE));
    }

    #[test]
    fn sf0113_bad_parameters() {
        for f in [
            ReduceFn::Card { k: 2 },
            ReduceFn::Array { cap: 0 },
            ReduceFn::Hist {
                width: 0.0,
                bins: 4,
            },
            ReduceFn::Percent {
                width: 1.0,
                bins: 4,
                q: 150.0,
            },
            ReduceFn::Damped { lambda: -1.0 },
        ] {
            let p = pktstream()
                .groupby(Granularity::Flow)
                .reduce("size", vec![f])
                .collect_group(Granularity::Flow)
                .build_unchecked();
            assert!(codes_of(&p).contains(&codes::BAD_PARAMETERS), "{p:?}");
        }
    }

    #[test]
    fn sf0113_vectors_wider_than_a_snapshot_holds() {
        let fits = || ReduceFn::Array {
            cap: MAX_VECTOR_VALUES,
        };
        let wide_block = pktstream()
            .groupby(Granularity::Flow)
            .reduce("size", vec![fits(), ReduceFn::Sum])
            .collect_group(Granularity::Flow)
            .build_unchecked();
        let wide_group = pktstream()
            .groupby(Granularity::Flow)
            .reduce("size", vec![fits()])
            .reduce("size", vec![ReduceFn::Sum])
            .collect_group(Granularity::Flow)
            .build_unchecked();
        let wide_record = pktstream()
            .groupby(Granularity::Socket)
            .reduce("size", vec![fits()])
            .collect_pkt()
            .groupby(Granularity::Host)
            .reduce("size", vec![ReduceFn::Sum])
            .collect_pkt()
            .build_unchecked();
        let wide_sample = pktstream()
            .groupby(Granularity::Flow)
            .reduce("size", vec![ReduceFn::Sum])
            .synthesize(SynthFn::Sample {
                n: MAX_VECTOR_VALUES + 1,
            })
            .collect_group(Granularity::Flow)
            .build_unchecked();
        let wide_state = pktstream()
            .groupby(Granularity::Flow)
            .reduce(
                "size",
                vec![ReduceFn::Percent {
                    width: 1.0,
                    bins: usize::MAX,
                    q: 50.0,
                }],
            )
            .collect_group(Granularity::Flow)
            .build_unchecked();
        for p in [wide_block, wide_group, wide_record, wide_sample, wide_state] {
            assert_eq!(codes_of(&p), vec![codes::BAD_PARAMETERS], "{p:?}");
        }
        // The widest vector a snapshot holds is fine.
        let widest = pktstream()
            .groupby(Granularity::Flow)
            .reduce("size", vec![fits()])
            .collect_pkt()
            .build_unchecked();
        assert!(check(&widest).is_empty());
    }

    #[test]
    fn clean_policy_has_no_findings() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .map("ipt", "tstamp", crate::MapFn::FIpt)
            .reduce("ipt", vec![ReduceFn::Mean])
            .collect_group(Granularity::Flow)
            .build_unchecked();
        assert!(check(&p).is_empty());
    }

    #[test]
    fn multiple_findings_reported_together() {
        // Filter after groupby AND unknown field AND bad params: all three
        // must surface from a single pass.
        let p = pktstream()
            .groupby(Granularity::Flow)
            .filter(Predicate::TcpExists)
            .reduce("nope", vec![ReduceFn::Card { k: 99 }])
            .collect_group(Granularity::Flow)
            .build_unchecked();
        let cs = codes_of(&p);
        assert!(cs.contains(&codes::FILTER_AFTER_GROUPBY));
        assert!(cs.contains(&codes::UNKNOWN_FIELD));
        assert!(cs.contains(&codes::BAD_PARAMETERS));
    }
}
