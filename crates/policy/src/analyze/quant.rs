//! `SF09xx` quantized-inference certification.
//!
//! In-pipeline inference executes a fixed-point lowering of a frozen
//! detector (see `superfe_ml::quant`) on every emitted feature vector,
//! inside the NIC pipeline. Before the combination of a *policy* and a
//! *detector* is deployed that way, this pass answers: **how far can the
//! integer score drift from the float score, and does that drift matter at
//! the alert threshold?**
//!
//! The pass layers on the `SF05xx` interval facts: it walks the policy's
//! reduce/synthesize chain with per-function transfer rules over the
//! [`infer`](super::values::infer) environments to derive a hull for every
//! emitted feature, sizes the quantizer's input grid from that hull (so the
//! certified artifact *is* the deployed artifact), and asks the lowering
//! for an analytic worst-case error bound over the hull.
//!
//! Findings:
//!
//! - [`QUANT_CERTIFIED`](codes::QUANT_CERTIFIED) (note): the worst-case
//!   |float − quantized| score error is provably within the tolerance
//!   (a fraction of the calibrated alert threshold).
//! - [`QUANT_BOUND_EXCEEDED`](codes::QUANT_BOUND_EXCEEDED) (warning): the
//!   bound exceeds the tolerance, or no finite bound exists (the message
//!   names the culprit layer), or the detector has no lowering at all.
//!   Deployment is not blocked — the pipeline will run the quantized model
//!   with this warning attached.
//! - [`QUANT_CYCLE_COST`](codes::QUANT_CYCLE_COST) (note): the integer ALU
//!   ops one quantized evaluation adds per emitted vector, next to the
//!   policy's own per-packet cost. It informs; admission does not charge
//!   it.

use superfe_ml::{quantize, FrozenDetector, QuantConfig, QuantizedDetector};
use superfe_streaming::transfer::{sum_bound, Interval};

use super::values::{infer, ValueConfig};
use super::{codes, cost, Diagnostic};
use crate::ast::{MapFn, Policy, ReduceFn, SynthFn};
use crate::ir::{lower, IrOp};

/// Parameters of the certification pass.
#[derive(Clone, Copy, Debug)]
pub struct QuantCheckConfig {
    /// Deployment parameters for the underlying `SF05xx` value analysis.
    pub value: ValueConfig,
    /// Fraction bits of activations/scores in the lowering (`FA`).
    pub frac_bits: u32,
    /// Fraction bits of weights in the lowering (`FW`).
    pub weight_bits: u32,
    /// Certification tolerance as a fraction of the calibrated alert
    /// threshold (when the threshold is positive; otherwise used as an
    /// absolute score tolerance).
    pub tolerance_frac: f64,
}

impl Default for QuantCheckConfig {
    fn default() -> Self {
        QuantCheckConfig {
            value: ValueConfig::default(),
            frac_bits: 24,
            weight_bits: 24,
            tolerance_frac: 0.1,
        }
    }
}

/// The result of certifying one policy × detector combination.
#[derive(Debug)]
pub struct QuantCertificate {
    /// Whether the lowering is certified (`SF0901`): a finite error bound
    /// exists over the policy's feature hull and sits within the tolerance.
    pub certified: bool,
    /// The worst-case |float − quantized| score error (infinite when no
    /// bound is provable).
    pub bound: f64,
    /// The layer blocking certification or dominating the bound.
    pub culprit: Option<String>,
    /// The absolute score tolerance certified against.
    pub tolerance: f64,
    /// Integer ALU ops one quantized evaluation costs (0 when the lowering
    /// failed).
    pub alu_ops: u64,
    /// The lowered detector — the exact artifact the pipeline will execute
    /// (`None` when the detector has no fixed-point lowering).
    pub detector: Option<QuantizedDetector>,
    /// The findings, in emission order.
    pub diagnostics: Vec<Diagnostic>,
}

/// Distinct-count ceiling used for `f_card` hulls: HyperLogLog estimates a
/// count of keys drawn from a 32-bit space.
const CARD_CEILING: f64 = u32::MAX as f64;

/// Output hull of one reducing function given the hull `x` of its input.
fn reduce_feature_intervals(f: &ReduceFn, x: Interval, cfg: &ValueConfig, out: &mut Vec<Interval>) {
    let n = cfg.group_packets;
    let nf = n as f64;
    let w = if x.is_bounded() {
        x.width()
    } else {
        f64::INFINITY
    };
    // Max variance of values confined to an interval of width w is (w/2)².
    let var_hi = (w / 2.0) * (w / 2.0);
    match f {
        ReduceFn::Sum => out.push(sum_bound(x, n)),
        ReduceFn::Mean => out.push(x),
        ReduceFn::Var => out.push(Interval::new(0.0, var_hi)),
        ReduceFn::Std => out.push(Interval::new(0.0, w / 2.0)),
        ReduceFn::Max | ReduceFn::Min => out.push(x),
        // Sample kurtosis/skewness of n points are bounded by n and √n.
        ReduceFn::Kur => out.push(Interval::new(-3.0, nf)),
        ReduceFn::Skew => out.push(Interval::new(-nf.sqrt(), nf.sqrt())),
        ReduceFn::Mag => out.push(Interval::new(0.0, 2f64.sqrt() * x.mag())),
        ReduceFn::Radius => out.push(Interval::new(0.0, 2f64.sqrt() * var_hi)),
        ReduceFn::Cov => out.push(Interval::new(-var_hi, var_hi)),
        ReduceFn::Pcc => out.push(Interval::new(-1.0, 1.0)),
        ReduceFn::Card { .. } => out.push(Interval::new(0.0, CARD_CEILING)),
        // Unfilled array slots stay 0.
        ReduceFn::Array { cap } => {
            out.extend(std::iter::repeat_n(x.hull(Interval::point(0.0)), *cap));
        }
        ReduceFn::Pdf { bins, .. } | ReduceFn::Cdf { bins, .. } => {
            out.extend(std::iter::repeat_n(Interval::new(0.0, 1.0), *bins));
        }
        ReduceFn::Hist { bins, .. } | ReduceFn::HistLog { bins, .. } => {
            out.extend(std::iter::repeat_n(Interval::new(0.0, nf), *bins));
        }
        // A quantile estimate is a bin edge of a histogram over the value
        // range, clamped to the histogram's span.
        ReduceFn::Percent { width, bins, .. } => {
            out.push(x.hull(Interval::new(0.0, width * *bins as f64)));
        }
        // (weight, damped mean, damped std): the weight grows by at most 1
        // per packet, the mean stays within the value hull.
        ReduceFn::Damped { .. } => {
            out.push(Interval::new(0.0, nf));
            out.push(x.hull(Interval::point(0.0)));
            out.push(Interval::new(0.0, w / 2.0));
        }
        // (magnitude, radius, cov, pcc) over the directional split.
        ReduceFn::Damped2d { .. } => {
            out.push(Interval::new(0.0, 2f64.sqrt() * x.mag()));
            out.push(Interval::new(0.0, 2f64.sqrt() * var_hi));
            out.push(Interval::new(-var_hi, var_hi));
            out.push(Interval::new(-1.0, 1.0));
        }
    }
}

/// Output hulls of a synthesizing function over its input hulls.
fn synth_feature_intervals(f: SynthFn, input: &[Interval]) -> Vec<Interval> {
    match f {
        // Cumulative totals: each output is bounded by the sum of input
        // magnitudes (negative-direction totals mirror below zero).
        SynthFn::Marker => {
            let s: f64 = input.iter().map(Interval::mag).sum();
            vec![Interval::new(-s, s); input.len()]
        }
        SynthFn::Norm => vec![Interval::new(-1.0, 1.0); input.len()],
        // Samples are drawn from the inputs: the joint hull.
        SynthFn::Sample { n } => {
            let h = input
                .iter()
                .fold(Interval::point(0.0), |acc, &x| acc.hull(x));
            vec![h; n]
        }
    }
}

/// The per-feature output hulls of a policy, in emission order, derived
/// from the `SF05xx` interval environments. The length equals
/// [`Policy::feature_dimension`]. Unbounded inputs produce unbounded hulls
/// (never unsound ones).
pub fn feature_intervals(policy: &Policy, cfg: &ValueConfig) -> Vec<Interval> {
    let ir = lower(policy);
    let analysis = infer(&ir, cfg);
    let mut feats: Vec<Interval> = Vec::new();
    let mut last_start = 0usize;
    for (i, node) in ir.nodes.iter().enumerate() {
        match &node.op {
            IrOp::Reduce { src, funcs, .. } => {
                let x = analysis.interval_before(i, src);
                last_start = feats.len();
                for f in funcs {
                    reduce_feature_intervals(f, x, cfg, &mut feats);
                }
            }
            IrOp::Synthesize { func } => {
                let replaced = synth_feature_intervals(*func, &feats[last_start..]);
                feats.truncate(last_start);
                feats.extend(replaced);
            }
            _ => {}
        }
    }
    feats
}

/// [`feature_intervals`] as `(lo, hi)` pairs — the domain the quantizer's
/// error bound is certified over.
pub fn feature_domain(policy: &Policy, cfg: &ValueConfig) -> Vec<(f64, f64)> {
    feature_intervals(policy, cfg)
        .into_iter()
        .map(|iv| (iv.lo, iv.hi))
        .collect()
}

/// Whether a reducing function emits provably integer values when fed
/// integer inputs.
fn reduce_integer_preserving(f: &ReduceFn) -> bool {
    matches!(
        f,
        ReduceFn::Sum
            | ReduceFn::Max
            | ReduceFn::Min
            | ReduceFn::Hist { .. }
            | ReduceFn::HistLog { .. }
            | ReduceFn::Array { .. }
    )
}

/// Per-feature proof that the emitted value is always an integer — the
/// prerequisite for certifying a CART lowering, whose split routing is
/// exact only for on-grid inputs. Conservative: builtin fields are integer
/// (sizes, ports, ns timestamps, ±1 directions); `f_speed` divides and
/// breaks integrality; any `synthesize` is treated as non-integer.
pub fn provably_integer_features(policy: &Policy) -> Vec<bool> {
    let ir = lower(policy);
    // Field-level integrality: builtins are integer-valued on the wire.
    let mut int_fields: std::collections::HashMap<crate::ast::Field, bool> =
        std::collections::HashMap::new();
    let mut feats: Vec<bool> = Vec::new();
    let mut last_start = 0usize;
    for node in &ir.nodes {
        match &node.op {
            IrOp::Map { dst, src, func, .. } => {
                let src_int = *int_fields.get(src).unwrap_or(&src.is_builtin());
                let dst_int = match func {
                    MapFn::FOne | MapFn::FBurst | MapFn::FIpt => true,
                    MapFn::FDirection => src_int,
                    MapFn::FSpeed => false,
                };
                int_fields.insert(dst.clone(), dst_int);
            }
            IrOp::Reduce { src, funcs, .. } => {
                let src_int = *int_fields.get(src).unwrap_or(&src.is_builtin());
                last_start = feats.len();
                for f in funcs {
                    let int = src_int && reduce_integer_preserving(f);
                    feats.extend(std::iter::repeat_n(int, f.feature_len()));
                }
            }
            IrOp::Synthesize { func } => {
                let n = func.output_len(feats.len() - last_start);
                feats.truncate(last_start);
                feats.extend(std::iter::repeat_n(false, n));
            }
            _ => {}
        }
    }
    feats
}

/// Certifies the fixed-point lowering of `frozen` against `policy`.
///
/// The quantizer's input grid is sized from the policy's feature hull, so
/// the detector inside the returned certificate is the exact artifact the
/// pipeline deploys.
pub fn certify(
    policy: &Policy,
    frozen: &FrozenDetector,
    cfg: &QuantCheckConfig,
) -> QuantCertificate {
    let mut diags = Vec::new();
    let threshold = frozen.threshold();
    let tolerance = if threshold > 0.0 {
        threshold * cfg.tolerance_frac
    } else {
        cfg.tolerance_frac
    };
    let fail = |bound: f64, culprit: Option<String>, diags: Vec<Diagnostic>| QuantCertificate {
        certified: false,
        bound,
        culprit,
        tolerance,
        alu_ops: 0,
        detector: None,
        diagnostics: diags,
    };

    let domain = feature_domain(policy, &cfg.value);
    let want = frozen.feature_dim();
    if domain.len() != want {
        diags.push(Diagnostic::warning(
            codes::QUANT_BOUND_EXCEEDED,
            format!(
                "policy emits {} features but detector '{}' expects {}; the \
                 lowering cannot be certified against this policy",
                domain.len(),
                frozen.name(),
                want
            ),
        ));
        return fail(f64::INFINITY, Some("feature-dimension".into()), diags);
    }

    // Size the input grid from the hull so certification and deployment
    // share one artifact; unbounded hulls fall back to the default hint
    // (their lowering stays sound — the bound just comes out infinite).
    let max_abs = domain
        .iter()
        .flat_map(|(lo, hi)| [lo.abs(), hi.abs()])
        .filter(|v| v.is_finite())
        .fold(0.0f64, f64::max);
    let qcfg = QuantConfig {
        frac_bits: cfg.frac_bits,
        weight_bits: cfg.weight_bits,
        max_abs_input: if max_abs > 0.0 {
            max_abs
        } else {
            QuantConfig::default().max_abs_input
        },
    };
    let q = match quantize(frozen, &qcfg) {
        Ok(q) => q,
        Err(e) => {
            diags.push(
                Diagnostic::warning(
                    codes::QUANT_BOUND_EXCEEDED,
                    format!("detector '{}' cannot run in-pipeline: {e}", frozen.name()),
                )
                .with_suggestion("use a kitnet, centroid, or cart detector for in-pipeline mode"),
            );
            return fail(f64::INFINITY, Some("lowering".into()), diags);
        }
    };
    let eb = match q.error_bound(&domain) {
        Ok(eb) => eb,
        Err(e) => {
            diags.push(Diagnostic::warning(
                codes::QUANT_BOUND_EXCEEDED,
                format!("error bound for '{}' is unavailable: {e}", q.name()),
            ));
            return fail(f64::INFINITY, Some("lowering".into()), diags);
        }
    };

    // CART routing is exact only on the integer grid: demand the policy
    // provably emits integer features.
    let mut bound = eb.bound;
    let mut culprit = eb.culprit.clone();
    if eb.grid_exact_only && bound.is_finite() {
        let ints = provably_integer_features(policy);
        if let Some(pos) = ints.iter().position(|ok| !ok) {
            bound = f64::INFINITY;
            culprit = Some("split-grid".into());
            diags.push(
                Diagnostic::warning(
                    codes::QUANT_BOUND_EXCEEDED,
                    format!(
                        "quantized '{}' routes exactly only on integer inputs, but \
                         feature {pos} of this policy is not provably integer-valued",
                        q.name()
                    ),
                )
                .with_suggestion(
                    "restrict the policy to integer-preserving reducers (f_sum, f_max, \
                     f_min, ft_hist) over integer fields, or use a kitnet/centroid detector",
                ),
            );
        }
    }

    let certified = bound.is_finite() && bound <= tolerance;
    if certified {
        diags.push(Diagnostic::note(
            codes::QUANT_CERTIFIED,
            format!(
                "quantized '{}' ({}) certified: worst-case score error {bound:.3e} \
                 within tolerance {tolerance:.3e} at threshold {threshold:.6}",
                q.name(),
                q.format()
            ),
        ));
    } else if bound.is_finite() {
        diags.push(
            Diagnostic::warning(
                codes::QUANT_BOUND_EXCEEDED,
                format!(
                    "quantized '{}' ({}) bound {bound:.3e} exceeds tolerance \
                     {tolerance:.3e}; dominant layer: {}",
                    q.name(),
                    q.format(),
                    culprit.as_deref().unwrap_or("unknown")
                ),
            )
            .with_suggestion("raise frac_bits/weight_bits or widen the tolerance"),
        );
    } else if !diags.iter().any(|d| d.code == codes::QUANT_BOUND_EXCEEDED) {
        diags.push(
            Diagnostic::warning(
                codes::QUANT_BOUND_EXCEEDED,
                format!(
                    "quantized '{}' ({}) has no finite error bound over this policy's \
                     feature hull; blocking layer: {}",
                    q.name(),
                    q.format(),
                    culprit.as_deref().unwrap_or("unknown")
                ),
            )
            .with_suggestion(
                "bound the offending features with filters so the SF05xx hull tightens",
            ),
        );
    }

    let policy_ops = cost::policy_cost(policy).total_alu_ops();
    let ops = q.alu_ops();
    diags.push(Diagnostic::note(
        codes::QUANT_CYCLE_COST,
        format!(
            "in-pipeline inference adds {ops} integer ALU ops per emitted vector \
             ({}; policy extraction costs {policy_ops} ops per packet)",
            q.format()
        ),
    ));

    QuantCertificate {
        certified,
        bound,
        culprit,
        tolerance,
        alu_ops: ops,
        detector: Some(q),
        diagnostics: diags,
    }
}

/// The `SF09xx` pass as a plain diagnostic source (certificate discarded).
pub fn check(policy: &Policy, frozen: &FrozenDetector, cfg: &QuantCheckConfig) -> Vec<Diagnostic> {
    certify(policy, frozen, cfg).diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl;
    use superfe_ml::{
        train_and_calibrate, CalibrationConfig, CartDetector, CentroidDetector, Detector,
        KitNetDetector, KnnNovelty,
    };

    fn parse(src: &str) -> Policy {
        dsl::parse(src).unwrap()
    }

    fn freeze(det: Box<dyn Detector>, dim: usize) -> FrozenDetector {
        let data: Vec<Vec<f64>> = (0..150)
            .map(|i| {
                (0..dim)
                    .map(|d| 10.0 + ((i * 13 + d * 7) % 23) as f64)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        train_and_calibrate(det, &refs, 0.2, CalibrationConfig::default()).unwrap()
    }

    #[test]
    fn feature_intervals_match_dimension_and_bound_sums() {
        let p = parse(
            "pktstream .groupby(flow) .reduce(size, [f_sum, f_mean, f_max])
             .collect(flow)",
        );
        let cfg = ValueConfig::default();
        let ivs = feature_intervals(&p, &cfg);
        assert_eq!(ivs.len(), p.feature_dimension());
        // f_sum over size: 65535 per packet × batch.
        assert_eq!(ivs[0].hi, 65535.0 * cfg.group_packets as f64);
        // f_mean and f_max stay within the wire interval.
        assert_eq!(ivs[1].hi, 65535.0);
        assert_eq!(ivs[2].hi, 65535.0);
        assert!(ivs.iter().all(|iv| iv.lo >= 0.0));
    }

    #[test]
    fn synthesize_replaces_the_last_stage_hulls() {
        let p = parse(
            "pktstream .groupby(flow) .reduce(size, [f_array{4}])
             .synthesize(f_norm) .collect(flow)",
        );
        let ivs = feature_intervals(&p, &ValueConfig::default());
        assert_eq!(ivs.len(), 4);
        assert!(ivs.iter().all(|iv| iv.lo == -1.0 && iv.hi == 1.0));
    }

    #[test]
    fn integer_feature_proofs() {
        let p = parse(
            "pktstream .groupby(flow) .map(spd, size, f_speed)
             .reduce(size, [f_sum, f_mean]) .collect(flow)
             .reduce(spd, [f_max]) .collect(flow)",
        );
        assert_eq!(provably_integer_features(&p), vec![true, false, false]);
    }

    #[test]
    fn kitnet_on_a_bounded_policy_is_certified() {
        let p = parse(
            "pktstream .groupby(flow) .reduce(size, [f_sum, f_mean, f_max, f_min])
             .collect(flow)",
        );
        let frozen = freeze(Box::new(KitNetDetector::new(4, 5).unwrap()), 4);
        let cert = certify(&p, &frozen, &QuantCheckConfig::default());
        assert!(
            cert.certified,
            "bound {} tol {}",
            cert.bound, cert.tolerance
        );
        assert!(cert.detector.is_some());
        assert!(cert.alu_ops > 0);
        assert!(cert
            .diagnostics
            .iter()
            .any(|d| d.code == codes::QUANT_CERTIFIED));
        assert!(cert
            .diagnostics
            .iter()
            .any(|d| d.code == codes::QUANT_CYCLE_COST));
    }

    #[test]
    fn centroid_with_zero_containing_hull_is_unprovable() {
        // f_sum over size has hull [0, …] — ‖x‖ is not bounded away from 0.
        let p = parse("pktstream .groupby(flow) .reduce(size, [f_sum]) .collect(flow)");
        let frozen = freeze(Box::new(CentroidDetector::new(1).unwrap()), 1);
        let cert = certify(&p, &frozen, &QuantCheckConfig::default());
        assert!(!cert.certified);
        assert!(cert.bound.is_infinite());
        assert_eq!(cert.culprit.as_deref(), Some("input-norm"));
        assert!(cert
            .diagnostics
            .iter()
            .any(|d| d.code == codes::QUANT_BOUND_EXCEEDED));
    }

    #[test]
    fn cart_requires_integer_features() {
        let int_policy =
            parse("pktstream .groupby(flow) .reduce(size, [f_sum, f_max]) .collect(flow)");
        let float_policy =
            parse("pktstream .groupby(flow) .reduce(size, [f_mean, f_std]) .collect(flow)");
        let frozen = freeze(Box::new(CartDetector::new(2, 3).unwrap()), 2);
        let ok = certify(&int_policy, &frozen, &QuantCheckConfig::default());
        assert!(ok.certified, "bound {} tol {}", ok.bound, ok.tolerance);
        let bad = certify(&float_policy, &frozen, &QuantCheckConfig::default());
        assert!(!bad.certified);
        assert_eq!(bad.culprit.as_deref(), Some("split-grid"));
    }

    #[test]
    fn knn_is_rejected_with_a_warning() {
        let p = parse("pktstream .groupby(flow) .reduce(size, [f_sum, f_max]) .collect(flow)");
        let frozen = freeze(Box::new(KnnNovelty::new(2, 3).unwrap()), 2);
        let cert = certify(&p, &frozen, &QuantCheckConfig::default());
        assert!(!cert.certified);
        assert!(cert.detector.is_none());
        let w = cert
            .diagnostics
            .iter()
            .find(|d| d.code == codes::QUANT_BOUND_EXCEEDED)
            .unwrap();
        assert!(w.message.contains("cannot run in-pipeline"));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let p = parse("pktstream .groupby(flow) .reduce(size, [f_sum]) .collect(flow)");
        let frozen = freeze(Box::new(CentroidDetector::new(5).unwrap()), 5);
        let cert = certify(&p, &frozen, &QuantCheckConfig::default());
        assert!(!cert.certified);
        assert_eq!(cert.culprit.as_deref(), Some("feature-dimension"));
    }
}
