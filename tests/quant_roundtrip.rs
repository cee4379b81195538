//! Property test of the fixed-point lowering: for random trained
//! detectors × random in-domain vectors, the quantized score must sit
//! within the certified [`superfe::ml::ErrorBound`] of the float score —
//! the executable form of the SF0901 certificate — plus the CART
//! grid-exactness guarantee the SF09xx pass leans on.

use proptest::prelude::*;

use superfe::ml::{
    quantize, train_and_calibrate, CalibrationConfig, DetectorKind, FrozenDetector, QuantConfig,
    QuantizedDetector,
};

/// The feature hull every generated vector stays inside. The lower edge is
/// bounded away from zero so the centroid lowering's input-norm bound is
/// provable (a hull containing the origin makes cosine error unbounded).
const LO: f64 = 1.0;
const HI: f64 = 16.0;

/// Trains and calibrates a detector of `kind` on `data`, then lowers it.
fn freeze_and_quantize(
    kind: DetectorKind,
    dim: usize,
    seed: u64,
    data: &[Vec<f64>],
) -> Option<(FrozenDetector, QuantizedDetector)> {
    let det = kind.build(dim, seed).ok()?;
    let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
    let frozen = train_and_calibrate(det, &refs, 0.2, CalibrationConfig::default()).ok()?;
    let quant = quantize(
        &frozen,
        &QuantConfig {
            max_abs_input: HI * 2.0,
            ..QuantConfig::default()
        },
    )
    .ok()?;
    Some((frozen, quant))
}

/// Widest feature dimension the property exercises; each case truncates
/// rows to its generated `dim` (the vendored proptest has no flat_map).
const MAX_DIM: usize = 4;

/// Rows inside the hull; values are integer-valued so the same inputs are
/// valid for CART's grid-exact bound.
fn rows(count: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(
        proptest::collection::vec((LO as i64..=HI as i64).prop_map(|v| v as f64), MAX_DIM),
        count,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// |float − quantized| ≤ the certified bound, for every lowering, on
    /// every in-hull vector.
    #[test]
    fn quantized_scores_stay_within_the_certified_bound(
        seed in 0u64..1_000,
        kind_ix in 0usize..3,
        dim in 2usize..5,
        wide_data in rows(24..48),
        wide_xs in rows(4..24),
    ) {
        let data: Vec<Vec<f64>> =
            wide_data.iter().map(|r| r[..dim].to_vec()).collect();
        let xs: Vec<Vec<f64>> = wide_xs.iter().map(|r| r[..dim].to_vec()).collect();
        use DetectorKind::{Cart, Centroid, KitNet};
        let kind = [Centroid, KitNet, Cart][kind_ix];
        let Some((frozen, quant)) = freeze_and_quantize(kind, dim, seed, &data) else {
            return Ok(());
        };
        let domain: Vec<(f64, f64)> = vec![(LO, HI); dim];
        let eb = quant.error_bound(&domain).expect("dim matches");
        prop_assert!(
            eb.bound.is_finite(),
            "{kind:?} bound must be provable on a hull bounded away from 0, got {:?}",
            eb
        );
        for x in &xs {
            if x.len() != dim {
                continue;
            }
            let f = frozen.score(x).expect("in-dim");
            let q = quant.score(x).expect("in-dim");
            prop_assert!(
                (f - q).abs() <= eb.bound,
                "{kind:?}: |{f} - {q}| = {} exceeds certified {}",
                (f - q).abs(),
                eb.bound
            );
        }
        // The quantized threshold is exactly on the grid: score comparison
        // against it is reproducible integer arithmetic.
        let scaled = quant.threshold() * f64::from(1u32 << quant.frac_bits());
        prop_assert!(scaled == scaled.round(), "threshold off-grid: {scaled}");
    }
}

/// CART's lowering is *exact* on the integer grid: half-integer split
/// midpoints cannot sit between a float and its fixed-point image, so
/// routing is identical and scores differ only by leaf rounding (≤ 2⁻²⁴).
#[test]
fn cart_is_grid_exact_on_integer_inputs() {
    let data: Vec<Vec<f64>> = (0..96)
        .map(|i| vec![f64::from(i % 12) + 1.0, f64::from(i / 12) + 1.0, 3.0])
        .collect();
    let (frozen, quant) =
        freeze_and_quantize(DetectorKind::Cart, 3, 7, &data).expect("cart trains and lowers");
    let eb = quant
        .error_bound(&[(0.0, 16.0), (0.0, 16.0), (0.0, 16.0)])
        .expect("dim matches");
    assert!(eb.grid_exact_only, "CART's bound is integer-grid-only");
    assert!(
        eb.bound <= 2f64.powi(-24),
        "leaf rounding only, got {}",
        eb.bound
    );
    for a in 0..14 {
        for b in 0..14 {
            let x = [f64::from(a), f64::from(b), 3.0];
            let f = frozen.score(&x).expect("in-dim");
            let q = quant.score(&x).expect("in-dim");
            assert!(
                (f - q).abs() <= eb.bound,
                "integer input ({a},{b}) routed differently: |{f} - {q}|"
            );
        }
    }
}
