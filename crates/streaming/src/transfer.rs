//! Abstract transfer functions of the streaming reducers, the numeric side
//! of the `SF05xx` value-range analysis in `superfe-policy`.
//!
//! Each reducer in this crate has a concrete update rule; this module states
//! the matching *abstract* rule — how far the accumulator state can move
//! after `n` updates whose samples are confined to an [`Interval`]. The
//! policy analyzer seeds intervals from wire-format bounds, propagates them
//! through maps, and calls these bounds to prove (or refute) that a policy's
//! state fits the hardware widths: 32-bit sALU accumulators on the switch
//! side and the [`Q16`](crate::fixed::Q16) fixed-point range on the NIC's
//! division-free path.
//!
//! The bounds are deliberately *sound, not tight*: every function returns a
//! value the real reducer provably never exceeds, so an analyzer error is a
//! genuine counterexample and silence is a proof.

use crate::fixed::Q16;

/// A closed interval `[lo, hi]` over `f64`, possibly unbounded.
///
/// The abstract domain of the value analysis. `lo > hi` never occurs; the
/// constructors normalize.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound (may be `-inf`).
    pub lo: f64,
    /// Upper bound (may be `+inf`).
    pub hi: f64,
}

impl Interval {
    /// The unbounded interval (analysis "top": nothing is known).
    pub const TOP: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// An interval from its endpoints (swapped if given in reverse).
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// The singleton interval `[x, x]`.
    pub fn point(x: f64) -> Self {
        Interval { lo: x, hi: x }
    }

    /// Whether both endpoints are finite.
    pub fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Largest absolute value the interval contains.
    pub fn mag(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Width `hi − lo` (the sample range).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Smallest interval containing both operands (the join).
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Scales by a non-negative constant.
    pub fn scale(self, k: f64) -> Interval {
        debug_assert!(k >= 0.0);
        Interval::new(self.lo * k, self.hi * k)
    }

    /// The hull of `x · {−1, +1}`: the abstract effect of multiplying by a
    /// ±1 direction factor.
    pub fn mul_sign(self) -> Interval {
        let m = self.mag();
        Interval { lo: -m, hi: m }
    }

    /// Whether `x` lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }
}

/// The saturation point of the [`Q16`] fixed-point path, in real units:
/// the largest magnitude a Q47.16 value can represent (≈ 1.4 × 10¹⁴).
pub fn q16_limit() -> f64 {
    i64::MAX as f64 / f64::from(1u32 << Q16::FRAC_BITS)
}

/// Sum growth per batch: the interval containing every partial sum of at
/// most `n` samples drawn from `x` (hence hulled with the empty sum 0).
pub fn sum_bound(x: Interval, n: u64) -> Interval {
    let n = n as f64;
    Interval {
        lo: (x.lo * n).min(0.0),
        hi: (x.hi * n).max(0.0),
    }
}

/// Welford `M2` after at most `n` updates: the population variance of any
/// sample confined to `[a, b]` is at most `(b − a)²/4` (Popoviciu's
/// inequality), so `M2 = n · Var ≤ n · (width/2)²`. The bound is attained by
/// a stream oscillating between the endpoints. This is the accumulator the
/// fixed-point path keeps in [`Q16`], so it is the quantity checked against
/// [`q16_limit`].
pub fn welford_m2_bound(x: Interval, n: u64) -> f64 {
    let half = x.width() / 2.0;
    n as f64 * half * half
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedWelford;
    use crate::simple::Sum;
    use crate::welford::Welford;
    use crate::Reducer;

    #[test]
    fn interval_basics() {
        let i = Interval::new(5.0, -3.0);
        assert_eq!((i.lo, i.hi), (-3.0, 5.0));
        assert_eq!(i.mag(), 5.0);
        assert_eq!(i.width(), 8.0);
        assert!(i.contains(0.0) && !i.contains(6.0));
        assert_eq!(i.mul_sign(), Interval::new(-5.0, 5.0));
        assert_eq!(i.hull(Interval::point(9.0)), Interval::new(-3.0, 9.0));
        assert!(!Interval::TOP.is_bounded());
        assert!(Interval::new(0.0, 1.0).is_bounded());
        assert_eq!(Interval::new(0.0, 2.0).scale(3.0), Interval::new(0.0, 6.0));
    }

    #[test]
    fn sum_bound_is_sound() {
        // Adversarial stream: always the extreme sample.
        let x = Interval::new(-40.0, 1500.0);
        let b = sum_bound(x, 1000);
        let mut hi = Sum::new();
        let mut lo = Sum::new();
        for _ in 0..1000 {
            hi.update(x.hi);
            lo.update(x.lo);
        }
        assert!(b.contains(hi.value()));
        assert!(b.contains(lo.value()));
        assert!(b.contains(0.0), "empty group is always reachable");
    }

    #[test]
    fn welford_bounds_are_sound() {
        // Worst-case oscillating stream at the interval endpoints.
        let x = Interval::new(0.0, 65535.0);
        let n = 10_000u64;
        let mut w = Welford::new();
        for i in 0..n {
            w.update(if i % 2 == 0 { x.hi } else { x.lo });
        }
        // The oscillating stream attains Popoviciu's bound exactly; allow a
        // hair of floating-point slack on the comparison.
        let m2 = w.variance() * n as f64;
        let bound = welford_m2_bound(x, n);
        assert!(m2 <= bound * (1.0 + 1e-9), "m2 {m2} vs bound {bound}");
    }

    #[test]
    fn q16_limit_matches_saturation() {
        let limit = q16_limit();
        // Below the limit the fixed-point path represents the value exactly
        // (integer part); above it, conversion saturates.
        assert_eq!(Q16::from_int(1 << 40).to_f64(), (1u64 << 40) as f64);
        let above = limit * 2.0;
        assert!(Q16::from_f64(above).to_f64() < above);
        // A FixedWelford fed values within bounds never saturates its mean.
        let mut fx = FixedWelford::new();
        for _ in 0..1000 {
            fx.update_int(65535);
        }
        assert!((fx.mean() - 65535.0).abs() < 1.0);
    }
}
