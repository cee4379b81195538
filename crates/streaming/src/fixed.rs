//! Division-free fixed-point arithmetic for the SmartNIC path (§6.2).
//!
//! NFP cores have no floating point, and the compiler's soft division costs
//! ~1500 cycles. The paper's third cycle optimization replaces the per-packet
//! division in Welford's mean update with comparisons: once `n` outgrows the
//! typical residual `x − mean`, the quotient is almost always 0 or ±1. The
//! bare compare trick is *biased* on skewed streams (see the ablation
//! harness), so our implementation carries the truncation error in an
//! accumulator — still division-free, but unbiased.
//!
//! [`FixedWelford`] implements that scheme over [`Q16`] fixed-point values
//! and counts how many real divisions it avoided, which feeds the Fig. 17
//! cycle model. Fig. 10 quantifies the (small) accuracy cost.

use crate::reducer::Reducer;

/// Q47.16 fixed-point number: an `i64` with 16 fractional bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Q16(pub i64);

// Not the std `Add`/`Sub`/`Mul`/`Div` traits: these are saturating /
// truncating fixed-point variants with different semantics, and keeping them
// as inherent methods makes that explicit at every call site.
#[allow(clippy::should_implement_trait)]
impl Q16 {
    /// Number of fractional bits.
    pub const FRAC_BITS: u32 = 16;
    /// The value 1.0.
    pub const ONE: Q16 = Q16(1 << Q16::FRAC_BITS);

    /// Converts from `f64`, saturating at the representable range.
    pub fn from_f64(x: f64) -> Self {
        let scaled = x * (1u64 << Q16::FRAC_BITS) as f64;
        Q16(scaled.clamp(i64::MIN as f64, i64::MAX as f64) as i64)
    }

    /// Converts from an integer sample (packet sizes, nanoseconds, ...).
    pub fn from_int(x: i64) -> Self {
        Q16(x.saturating_mul(1 << Q16::FRAC_BITS))
    }

    /// Converts back to `f64`.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / (1u64 << Q16::FRAC_BITS) as f64
    }

    /// Saturating addition.
    pub fn add(self, rhs: Q16) -> Q16 {
        Q16(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn sub(self, rhs: Q16) -> Q16 {
        Q16(self.0.saturating_sub(rhs.0))
    }

    /// Fixed-point multiplication (via 128-bit intermediate).
    pub fn mul(self, rhs: Q16) -> Q16 {
        Q16(((i128::from(self.0) * i128::from(rhs.0)) >> Q16::FRAC_BITS) as i64)
    }

    /// Exact fixed-point division (the expensive 1500-cycle operation on the
    /// NIC; used only on rare slow paths). Returns 0 for a zero divisor.
    pub fn div(self, rhs: Q16) -> Q16 {
        if rhs.0 == 0 {
            return Q16(0);
        }
        Q16(((i128::from(self.0) << Q16::FRAC_BITS) / i128::from(rhs.0)) as i64)
    }

    /// Absolute value (saturating at `i64::MAX`).
    pub fn abs(self) -> Q16 {
        Q16(self.0.saturating_abs())
    }
}

/// Operation counters for the Fig. 17 cycle model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DivStats {
    /// Divisions executed on the slow path.
    pub real_divs: u64,
    /// Divisions replaced by the compare trick.
    pub avoided_divs: u64,
}

/// Welford's mean/variance over fixed-point state with the paper's
/// division-elimination trick, hardened with error feedback.
///
/// The update `mean += (x − mean)/n` is replaced on the fast path by an
/// *error-feedback accumulator*: the raw residual `x − mean` is added to an
/// accumulator, and whenever the accumulator reaches `±n` the mean steps by
/// `±1` and the accumulator is reduced — compares and subtractions only, no
/// division, and unlike the bare compare trick it is unbiased on skewed
/// streams (truncation error is carried, never dropped). The real division
/// only runs when a single residual is at least `n`, which becomes rare as
/// the group accumulates packets.
#[derive(Clone, Copy, Debug)]
pub struct FixedWelford {
    n: i64,
    mean: Q16,
    m2: Q16,
    /// Error-feedback accumulator for the mean update (raw Q16 units).
    acc: i64,
    stats: DivStats,
    /// When false, every update performs the exact division (the Fig. 17
    /// "no div-elimination" baseline, still counted by `stats.real_divs`).
    eliminate_div: bool,
}

impl FixedWelford {
    /// Creates an estimator with division elimination enabled.
    pub fn new() -> Self {
        Self::with_elimination(true)
    }

    /// Creates an estimator, choosing whether to use the compare trick.
    pub fn with_elimination(eliminate_div: bool) -> Self {
        FixedWelford {
            n: 0,
            mean: Q16(0),
            m2: Q16(0),
            acc: 0,
            stats: DivStats::default(),
            eliminate_div,
        }
    }

    /// Division counters accumulated so far.
    pub fn div_stats(&self) -> DivStats {
        self.stats
    }

    /// Number of samples observed.
    pub fn count(&self) -> i64 {
        self.n
    }

    /// Approximate quotient `delta / n` without dividing: error-feedback
    /// accumulation (compares and subtractions only).
    fn approx_div_n(&mut self, delta: Q16) -> Q16 {
        let n_fx = Q16::from_int(self.n);
        if !self.eliminate_div || delta.abs() >= n_fx {
            self.stats.real_divs += 1;
            return delta.div(n_fx);
        }
        self.stats.avoided_divs += 1;
        // |delta| < n: fold the residual into the accumulator and emit whole
        // ±1 steps whenever it crosses ±n. Because |delta| < n, at most two
        // steps are emitted per update, so the loop is O(1).
        self.acc += delta.0;
        let mut steps: i64 = 0;
        while self.acc >= n_fx.0 {
            self.acc -= n_fx.0;
            steps += 1;
        }
        while self.acc <= -n_fx.0 {
            self.acc += n_fx.0;
            steps -= 1;
        }
        Q16(steps.saturating_mul(Q16::ONE.0))
    }

    /// Feeds an integer sample (packet size in bytes, IPT in
    /// microseconds...): the feeder of this module's and the transfer
    /// functions' unit tests.
    #[cfg(test)]
    pub(crate) fn update_int(&mut self, x: i64) {
        self.update_q(Q16::from_int(x));
    }

    /// Feeds a fixed-point sample.
    pub fn update_q(&mut self, x: Q16) {
        self.n += 1;
        let delta = x.sub(self.mean);
        let inc = self.approx_div_n(delta);
        self.mean = self.mean.add(inc);
        let delta2 = x.sub(self.mean);
        // M2 += delta * delta2 (the variance-by-division happens only at
        // finalize time, once per feature vector rather than per packet).
        self.m2 = self.m2.add(delta.mul(delta2));
    }

    /// Approximate mean.
    pub fn mean(&self) -> f64 {
        self.mean.to_f64()
    }

    /// Approximate population variance (clamped at zero).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (self.m2.to_f64() / self.n as f64).max(0.0)
    }
}

impl Default for FixedWelford {
    fn default() -> Self {
        Self::new()
    }
}

impl Reducer for FixedWelford {
    fn update(&mut self, x: f64) {
        self.update_q(Q16::from_f64(x));
    }

    fn finalize(&self) -> Vec<f64> {
        vec![self.mean(), self.variance()]
    }

    fn feature_len(&self) -> usize {
        2
    }

    fn state_bytes(&self) -> usize {
        // n + mean + M2 + error accumulator as 8-byte words.
        32
    }

    fn reset(&mut self) {
        let keep = self.eliminate_div;
        *self = FixedWelford::with_elimination(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::welford::Welford;

    #[test]
    fn q16_round_trips() {
        for x in [0.0, 1.5, -3.25, 1000.0625, -0.5] {
            assert!((Q16::from_f64(x).to_f64() - x).abs() < 1e-4);
        }
        assert_eq!(Q16::from_int(7).to_f64(), 7.0);
    }

    #[test]
    fn q16_arithmetic() {
        let a = Q16::from_f64(2.5);
        let b = Q16::from_f64(4.0);
        assert!((a.mul(b).to_f64() - 10.0).abs() < 1e-4);
        assert!((b.div(a).to_f64() - 1.6).abs() < 1e-4);
        assert_eq!(Q16::from_f64(5.0).div(Q16(0)), Q16(0));
        assert_eq!(Q16::from_f64(-2.0).abs().to_f64(), 2.0);
    }

    #[test]
    fn fixed_welford_tracks_exact_closely() {
        // Packet-size-like stream: values in [40, 1500].
        let xs: Vec<f64> = (0..5000)
            .map(|i| 40.0 + f64::from((i * 97) % 1460))
            .collect();
        let mut fx = FixedWelford::new();
        let mut ex = Welford::new();
        for &x in &xs {
            fx.update(x);
            ex.update(x);
        }
        let mean_err = (fx.mean() - ex.mean()).abs() / ex.mean();
        assert!(mean_err < 0.04, "mean err {mean_err}");
        // Variance is noisier under the approximation but must stay in range.
        let var_err = (fx.variance() - ex.variance()).abs() / ex.variance();
        assert!(var_err < 0.10, "var err {var_err}");
    }

    #[test]
    fn division_elimination_avoids_most_divisions() {
        let mut fx = FixedWelford::new();
        for i in 0..10_000i64 {
            // Small residuals once the mean settles.
            fx.update_int(100 + (i % 7));
        }
        let s = fx.div_stats();
        assert!(
            s.avoided_divs > s.real_divs * 10,
            "avoided {} real {}",
            s.avoided_divs,
            s.real_divs
        );
    }

    #[test]
    fn disabled_elimination_always_divides() {
        let mut fx = FixedWelford::with_elimination(false);
        for i in 0..100i64 {
            fx.update_int(i);
        }
        let s = fx.div_stats();
        assert_eq!(s.real_divs, 100);
        assert_eq!(s.avoided_divs, 0);
    }

    #[test]
    fn exact_mode_matches_float_welford() {
        let mut fx = FixedWelford::with_elimination(false);
        let mut ex = Welford::new();
        for i in 0..1000 {
            let x = f64::from(i % 100);
            fx.update(x);
            ex.update(x);
        }
        assert!((fx.mean() - ex.mean()).abs() < 0.1);
        assert!((fx.variance() - ex.variance()).abs() / ex.variance() < 0.02);
    }

    #[test]
    fn reset_preserves_mode() {
        let mut fx = FixedWelford::with_elimination(false);
        fx.update(1.0);
        fx.reset();
        assert_eq!(fx.count(), 0);
        fx.update(1.0);
        assert_eq!(fx.div_stats().real_divs, 1);
    }

    #[test]
    fn empty_is_zero() {
        let fx = FixedWelford::new();
        assert_eq!(fx.mean(), 0.0);
        assert_eq!(fx.variance(), 0.0);
    }
}
