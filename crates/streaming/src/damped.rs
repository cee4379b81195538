//! Damped-window incremental statistics (Kitsune-style).
//!
//! Kitsune's feature extractor — the most complex one the paper reproduces —
//! maintains *damped* incremental statistics: every state word decays by
//! `2^(-λ·Δt)` between packets, so recent traffic dominates. A 1-D stream
//! keeps `(w, LS, SS)` (decayed weight, linear sum, squared sum); a 2-D
//! stream additionally keeps a decayed residual-product sum to derive the
//! bidirectional features `f_mag`, `f_radius`, `f_cov`, and `f_pcc`
//! (Table 5).

use superfe_net::snap::{StateReader, StateWriter};

use crate::reducer::Reducer;

/// Nanoseconds per second, the timestamp unit used across SuperFE.
const NS_PER_SEC: f64 = 1e9;

/// Decay factor `2^(-λ·Δt)` for a gap of `dt_ns` nanoseconds.
fn decay_factor(lambda: f64, dt_ns: u64) -> f64 {
    let dt = dt_ns as f64 / NS_PER_SEC;
    (2.0f64).powf(-lambda * dt)
}

/// Entries a [`DecayMemo`] holds; a record that needs more simply computes.
const MEMO_SLOTS: usize = 16;

/// A per-record memo of decay factors.
///
/// One record updates many damped reducers — Kitsune's 35 across three
/// levels — but they share a handful of `(λ, Δt)` pairs: the same five λ at
/// every level, and one Δt per group. `2^(-λ·Δt)` is a pure function of
/// `(λ bits, Δt ns)`, so serving a repeat from this memo returns exactly the
/// bits a fresh `powf` would. The owner clears it once per record.
#[derive(Clone, Debug, Default)]
pub struct DecayMemo {
    keys: [(u64, u64); MEMO_SLOTS],
    factors: [f64; MEMO_SLOTS],
    len: usize,
}

impl DecayMemo {
    /// An empty memo.
    pub fn new() -> Self {
        DecayMemo::default()
    }

    /// Forgets every factor (start of a new record).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The decay factor for `(lambda, dt_ns)`, computed at most once until
    /// the next [`DecayMemo::clear`] while the memo has room.
    pub fn decay(&mut self, lambda: f64, dt_ns: u64) -> f64 {
        let key = (lambda.to_bits(), dt_ns);
        if let Some(i) = self.keys[..self.len].iter().position(|k| *k == key) {
            return self.factors[i];
        }
        let d = decay_factor(lambda, dt_ns);
        if self.len < MEMO_SLOTS {
            self.keys[self.len] = key;
            self.factors[self.len] = d;
            self.len += 1;
        }
        d
    }
}

/// 1-D damped incremental statistics over a timestamped stream.
///
/// # Examples
///
/// ```
/// use superfe_streaming::DampedStat;
///
/// let mut s = DampedStat::new(0.1);
/// s.update_at(100.0, 0);
/// s.update_at(200.0, 1_000_000_000); // one second later
/// assert!(s.mean() > 100.0 && s.mean() < 200.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DampedStat {
    lambda: f64,
    w: f64,
    ls: f64,
    ss: f64,
    last_ts: u64,
    seen: bool,
}

// The NIC engine packs these into a dense per-group lane; its measured group
// sizes (DESIGN.md, "NIC engine") assume this width.
const _: () = assert!(std::mem::size_of::<DampedStat>() == 48);

impl DampedStat {
    /// Creates a damped stream with decay rate `lambda` (per second).
    ///
    /// Kitsune uses λ ∈ {5, 3, 1, 0.1, 0.01} for its five time windows.
    pub fn new(lambda: f64) -> Self {
        DampedStat {
            lambda,
            w: 0.0,
            ls: 0.0,
            ss: 0.0,
            last_ts: 0,
            seen: false,
        }
    }

    /// Decay factor for a gap of `dt_ns` nanoseconds, through `memo` when
    /// the caller has one.
    fn decay(&self, dt_ns: u64, memo: Option<&mut DecayMemo>) -> f64 {
        match memo {
            Some(m) => m.decay(self.lambda, dt_ns),
            None => decay_factor(self.lambda, dt_ns),
        }
    }

    /// Applies decay up to `ts_ns` without inserting a sample.
    pub fn decay_to(&mut self, ts_ns: u64) {
        self.decay_with(ts_ns, None);
    }

    fn decay_with(&mut self, ts_ns: u64, memo: Option<&mut DecayMemo>) {
        if !self.seen || ts_ns <= self.last_ts {
            return;
        }
        let d = self.decay(ts_ns - self.last_ts, memo);
        self.w *= d;
        self.ls *= d;
        self.ss *= d;
        self.last_ts = ts_ns;
    }

    /// Inserts sample `x` observed at `ts_ns`.
    ///
    /// Out-of-order timestamps are tolerated by treating them as Δt = 0 (the
    /// same policy as Kitsune's reference implementation).
    pub fn update_at(&mut self, x: f64, ts_ns: u64) {
        self.update_with(x, ts_ns, None);
    }

    /// [`DampedStat::update_at`] taking its decay factor through `memo` —
    /// bit-identical, one `powf` per distinct `(λ, Δt)` of the record.
    pub fn update_at_memo(&mut self, x: f64, ts_ns: u64, memo: &mut DecayMemo) {
        self.update_with(x, ts_ns, Some(memo));
    }

    fn update_with(&mut self, x: f64, ts_ns: u64, memo: Option<&mut DecayMemo>) {
        self.decay_with(ts_ns, memo);
        self.last_ts = self.last_ts.max(ts_ns);
        self.seen = true;
        self.w += 1.0;
        self.ls += x;
        self.ss += x * x;
    }

    /// Decayed weight (effective sample count).
    pub fn weight(&self) -> f64 {
        self.w
    }

    /// Damped mean `LS/w` (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.w <= 0.0 {
            0.0
        } else {
            self.ls / self.w
        }
    }

    /// Damped population variance `|SS/w − mean²|` (0 when empty).
    pub fn variance(&self) -> f64 {
        if self.w <= 0.0 {
            return 0.0;
        }
        (self.ss / self.w - self.mean().powi(2)).abs()
    }

    /// Damped standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Last timestamp folded into the state.
    pub fn last_ts(&self) -> u64 {
        self.last_ts
    }

    /// The Kitsune 1-D feature triple `(weight, mean, std)`.
    pub fn triple(&self) -> [f64; 3] {
        [self.w, self.mean(), self.std_dev()]
    }

    /// Serializes the damped state (λ included, for self-contained loads).
    pub fn save_state(&self, w: &mut StateWriter) {
        for v in [self.lambda, self.w, self.ls, self.ss] {
            w.put_f64(v);
        }
        w.put_u64(self.last_ts);
        w.put_bool(self.seen);
    }

    /// Reads state written by [`DampedStat::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        Some(DampedStat {
            lambda: r.get_f64()?,
            w: r.get_f64()?,
            ls: r.get_f64()?,
            ss: r.get_f64()?,
            last_ts: r.get_u64()?,
            seen: r.get_bool()?,
        })
    }
}

impl Reducer for DampedStat {
    /// Reducer-compat path: treats successive samples as 1 ms apart.
    fn update(&mut self, x: f64) {
        let ts = self.last_ts + 1_000_000;
        self.update_at(x, if self.seen { ts } else { 0 });
    }

    fn finalize(&self) -> Vec<f64> {
        self.triple().to_vec()
    }

    fn feature_len(&self) -> usize {
        3
    }

    fn state_bytes(&self) -> usize {
        // w, LS, SS, last_ts.
        32
    }

    fn reset(&mut self) {
        *self = DampedStat::new(self.lambda);
    }
}

/// 2-D damped statistics over two correlated streams (e.g. the two directions
/// of a channel), yielding the bidirectional features of Table 5.
#[derive(Clone, Copy, Debug)]
pub struct DampedPair {
    /// Stream "a" (e.g. src→dst).
    pub a: DampedStat,
    /// Stream "b" (e.g. dst→src).
    pub b: DampedStat,
    /// Decayed sum of residual products.
    sr: f64,
    /// Decayed weight of the residual-product stream.
    w3: f64,
    last_res_a: f64,
    last_res_b: f64,
    last_ts: u64,
    seen: bool,
}

impl DampedPair {
    /// Creates a pair of damped streams with a common decay rate.
    pub fn new(lambda: f64) -> Self {
        DampedPair {
            a: DampedStat::new(lambda),
            b: DampedStat::new(lambda),
            sr: 0.0,
            w3: 0.0,
            last_res_a: 0.0,
            last_res_b: 0.0,
            last_ts: 0,
            seen: false,
        }
    }

    fn decay_joint(&mut self, ts_ns: u64, memo: Option<&mut DecayMemo>) {
        if self.seen && ts_ns > self.last_ts {
            let d = self.a.decay(ts_ns - self.last_ts, memo);
            self.sr *= d;
            self.w3 *= d;
            self.last_ts = ts_ns;
        }
        self.last_ts = self.last_ts.max(ts_ns);
        self.seen = true;
    }

    /// Feeds a sample into stream "a" at `ts_ns`, updating the joint state
    /// with the most recent residual of stream "b" (Kitsune's incStatCov
    /// approximation).
    pub fn update_a(&mut self, x: f64, ts_ns: u64) {
        self.update_with(x, ts_ns, true, None);
    }

    /// Feeds a sample into stream "b" at `ts_ns`.
    pub fn update_b(&mut self, x: f64, ts_ns: u64) {
        self.update_with(x, ts_ns, false, None);
    }

    /// [`DampedPair::update_a`] (`into_a`) or [`DampedPair::update_b`]
    /// taking both decay factors through `memo` — bit-identical.
    pub fn update_memo(&mut self, x: f64, ts_ns: u64, into_a: bool, memo: &mut DecayMemo) {
        self.update_with(x, ts_ns, into_a, Some(memo));
    }

    fn update_with(&mut self, x: f64, ts_ns: u64, into_a: bool, mut memo: Option<&mut DecayMemo>) {
        self.decay_joint(ts_ns, memo.as_deref_mut());
        if into_a {
            self.a.update_with(x, ts_ns, memo);
            self.last_res_a = x - self.a.mean();
        } else {
            self.b.update_with(x, ts_ns, memo);
            self.last_res_b = x - self.b.mean();
        }
        self.sr += self.last_res_a * self.last_res_b;
        self.w3 += 1.0;
    }

    /// `f_mag`: magnitude of the two means, `sqrt(μ_a² + μ_b²)`.
    pub fn magnitude(&self) -> f64 {
        (self.a.mean().powi(2) + self.b.mean().powi(2)).sqrt()
    }

    /// `f_radius`: `sqrt(σ_a⁴ + σ_b⁴)`.
    pub fn radius(&self) -> f64 {
        (self.a.variance().powi(2) + self.b.variance().powi(2)).sqrt()
    }

    /// `f_cov`: damped covariance approximation `SR / w3` (0 when empty).
    pub fn covariance(&self) -> f64 {
        if self.w3 <= 0.0 {
            0.0
        } else {
            self.sr / self.w3
        }
    }

    /// `f_pcc`: correlation coefficient (0 when either stream is degenerate).
    pub fn pcc(&self) -> f64 {
        let denom = self.a.std_dev() * self.b.std_dev();
        if denom <= 1e-12 {
            0.0
        } else {
            self.covariance() / denom
        }
    }

    /// The Kitsune 2-D feature quadruple `(magnitude, radius, cov, pcc)`.
    pub fn quad(&self) -> [f64; 4] {
        [
            self.magnitude(),
            self.radius(),
            self.covariance(),
            self.pcc(),
        ]
    }

    /// Serializes both streams and the joint residual state.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.a.save_state(w);
        self.b.save_state(w);
        for v in [self.sr, self.w3, self.last_res_a, self.last_res_b] {
            w.put_f64(v);
        }
        w.put_u64(self.last_ts);
        w.put_bool(self.seen);
    }

    /// Reads state written by [`DampedPair::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        Some(DampedPair {
            a: DampedStat::load_state(r)?,
            b: DampedStat::load_state(r)?,
            sr: r.get_f64()?,
            w3: r.get_f64()?,
            last_res_a: r.get_f64()?,
            last_res_b: r.get_f64()?,
            last_ts: r.get_u64()?,
            seen: r.get_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn no_decay_matches_plain_stats() {
        // λ=0 ⇒ no decay ⇒ damped stats equal ordinary mean/var.
        let mut s = DampedStat::new(0.0);
        let xs = [1.0, 2.0, 3.0, 4.0];
        for (i, &x) in xs.iter().enumerate() {
            s.update_at(x, i as u64 * SEC);
        }
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.weight(), 4.0);
    }

    #[test]
    fn decay_halves_weight_per_period() {
        // λ=1 ⇒ weight halves each second.
        let mut s = DampedStat::new(1.0);
        s.update_at(10.0, 0);
        s.decay_to(SEC);
        assert!((s.weight() - 0.5).abs() < 1e-12);
        s.decay_to(2 * SEC);
        assert!((s.weight() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn recent_samples_dominate() {
        let mut s = DampedStat::new(1.0);
        for i in 0..50 {
            s.update_at(100.0, i * SEC / 10);
        }
        for i in 50..100 {
            s.update_at(200.0, i * SEC / 10);
        }
        assert!(s.mean() > 150.0, "mean {} should lean to recent", s.mean());
    }

    #[test]
    fn out_of_order_timestamps_do_not_panic() {
        let mut s = DampedStat::new(0.5);
        s.update_at(1.0, 5 * SEC);
        s.update_at(2.0, SEC); // earlier than last
        assert_eq!(s.weight(), 2.0);
        assert_eq!(s.last_ts(), 5 * SEC);
    }

    #[test]
    fn empty_stream_defaults() {
        let s = DampedStat::new(1.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.triple(), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn reducer_path_works() {
        let mut s = DampedStat::new(0.0001);
        for x in [5.0, 5.0, 5.0] {
            s.update(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert_eq!(s.finalize().len(), 3);
    }

    #[test]
    fn memo_hit_returns_the_bits_of_a_fresh_powf() {
        let mut memo = DecayMemo::new();
        for (lambda, dt) in [(5.0, 1_234_567u64), (0.01, 3 * SEC), (0.1, 1)] {
            let fresh = decay_factor(lambda, dt).to_bits();
            assert_eq!(memo.decay(lambda, dt).to_bits(), fresh, "miss");
            assert_eq!(memo.decay(lambda, dt).to_bits(), fresh, "hit");
        }
        assert_eq!(memo.len, 3);
    }

    #[test]
    fn memo_past_capacity_still_computes() {
        let mut memo = DecayMemo::new();
        // 40 distinct keys in one record: 16 are kept, every answer is right,
        // early ones are still served, late ones are recomputed each time.
        for round in 0..2 {
            for i in 0..40u64 {
                let (lambda, dt) = (0.5 + i as f64, 1_000 * (i + 1));
                let want = decay_factor(lambda, dt).to_bits();
                assert_eq!(memo.decay(lambda, dt).to_bits(), want, "{round}/{i}");
            }
            assert_eq!(memo.len, MEMO_SLOTS);
        }
    }

    #[test]
    fn memo_clear_forgets() {
        let mut memo = DecayMemo::new();
        memo.decay(1.0, SEC);
        assert_eq!(memo.len, 1);
        memo.clear();
        assert_eq!(memo.len, 0);
        // Same key after clear: computed again, same bits.
        assert_eq!(memo.decay(1.0, SEC).to_bits(), 0.5f64.to_bits());
    }

    #[test]
    fn memo_zero_lambda_and_zero_gap_are_exactly_one() {
        let mut memo = DecayMemo::new();
        assert_eq!(memo.decay(0.0, 7 * SEC), 1.0);
        assert_eq!(memo.decay(3.0, 0), 1.0);
        // λ = 0 at two gaps and Δt = 0 at two rates are four distinct keys.
        assert_eq!(memo.decay(0.0, SEC), 1.0);
        assert_eq!(memo.decay(1.0, 0), 1.0);
        assert_eq!(memo.len, 4);
    }

    #[test]
    fn memoised_updates_match_plain_updates_bitwise() {
        let mut plain = (DampedStat::new(3.0), DampedPair::new(3.0));
        let mut memod = plain;
        let mut memo = DecayMemo::new();
        // Forward, repeated and backward timestamps, both directions.
        for (i, ts) in [0, SEC, SEC, 5 * SEC / 2, 2 * SEC, 4 * SEC]
            .iter()
            .enumerate()
        {
            let x = 100.0 + i as f64;
            plain.0.update_at(x, *ts);
            memo.clear();
            memod.0.update_at_memo(x, *ts, &mut memo);
            if i % 2 == 0 {
                plain.1.update_a(x, *ts);
            } else {
                plain.1.update_b(x, *ts);
            }
            memod.1.update_memo(x, *ts, i % 2 == 0, &mut memo);
            let bits = |t: [f64; 3], q: [f64; 4]| {
                t.iter().chain(&q).map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(
                bits(plain.0.triple(), plain.1.quad()),
                bits(memod.0.triple(), memod.1.quad()),
                "record {i}"
            );
        }
    }

    #[test]
    fn pair_correlated_streams_have_positive_pcc() {
        let mut p = DampedPair::new(0.01);
        // a and b move together.
        for i in 0..200u64 {
            let v = (i % 10) as f64;
            p.update_a(v, i * SEC / 100);
            p.update_b(v * 2.0, i * SEC / 100 + 1);
        }
        assert!(p.pcc() > 0.5, "pcc {}", p.pcc());
        assert!(p.covariance() > 0.0);
    }

    #[test]
    fn pair_anticorrelated_streams_have_negative_pcc() {
        let mut p = DampedPair::new(0.01);
        for i in 0..200u64 {
            let v = (i % 10) as f64;
            p.update_a(v, i * SEC / 100);
            p.update_b(10.0 - v, i * SEC / 100 + 1);
        }
        assert!(p.pcc() < -0.3, "pcc {}", p.pcc());
    }

    #[test]
    fn pair_magnitude_and_radius() {
        let mut p = DampedPair::new(0.0);
        p.update_a(3.0, 0);
        p.update_b(4.0, 1);
        assert!((p.magnitude() - 5.0).abs() < 1e-9);
        assert_eq!(p.radius(), 0.0); // single samples: zero variance
    }

    #[test]
    fn pair_empty_quad_is_zero() {
        let p = DampedPair::new(1.0);
        assert_eq!(p.quad(), [0.0; 4]);
    }

    #[test]
    fn pair_degenerate_pcc_is_zero() {
        let mut p = DampedPair::new(0.0);
        for i in 0..10u64 {
            p.update_a(7.0, i); // zero variance
            p.update_b(i as f64, i);
        }
        assert_eq!(p.pcc(), 0.0);
    }
}
