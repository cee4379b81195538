//! Damped-window incremental statistics (Kitsune-style).
//!
//! Kitsune's feature extractor — the most complex one the paper reproduces —
//! maintains *damped* incremental statistics: every state word decays by
//! `2^(-λ·Δt)` between packets, so recent traffic dominates. A 1-D stream
//! keeps `(w, LS, SS)` (decayed weight, linear sum, squared sum); a 2-D
//! stream additionally keeps a decayed residual-product sum to derive the
//! bidirectional features `f_mag`, `f_radius`, `f_cov`, and `f_pcc`
//! (Table 5).
//!
//! Each per-window formula — decay, insert, mean, variance, magnitude,
//! radius, covariance, correlation — has one body, below. [`DampedStat`] and
//! [`DampedPair`] apply them to one window. [`DampedBank`] and [`PairBank`]
//! apply them to a *bank*: the windows of one `reduce`, which see the same
//! `(value, timestamp)` sequence and so share one header, their state laid
//! out as a structure of arrays in a caller's `f64` block.

use superfe_net::snap::{StateReader, StateWriter};

use crate::reducer::Reducer;

/// Nanoseconds per second, the timestamp unit used across SuperFE.
const NS_PER_SEC: f64 = 1e9;

/// Decay factor `2^(-λ·Δt)` for a gap of `dt_ns` nanoseconds.
///
/// Always libm's `pow`: an optimized build rewrites `pow(2.0, x)` into
/// `exp2(x)`, which differs from `pow` in the last bit on some inputs, so
/// the base is hidden from the optimizer and every build prints the same
/// digests.
fn decay_factor(lambda: f64, dt_ns: u64) -> f64 {
    let dt = dt_ns as f64 / NS_PER_SEC;
    std::hint::black_box(2.0f64).powf(-lambda * dt)
}

/// Entries a [`DecayMemo`] keeps per record; a probe past them still gets its
/// factors, computed afresh.
const MEMO_SLOTS: usize = 16;

/// A per-record memo of decay factors, one entry per bank header.
///
/// One record updates many damped windows — Kitsune's 35 across three
/// levels, in seven banks — but the banks' headers share a handful of
/// keys: the same five λ at every level, and one Δt per group. A bank asks
/// once per header for the factors `2^(-λ·Δt)` of all its windows, keyed by
/// Δt and the bits of its λs. Each factor is a pure function of `(λ bits, Δt
/// ns)`, so a hit returns exactly the bits fresh `powf`s would. The owner
/// clears it once per record.
#[derive(Clone, Debug, Default)]
pub struct DecayMemo {
    /// Per kept entry: its Δt, where its words start and its window count.
    keys: Vec<(u64, usize, usize)>,
    /// Per entry: its `k` λs, then their `k` factors.
    words: Vec<f64>,
    /// Words of the kept entries; past them sit the factors of the last
    /// probe that found no room.
    kept: usize,
}

impl DecayMemo {
    /// An empty memo.
    pub fn new() -> Self {
        DecayMemo::default()
    }

    /// Forgets every factor (start of a new record).
    pub fn clear(&mut self) {
        self.keys.clear();
        self.words.clear();
        self.kept = 0;
    }

    /// The decay factors of windows of rates `lambdas` over a gap of
    /// `dt_ns`, one per window: computed at most once until the next
    /// [`DecayMemo::clear`] while the memo has room.
    #[inline]
    pub fn factors(&mut self, lambdas: &[f64], dt_ns: u64) -> &[f64] {
        let k = lambdas.len();
        let hit = self.keys.iter().find(|&&(dt, at, n)| {
            dt == dt_ns
                && n == k
                && (self.words[at..at + k].iter())
                    .zip(lambdas)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        let at = match hit {
            Some(&(_, at, _)) => at,
            None => {
                self.words.truncate(self.kept);
                let at = self.words.len();
                self.words.extend_from_slice(lambdas);
                self.words
                    .extend(lambdas.iter().map(|&lambda| decay_factor(lambda, dt_ns)));
                if self.keys.len() < MEMO_SLOTS {
                    self.keys.push((dt_ns, at, k));
                    self.kept = self.words.len();
                }
                at
            }
        };
        &self.words[at + k..at + 2 * k]
    }
}

/// When a window last folded a sample in. Every window of a bank sees the
/// same timestamps, so a bank keeps one header for all of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Header {
    last_ts: u64,
    seen: bool,
}

/// Words a [`Header`] takes in a bank: the timestamp's bits (`from_bits` /
/// `to_bits` round-trip every `u64`), then `seen` as 0 or 1. All-zero words
/// are a header that has seen nothing.
const HEADER_WORDS: usize = 2;

impl Header {
    /// The gap to decay over before a sample at `ts_ns`: none before the
    /// first sample, and none for a timestamp that is not later (Δt = 0, the
    /// same policy as Kitsune's reference implementation).
    #[inline]
    fn gap(self, ts_ns: u64) -> Option<u64> {
        if self.seen && ts_ns > self.last_ts {
            Some(ts_ns - self.last_ts)
        } else {
            None
        }
    }

    /// Moves the header to a sample at `ts_ns`; returns the gap to decay
    /// over first.
    #[inline]
    fn advance(&mut self, ts_ns: u64) -> Option<u64> {
        let gap = self.gap(ts_ns);
        self.last_ts = self.last_ts.max(ts_ns);
        self.seen = true;
        gap
    }

    #[inline]
    fn read(words: &[f64]) -> Header {
        Header {
            last_ts: words[0].to_bits(),
            seen: words[1] != 0.0,
        }
    }

    #[inline]
    fn write(self, words: &mut [f64]) {
        words[0] = f64::from_bits(self.last_ts);
        words[1] = if self.seen { 1.0 } else { 0.0 };
    }

    /// [`Header::advance`] on a header stored in `words`.
    #[inline]
    fn advance_in(words: &mut [f64], ts_ns: u64) -> Option<u64> {
        let mut h = Header::read(words);
        let gap = h.advance(ts_ns);
        h.write(words);
        gap
    }

    /// Stores `self` as the header of a bank being loaded window by window:
    /// window 0 sets it, every later window must repeat it.
    fn load_into(self, words: &mut [f64], window: usize) -> Option<()> {
        if window == 0 {
            self.write(words);
        } else if Header::read(words) != self {
            return None;
        }
        Some(())
    }
}

// The per-window formulas. IEEE operations are correctly rounded, so any
// caller applying the same ones per element gets the same bits.

/// Decays one window's `(w, LS, SS)` by the factor `d`.
#[inline]
fn decay(w: &mut f64, ls: &mut f64, ss: &mut f64, d: f64) {
    *w *= d;
    *ls *= d;
    *ss *= d;
}

/// Folds sample `x` into one window's `(w, LS, SS)`.
#[inline]
fn insert(w: &mut f64, ls: &mut f64, ss: &mut f64, x: f64) {
    *w += 1.0;
    *ls += x;
    *ss += x * x;
}

/// Damped mean `LS/w` (0 when empty).
#[inline]
fn mean(w: f64, ls: f64) -> f64 {
    if w <= 0.0 {
        0.0
    } else {
        ls / w
    }
}

/// Damped population variance `|SS/w − mean²|` (0 when empty).
#[inline]
fn variance(w: f64, ls: f64, ss: f64) -> f64 {
    if w <= 0.0 {
        return 0.0;
    }
    (ss / w - mean(w, ls).powi(2)).abs()
}

/// The 1-D feature triple `(weight, mean, std)`.
#[inline]
fn triple(w: f64, ls: f64, ss: f64) -> [f64; 3] {
    [w, mean(w, ls), variance(w, ls, ss).sqrt()]
}

/// `f_mag`: magnitude of the two means, `sqrt(μ_a² + μ_b²)`.
#[inline]
fn magnitude(mean_a: f64, mean_b: f64) -> f64 {
    (mean_a.powi(2) + mean_b.powi(2)).sqrt()
}

/// `f_radius`: `sqrt(σ_a⁴ + σ_b⁴)`.
#[inline]
fn radius(var_a: f64, var_b: f64) -> f64 {
    (var_a.powi(2) + var_b.powi(2)).sqrt()
}

/// `f_cov`: damped covariance approximation `SR / w3` (0 when empty).
#[inline]
fn covariance(sr: f64, w3: f64) -> f64 {
    if w3 <= 0.0 {
        0.0
    } else {
        sr / w3
    }
}

/// `f_pcc`: correlation coefficient (0 when either stream is degenerate).
#[inline]
fn pcc(cov: f64, std_a: f64, std_b: f64) -> f64 {
    let denom = std_a * std_b;
    if denom <= 1e-12 {
        0.0
    } else {
        cov / denom
    }
}

/// The Kitsune 2-D feature quadruple `(magnitude, radius, cov, pcc)` of one
/// window, from its two sides' `(w, LS, SS)` and its joint `(SR, w3)`.
#[inline]
fn quad(a: [f64; 3], b: [f64; 3], joint: [f64; 2]) -> [f64; 4] {
    let (var_a, var_b) = (variance(a[0], a[1], a[2]), variance(b[0], b[1], b[2]));
    let cov = covariance(joint[0], joint[1]);
    [
        magnitude(mean(a[0], a[1]), mean(b[0], b[1])),
        radius(var_a, var_b),
        cov,
        pcc(cov, var_a.sqrt(), var_b.sqrt()),
    ]
}

/// Appends the features `which` selects of one 2-D window.
#[inline]
fn pair_features(which: BidirOut, a: [f64; 3], b: [f64; 3], joint: [f64; 2], out: &mut Vec<f64>) {
    let var = |s: [f64; 3]| variance(s[0], s[1], s[2]);
    match which {
        BidirOut::Quad => out.extend_from_slice(&quad(a, b, joint)),
        BidirOut::Mag => out.push(magnitude(mean(a[0], a[1]), mean(b[0], b[1]))),
        BidirOut::Radius => out.push(radius(var(a), var(b))),
        BidirOut::Cov => out.push(covariance(joint[0], joint[1])),
        BidirOut::Pcc => out.push(pcc(
            covariance(joint[0], joint[1]),
            var(a).sqrt(),
            var(b).sqrt(),
        )),
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
    header: Header,
}

// One window on its own: λ, three state words and a header. Its snapshot
// record is what a bank writes per window.
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
            header: Header::default(),
        }
    }

    /// Applies decay up to `ts_ns` without inserting a sample: the oracle
    /// of `decay_halves_weight_per_period`.
    #[cfg(test)]
    fn decay_to(&mut self, ts_ns: u64) {
        if let Some(dt) = self.header.gap(ts_ns) {
            let d = decay_factor(self.lambda, dt);
            decay(&mut self.w, &mut self.ls, &mut self.ss, d);
            self.header.last_ts = ts_ns;
        }
    }

    /// Inserts sample `x` observed at `ts_ns`.
    ///
    /// Out-of-order timestamps are tolerated by treating them as Δt = 0 (the
    /// same policy as Kitsune's reference implementation).
    pub fn update_at(&mut self, x: f64, ts_ns: u64) {
        if let Some(dt) = self.header.advance(ts_ns) {
            let d = decay_factor(self.lambda, dt);
            decay(&mut self.w, &mut self.ls, &mut self.ss, d);
        }
        insert(&mut self.w, &mut self.ls, &mut self.ss, x);
    }

    /// Decayed weight (effective sample count).
    pub fn weight(&self) -> f64 {
        self.w
    }

    /// Damped mean `LS/w` (0 when empty).
    pub fn mean(&self) -> f64 {
        mean(self.w, self.ls)
    }

    /// Damped population variance `|SS/w − mean²|` (0 when empty).
    pub fn variance(&self) -> f64 {
        variance(self.w, self.ls, self.ss)
    }

    /// Damped standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Last timestamp folded into the state.
    pub fn last_ts(&self) -> u64 {
        self.header.last_ts
    }

    /// The Kitsune 1-D feature triple `(weight, mean, std)`.
    pub fn triple(&self) -> [f64; 3] {
        triple(self.w, self.ls, self.ss)
    }

    /// `(w, LS, SS)`.
    fn words(&self) -> [f64; 3] {
        [self.w, self.ls, self.ss]
    }

    /// Serializes the damped state (λ included, which a bank's
    /// [`DampedBank::load_window`] checks against its own).
    pub fn save_state(&self, w: &mut StateWriter) {
        for v in [self.lambda, self.w, self.ls, self.ss] {
            w.put_f64(v);
        }
        w.put_u64(self.header.last_ts);
        w.put_bool(self.header.seen);
    }

    /// Reads state written by [`DampedStat::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        Some(DampedStat {
            lambda: r.get_f64()?,
            w: r.get_f64()?,
            ls: r.get_f64()?,
            ss: r.get_f64()?,
            header: Header {
                last_ts: r.get_u64()?,
                seen: r.get_bool()?,
            },
        })
    }
}

impl Reducer for DampedStat {
    /// Reducer-compat path: treats successive samples as 1 ms apart.
    fn update(&mut self, x: f64) {
        let ts = self.header.last_ts + 1_000_000;
        self.update_at(x, if self.header.seen { ts } else { 0 });
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
    header: Header,
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
            header: Header::default(),
        }
    }

    /// Feeds a sample into stream "a" (`into_a`) or "b" at `ts_ns`,
    /// updating the joint state with the most recent residual of the other
    /// (Kitsune's incStatCov approximation). The banks compute the same
    /// update lane-wise; this one window at a time is their reference in
    /// `superfe_policy::exec`'s `lanes_and_memo_match_the_reference_bitwise`
    /// and in this module's tests.
    pub fn update(&mut self, x: f64, ts_ns: u64, into_a: bool) {
        if let Some(dt) = self.header.advance(ts_ns) {
            let d = decay_factor(self.a.lambda, dt);
            self.sr *= d;
            self.w3 *= d;
        }
        let side = if into_a { &mut self.a } else { &mut self.b };
        side.update_at(x, ts_ns);
        let res = x - side.mean();
        if into_a {
            self.last_res_a = res;
        } else {
            self.last_res_b = res;
        }
        self.sr += self.last_res_a * self.last_res_b;
        self.w3 += 1.0;
    }

    /// `f_mag`: magnitude of the two means, `sqrt(μ_a² + μ_b²)`.
    pub fn magnitude(&self) -> f64 {
        magnitude(self.a.mean(), self.b.mean())
    }

    /// `f_radius`: `sqrt(σ_a⁴ + σ_b⁴)`.
    pub fn radius(&self) -> f64 {
        radius(self.a.variance(), self.b.variance())
    }

    /// `f_cov`: damped covariance approximation `SR / w3` (0 when empty).
    pub fn covariance(&self) -> f64 {
        covariance(self.sr, self.w3)
    }

    /// `f_pcc`: correlation coefficient (0 when either stream is degenerate).
    pub fn pcc(&self) -> f64 {
        pcc(self.covariance(), self.a.std_dev(), self.b.std_dev())
    }

    /// The Kitsune 2-D feature quadruple `(magnitude, radius, cov, pcc)`.
    pub fn quad(&self) -> [f64; 4] {
        quad(self.a.words(), self.b.words(), [self.sr, self.w3])
    }

    /// Serializes both streams and the joint residual state.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.a.save_state(w);
        self.b.save_state(w);
        for v in [self.sr, self.w3, self.last_res_a, self.last_res_b] {
            w.put_f64(v);
        }
        w.put_u64(self.header.last_ts);
        w.put_bool(self.header.seen);
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
            header: Header {
                last_ts: r.get_u64()?,
                seen: r.get_bool()?,
            },
        })
    }
}

/// Which features a 2-D window emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BidirOut {
    /// `f_mag`.
    Mag,
    /// `f_radius`.
    Radius,
    /// `f_cov`.
    Cov,
    /// `f_pcc`.
    Pcc,
    /// All four (`f_damped2d`).
    Quad,
}

/// The first `N` lanes of `k` words each of `words`.
#[inline]
fn lanes<const N: usize>(words: &[f64], k: usize) -> [&[f64]; N] {
    let mut rest = words;
    std::array::from_fn(|_| {
        let (lane, tail) = rest.split_at(k);
        rest = tail;
        lane
    })
}

/// [`lanes`], mutable.
#[inline]
fn lanes_mut<const N: usize>(words: &mut [f64], k: usize) -> [&mut [f64]; N] {
    let mut rest = words;
    std::array::from_fn(|_| {
        let (lane, tail) = std::mem::take(&mut rest).split_at_mut(k);
        rest = tail;
        lane
    })
}

/// A run of 1-D windows of one `reduce` (`f_damped{λ}` after `f_damped{λ}`):
/// their decay rates, which are the same for every group. The state of a
/// bank of `k` windows is [`DampedBank::words`] `f64`s at the front of a
/// caller's block — one header, then the `w`, `LS` and `SS` lanes of `k`
/// words each — and a fresh bank is all zeros.
#[derive(Clone, Debug)]
pub struct DampedBank {
    lambdas: Vec<f64>,
}

impl DampedBank {
    /// A bank of one window of decay rate `lambda`.
    pub fn new(lambda: f64) -> Self {
        DampedBank {
            lambdas: vec![lambda],
        }
    }

    /// Appends a window of decay rate `lambda`.
    pub fn push(&mut self, lambda: f64) {
        self.lambdas.push(lambda);
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.lambdas.len()
    }

    /// Whether the bank has no window (never, once built by [`DampedBank::new`]).
    pub fn is_empty(&self) -> bool {
        self.lambdas.is_empty()
    }

    /// Words of state.
    pub fn words(&self) -> usize {
        HEADER_WORDS + 3 * self.len()
    }

    /// Inserts sample `x` observed at `ts_ns` into every window: one Δt
    /// check and one `memo` probe for the windows' factors, then per window a
    /// decay and an insert. With `out`, the windows then emit what
    /// [`DampedBank::finalize_into`] would, from the state just updated.
    ///
    /// Out of line on purpose, as is [`PairBank::update`]: inlined into the
    /// caller's loop over a level's reducers, the bank kernels slowed that
    /// loop by ~7% for policies with no damped window (NPOD on a CAMPUS
    /// trace); one call per bank costs Kitsune ~3%.
    #[inline(never)]
    pub fn update(
        &self,
        state: &mut [f64],
        x: f64,
        ts_ns: u64,
        memo: &mut DecayMemo,
        out: Option<&mut Vec<f64>>,
    ) {
        let (head, body) = state.split_at_mut(HEADER_WORDS);
        let [w, ls, ss] = lanes_mut(body, self.len());
        let factors = Header::advance_in(head, ts_ns).map(|dt| memo.factors(&self.lambdas, dt));
        for i in 0..self.len() {
            if let Some(d) = factors {
                decay(&mut w[i], &mut ls[i], &mut ss[i], d[i]);
            }
            insert(&mut w[i], &mut ls[i], &mut ss[i], x);
        }
        if let Some(out) = out {
            self.finalize_into(state, out);
        }
    }

    /// Appends every window's `(weight, mean, std)`, in window order.
    #[inline]
    pub fn finalize_into(&self, state: &[f64], out: &mut Vec<f64>) {
        let [w, ls, ss] = lanes(&state[HEADER_WORDS..], self.len());
        out.reserve(3 * self.len());
        for i in 0..self.len() {
            out.extend_from_slice(&triple(w[i], ls[i], ss[i]));
        }
    }

    /// Window `i` on its own — the form a snapshot stores.
    pub fn window(&self, state: &[f64], i: usize) -> DampedStat {
        let [w, ls, ss] = lanes(&state[HEADER_WORDS..], self.len());
        DampedStat {
            lambda: self.lambdas[i],
            w: w[i],
            ls: ls[i],
            ss: ss[i],
            header: Header::read(state),
        }
    }

    /// Loads window `i` from `s`; windows load in order. `None` when `s`'s
    /// λ is not the window's, or its header is not the one the bank's
    /// earlier windows loaded.
    pub fn load_window(&self, state: &mut [f64], i: usize, s: &DampedStat) -> Option<()> {
        if s.lambda.to_bits() != self.lambdas[i].to_bits() {
            return None;
        }
        let (head, body) = state.split_at_mut(HEADER_WORDS);
        s.header.load_into(head, i)?;
        let [w, ls, ss] = lanes_mut(body, self.len());
        (w[i], ls[i], ss[i]) = (s.w, s.ls, s.ss);
        Some(())
    }
}

/// A run of 2-D windows of one `reduce` (`f_damped2d{λ}`, and `f_mag`,
/// `f_radius`, `f_cov`, `f_pcc`, which are λ = 0 windows emitting one
/// feature): their decay rates and outputs. Its state, at the front of a
/// caller's block and all zeros when fresh, is three headers (joint, side a,
/// side b), then ten lanes of `k` words: side a's `w`, `LS`, `SS`, side b's,
/// `SR`, `w3`, and the two sides' last residuals.
#[derive(Clone, Debug)]
pub struct PairBank {
    lambdas: Vec<f64>,
    outs: Vec<BidirOut>,
}

impl PairBank {
    /// A bank of one window of decay rate `lambda`, emitting `which`.
    pub fn new(lambda: f64, which: BidirOut) -> Self {
        PairBank {
            lambdas: vec![lambda],
            outs: vec![which],
        }
    }

    /// Appends a window of decay rate `lambda`, emitting `which`.
    pub fn push(&mut self, lambda: f64, which: BidirOut) {
        self.lambdas.push(lambda);
        self.outs.push(which);
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.lambdas.len()
    }

    /// Whether the bank has no window (never, once built by [`PairBank::new`]).
    pub fn is_empty(&self) -> bool {
        self.lambdas.is_empty()
    }

    /// Words of state.
    pub fn words(&self) -> usize {
        3 * HEADER_WORDS + 10 * self.len()
    }

    /// Inserts sample `x` observed at `ts_ns` into side a (`into_a`) or b of
    /// every window: one Δt check and one `memo` probe for the joint header
    /// and for the side's, then per window the decays, the insert, the
    /// side's residual and the joint residual product. With `out`, the
    /// windows then emit what [`PairBank::finalize_into`] would.
    #[inline(never)]
    pub fn update(
        &self,
        state: &mut [f64],
        x: f64,
        ts_ns: u64,
        into_a: bool,
        memo: &mut DecayMemo,
        out: Option<&mut Vec<f64>>,
    ) {
        let (heads, body) = state.split_at_mut(3 * HEADER_WORDS);
        let [aw, als, ass, bw, bls, bss, sr, w3, res_a, res_b] = lanes_mut(body, self.len());
        let (joint_head, sides) = heads.split_at_mut(HEADER_WORDS);
        let (a_head, b_head) = sides.split_at_mut(HEADER_WORDS);
        if let Some(dt) = Header::advance_in(joint_head, ts_ns) {
            let d = memo.factors(&self.lambdas, dt);
            for i in 0..self.len() {
                sr[i] *= d[i];
                w3[i] *= d[i];
            }
        }
        let (side_head, w, ls, ss) = if into_a {
            (a_head, aw, als, ass)
        } else {
            (b_head, bw, bls, bss)
        };
        let factors =
            Header::advance_in(side_head, ts_ns).map(|dt| memo.factors(&self.lambdas, dt));
        for i in 0..self.len() {
            if let Some(d) = factors {
                decay(&mut w[i], &mut ls[i], &mut ss[i], d[i]);
            }
            insert(&mut w[i], &mut ls[i], &mut ss[i], x);
            let res = x - mean(w[i], ls[i]);
            if into_a {
                res_a[i] = res;
            } else {
                res_b[i] = res;
            }
            sr[i] += res_a[i] * res_b[i];
            w3[i] += 1.0;
        }
        if let Some(out) = out {
            self.finalize_into(state, out);
        }
    }

    /// Appends every window's features, in window order.
    #[inline]
    pub fn finalize_into(&self, state: &[f64], out: &mut Vec<f64>) {
        let [aw, als, ass, bw, bls, bss, sr, w3] = lanes(&state[3 * HEADER_WORDS..], self.len());
        for (i, &which) in self.outs.iter().enumerate() {
            let (a, b) = ([aw[i], als[i], ass[i]], [bw[i], bls[i], bss[i]]);
            pair_features(which, a, b, [sr[i], w3[i]], out);
        }
    }

    /// Window `i` on its own — the form a snapshot stores.
    pub fn window(&self, state: &[f64], i: usize) -> DampedPair {
        let (heads, body) = state.split_at(3 * HEADER_WORDS);
        let [aw, als, ass, bw, bls, bss, sr, w3, res_a, res_b] = lanes(body, self.len());
        let side = |w: &[f64], ls: &[f64], ss: &[f64], head: usize| DampedStat {
            lambda: self.lambdas[i],
            w: w[i],
            ls: ls[i],
            ss: ss[i],
            header: Header::read(&heads[head..]),
        };
        DampedPair {
            a: side(aw, als, ass, HEADER_WORDS),
            b: side(bw, bls, bss, 2 * HEADER_WORDS),
            sr: sr[i],
            w3: w3[i],
            last_res_a: res_a[i],
            last_res_b: res_b[i],
            header: Header::read(heads),
        }
    }

    /// Loads window `i` from `p`; windows load in order. `None` when either
    /// side's λ is not the window's, or one of its three headers is not the
    /// one the bank's earlier windows loaded.
    pub fn load_window(&self, state: &mut [f64], i: usize, p: &DampedPair) -> Option<()> {
        let lambda = self.lambdas[i].to_bits();
        if p.a.lambda.to_bits() != lambda || p.b.lambda.to_bits() != lambda {
            return None;
        }
        let (heads, body) = state.split_at_mut(3 * HEADER_WORDS);
        let (joint_head, sides) = heads.split_at_mut(HEADER_WORDS);
        let (a_head, b_head) = sides.split_at_mut(HEADER_WORDS);
        p.header.load_into(joint_head, i)?;
        p.a.header.load_into(a_head, i)?;
        p.b.header.load_into(b_head, i)?;
        let [aw, als, ass, bw, bls, bss, sr, w3, res_a, res_b] = lanes_mut(body, self.len());
        (aw[i], als[i], ass[i]) = (p.a.w, p.a.ls, p.a.ss);
        (bw[i], bls[i], bss[i]) = (p.b.w, p.b.ls, p.b.ss);
        (sr[i], w3[i], res_a[i], res_b[i]) = (p.sr, p.w3, p.last_res_a, p.last_res_b);
        Some(())
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

    /// The factors a bank of rates `lambdas` gets from `memo`, as bits, and
    /// the bits of one fresh `powf` per window.
    fn probe(memo: &mut DecayMemo, lambdas: &[f64], dt: u64) -> (Vec<u64>, Vec<u64>) {
        let fresh = lambdas.iter().map(|&l| decay_factor(l, dt).to_bits());
        (bits(memo.factors(lambdas, dt)), fresh.collect())
    }

    #[test]
    fn memo_hit_returns_the_bits_of_each_windows_fresh_powf() {
        let mut memo = DecayMemo::new();
        for dt in [1_234_567u64, 3 * SEC, 1] {
            let (got, want) = probe(&mut memo, &LAMBDAS, dt);
            assert_eq!(got, want, "miss");
            let (got, want) = probe(&mut memo, &LAMBDAS, dt);
            assert_eq!(got, want, "hit");
        }
        assert_eq!(memo.keys.len(), 3);
    }

    #[test]
    fn a_banks_rates_in_order_are_its_key() {
        let mut memo = DecayMemo::new();
        // One gap, five banks: a permutation, a longer bank and a rate of
        // other bits are each a key of their own, not a hit on another's.
        let banks: [&[f64]; 5] = [
            &[5.0, 3.0],
            &[3.0, 5.0],
            &[5.0, 3.0, 1.0],
            &[0.0, 3.0],
            &[-0.0, 3.0],
        ];
        for round in 0..2 {
            for lambdas in banks {
                let (got, want) = probe(&mut memo, lambdas, SEC / 3);
                assert_eq!(got, want, "{round}: {lambdas:?}");
            }
            assert_eq!(memo.keys.len(), banks.len());
        }
    }

    #[test]
    fn memo_past_capacity_still_computes() {
        let mut memo = DecayMemo::new();
        // 40 distinct keys in one record: 16 are kept, every answer is right,
        // early ones are still served, late ones are recomputed each time.
        for round in 0..2 {
            for i in 0..40u64 {
                let lambdas = [0.5 + i as f64, 0.25];
                let (got, want) = probe(&mut memo, &lambdas, 1_000 * (i + 1));
                assert_eq!(got, want, "{round}/{i}");
            }
            assert_eq!(memo.keys.len(), MEMO_SLOTS);
        }
    }

    #[test]
    fn memo_clear_forgets() {
        let mut memo = DecayMemo::new();
        memo.factors(&[1.0], SEC);
        assert_eq!(memo.keys.len(), 1);
        memo.clear();
        assert_eq!(memo.keys.len(), 0);
        // Same key after clear: computed again, same bits.
        assert_eq!(bits(memo.factors(&[1.0], SEC)), [0.5f64.to_bits()]);
    }

    #[test]
    fn memo_zero_lambda_and_zero_gap_are_exactly_one() {
        let mut memo = DecayMemo::new();
        assert_eq!(memo.factors(&[0.0], 7 * SEC), [1.0]);
        assert_eq!(memo.factors(&[3.0], 0), [1.0]);
        // λ = 0 at two gaps and Δt = 0 at two rates are four distinct keys.
        assert_eq!(memo.factors(&[0.0], SEC), [1.0]);
        assert_eq!(memo.factors(&[1.0], 0), [1.0]);
        assert_eq!(memo.keys.len(), 4);
    }

    /// Kitsune's five windows, and a 2-D run mixing every output.
    const LAMBDAS: [f64; 5] = [5.0, 3.0, 1.0, 0.1, 0.01];
    const PAIR_OUTS: [BidirOut; 5] = [
        BidirOut::Quad,
        BidirOut::Mag,
        BidirOut::Radius,
        BidirOut::Cov,
        BidirOut::Pcc,
    ];

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn banks_match_their_windows_one_by_one_bitwise() {
        let mut bank = DampedBank::new(LAMBDAS[0]);
        let mut pairs = PairBank::new(LAMBDAS[0], PAIR_OUTS[0]);
        for i in 1..LAMBDAS.len() {
            bank.push(LAMBDAS[i]);
            pairs.push(LAMBDAS[i], PAIR_OUTS[i]);
        }
        let mut state = vec![0.0; bank.words() + pairs.words()];
        let (one, two) = state.split_at_mut(bank.words());
        let mut stats = LAMBDAS.map(DampedStat::new);
        let mut pair_stats = LAMBDAS.map(DampedPair::new);
        let mut memo = DecayMemo::new();
        // Forward, repeated and backward timestamps, both directions.
        for (n, ts) in [0, SEC, SEC, 5 * SEC / 2, 2 * SEC, 4 * SEC, 4 * SEC + 7]
            .iter()
            .enumerate()
        {
            let (x, into_a) = (100.0 + n as f64, n % 3 != 1);
            memo.clear();
            // What the banks emit as they update, and what they finalize to.
            let (mut got, mut again, mut want) = (Vec::new(), Vec::new(), Vec::new());
            bank.update(one, x, *ts, &mut memo, Some(&mut got));
            pairs.update(two, x, *ts, into_a, &mut memo, Some(&mut got));
            bank.finalize_into(one, &mut again);
            pairs.finalize_into(two, &mut again);
            assert_eq!(bits(&got), bits(&again), "record {n}");
            for s in &mut stats {
                s.update_at(x, *ts);
                want.extend_from_slice(&s.triple());
            }
            for (p, which) in pair_stats.iter_mut().zip(PAIR_OUTS) {
                if into_a {
                    p.update(x, *ts, true);
                } else {
                    p.update(x, *ts, false);
                }
                match which {
                    BidirOut::Quad => want.extend_from_slice(&p.quad()),
                    BidirOut::Mag => want.push(p.magnitude()),
                    BidirOut::Radius => want.push(p.radius()),
                    BidirOut::Cov => want.push(p.covariance()),
                    BidirOut::Pcc => want.push(p.pcc()),
                }
            }
            assert_eq!(bits(&got), bits(&want), "record {n}");
        }
        // Each window, taken out of its bank, is the window kept on its own,
        // and loads back into a fresh bank word for word.
        let snapshot = |save: &dyn Fn(&mut StateWriter)| {
            let mut w = StateWriter::new();
            save(&mut w);
            w.into_bytes()
        };
        let mut fresh = vec![0.0; state.len()];
        let (fresh_one, fresh_two) = fresh.split_at_mut(bank.words());
        let (one, two) = state.split_at(bank.words());
        for i in 0..LAMBDAS.len() {
            let (s, p) = (bank.window(one, i), pairs.window(two, i));
            assert_eq!(
                snapshot(&|w| s.save_state(w)),
                snapshot(&|w| stats[i].save_state(w))
            );
            assert_eq!(
                snapshot(&|w| p.save_state(w)),
                snapshot(&|w| pair_stats[i].save_state(w))
            );
            assert_eq!(bank.load_window(fresh_one, i, &s), Some(()));
            assert_eq!(pairs.load_window(fresh_two, i, &p), Some(()));
        }
        assert_eq!(bits(&fresh), bits(&state));
    }

    #[test]
    fn a_window_of_another_rate_or_clock_does_not_load() {
        let mut bank = DampedBank::new(1.0);
        bank.push(0.1);
        let mut state = vec![0.0; bank.words()];
        bank.update(&mut state, 7.0, SEC, &mut DecayMemo::new(), None);
        let (first, second) = (bank.window(&state, 0), bank.window(&state, 1));
        let mut fresh = vec![0.0; bank.words()];
        // Window 1 under window 0's rate.
        assert_eq!(bank.load_window(&mut fresh, 0, &first), Some(()));
        let mut renamed = second;
        renamed.lambda = 1.0;
        assert_eq!(bank.load_window(&mut fresh, 1, &renamed), None);
        // Window 1 on a clock of its own.
        let mut late = second;
        late.header.last_ts += 1;
        assert_eq!(bank.load_window(&mut fresh, 1, &late), None);
        assert_eq!(bank.load_window(&mut fresh, 1, &second), Some(()));
    }

    #[test]
    fn pair_correlated_streams_have_positive_pcc() {
        let mut p = DampedPair::new(0.01);
        // a and b move together.
        for i in 0..200u64 {
            let v = (i % 10) as f64;
            p.update(v, i * SEC / 100, true);
            p.update(v * 2.0, i * SEC / 100 + 1, false);
        }
        assert!(p.pcc() > 0.5, "pcc {}", p.pcc());
        assert!(p.covariance() > 0.0);
    }

    #[test]
    fn pair_anticorrelated_streams_have_negative_pcc() {
        let mut p = DampedPair::new(0.01);
        for i in 0..200u64 {
            let v = (i % 10) as f64;
            p.update(v, i * SEC / 100, true);
            p.update(10.0 - v, i * SEC / 100 + 1, false);
        }
        assert!(p.pcc() < -0.3, "pcc {}", p.pcc());
    }

    #[test]
    fn pair_magnitude_and_radius() {
        let mut p = DampedPair::new(0.0);
        p.update(3.0, 0, true);
        p.update(4.0, 1, false);
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
            p.update(7.0, i, true); // zero variance
            p.update(i as f64, i, false);
        }
        assert_eq!(p.pcc(), 0.0);
    }
}
