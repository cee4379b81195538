//! Fixed-point quantization of frozen detectors for in-pipeline inference.
//!
//! The NIC cycle model executes integer ALU ops; running a detector *inside*
//! the extraction pipeline therefore needs the frozen float model lowered to
//! a pure-integer program. This module compiles a [`FrozenDetector`] into a
//! [`QuantizedDetector`] of Qm.n fixed-point ops:
//!
//! - **KitNET**: the input min–max normalizer folds into a per-feature
//!   affine scale/zero-point pair producing activations at `FA` fraction
//!   bits; each autoencoder becomes an integer matvec (weights at `FW`
//!   bits, shift-round back to `FA`) with the sigmoid replaced by a
//!   512-segment piecewise second-order Taylor table; RMSEs and the output
//!   normalizer stay integer end to end (integer square root,
//!   reciprocal-by-multiplication). The lowering is compiled, not walked:
//!   [`KitNetPlan`] proves the accumulator width from the rows' L1 norms
//!   (`i64` when every row fits, `i128` otherwise, and exact `f64` lanes
//!   for a tile of [`TILE`] vectors when every accumulator is below 2^53 —
//!   one kernel, generic over the accumulator and the lane count), folds
//!   what is a constant of the model (clusters over flat training
//!   dimensions, and their column of the output encoder), and streams
//!   weights from one arena into per-thread scratch.
//! - **Nearest centroid**: one global power-of-two input grid, integer dot
//!   product and norms, one rounded division for the cosine.
//! - **CART**: thresholds snap to a power-of-two grid (`floor(t·2^s)`), so
//!   routing is *exact* whenever inputs land on the grid; leaves carry the
//!   positive fraction at `FA` bits.
//!
//! Every lowering records enough metadata ([`QuantizedDetector::error_bound`])
//! to compute a worst-case |float − quantized| score bound analytically —
//! the basis of the SF09xx certification pass in `superfe-policy`. Scoring
//! is pure integer after the initial (exact, power-of-two) float-to-grid
//! conversion, hence bitwise deterministic across threads and worker
//! counts.

use crate::detector::{FittedModel, FrozenDetector, MlError, Scorer};
use crate::kitnet::KitNet;
use crate::tree::FlatNode;
use std::cell::RefCell;
use std::fmt;
use std::ops::{Add, Mul, Shl, Shr, Sub};
use std::thread::LocalKey;

/// Quantization parameters: the Qm.n format split.
#[derive(Clone, Copy, Debug)]
pub struct QuantConfig {
    /// Fraction bits of activations and scores (`FA`).
    pub frac_bits: u32,
    /// Fraction bits of weights (`FW`).
    pub weight_bits: u32,
    /// Upper bound on |feature value| used to size the input grids of the
    /// centroid and CART lowerings (KitNET's affine input layer clamps and
    /// needs no hint). The SF09xx pass derives this from the policy's
    /// SF05xx interval hull; the default covers modest feature magnitudes.
    pub max_abs_input: f64,
}

impl Default for QuantConfig {
    fn default() -> Self {
        QuantConfig {
            frac_bits: 24,
            weight_bits: 24,
            max_abs_input: (1u64 << 20) as f64,
        }
    }
}

/// Why a detector could not be quantized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuantError {
    /// The model family has no fixed-point lowering (e.g. k-NN, whose
    /// score needs the full training set at runtime).
    Unsupported(&'static str),
    /// The model or config is degenerate for the chosen Q-format.
    Degenerate(String),
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::Unsupported(name) => {
                write!(f, "detector '{name}' has no fixed-point lowering")
            }
            QuantError::Degenerate(msg) => write!(f, "quantization is degenerate: {msg}"),
        }
    }
}

impl std::error::Error for QuantError {}

/// One layer's contribution to the certified score error.
#[derive(Clone, Debug)]
pub struct LayerBound {
    /// Layer name (e.g. `"ensemble-autoencoders"`, `"output-norm"`).
    pub layer: String,
    /// The error this layer *adds* to the bound (absolute score units).
    pub bound: f64,
}

/// An analytically certified worst-case |float − quantized| score bound.
#[derive(Clone, Debug)]
pub struct ErrorBound {
    /// Total worst-case score error; `f64::INFINITY` when no finite bound
    /// is provable for the given input domain (see [`ErrorBound::culprit`]).
    pub bound: f64,
    /// Per-layer additive contributions, in evaluation order.
    pub per_layer: Vec<LayerBound>,
    /// The layer blocking certification (infinite bound) or contributing
    /// the most error (finite bound).
    pub culprit: Option<String>,
    /// CART only: the bound holds only for inputs that land exactly on the
    /// quantization grid (integer-valued features when the grid exponent is
    /// ≥ 1). Off-grid inputs can flip a split, so no general bound exists.
    pub grid_exact_only: bool,
}

// ---------------------------------------------------------------------------
// Fixed-point primitives
// ---------------------------------------------------------------------------

/// The integer a lowered KitNET accumulates in: `i64` when the width proof
/// of [`KitNetPlan::compile`] holds for the whole model, `i128` otherwise.
/// Activations are `i64` either way (they are clamped to `[0, 2^FA]`).
trait Acc:
    Copy
    + Ord
    + From<i64>
    + From<bool>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    /// The unsigned twin a sum of squared reconstruction errors runs in.
    type Sum: Copy;
    /// The empty sum.
    const NO_ERROR: Self::Sum;
    /// The low 64 bits — the value itself whenever it is an activation.
    fn low64(self) -> i64;
    /// `sum + diff²`.
    fn add_sq(sum: Self::Sum, diff: i64) -> Self::Sum;
    /// `isqrt(round(sum / n))`: the integer RMSE of `n` errors.
    fn root_mean(sum: Self::Sum, n: usize) -> i64;
}

macro_rules! impl_acc {
    ($acc:ty, $sum:ty, $isqrt:path) => {
        impl Acc for $acc {
            type Sum = $sum;
            const NO_ERROR: $sum = 0;

            fn low64(self) -> i64 {
                self as i64
            }

            fn add_sq(sum: $sum, diff: i64) -> $sum {
                let d = <$sum>::from(diff.unsigned_abs());
                sum + d * d
            }

            fn root_mean(sum: $sum, n: usize) -> i64 {
                let n = n as $sum;
                $isqrt((sum + n / 2) / n) as i64
            }
        }
    };
}

impl_acc!(i64, u64, isqrt_u64);
impl_acc!(i128, u128, isqrt_u128);

/// What a plan's arena holds and its dot products accumulate in: the
/// proved integer for one vector at a time, or — when every accumulator of
/// the model is an integer below 2^53, so every product and partial sum is
/// exact in a double — `f64` for a tile of vectors, which SSE2 multiplies
/// and adds natively. A neuron leaves its lane as the integer `Int`; the
/// shift, the sigmoid, the RMSE and the out-norm run in that.
trait Lane: Copy + Add<Output = Self> + Mul<Output = Self> {
    /// The integer the rest of a step runs in.
    type Int: Acc;
    /// How an activation is stored: it feeds the multiply as it is.
    type Act: Activation;
    /// An activation as a multiplicand.
    fn widen(a: Self::Act) -> Self;
    /// The accumulated sum as its integer, exactly.
    fn exact(self) -> Self::Int;
}

impl Lane for i64 {
    type Int = i64;
    type Act = i64;

    fn widen(a: i64) -> i64 {
        a
    }

    fn exact(self) -> i64 {
        self
    }
}

impl Lane for i128 {
    type Int = i128;
    type Act = i64;

    fn widen(a: i64) -> i128 {
        i128::from(a)
    }

    fn exact(self) -> i128 {
        self
    }
}

impl Lane for f64 {
    type Int = i64;
    type Act = f64;

    fn widen(a: f64) -> f64 {
        a
    }

    /// Exact under the proof: the double holds an integer below 2^53.
    fn exact(self) -> i64 {
        self as i64
    }
}

/// An activation slot: an `i64` in `[0, 2^FA]`, or the `f64` holding it.
trait Activation: Copy + 'static {
    /// The scoring thread's scratch of this type.
    fn scratch() -> &'static LocalKey<RefCell<Vec<Self>>>;
    fn of(v: i64) -> Self;
    fn int(self) -> i64;
}

impl Activation for i64 {
    fn scratch() -> &'static LocalKey<RefCell<Vec<i64>>> {
        &SCRATCH
    }

    fn of(v: i64) -> i64 {
        v
    }

    fn int(self) -> i64 {
        self
    }
}

impl Activation for f64 {
    fn scratch() -> &'static LocalKey<RefCell<Vec<f64>>> {
        &TILE_SCRATCH
    }

    fn of(v: i64) -> f64 {
        v as f64
    }

    fn int(self) -> i64 {
        self as i64
    }
}

/// Arithmetic right shift with round-half-away-from-zero, without a branch
/// on the sign: for `v < 0`, `−((−v + h) >> s) = (v + h − 1) >> s` because
/// `2^s − h = h` and `>>` floors.
fn rshift_round<A: Acc>(v: A, s: u32) -> A {
    if s == 0 {
        return v;
    }
    let half = A::from(1i64) << (s - 1);
    (v + half - A::from(v < A::from(0i64))) >> s
}

/// Rounded signed division (`d > 0`).
fn div_round(n: i128, d: i128) -> i128 {
    let half = d / 2;
    if n >= 0 {
        (n + half) / d
    } else {
        -((-n + half) / d)
    }
}

/// Floor integer square root.
fn isqrt_u128(v: u128) -> u128 {
    if v == 0 {
        return 0;
    }
    // Newton's method from an overestimate converges to floor(sqrt(v)).
    let bits = 128 - v.leading_zeros();
    let mut x = 1u128 << bits.div_ceil(2);
    loop {
        let y = (x + v / x) / 2;
        if y >= x {
            return x;
        }
        x = y;
    }
}

/// Floor integer square root of a `u64`: the hardware root of the nearest
/// double, corrected (the conversion and the root are each off by at most
/// one unit in the last place, so the loops run a step or two). A third of
/// the time of `u64::isqrt`, eleven times a score.
fn isqrt_u64(v: u64) -> u64 {
    const MAX_ROOT: u64 = u32::MAX as u64;
    let mut r = ((v as f64).sqrt() as u64).min(MAX_ROOT);
    while r * r > v {
        r -= 1;
    }
    while r < MAX_ROOT && (r + 1) * (r + 1) <= v {
        r += 1;
    }
    r
}

fn pow2(e: i32) -> f64 {
    (2f64).powi(e)
}

/// `x.round() as i64` for the `x ∈ [0, 2^30]` (or NaN → 0) the input affine
/// produces, without the call into libm: truncate, then add the half-away
/// carry — `x − trunc(x)` is exact below 2^52.
fn round_to_grid(x: f64) -> i64 {
    let t = x as i64;
    t + i64::from(x - t as f64 >= 0.5)
}

/// Saturating float → fixed-point grid conversion. The scale is a power of
/// two, so the multiplication is exact in f64 and the only error is the
/// final round (≤ half a grid step).
fn to_grid(v: f64, scale: f64, cap: i64) -> i64 {
    let q = (v * scale).round();
    let capf = cap as f64;
    if q.is_nan() {
        0
    } else if q >= capf {
        cap
    } else if q <= -capf {
        -cap
    } else {
        q as i64
    }
}

/// Saturation cap for grid-quantized inputs (leaves i128 headroom for
/// dot products over hundreds of dimensions).
const GRID_CAP: i64 = 1 << 41;

// ---------------------------------------------------------------------------
// Piecewise-Taylor sigmoid
// ---------------------------------------------------------------------------

/// Segments of the sigmoid table.
const SIG_SEGMENTS: usize = 512;
/// Half-width of the approximated domain `[-16, 16)`; `Δ = 32/512 = 2⁻⁴`.
const SIG_HALF_RANGE: f64 = 16.0;

/// One Taylor segment: σ(c), σ′(c), σ″(c)/2 at the segment center, at
/// `frac_bits ≤ 30` — so each fits an `i32`, and the three an evaluation
/// needs share one 16-byte slot of one cache line.
#[derive(Clone, Copy, Debug)]
#[repr(align(16))]
struct SigSegment {
    c0: i32,
    c1: i32,
    c2: i32,
}

/// σ(x) as 512 second-order Taylor segments over `[-16, 16)`, evaluated in
/// pure integer arithmetic at `frac_bits` fraction bits.
#[derive(Clone, Debug)]
struct QSigmoid {
    frac_bits: u32,
    /// `2^frac_bits`: σ = 1.
    one: i64,
    /// `-16 · 2^frac_bits`.
    lo_q: i64,
    /// `log2(Δ · 2^frac_bits)` — the segment-index shift.
    seg_shift: u32,
    /// `2^seg_shift − 1`: an offset's position inside its segment.
    seg_mask: i64,
    /// `2^(seg_shift − 1)`: a segment's center, from its start.
    half_seg: i64,
    segments: Vec<SigSegment>,
}

fn sigmoid_f(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl QSigmoid {
    fn build(frac_bits: u32) -> Self {
        let scale = pow2(frac_bits as i32);
        let delta = 2.0 * SIG_HALF_RANGE / SIG_SEGMENTS as f64;
        let segments = (0..SIG_SEGMENTS)
            .map(|k| {
                let c = -SIG_HALF_RANGE + (k as f64 + 0.5) * delta;
                let s = sigmoid_f(c);
                let d1 = s * (1.0 - s);
                let d2_half = d1 * (1.0 - 2.0 * s) / 2.0;
                SigSegment {
                    c0: (s * scale).round() as i32,
                    c1: (d1 * scale).round() as i32,
                    c2: (d2_half * scale).round() as i32,
                }
            })
            .collect();
        // Δ = 2⁻⁴, so a segment spans 2^(frac_bits − 4) grid units.
        let seg_shift = frac_bits - 4;
        QSigmoid {
            frac_bits,
            one: 1 << frac_bits,
            lo_q: -((SIG_HALF_RANGE * scale) as i64),
            seg_shift,
            seg_mask: (1 << seg_shift) - 1,
            half_seg: 1 << (seg_shift - 1),
            segments,
        }
    }

    /// σ(z/2^frac_bits) at `frac_bits` fraction bits, clamped to `[0, 1]`.
    ///
    /// All in `i64`, whatever the model's accumulator: `|u| ≤ 2^(FA−5)` and
    /// `|c1|, |c2| < 2^(FA−2)`, so each of the three products is below
    /// `2^(2·FA−7) ≤ 2^53` for every legal `frac_bits`. `u` is `z` less its
    /// segment's center, `lo_q + k·2^s + 2^(s−1)`: the offset's low `s`
    /// bits less half a segment. Inlined by force, as are [`layer`] and its
    /// tails: out of line, the sigmoid was a call per lane, and a tile of
    /// Kitsune vectors scored ~1.1× faster than one at a time, not ~1.25×.
    #[inline(always)]
    fn eval(&self, z: i64) -> i64 {
        if z <= self.lo_q {
            return 0;
        }
        if z >= -self.lo_q {
            return self.one;
        }
        let off = z - self.lo_q;
        let SigSegment { c0, c1, c2 } = self.segments[(off >> self.seg_shift) as usize];
        let u = (off & self.seg_mask) - self.half_seg;
        let fa = self.frac_bits;
        let t1 = rshift_round(i64::from(c1) * u, fa);
        let u2 = rshift_round(u * u, fa);
        let t2 = rshift_round(i64::from(c2) * u2, fa);
        (i64::from(c0) + t1 + t2).clamp(0, self.one)
    }

    /// Certified |table − σ| bound: Taylor remainder + tail clamp +
    /// coefficient and evaluation rounding.
    fn approx_error(frac_bits: u32) -> f64 {
        let half_step = SIG_HALF_RANGE / SIG_SEGMENTS as f64; // Δ/2
        let taylor = 0.25 / 6.0 * half_step.powi(3); // |σ‴| ≤ 1/4
        let tail = sigmoid_f(-SIG_HALF_RANGE);
        let rounding = 4.0 * pow2(-(frac_bits as i32 + 1));
        taylor + tail + rounding
    }
}

// ---------------------------------------------------------------------------
// Quantized KitNET: the lowered tree
// ---------------------------------------------------------------------------

/// Per-feature affine input quantization (the min–max normalizer folded
/// into fixed point): `x_q = round(clamp((x − min)/range, 0, 1) · 2^FA)`,
/// flat ranges pinned to exactly ½.
#[derive(Clone, Debug)]
struct QAffine {
    mins: Vec<f64>,
    /// `≤ 0` marks a flat (constant) dimension.
    ranges: Vec<f64>,
}

/// One out-normalizer dimension in fixed point.
#[derive(Clone, Debug)]
enum QNormEntry {
    /// Flat training range → exactly ½.
    Flat,
    /// `clamp((r_q − min_q) · m / 2^t, 0, 2^FA)` with `m/2^t ≈ 1/range`.
    Affine {
        min_q: i64,
        m: i64,
        t: u32,
        /// The float range, kept for the error bound.
        range: f64,
    },
}

impl QNormEntry {
    fn eval<A: Acc>(&self, r_q: i64, frac_bits: u32) -> i64 {
        let one = 1i64 << frac_bits;
        match self {
            QNormEntry::Flat => one / 2,
            QNormEntry::Affine { min_q, m, t, .. } => {
                let v = rshift_round(A::from(r_q - min_q) * A::from(*m), *t);
                v.clamp(A::from(0i64), A::from(one)).low64()
            }
        }
    }

    /// Whether [`QNormEntry::eval`] fits an `i64` accumulator for every RMSE
    /// `r_q ∈ [0, 2^FA]`: `(2^FA + |min_q|) · m + 2^(t−1) < 2^63`.
    fn fits_i64(&self, frac_bits: u32) -> bool {
        match self {
            QNormEntry::Flat => true,
            QNormEntry::Affine { min_q, m, t, .. } => {
                let span = (1u128 << frac_bits) + u128::from(min_q.unsigned_abs());
                *t < 63 && span * u128::from(m.unsigned_abs()) + (1u128 << *t) < 1u128 << 63
            }
        }
    }
}

/// Builds the `(m, t)` reciprocal pair with ≥ 25 significant bits:
/// `m/2^t ≈ 1/range`.
fn recip(range: f64) -> Option<(i64, u32)> {
    if !(range.is_finite() && range > 0.0) {
        return None;
    }
    let l = range.log2().floor() as i32;
    let t = (l + 26).max(0);
    let m = (pow2(t) / range).round();
    if !(m.is_finite() && m >= 1.0 && m < pow2(62)) {
        return None;
    }
    Some((m as i64, t as u32))
}

/// One autoencoder in fixed point: weights at `FW` bits, biases at
/// `FA + FW` bits so the accumulated pre-activation sits at `FA + FW`.
#[derive(Clone, Debug)]
struct QAutoencoder {
    d: usize,
    h: usize,
    w1: Vec<i64>,
    b1: Vec<i64>,
    w2: Vec<i64>,
    b2: Vec<i64>,
    /// Max row L1 norm of the *quantized* encoder weights (real units).
    w1_row_l1: f64,
    /// Max row L1 norm of the *quantized* decoder weights (real units).
    w2_row_l1: f64,
}

impl QAutoencoder {
    fn build(ae: &crate::autoencoder::Autoencoder, frac_bits: u32, weight_bits: u32) -> Self {
        let d = ae.input_dim();
        let h = ae.hidden_dim();
        let (w1, b1, w2, b2) = ae.weights();
        let ws = pow2(weight_bits as i32);
        let bs = pow2((frac_bits + weight_bits) as i32);
        let qw = |w: &[f64]| -> Vec<i64> { w.iter().map(|&v| (v * ws).round() as i64).collect() };
        let qb = |b: &[f64]| -> Vec<i64> { b.iter().map(|&v| (v * bs).round() as i64).collect() };
        let w1 = qw(w1);
        let w2 = qw(w2);
        let row_l1 = |w: &[i64], cols: usize| -> f64 {
            w.chunks_exact(cols)
                .map(|row| row.iter().map(|&v| v.abs() as f64).sum::<f64>() / ws)
                .fold(0.0, f64::max)
        };
        QAutoencoder {
            d,
            h,
            w1_row_l1: row_l1(&w1, d),
            w2_row_l1: row_l1(&w2, h),
            w1,
            b1: qb(b1),
            w2,
            b2: qb(b2),
        }
    }

    /// The largest magnitude an accumulator of this autoencoder can reach,
    /// bias, any prefix of the dot product and the rounding half included:
    /// `max over rows of |b_q| + ‖w_q,row‖₁ · 2^FA + 2^(FW−1)`. Every
    /// activation entering a row is in `[0, 2^FA]`.
    fn acc_bound(&self, frac_bits: u32, weight_bits: u32) -> u128 {
        let rows = |w: &[i64], b: &[i64], cols: usize| -> u128 {
            w.chunks_exact(cols)
                .zip(b)
                .map(|(row, &b)| {
                    let l1: u128 = row.iter().map(|&v| u128::from(v.unsigned_abs())).sum();
                    u128::from(b.unsigned_abs()) + (l1 << frac_bits)
                })
                .max()
                .unwrap_or(0)
        };
        rows(&self.w1, &self.b1, self.d).max(rows(&self.w2, &self.b2, self.h))
            + (1u128 << (weight_bits - 1))
    }

    /// Propagates an input L∞ error through this autoencoder to an output
    /// L∞ error (inputs assumed in `[0, 1]` up to `eps_in`).
    fn propagate_error(&self, eps_in: f64, eps_sig: f64, fa: i32, fw: i32) -> f64 {
        let shift_round = pow2(-(fa + 1));
        let bias_round = pow2(-(fa + fw + 1));
        let w_round = pow2(-(fw + 1));
        let eps_z1 = self.w1_row_l1 * eps_in + self.d as f64 * w_round + shift_round + bias_round;
        let eps_hid = eps_sig + eps_z1 / 4.0;
        let eps_z2 = self.w2_row_l1 * eps_hid + self.h as f64 * w_round + shift_round + bias_round;
        eps_sig + eps_z2 / 4.0
    }

    /// ALU ops of one forward pass + RMSE.
    fn alu_ops(&self) -> u64 {
        const SIG_OPS: u64 = 8;
        const ISQRT_OPS: u64 = 40;
        let (d, h) = (self.d as u64, self.h as u64);
        h * (2 * d + 2 + SIG_OPS) + d * (2 * h + 2 + SIG_OPS) + 3 * d + ISQRT_OPS
    }
}

/// A trained KitNET lowered to fixed point, still in the shape of the float
/// model: what the certificate, the cost and [`KitNetPlan::compile`] read.
#[derive(Clone, Debug)]
struct QKitNet {
    input: QAffine,
    clusters: Vec<Vec<usize>>,
    ensemble: Vec<QAutoencoder>,
    out_norm: Vec<QNormEntry>,
    output: QAutoencoder,
    sigmoid: QSigmoid,
}

impl QKitNet {
    fn build(k: &KitNet, cfg: &QuantConfig) -> Result<Self, QuantError> {
        let (mins, maxs) = k.input_norm().ranges();
        if mins.len() != k.dim() {
            return Err(QuantError::Degenerate(
                "input normalizer dimension mismatch".into(),
            ));
        }
        let input = QAffine {
            mins: mins.to_vec(),
            ranges: mins.iter().zip(maxs).map(|(lo, hi)| hi - lo).collect(),
        };
        if input.mins.iter().any(|v| !v.is_finite()) || input.ranges.iter().any(|v| !v.is_finite())
        {
            return Err(QuantError::Degenerate("non-finite normalizer range".into()));
        }
        let output_ae = k
            .output_layer()
            .expect("an executing KitNET has its output layer");
        let ensemble: Vec<QAutoencoder> = k
            .ensemble()
            .iter()
            .map(|ae| QAutoencoder::build(ae, cfg.frac_bits, cfg.weight_bits))
            .collect();
        let (omins, omaxs) = k.output_norm().ranges();
        if omins.len() != ensemble.len() {
            return Err(QuantError::Degenerate(
                "output normalizer dimension mismatch".into(),
            ));
        }
        let scale = pow2(cfg.frac_bits as i32);
        let mut out_norm = Vec::with_capacity(omins.len());
        for (&lo, &hi) in omins.iter().zip(omaxs) {
            let range = hi - lo;
            if range <= 0.0 {
                out_norm.push(QNormEntry::Flat);
            } else {
                let (m, t) = recip(range).ok_or_else(|| {
                    QuantError::Degenerate(format!("output-norm range {range} not representable"))
                })?;
                out_norm.push(QNormEntry::Affine {
                    min_q: (lo * scale).round() as i64,
                    m,
                    t,
                    range,
                });
            }
        }
        Ok(QKitNet {
            input,
            clusters: k.feature_clusters().to_vec(),
            ensemble,
            out_norm,
            output: QAutoencoder::build(output_ae, cfg.frac_bits, cfg.weight_bits),
            sigmoid: QSigmoid::build(cfg.frac_bits),
        })
    }

    fn error_bound(&self, frac_bits: u32, weight_bits: u32) -> ErrorBound {
        let fa = frac_bits as i32;
        let fw = weight_bits as i32;
        let eps_sig = QSigmoid::approx_error(frac_bits);
        let rmse_round = pow2(-(fa - 1));
        // Input affine layer: an exact power-of-two scale, one round.
        let eps_xn = pow2(-(fa + 1));
        // Ensemble: worst autoencoder, plus the integer-RMSE rounding.
        let eps_r = self
            .ensemble
            .iter()
            .map(|ae| ae.propagate_error(eps_xn, eps_sig, fa, fw).max(eps_xn) + rmse_round)
            .fold(0.0, f64::max);
        // Output normalizer: (eps_r + min rounding)/range, reciprocal
        // relative error, shift rounding. Clamping is 1-Lipschitz, so the
        // unclamped bound transfers.
        let eps_rn = self
            .out_norm
            .iter()
            .map(|e| match e {
                QNormEntry::Flat => 0.0,
                QNormEntry::Affine { range, .. } => {
                    (eps_r + 2.0 * pow2(-(fa + 1))) / range + 2.0 * pow2(-25) + pow2(-fa)
                }
            })
            .fold(0.0, f64::max);
        // Output autoencoder + final integer RMSE.
        let bound = self
            .output
            .propagate_error(eps_rn, eps_sig, fa, fw)
            .max(eps_rn)
            + rmse_round;
        let per_layer = vec![
            LayerBound {
                layer: "input-quantization".into(),
                bound: eps_xn,
            },
            LayerBound {
                layer: "ensemble-autoencoders".into(),
                bound: (eps_r - eps_xn).max(0.0),
            },
            LayerBound {
                layer: "output-norm".into(),
                bound: (eps_rn - eps_r).max(0.0),
            },
            LayerBound {
                layer: "output-autoencoder".into(),
                bound: (bound - eps_rn).max(0.0),
            },
        ];
        let culprit = per_layer
            .iter()
            .max_by(|a, b| a.bound.partial_cmp(&b.bound).expect("finite layer bounds"))
            .map(|l| l.layer.clone());
        ErrorBound {
            bound,
            per_layer,
            culprit,
            grid_exact_only: false,
        }
    }

    fn alu_ops(&self) -> u64 {
        let input = 3 * self.input.mins.len() as u64;
        let ensemble: u64 = self.ensemble.iter().map(QAutoencoder::alu_ops).sum();
        let norm = 4 * self.out_norm.len() as u64;
        input + ensemble + norm + self.output.alu_ops()
    }
}

// ---------------------------------------------------------------------------
// Quantized KitNET: the compiled plan
// ---------------------------------------------------------------------------

/// What KitNET lowering folded away because it is a constant of the model
/// (see [`QuantizedDetector::folded`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Folded {
    /// Ensemble autoencoders replaced by their constant normalised RMSE:
    /// clusters whose every input is a flat training dimension.
    pub clusters: usize,
    /// Ensemble autoencoders of the model.
    pub of_clusters: usize,
    /// Autoencoder inputs summed into a first-layer bias because they are
    /// constants: the output layer's inputs from folded clusters, and flat
    /// dimensions inside a cluster that is not flat throughout.
    pub bias_inputs: usize,
    /// Multiply-accumulates per score the folded program no longer does.
    pub macs: u64,
    /// Multiply-accumulates per score of the unfolded program.
    pub of_macs: u64,
}

impl Folded {
    /// Counts the constant inputs of an autoencoder with `h` hidden units:
    /// each is one column of the encoder summed into its biases.
    fn bias(&mut self, consts: &[Option<i64>], h: usize) {
        let n = consts.iter().flatten().count();
        self.bias_inputs += n;
        self.macs += (n * h) as u64;
    }
}

/// One live input feature: `act[slot] = round(clamp((x[src] − min)/range, 0,
/// 1) · 2^FA)`, the gather into its autoencoder's input block included.
#[derive(Clone, Copy, Debug)]
struct InputOp {
    slot: usize,
    src: usize,
    min: f64,
    range: f64,
}

/// One autoencoder of the plan. Its inputs are `d` consecutive activation
/// slots from `at`, permuted so the `live` ones (which vary with the scored
/// vector) come first and the constants of the model last; the constants
/// are already summed into the encoder biases and pre-set in the plan's
/// activation template. The decoder rows follow the same order — an
/// integer sum of squares does not care which.
#[derive(Clone, Debug)]
struct AeStep {
    at: usize,
    d: usize,
    live: usize,
    h: usize,
    /// An ensemble step's out-normalizer entry: its normalised RMSE is the
    /// next live input of the output step. `None` for the output step
    /// itself, whose RMSE is the score.
    norm: Option<QNormEntry>,
}

impl AeStep {
    /// Arena elements of the encoder: `h` rows of a bias and `live` weights.
    fn encoder_len(&self) -> usize {
        self.h * (self.live + 1)
    }

    /// Arena elements of the step: the encoder, then `d` decoder rows of a
    /// bias and `h` weights.
    fn arena_len(&self) -> usize {
        self.encoder_len() + self.d * (self.h + 1)
    }

    /// Appends `ae` to `arena` and its input block to `template`;
    /// `consts[j]` is `Some(c)` for an input that is the constant `c`.
    /// Folding a constant column into the bias is exact: the accumulator
    /// never overflows (the reference runs it in `i128`, the narrow plan
    /// under the width proof, whose bound covers every partial sum), and
    /// integer addition is associative.
    fn lower(
        ae: &QAutoencoder,
        consts: &[Option<i64>],
        arena: &mut Vec<i128>,
        template: &mut Vec<i64>,
    ) -> AeStep {
        let (d, h) = (ae.d, ae.h);
        let (fixed, live): (Vec<usize>, Vec<usize>) = (0..d).partition(|&j| consts[j].is_some());
        let at = template.len();
        template.resize(at + live.len(), 0);
        template.extend(consts.iter().flatten());
        for (row, &b) in ae.w1.chunks_exact(d).zip(&ae.b1) {
            let folded: i128 = consts
                .iter()
                .zip(row)
                .filter_map(|(c, &w)| c.map(|c| i128::from(w) * i128::from(c)))
                .sum();
            arena.push(i128::from(b) + folded);
            arena.extend(live.iter().map(|&j| i128::from(row[j])));
        }
        for &j in live.iter().chain(&fixed) {
            arena.push(i128::from(ae.b2[j]));
            arena.extend(ae.w2[j * h..(j + 1) * h].iter().map(|&w| i128::from(w)));
        }
        AeStep {
            at,
            d,
            live: live.len(),
            h,
            norm: None,
        }
    }

    /// Integer reconstruction RMSEs of `L` vectors at `FA` fraction bits;
    /// `arena` is this step's [`AeStep::arena_len`] elements, `inp` its
    /// block of activations and `hid` the hidden layer, both slot-major
    /// (`L` lanes a slot).
    fn rmse<A: Lane, const L: usize>(
        &self,
        arena: &[A],
        inp: &[A::Act],
        hid: &mut [A::Act],
        sig: &QSigmoid,
        weight_bits: u32,
    ) -> [i64; L] {
        let (encoder, decoder) = arena.split_at(self.encoder_len());
        let hid = &mut hid[..self.h * L];
        let (hid_lanes, _) = hid.as_chunks_mut::<L>();
        layer::<A, L>(
            encoder,
            self.live + 1,
            &inp[..self.live * L],
            #[inline(always)]
            |i, acc| {
                for (o, acc) in hid_lanes[i].iter_mut().zip(acc) {
                    *o = A::Act::of(sig.eval(shift(acc, weight_bits)));
                }
            },
        );
        let mut sum = [<A::Int as Acc>::NO_ERROR; L];
        let (inp_lanes, _) = inp.as_chunks::<L>();
        layer::<A, L>(
            decoder,
            self.h + 1,
            hid,
            #[inline(always)]
            |j, acc| {
                for ((sum, x), acc) in sum.iter_mut().zip(&inp_lanes[j]).zip(acc) {
                    *sum = A::Int::add_sq(*sum, x.int() - sig.eval(shift(acc, weight_bits)));
                }
            },
        );
        sum.map(|sum| A::Int::root_mean(sum, self.d))
    }
}

/// [`neuron`] of every row of `rows` (`width` elements each) over `x`,
/// handing each row's sums to `emit` with the row's index — one row late,
/// so a row's dot products are issued ahead of the previous row's integer
/// tail and the two overlap.
#[inline(always)]
fn layer<A: Lane, const L: usize>(
    rows: &[A],
    width: usize,
    x: &[A::Act],
    mut emit: impl FnMut(usize, [A; L]),
) {
    let mut rows = rows.chunks_exact(width);
    let Some(first) = rows.next() else {
        return;
    };
    let mut acc = neuron::<A, L>(first, x);
    let mut i = 0;
    for row in rows {
        let next = neuron::<A, L>(row, x);
        emit(i, acc);
        (acc, i) = (next, i + 1);
    }
    emit(i, acc);
}

/// `bias + w · x` of one arena row `[bias, weights…]` for each of `L`
/// vectors, `x` slot-major: the row streams once for all lanes.
fn neuron<A: Lane, const L: usize>(row: &[A], x: &[A::Act]) -> [A; L] {
    let mut acc = [row[0]; L];
    for (&w, x) in row[1..].iter().zip(x.as_chunks::<L>().0) {
        for (acc, &x) in acc.iter_mut().zip(x) {
            *acc = *acc + w * A::widen(x);
        }
    }
    acc
}

/// A neuron's sum shifted from `FA + FW` back to `FA` fraction bits.
fn shift<A: Lane>(acc: A, weight_bits: u32) -> i64 {
    rshift_round(acc.exact(), weight_bits).low64()
}

/// The plan's weights and biases, every step's rows in evaluation order, at
/// the width the model was proved to need.
#[derive(Clone, Debug)]
enum Arena {
    Narrow(Vec<i64>),
    Wide(Vec<i128>),
}

/// Vectors a tile of an exact-f64 plan scores in one pass.
const TILE: usize = 16;

/// The arithmetic lowering proved a KitNET's scores need (see
/// [`QuantizedDetector::kernel_width`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelWidth {
    /// Every accumulator is an integer below 2^53: full tiles of vectors
    /// run in `f64` lanes, single vectors in `i64`.
    ExactF64,
    /// Every accumulator fits 64 bits.
    I64,
    /// The rest: 128-bit accumulators.
    I128,
}

impl fmt::Display for KernelWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelWidth::ExactF64 => "exact-f64",
            KernelWidth::I64 => "i64",
            KernelWidth::I128 => "i128",
        })
    }
}

thread_local! {
    /// The scoring thread's activations and hidden layer. Scratch is not
    /// part of the model (which is shared read-only across shards), and it
    /// is overwritten from the plan's template on every score, so models
    /// can share it; it grows to the largest plan the thread has scored
    /// and is never allocated again.
    static SCRATCH: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };
    /// The same for a tile of [`TILE`] vectors in `f64` lanes.
    static TILE_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// A KitNET compiled for scoring: [`QKitNet`] with its accumulator width
/// proved, its constants folded and its weights laid out to be streamed.
#[derive(Clone, Debug)]
struct KitNetPlan {
    frac_bits: u32,
    weight_bits: u32,
    /// `2^FA`, the input affine's scale.
    scale: f64,
    /// Live input features in slot order.
    input: Vec<InputOp>,
    /// The activation slots before a score: constants set, the rest zero.
    template: Vec<i64>,
    /// Hidden units of the widest step (scratch after the activations).
    hidden: usize,
    /// The unfolded ensemble autoencoders in cluster order, then the
    /// output autoencoder.
    steps: Vec<AeStep>,
    arena: Arena,
    /// The arena as exact doubles, when the model is exact-f64: what full
    /// tiles stream.
    lanes: Option<Vec<f64>>,
    sigmoid: QSigmoid,
    folded: Folded,
    /// The certificate and cost of the *unfolded* tree the plan came from.
    bound: ErrorBound,
    alu_ops: u64,
}

impl KitNetPlan {
    fn compile(tree: &QKitNet, frac_bits: u32, weight_bits: u32) -> Self {
        let half = 1i64 << (frac_bits - 1);
        let flat = |i: usize| tree.input.ranges[i] <= 0.0;
        let macs = |ae: &QAutoencoder| 2 * (ae.d * ae.h) as u64;
        let members = || tree.clusters.iter().zip(&tree.ensemble).zip(&tree.out_norm);
        let mut folded = Folded {
            of_clusters: tree.ensemble.len(),
            of_macs: tree.ensemble.iter().map(macs).sum::<u64>() + macs(&tree.output),
            ..Folded::default()
        };

        // A cluster over flat dimensions only sees ½ everywhere whatever the
        // vector: its normalised RMSE is a constant, computed here once by
        // the kernel that would have computed it per score.
        let constants: Vec<Option<i64>> = members()
            .map(|((cluster, ae), norm)| {
                cluster.iter().all(|&i| flat(i)).then(|| {
                    let (mut arena, mut inp) = (Vec::new(), Vec::new());
                    let step = AeStep::lower(ae, &vec![None; ae.d], &mut arena, &mut inp);
                    inp.fill(half);
                    let mut hid = vec![0; ae.h];
                    let [r] =
                        step.rmse::<i128, 1>(&arena, &inp, &mut hid, &tree.sigmoid, weight_bits);
                    norm.eval::<i128>(r, frac_bits)
                })
            })
            .collect();

        let (mut arena, mut template) = (Vec::new(), Vec::new());
        let (mut input, mut steps) = (Vec::new(), Vec::new());
        for (((cluster, ae), norm), constant) in members().zip(&constants) {
            if constant.is_some() {
                folded.clusters += 1;
                folded.macs += macs(ae);
                continue;
            }
            let consts: Vec<Option<i64>> =
                cluster.iter().map(|&i| flat(i).then_some(half)).collect();
            folded.bias(&consts, ae.h);
            let mut step = AeStep::lower(ae, &consts, &mut arena, &mut template);
            let live = cluster.iter().filter(|&&i| !flat(i));
            input.extend((step.at..).zip(live).map(|(slot, &src)| InputOp {
                slot,
                src,
                min: tree.input.mins[src],
                range: tree.input.ranges[src],
            }));
            step.norm = Some(norm.clone());
            steps.push(step);
        }
        // The unfolded clusters, in order, are the live inputs of the output
        // step and so the head of its block: where `run` puts their RMSEs.
        folded.bias(&constants, tree.output.h);
        steps.push(AeStep::lower(
            &tree.output,
            &constants,
            &mut arena,
            &mut template,
        ));

        // The width proof, over the unfolded rows (a folded bias is a
        // partial sum of its row, so the same bound covers it): every
        // accumulator, every out-norm product and every sum of squared
        // errors of the model fits 64 bits, or the whole model runs wide.
        let all = || tree.ensemble.iter().chain([&tree.output]);
        let narrow = all().all(|ae| ae.acc_bound(frac_bits, weight_bits) < 1u128 << 63)
            && all()
                .all(|ae| ((ae.d as u128) << (2 * frac_bits)) + (ae.d as u128) / 2 < 1u128 << 64)
            && tree.out_norm.iter().all(|n| n.fits_i64(frac_bits));
        // Below 2^53 every product, partial sum and folded bias is an
        // integer a double holds exactly, in any order of summation.
        let exact = narrow && all().all(|ae| ae.acc_bound(frac_bits, weight_bits) < 1u128 << 53);
        let lanes = exact.then(|| arena.iter().map(|&v| v as f64).collect());
        let arena = if narrow {
            Arena::Narrow(
                arena
                    .iter()
                    .map(|&v| i64::try_from(v).expect("bounded by the width proof"))
                    .collect(),
            )
        } else {
            Arena::Wide(arena)
        };

        KitNetPlan {
            frac_bits,
            weight_bits,
            scale: pow2(frac_bits as i32),
            input,
            template,
            hidden: steps.iter().map(|s| s.h).max().unwrap_or(0),
            steps,
            arena,
            lanes,
            sigmoid: tree.sigmoid.clone(),
            folded,
            bound: tree.error_bound(frac_bits, weight_bits),
            alu_ops: tree.alu_ops(),
        }
    }

    /// Integer score of a vector of the model's dimension: one lane at the
    /// proved integer width.
    fn score_q(&self, x: &[f64]) -> i64 {
        let [q] = match &self.arena {
            Arena::Narrow(arena) => self.score_lanes::<i64, 1>(arena, [x]),
            Arena::Wide(arena) => self.score_lanes::<i128, 1>(arena, [x]),
        };
        q
    }

    /// Integer scores of `L` vectors of the model's dimension, their
    /// activations slot-major in the thread's scratch.
    fn score_lanes<A: Lane, const L: usize>(&self, arena: &[A], xs: [&[f64]; L]) -> [i64; L] {
        A::Act::scratch().with_borrow_mut(|scratch| {
            let slots = self.template.len() * L;
            let need = slots + self.hidden * L;
            if scratch.len() < need {
                scratch.resize(need, A::Act::of(0));
            }
            let (act, hid) = scratch.split_at_mut(slots);
            for (lanes, &t) in act.as_chunks_mut::<L>().0.iter_mut().zip(&self.template) {
                *lanes = [A::Act::of(t); L];
            }
            for (lane, x) in xs.iter().enumerate() {
                for op in &self.input {
                    // Same f64 expression as MinMaxNorm::transform, then an
                    // exact power-of-two scale and one round.
                    let n = ((x[op.src] - op.min) / op.range).clamp(0.0, 1.0);
                    act[op.slot * L + lane] = A::Act::of(round_to_grid(n * self.scale));
                }
            }
            self.run::<A, L>(arena, act, hid)
        })
    }

    /// The one kernel: every step in order, each streaming its rows off the
    /// front of the arena once for all `L` lanes, the ensemble's normalised
    /// RMSEs filling the head of the output step's block as they come.
    fn run<A: Lane, const L: usize>(
        &self,
        mut arena: &[A],
        act: &mut [A::Act],
        hid: &mut [A::Act],
    ) -> [i64; L] {
        let mut next_rmse = self.steps.last().map_or(0, |output| output.at);
        let mut rmse = [0; L];
        for step in &self.steps {
            let (rows, rest) = arena.split_at(step.arena_len());
            arena = rest;
            let inp = &act[step.at * L..(step.at + step.d) * L];
            rmse = step.rmse::<A, L>(rows, inp, hid, &self.sigmoid, self.weight_bits);
            if let Some(norm) = &step.norm {
                let lanes = &mut act[next_rmse * L..(next_rmse + 1) * L];
                for (a, &r) in lanes.iter_mut().zip(&rmse) {
                    *a = A::Act::of(norm.eval::<A::Int>(r, self.frac_bits));
                }
                next_rmse += 1;
            }
        }
        rmse
    }

    /// The width lowering proved.
    fn width(&self) -> KernelWidth {
        match (&self.arena, &self.lanes) {
            (_, Some(_)) => KernelWidth::ExactF64,
            (Arena::Narrow(_), None) => KernelWidth::I64,
            (Arena::Wide(_), None) => KernelWidth::I128,
        }
    }
}

// ---------------------------------------------------------------------------
// Quantized nearest centroid
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct QCentroid {
    /// Grid exponent: `x_q = round(x · 2^in_shift)` (may be negative —
    /// a coarser-than-integer grid for large feature magnitudes).
    in_shift: i32,
    c_q: Vec<i64>,
    /// `isqrt(Σ c_q²)` precomputed.
    c_norm_q: i64,
    /// Float centroid L2 norm, for the error bound.
    c_norm_f: f64,
}

impl QCentroid {
    fn build(centroid: &[f64], cfg: &QuantConfig) -> Result<Self, QuantError> {
        let in_shift = grid_shift(cfg.max_abs_input, 40)?;
        let scale = pow2(in_shift);
        let mut c_q = Vec::with_capacity(centroid.len());
        for &v in centroid {
            let q = (v * scale).round();
            if !(q.is_finite() && q.abs() <= GRID_CAP as f64) {
                return Err(QuantError::Degenerate(format!(
                    "centroid coordinate {v} exceeds the Q-format input range"
                )));
            }
            c_q.push(q as i64);
        }
        let n2: u128 = c_q
            .iter()
            .map(|&v| (i128::from(v) * i128::from(v)) as u128)
            .sum();
        let c_norm_f = centroid.iter().map(|v| v * v).sum::<f64>().sqrt();
        Ok(QCentroid {
            in_shift,
            c_q,
            c_norm_q: isqrt_u128(n2) as i64,
            c_norm_f,
        })
    }

    /// `1 − cos(x, c)` at `frac_bits` fraction bits. A zero-norm side
    /// yields cosine 0 (score exactly 1), mirroring the float model.
    fn score_q(&self, x: &[f64], frac_bits: u32) -> i64 {
        let scale = pow2(self.in_shift);
        let one = 1i128 << frac_bits;
        let mut dot: i128 = 0;
        let mut nx2: u128 = 0;
        for (&c, &v) in self.c_q.iter().zip(x) {
            let xq = to_grid(v, scale, GRID_CAP);
            dot += i128::from(xq) * i128::from(c);
            nx2 += (i128::from(xq) * i128::from(xq)) as u128;
        }
        let na = isqrt_u128(nx2) as i128;
        let nb = i128::from(self.c_norm_q);
        if na == 0 || nb == 0 {
            return one as i64;
        }
        let cos = div_round(dot.saturating_mul(one), na * nb).clamp(-one, one);
        (one - cos) as i64
    }

    fn error_bound(&self, domain: &[(f64, f64)], frac_bits: u32) -> ErrorBound {
        let unprovable = |layer: &str| ErrorBound {
            bound: f64::INFINITY,
            per_layer: Vec::new(),
            culprit: Some(layer.to_string()),
            grid_exact_only: false,
        };
        if domain
            .iter()
            .any(|(lo, hi)| !(lo.is_finite() && hi.is_finite()))
        {
            return unprovable("input-interval");
        }
        // Hull must fit the grid without saturation.
        let max_abs = domain
            .iter()
            .map(|(lo, hi)| lo.abs().max(hi.abs()))
            .fold(0.0, f64::max);
        if max_abs * pow2(self.in_shift) > GRID_CAP as f64 {
            return unprovable("input-scale");
        }
        // Cosine needs a positive lower bound on ‖x‖ over the domain.
        let l2: f64 = domain
            .iter()
            .map(|(lo, hi)| {
                if *lo <= 0.0 && *hi >= 0.0 {
                    0.0
                } else {
                    lo.abs().min(hi.abs()).powi(2)
                }
            })
            .sum();
        let l = l2.sqrt();
        if l <= 0.0 {
            return unprovable("input-norm");
        }
        if self.c_norm_f <= 0.0 {
            return unprovable("centroid-norm");
        }
        let d = self.c_q.len() as f64;
        let eps_grid = pow2(-(self.in_shift + 1));
        let input = 2.0 * d.sqrt() * eps_grid / l;
        let centroid = 2.0 * d.sqrt() * eps_grid / self.c_norm_f;
        let cosine = 2.0 / (l * pow2(self.in_shift))
            + 2.0 / (self.c_norm_f * pow2(self.in_shift))
            + pow2(-(frac_bits as i32 - 1));
        let per_layer = vec![
            LayerBound {
                layer: "input-quantization".into(),
                bound: input,
            },
            LayerBound {
                layer: "centroid-quantization".into(),
                bound: centroid,
            },
            LayerBound {
                layer: "integer-cosine".into(),
                bound: cosine,
            },
        ];
        let culprit = per_layer
            .iter()
            .max_by(|a, b| a.bound.partial_cmp(&b.bound).expect("finite layer bounds"))
            .map(|lb| lb.layer.clone());
        ErrorBound {
            bound: input + centroid + cosine,
            per_layer,
            culprit,
            grid_exact_only: false,
        }
    }

    fn alu_ops(&self) -> u64 {
        const ISQRT_OPS: u64 = 40;
        6 * self.c_q.len() as u64 + 2 * ISQRT_OPS + 8
    }
}

/// Largest grid exponent keeping `max_abs · 2^s ≤ 2^cap_bits`.
fn grid_shift(max_abs: f64, cap_bits: i32) -> Result<i32, QuantError> {
    if !(max_abs.is_finite() && max_abs > 0.0) {
        return Err(QuantError::Degenerate(format!(
            "input magnitude hint {max_abs} is not a positive finite value"
        )));
    }
    let s = (f64::from(cap_bits) - max_abs.log2()).floor() as i32;
    if s < -60 {
        return Err(QuantError::Degenerate(format!(
            "input magnitude hint {max_abs} exceeds any representable grid"
        )));
    }
    Ok(s.min(40))
}

// ---------------------------------------------------------------------------
// Quantized CART
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum QCartNode {
    Leaf {
        p_pos_q: i64,
    },
    Split {
        feature: u32,
        thr_q: i64,
        left: u32,
        right: u32,
    },
}

#[derive(Clone, Debug)]
struct QCart {
    nodes: Vec<QCartNode>,
    in_shift: i32,
    depth: u32,
}

impl QCart {
    fn build(flat: &[FlatNode], cfg: &QuantConfig) -> Result<Self, QuantError> {
        // CART thresholds must stay exactly representable after scaling, so
        // cap the grid at frac_bits even when the hull would allow finer.
        let in_shift = grid_shift(cfg.max_abs_input, 40)?.min(cfg.frac_bits as i32);
        let scale = pow2(in_shift);
        let pscale = pow2(cfg.frac_bits as i32);
        let mut nodes = Vec::with_capacity(flat.len());
        for n in flat {
            match n {
                FlatNode::Leaf { p_pos } => nodes.push(QCartNode::Leaf {
                    p_pos_q: (p_pos * pscale).round() as i64,
                }),
                FlatNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    // floor(t · 2^s): with x on the grid, `x ≤ t` ⟺
                    // `x_q ≤ thr_q` — routing is exact.
                    let t = (threshold * scale).floor();
                    if !(t.is_finite() && t.abs() < pow2(50)) {
                        return Err(QuantError::Degenerate(format!(
                            "split threshold {threshold} exceeds the Q-format grid"
                        )));
                    }
                    nodes.push(QCartNode::Split {
                        feature: *feature as u32,
                        thr_q: t as i64,
                        left: *left as u32,
                        right: *right as u32,
                    });
                }
            }
        }
        let depth = Self::depth_of(&nodes, 0, 0);
        Ok(QCart {
            nodes,
            in_shift,
            depth,
        })
    }

    fn depth_of(nodes: &[QCartNode], at: usize, acc: u32) -> u32 {
        match nodes[at] {
            QCartNode::Leaf { .. } => acc + 1,
            QCartNode::Split { left, right, .. } => Self::depth_of(nodes, left as usize, acc + 1)
                .max(Self::depth_of(nodes, right as usize, acc + 1)),
        }
    }

    fn score_q(&self, x: &[f64]) -> i64 {
        let scale = pow2(self.in_shift);
        let mut at = 0usize;
        loop {
            match self.nodes[at] {
                QCartNode::Leaf { p_pos_q } => return p_pos_q,
                QCartNode::Split {
                    feature,
                    thr_q,
                    left,
                    right,
                } => {
                    let xq = to_grid(x[feature as usize], scale, GRID_CAP);
                    at = if xq <= thr_q { left } else { right } as usize;
                }
            }
        }
    }

    fn error_bound(&self, domain: &[(f64, f64)], frac_bits: u32) -> ErrorBound {
        let unprovable = |layer: &str| ErrorBound {
            bound: f64::INFINITY,
            per_layer: Vec::new(),
            culprit: Some(layer.to_string()),
            grid_exact_only: true,
        };
        if domain
            .iter()
            .any(|(lo, hi)| !(lo.is_finite() && hi.is_finite()))
        {
            return unprovable("input-interval");
        }
        let max_abs = domain
            .iter()
            .map(|(lo, hi)| lo.abs().max(hi.abs()))
            .fold(0.0, f64::max);
        if max_abs * pow2(self.in_shift) > GRID_CAP as f64 {
            return unprovable("input-scale");
        }
        if self.in_shift < 1 {
            // Integer features need at least a half-integer grid to place
            // midpoint thresholds exactly.
            return unprovable("split-grid");
        }
        let leaf = pow2(-(frac_bits as i32 + 1));
        ErrorBound {
            bound: leaf,
            per_layer: vec![
                LayerBound {
                    layer: "split-grid".into(),
                    bound: 0.0,
                },
                LayerBound {
                    layer: "leaf-probability".into(),
                    bound: leaf,
                },
            ],
            culprit: Some("leaf-probability".into()),
            grid_exact_only: true,
        }
    }

    fn alu_ops(&self) -> u64 {
        4 * u64::from(self.depth) + 2
    }
}

// ---------------------------------------------------------------------------
// The quantized detector
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum QuantModel {
    KitNet(Box<KitNetPlan>),
    Centroid(QCentroid),
    Cart(QCart),
}

/// A frozen detector lowered to Qm.n fixed-point integer arithmetic.
///
/// Scores are pure integer after an exact power-of-two grid conversion of
/// the inputs, hence bitwise deterministic everywhere; the returned float
/// score `score_q / 2^FA` is exactly representable.
#[derive(Clone, Debug)]
pub struct QuantizedDetector {
    model: QuantModel,
    name: &'static str,
    dim: usize,
    frac_bits: u32,
    weight_bits: u32,
    /// `2^FA`: what an integer score is divided by.
    scale: f64,
    /// The calibrated threshold snapped to the score grid.
    threshold: f64,
}

/// Lowers a frozen detector into fixed point.
///
/// Supports KitNET, nearest-centroid, and CART; k-NN has no bounded-state
/// lowering and returns [`QuantError::Unsupported`].
pub fn quantize(
    frozen: &FrozenDetector,
    cfg: &QuantConfig,
) -> Result<QuantizedDetector, QuantError> {
    if !(8..=30).contains(&cfg.frac_bits) || !(8..=30).contains(&cfg.weight_bits) {
        return Err(QuantError::Degenerate(format!(
            "frac_bits {} / weight_bits {} outside the supported 8..=30 range",
            cfg.frac_bits, cfg.weight_bits
        )));
    }
    let threshold = frozen.threshold();
    let scale = pow2(cfg.frac_bits as i32);
    if !(threshold.is_finite() && threshold.abs() * scale < pow2(60)) {
        return Err(QuantError::Degenerate(format!(
            "calibrated threshold {threshold} not representable at Q{}",
            cfg.frac_bits
        )));
    }
    let model = match frozen.model() {
        FittedModel::KitNet(k) => QuantModel::KitNet(Box::new(KitNetPlan::compile(
            &QKitNet::build(k, cfg)?,
            cfg.frac_bits,
            cfg.weight_bits,
        ))),
        FittedModel::Centroid(centroid) => QuantModel::Centroid(QCentroid::build(centroid, cfg)?),
        FittedModel::Cart(tree) => {
            let flat = tree.flatten().expect("a fitted tree has a root");
            QuantModel::Cart(QCart::build(&flat, cfg)?)
        }
        FittedModel::Knn { .. } => return Err(QuantError::Unsupported(frozen.name())),
    };
    Ok(QuantizedDetector {
        model,
        name: frozen.name(),
        dim: frozen.feature_dim(),
        frac_bits: cfg.frac_bits,
        weight_bits: cfg.weight_bits,
        scale,
        threshold: (threshold * scale).round() as i64 as f64 / scale,
    })
}

impl QuantizedDetector {
    /// Model name of the underlying detector.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Expected feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.dim
    }

    /// Fraction bits of activations and scores.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Fraction bits of weights.
    pub fn weight_bits(&self) -> u32 {
        self.weight_bits
    }

    /// Human-readable Q-format, e.g. `"Q39.24"`.
    pub fn format(&self) -> String {
        format!("Q{}.{}", 63 - self.frac_bits, self.frac_bits)
    }

    /// The alert threshold snapped to the score grid (`thr_q / 2^FA`),
    /// exactly representable in f64.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Integer score at `FA` fraction bits.
    pub fn score_q(&self, x: &[f64]) -> Result<i64, MlError> {
        if x.len() != self.dim {
            return Err(MlError::DimMismatch {
                expected: self.dim,
                got: x.len(),
            });
        }
        Ok(match &self.model {
            QuantModel::KitNet(k) => k.score_q(x),
            QuantModel::Centroid(c) => c.score_q(x, self.frac_bits),
            QuantModel::Cart(t) => t.score_q(x),
        })
    }

    /// Score as a float: `score_q / 2^FA` — exactly representable, so
    /// float comparison against [`QuantizedDetector::threshold`] is
    /// equivalent to the integer compare the pipeline performs.
    pub fn score(&self, x: &[f64]) -> Result<f64, MlError> {
        Ok(self.score_q(x)? as f64 / self.scale)
    }

    /// Whether a score crosses the grid-snapped threshold (strictly above,
    /// matching [`FrozenDetector::is_alert`]).
    pub fn is_alert(&self, score: f64) -> bool {
        score > self.threshold
    }

    /// Integer ALU operations of one score evaluation — the quantity
    /// `cycles_from_cost` prices into NIC cycles.
    pub fn alu_ops(&self) -> u64 {
        match &self.model {
            QuantModel::KitNet(k) => k.alu_ops,
            QuantModel::Centroid(c) => c.alu_ops(),
            QuantModel::Cart(t) => t.alu_ops(),
        }
    }

    /// What lowering folded out of the program [`QuantizedDetector::alu_ops`]
    /// prices (nothing, for a model that is not a KitNET).
    pub fn folded(&self) -> Folded {
        match &self.model {
            QuantModel::KitNet(k) => k.folded,
            QuantModel::Centroid(_) | QuantModel::Cart(_) => Folded::default(),
        }
    }

    /// The arithmetic lowering proved a KitNET's scores need (`None` for a
    /// model that is not a KitNET).
    pub fn kernel_width(&self) -> Option<KernelWidth> {
        match &self.model {
            QuantModel::KitNet(k) => Some(k.width()),
            QuantModel::Centroid(_) | QuantModel::Cart(_) => None,
        }
    }

    /// Certifies a worst-case |float − quantized| score bound over the
    /// per-feature input intervals `domain` (one `(lo, hi)` pair per
    /// feature). KitNET's bound is domain-independent (the affine input
    /// layer clamps); centroid and CART use the domain to prove the grid
    /// does not saturate (and, for centroid, that ‖x‖ is bounded away
    /// from zero). An infinite bound names the blocking layer.
    pub fn error_bound(&self, domain: &[(f64, f64)]) -> Result<ErrorBound, QuantError> {
        if domain.len() != self.dim {
            return Err(QuantError::Degenerate(format!(
                "domain has {} intervals, detector expects {}",
                domain.len(),
                self.dim
            )));
        }
        Ok(match &self.model {
            QuantModel::KitNet(k) => k.bound.clone(),
            QuantModel::Centroid(c) => c.error_bound(domain, self.frac_bits),
            QuantModel::Cart(t) => t.error_bound(domain, self.frac_bits),
        })
    }
}

impl Scorer for QuantizedDetector {
    fn name(&self) -> &'static str {
        self.name()
    }

    fn feature_dim(&self) -> usize {
        self.feature_dim()
    }

    fn score(&self, x: &[f64]) -> Result<f64, MlError> {
        self.score(x)
    }

    /// An exact-f64 KitNET scores every full tile of [`TILE`] vectors of
    /// the model's dimension in one pass; the vectors left over, and every
    /// vector of any other model, are scored one at a time. Same bits as
    /// [`QuantizedDetector::score`], vector by vector.
    fn score_batch(
        &self,
        xs: &mut dyn Iterator<Item = &[f64]>,
        scores: &mut Vec<Result<f64, MlError>>,
    ) {
        let tiled = match &self.model {
            QuantModel::KitNet(plan) => plan.lanes.as_ref().map(|lanes| (plan, lanes)),
            QuantModel::Centroid(_) | QuantModel::Cart(_) => None,
        };
        let Some((plan, lanes)) = tiled else {
            return scores.extend(xs.map(|x| self.score(x)));
        };
        // The tile being filled, and where each lane's score goes.
        let mut tile: [&[f64]; TILE] = [&[]; TILE];
        let mut at = [0; TILE];
        let mut n = 0;
        for x in xs {
            if x.len() != self.dim {
                scores.push(self.score(x));
                continue;
            }
            (tile[n], at[n]) = (x, scores.len());
            scores.push(Ok(0.0));
            n += 1;
            if n == TILE {
                let q = plan.score_lanes::<f64, TILE>(lanes, tile);
                for (&i, q) in at.iter().zip(q) {
                    scores[i] = Ok(q as f64 / self.scale);
                }
                n = 0;
            }
        }
        for (&i, x) in at.iter().zip(tile).take(n) {
            scores[i] = self.score(x);
        }
    }

    fn threshold(&self) -> f64 {
        self.threshold()
    }
}

/// The scorer this module had before KitNET lowering compiled a plan: the
/// lowered tree walked feature by feature, every accumulator an `i128`,
/// nothing folded. Kept as the oracle the plan is tested against bit for
/// bit — each function is the old one, unchanged but for where it reads the
/// sigmoid's coefficients.
#[cfg(test)]
mod reference {
    use super::{isqrt_u128, pow2, QAffine, QAutoencoder, QKitNet, QNormEntry, QSigmoid};

    pub fn rshift_round(v: i128, s: u32) -> i128 {
        if s == 0 {
            return v;
        }
        let half = 1i128 << (s - 1);
        if v >= 0 {
            (v + half) >> s
        } else {
            -((-v + half) >> s)
        }
    }

    pub fn sigmoid(sig: &QSigmoid, z: i64) -> i64 {
        let one = 1i64 << sig.frac_bits;
        if z <= sig.lo_q {
            return 0;
        }
        if z >= -sig.lo_q {
            return one;
        }
        let k = ((z - sig.lo_q) >> sig.seg_shift) as usize;
        let seg = sig.segments[k];
        let center = sig.lo_q + ((2 * k as i64 + 1) << (sig.seg_shift - 1));
        let u = z - center;
        let fa = sig.frac_bits;
        let t1 = rshift_round(i128::from(seg.c1) * i128::from(u), fa);
        let u2 = rshift_round(i128::from(u) * i128::from(u), fa);
        let t2 = rshift_round(i128::from(seg.c2) * u2, fa);
        (i128::from(seg.c0) + t1 + t2).clamp(0, i128::from(one)) as i64
    }

    fn affine(input: &QAffine, x: &[f64], frac_bits: u32, out: &mut Vec<i64>) {
        let one = 1i64 << frac_bits;
        let scale = pow2(frac_bits as i32);
        out.clear();
        for (i, (&min, &range)) in input.mins.iter().zip(&input.ranges).enumerate() {
            if range <= 0.0 {
                out.push(one / 2);
            } else {
                let v = x.get(i).copied().unwrap_or(0.0);
                let n = ((v - min) / range).clamp(0.0, 1.0);
                out.push((n * scale).round() as i64);
            }
        }
    }

    fn norm(entry: &QNormEntry, r_q: i64, frac_bits: u32) -> i64 {
        let one = 1i64 << frac_bits;
        match entry {
            QNormEntry::Flat => one / 2,
            QNormEntry::Affine { min_q, m, t, .. } => {
                let v = rshift_round(i128::from(r_q - min_q) * i128::from(*m), *t);
                v.clamp(0, i128::from(one)) as i64
            }
        }
    }

    fn layer(
        w: &[i64],
        b: &[i64],
        (rows, cols): (usize, usize),
        x: &[i64],
        sig: &QSigmoid,
        weight_bits: u32,
        out: &mut Vec<i64>,
    ) {
        out.clear();
        for i in 0..rows {
            let mut acc = i128::from(b[i]);
            for j in 0..cols {
                acc += i128::from(w[i * cols + j]) * i128::from(x[j]);
            }
            let z = rshift_round(acc, weight_bits) as i64;
            out.push(sigmoid(sig, z));
        }
    }

    fn rmse_q(ae: &QAutoencoder, x: &[i64], sig: &QSigmoid, weight_bits: u32) -> i64 {
        let mut hid = Vec::with_capacity(ae.h);
        let mut out = Vec::with_capacity(ae.d);
        layer(&ae.w1, &ae.b1, (ae.h, ae.d), x, sig, weight_bits, &mut hid);
        layer(
            &ae.w2,
            &ae.b2,
            (ae.d, ae.h),
            &hid,
            sig,
            weight_bits,
            &mut out,
        );
        let mut sum: u128 = 0;
        for (&a, &b) in x.iter().zip(&out) {
            let d = i128::from(a - b);
            sum += (d * d) as u128;
        }
        let n = ae.d as u128;
        let mean = (sum + n / 2) / n;
        isqrt_u128(mean) as i64
    }

    pub fn score_q(k: &QKitNet, x: &[f64], frac_bits: u32, weight_bits: u32) -> i64 {
        let mut xn = Vec::with_capacity(k.input.mins.len());
        affine(&k.input, x, frac_bits, &mut xn);
        let mut sub = Vec::new();
        let mut rn = Vec::with_capacity(k.ensemble.len());
        for (c, ae) in k.clusters.iter().zip(&k.ensemble) {
            sub.clear();
            sub.extend(c.iter().map(|&i| xn[i]));
            let r = rmse_q(ae, &sub, &k.sigmoid, weight_bits);
            rn.push(norm(&k.out_norm[rn.len()], r, frac_bits));
        }
        rmse_q(&k.output, &rn, &k.sigmoid, weight_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{train_and_calibrate, CalibrationConfig, Detector, KnnNovelty};

    fn benign(dim: usize, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| 1.0 + 0.01 * ((i * 7 + d * 3) % 13) as f64 + 0.0005 * i as f64)
                    .collect()
            })
            .collect()
    }

    fn freeze(det: Box<dyn Detector>, dim: usize, n: usize) -> FrozenDetector {
        let data = benign(dim, n);
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        train_and_calibrate(det, &refs, 0.2, CalibrationConfig::default()).unwrap()
    }

    #[test]
    fn sigmoid_table_tracks_float_within_certified_error() {
        let sig = QSigmoid::build(24);
        let eps = QSigmoid::approx_error(24);
        let scale = pow2(24);
        let mut worst: f64 = 0.0;
        let mut z = -20.0;
        while z < 20.0 {
            let zq = (z * scale).round() as i64;
            let got = sig.eval(zq) as f64 / scale;
            // Compare at the grid point the table actually saw.
            let want = sigmoid_f(zq as f64 / scale);
            worst = worst.max((got - want).abs());
            z += 0.00371;
        }
        assert!(worst <= eps, "sigmoid error {worst} above certified {eps}");
    }

    #[test]
    fn isqrt_is_floor_sqrt() {
        for v in [0u128, 1, 2, 3, 4, 15, 16, 17, 1 << 40, (1 << 40) + 12345] {
            let r = isqrt_u128(v);
            assert!(r * r <= v, "{v}");
            assert!((r + 1) * (r + 1) > v, "{v}");
        }
    }

    #[test]
    fn kitnet_quantized_score_stays_within_certified_bound() {
        let frozen = freeze(Box::new(crate::KitNetDetector::new(5, 7).unwrap()), 5, 150);
        let q = quantize(&frozen, &QuantConfig::default()).unwrap();
        let domain = vec![(0.0, 3.0); 5];
        let eb = q.error_bound(&domain).unwrap();
        assert!(eb.bound.is_finite() && eb.bound > 0.0);
        let mut probes = benign(5, 40);
        probes.push(vec![80.0, -40.0, 900.0, 3.0, -7.0]);
        probes.push(vec![0.0; 5]);
        for x in &probes {
            let f = frozen.score(x).unwrap();
            let g = q.score(x).unwrap();
            assert!(
                (f - g).abs() <= eb.bound,
                "|{f} - {g}| = {} above bound {}",
                (f - g).abs(),
                eb.bound
            );
        }
    }

    #[test]
    fn centroid_quantized_score_stays_within_certified_bound() {
        let frozen = freeze(Box::new(crate::CentroidDetector::new(4).unwrap()), 4, 100);
        let q = quantize(&frozen, &QuantConfig::default()).unwrap();
        // Domain bounded away from zero in every coordinate → ‖x‖ ≥ L > 0.
        let domain = vec![(0.5, 4.0); 4];
        let eb = q.error_bound(&domain).unwrap();
        assert!(eb.bound.is_finite(), "culprit {:?}", eb.culprit);
        for x in [
            vec![1.0, 1.1, 1.2, 1.3],
            vec![4.0, 0.5, 4.0, 0.5],
            vec![0.5, 0.5, 0.5, 0.5],
        ] {
            let f = frozen.score(&x).unwrap();
            let g = q.score(&x).unwrap();
            assert!(
                (f - g).abs() <= eb.bound,
                "|{f} - {g}| = {} above bound {}",
                (f - g).abs(),
                eb.bound
            );
        }
    }

    #[test]
    fn centroid_domain_through_zero_is_unprovable_with_culprit() {
        let frozen = freeze(Box::new(crate::CentroidDetector::new(3).unwrap()), 3, 60);
        let q = quantize(&frozen, &QuantConfig::default()).unwrap();
        let eb = q
            .error_bound(&[(-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)])
            .unwrap();
        assert!(eb.bound.is_infinite());
        assert_eq!(eb.culprit.as_deref(), Some("input-norm"));
    }

    #[test]
    fn cart_routes_exactly_on_the_integer_grid() {
        // Integer-valued training data → half-integer midpoints → exact
        // fixed-point routing; scores differ only by leaf rounding.
        let data: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![f64::from(i % 8), f64::from(i / 8)])
            .collect();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let frozen = train_and_calibrate(
            Box::new(crate::CartDetector::new(2, 11).unwrap()),
            &refs,
            0.2,
            CalibrationConfig::default(),
        )
        .unwrap();
        let q = quantize(&frozen, &QuantConfig::default()).unwrap();
        let eb = q.error_bound(&[(0.0, 8.0), (0.0, 8.0)]).unwrap();
        assert!(eb.grid_exact_only);
        assert!(eb.bound <= pow2(-24), "bound {}", eb.bound);
        for a in 0..12 {
            for b in 0..12 {
                let x = [f64::from(a), f64::from(b)];
                let f = frozen.score(&x).unwrap();
                let g = q.score(&x).unwrap();
                assert!((f - g).abs() <= eb.bound, "({a},{b}): |{f} - {g}|");
            }
        }
    }

    #[test]
    fn knn_has_no_lowering() {
        let frozen = freeze(Box::new(KnnNovelty::new(3, 3).unwrap()), 3, 60);
        assert_eq!(
            quantize(&frozen, &QuantConfig::default()).unwrap_err(),
            QuantError::Unsupported("knn")
        );
    }

    #[test]
    fn scores_are_bitwise_deterministic_and_grid_exact() {
        let frozen = freeze(Box::new(crate::KitNetDetector::new(4, 3).unwrap()), 4, 120);
        let q = quantize(&frozen, &QuantConfig::default()).unwrap();
        let x = [1.0, 2.0, 0.5, 1.5];
        let a = q.score(&x).unwrap();
        let b = q.score(&x).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        // score · 2^FA is integral (the score is exactly on the grid).
        let scaled = a * pow2(24);
        assert_eq!(scaled, scaled.round());
        assert_eq!(scaled, q.score_q(&x).unwrap() as f64);
    }

    #[test]
    fn dim_mismatch_is_typed() {
        let frozen = freeze(Box::new(crate::CentroidDetector::new(3).unwrap()), 3, 60);
        let q = quantize(&frozen, &QuantConfig::default()).unwrap();
        assert_eq!(
            q.score(&[1.0]).unwrap_err(),
            MlError::DimMismatch {
                expected: 3,
                got: 1
            }
        );
        assert!(q.error_bound(&[(0.0, 1.0)]).is_err());
    }

    #[test]
    fn alu_ops_are_positive_and_model_dependent() {
        let kit = quantize(
            &freeze(Box::new(crate::KitNetDetector::new(6, 1).unwrap()), 6, 150),
            &QuantConfig::default(),
        )
        .unwrap();
        let cen = quantize(
            &freeze(Box::new(crate::CentroidDetector::new(6).unwrap()), 6, 60),
            &QuantConfig::default(),
        )
        .unwrap();
        assert!(kit.alu_ops() > cen.alu_ops());
        assert!(cen.alu_ops() > 0);
    }

    #[test]
    fn threshold_snaps_to_grid() {
        let frozen = freeze(Box::new(crate::CentroidDetector::new(2).unwrap()), 2, 60);
        let q = quantize(&frozen, &QuantConfig::default()).unwrap();
        let t = q.threshold();
        assert!((t - frozen.threshold()).abs() <= pow2(-25));
        assert_eq!(t * pow2(24), (t * pow2(24)).round());
    }

    // --- The compiled KitNET plan against the scorer it replaced ---

    use crate::KitNet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A KitNET trained on `groups` blocks of `width` correlated columns (so
    /// each block maps to one non-trivial cluster), then `flat` constant
    /// columns (clusters over flat dimensions only: rounding noise in the
    /// correlation of two constants may group them), then `noise`
    /// independent columns (singleton clusters). Returns the model and one
    /// more sample from its training distribution.
    fn trained_kitnet(
        rng: &mut StdRng,
        groups: usize,
        width: usize,
        flat: usize,
        noise: usize,
    ) -> (KitNet, Vec<f64>) {
        let dim = groups * width + flat + noise;
        let consts: Vec<f64> = (0..flat).map(|_| rng.random_range(-50.0..50.0)).collect();
        let sample = |rng: &mut StdRng| -> Vec<f64> {
            let mut x = Vec::with_capacity(dim);
            for g in 0..groups {
                let latent = rng.random::<f64>() * (g + 1) as f64;
                x.extend((0..width).map(|_| latent + 0.05 * rng.random::<f64>()));
            }
            x.extend(&consts);
            x.extend((0..noise).map(|_| rng.random::<f64>()));
            x
        };
        let mut k = KitNet::new(dim, width, 120, 260, rng.random()).unwrap();
        for _ in 0..380 {
            k.process(&sample(rng));
        }
        assert!(k.is_executing());
        let probe = sample(rng);
        (k, probe)
    }

    /// Vectors a scorer must agree on: the training hull, far outside it,
    /// and every float that is not a number one would train on.
    fn probes(rng: &mut StdRng, in_hull: &[f64]) -> Vec<Vec<f64>> {
        let dim = in_hull.len();
        let each = |f: &mut dyn FnMut(usize) -> f64| (0..dim).map(f).collect::<Vec<f64>>();
        let mut out = vec![in_hull.to_vec()];
        out.push(each(&mut |i| in_hull[i] * (0.5 + rng.random::<f64>())));
        out.push(each(&mut |i| in_hull[i] * 1e3 - 7.0));
        out.push(each(&mut |_| rng.random_range(-1e12..1e12)));
        out.push(each(&mut |_| f64::from_bits(rng.random())));
        for special in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE / 4.0,
            -0.0,
        ] {
            out.push(vec![special; dim]);
            out.push(each(&mut |i| {
                if rng.random::<bool>() {
                    special
                } else {
                    in_hull[i]
                }
            }));
        }
        out
    }

    fn widened(plan: &KitNetPlan) -> KitNetPlan {
        let arena = match &plan.arena {
            Arena::Narrow(a) => Arena::Wide(a.iter().map(|&v| i128::from(v)).collect()),
            wide @ Arena::Wide(_) => wide.clone(),
        };
        KitNetPlan {
            arena,
            ..plan.clone()
        }
    }

    /// The plan is the old scorer, bit for bit: random trained models ×
    /// every corner of the Q-format square × hostile vectors, at the width
    /// lowering chose *and* at the wide one. Runs in the test profile, where
    /// `overflow-checks` turns a wrong width proof into a panic.
    /// `KERNEL_DIFF_CASES` sets the number of models (`ci.sh` raises it).
    #[test]
    fn plan_scores_are_bit_identical_to_the_reference_scorer() {
        let cases: u64 = std::env::var("KERNEL_DIFF_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(6);
        let (mut narrow, mut wide, mut clusters, mut bias_inputs) = (0, 0, 0, 0);
        let (mut exact, mut batches) = (0, 0);
        for case in 0..cases {
            let mut rng = StdRng::seed_from_u64(0x5EED ^ case);
            let groups = rng.random_range(2..=4usize);
            let width = rng.random_range(2..=5usize);
            // Every third model has 17 clusters or more: past 15 inputs the
            // output layer's sum of squares at Q.30 needs the wide kernel.
            let flat = rng.random_range(1..=3usize);
            let noise = if case % 3 == 2 { 14 } else { 1 };
            let (k, in_hull) = trained_kitnet(&mut rng, groups, width, flat, noise);
            assert!(
                k.feature_clusters().iter().filter(|c| c.len() > 1).count() >= 2,
                "case {case}: fewer than two non-trivial clusters"
            );
            let vectors = probes(&mut rng, &in_hull);
            for frac_bits in [8, 16, 24, 30] {
                for weight_bits in [8, 16, 24, 30] {
                    let cfg = QuantConfig {
                        frac_bits,
                        weight_bits,
                        ..QuantConfig::default()
                    };
                    let tree = QKitNet::build(&k, &cfg).unwrap();
                    let plan = KitNetPlan::compile(&tree, frac_bits, weight_bits);
                    match plan.arena {
                        Arena::Narrow(_) => narrow += 1,
                        Arena::Wide(_) => wide += 1,
                    }
                    clusters += plan.folded.clusters;
                    bias_inputs += plan.folded.bias_inputs;
                    let forced = widened(&plan);
                    for x in &vectors {
                        let want = reference::score_q(&tree, x, frac_bits, weight_bits);
                        let at = format!("case {case} Q{frac_bits}/{weight_bits} x={x:?}");
                        assert_eq!(plan.score_q(x), want, "{at}");
                        assert_eq!(forced.score_q(x), want, "wide, {at}");
                    }
                    let at = format!("case {case} Q{frac_bits}/{weight_bits}");
                    if plan.width() == KernelWidth::ExactF64 {
                        // Scores of trained models stay far from the bound,
                        // so rounding would rarely show in them: hold the
                        // proof to the rows it lays out instead.
                        let most = arena_bound(&plan);
                        assert!(most < 1u128 << 53, "{at}: a row reaches {most}");
                        exact += 1;
                    }
                    batches += check_batches(&plan, k.dim(), &vectors, &at);
                }
            }
        }
        assert!(narrow > 0 && wide > 0, "widths hit: {narrow} / {wide}");
        assert!(
            exact > 0 && narrow > exact,
            "exact-f64 plans: {exact} of {narrow}"
        );
        assert!(clusters > 0 && bias_inputs > 0, "nothing folded");
        println!(
            "kernel differential: {cases} models, {exact} exact-f64, {} i64 and {wide} i128 \
             plans, {batches} batch cases, {clusters} clusters and {bias_inputs} bias inputs \
             folded",
            narrow - exact
        );
    }

    /// The largest magnitude a row of `plan` can accumulate, read off the
    /// compiled arena rather than the tree: `|bias| + Σ|w| · 2^FA + 2^(FW−1)`
    /// over every row of every step.
    fn arena_bound(plan: &KitNetPlan) -> u128 {
        let Arena::Narrow(mut arena) = plan.arena.clone() else {
            return u128::MAX;
        };
        let mut most = 0;
        for step in &plan.steps {
            let rest = arena.split_off(step.arena_len());
            let (encoder, decoder) = arena.split_at(step.encoder_len());
            let rows = encoder.chunks_exact(step.live + 1);
            for row in rows.chain(decoder.chunks_exact(step.h + 1)) {
                let l1: u128 = row[1..].iter().map(|w| u128::from(w.unsigned_abs())).sum();
                most = most.max(u128::from(row[0].unsigned_abs()) + (l1 << plan.frac_bits));
            }
            arena = rest;
        }
        most + (1 << (plan.weight_bits - 1))
    }

    /// Scores batches through the detector's batch entry point, as the
    /// shard does, against `plan.score_q` vector by vector: `TILE + r`
    /// vectors for every `r < TILE` — a full tile, then each remainder —
    /// rotated by `r`, so each of the (at most `TILE`) vectors visits every
    /// lane, with a vector of the wrong dimension at position `r`. Returns
    /// the batches run.
    fn check_batches(plan: &KitNetPlan, dim: usize, vectors: &[Vec<f64>], at: &str) -> u64 {
        assert!(vectors.len() <= TILE, "{at}: a vector would miss a lane");
        let det = QuantizedDetector {
            model: QuantModel::KitNet(Box::new(plan.clone())),
            name: "kitnet",
            dim,
            frac_bits: plan.frac_bits,
            weight_bits: plan.weight_bits,
            scale: plan.scale,
            threshold: 0.0,
        };
        let short = vec![0.5; dim - 1];
        let mut scores = Vec::new();
        for r in 0..TILE {
            let mut batch: Vec<&[f64]> = (0..TILE + r)
                .map(|i| vectors[(i + r) % vectors.len()].as_slice())
                .collect();
            batch.insert(r, &short);
            scores.clear();
            Scorer::score_batch(&det, &mut batch.iter().copied(), &mut scores);
            assert_eq!(scores.len(), batch.len(), "{at}");
            for (i, (x, got)) in batch.iter().zip(&scores).enumerate() {
                let want = if x.len() == dim {
                    Ok(plan.score_q(x) as f64 / plan.scale)
                } else {
                    det.score(x)
                };
                assert_eq!(
                    got.clone().map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{at}: batch of {}, position {i}",
                    batch.len()
                );
            }
        }
        TILE as u64
    }

    /// Lowering picks the wide kernel by itself when a row's L1 norm fails
    /// the proof, and a flat dimension inside a live cluster folds into that
    /// cluster's encoder bias — two cases training does not produce.
    #[test]
    fn failed_width_proof_and_mixed_clusters_still_match_the_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let (k, in_hull) = trained_kitnet(&mut rng, 2, 4, 2, 1);
        let mut tree = QKitNet::build(&k, &QuantConfig::default()).unwrap();
        let compile = |tree: &QKitNet| KitNetPlan::compile(tree, 24, 24);
        let baseline = compile(&tree);
        assert!(matches!(baseline.arena, Arena::Narrow(_)));

        // Pretend one dimension of the first block was flat in training.
        let member = tree.clusters.iter().find(|c| c.len() > 1).unwrap()[0];
        tree.input.ranges[member] = 0.0;
        let mixed = compile(&tree);
        assert_eq!(mixed.folded.clusters, baseline.folded.clusters);
        assert_eq!(mixed.folded.bias_inputs, baseline.folded.bias_inputs + 1);

        // Weights of 2^16 and more in real units: |b| + ‖w‖₁ ≥ 2^15.
        for w in &mut tree.output.w1 {
            *w <<= 20;
        }
        let heavy = compile(&tree);
        assert!(matches!(heavy.arena, Arena::Wide(_)));

        for x in probes(&mut rng, &in_hull) {
            let want = reference::score_q(&tree, &x, 24, 24);
            assert_eq!(heavy.score_q(&x), want, "x={x:?}");
        }
        for w in &mut tree.output.w1 {
            *w >>= 20;
        }
        for x in probes(&mut rng, &in_hull) {
            let want = reference::score_q(&tree, &x, 24, 24);
            assert_eq!(mixed.score_q(&x), want, "x={x:?}");
        }
    }

    #[test]
    fn a_model_of_flat_dimensions_only_scores_a_constant() {
        let mut k = KitNet::new(3, 2, 20, 40, 5).unwrap();
        for _ in 0..60 {
            k.process(&[4.0, -1.0, 0.25]);
        }
        let tree = QKitNet::build(&k, &QuantConfig::default()).unwrap();
        let plan = KitNetPlan::compile(&tree, 24, 24);
        assert_eq!(plan.folded.clusters, plan.folded.of_clusters);
        // What is left is the output decoder: 3 rows of 2 hidden units.
        assert_eq!(plan.folded.macs, plan.folded.of_macs - 3 * 2);
        assert!(plan.input.is_empty());
        for x in [[4.0, -1.0, 0.25], [1e9, f64::NAN, -3.0]] {
            assert_eq!(plan.score_q(&x), reference::score_q(&tree, &x, 24, 24));
        }
    }

    #[test]
    fn branch_free_shift_rounds_like_the_one_it_replaces() {
        let mut rng = StdRng::seed_from_u64(3);
        for s in [0, 1, 2, 8, 24, 30] {
            let edge = 1i64 << s;
            let mut values = vec![0, 1, -1, edge / 2, -(edge / 2), edge / 2 - 1, 1 - edge / 2];
            values.extend([
                edge,
                -edge,
                3 * edge / 2,
                -3 * edge / 2,
                1 << 61,
                -(1 << 61),
            ]);
            values.extend((0..200).map(|_| rng.random::<i64>() >> 2));
            for v in values {
                let want = reference::rshift_round(i128::from(v), s);
                assert_eq!(i128::from(rshift_round(v, s)), want, "i64 {v} >> {s}");
                assert_eq!(rshift_round(i128::from(v), s), want, "i128 {v} >> {s}");
            }
        }
    }

    #[test]
    fn narrow_sigmoid_is_the_wide_one() {
        for frac_bits in [8, 16, 24, 30] {
            let sig = QSigmoid::build(frac_bits);
            let span = 17i64 << frac_bits;
            let step = (span / 20_011).max(1);
            let mut z = -span;
            while z <= span {
                assert_eq!(
                    sig.eval(z),
                    reference::sigmoid(&sig, z),
                    "Q{frac_bits} z={z}"
                );
                z += step;
            }
        }
    }

    /// The hoisted segment arithmetic — `u` from the offset's low bits, the
    /// index masked into the table — at every edge it could get wrong: each
    /// segment's first, center and last offsets, and both saturation edges.
    #[test]
    fn hoisted_sigmoid_is_the_reference_at_every_segment_edge() {
        for frac_bits in [8, 16, 24, 30] {
            let sig = QSigmoid::build(frac_bits);
            let (lo, seg) = (sig.lo_q, 1i64 << sig.seg_shift);
            let mut z: Vec<i64> = (-1..=1).flat_map(|d| [lo + d, -lo + d]).collect();
            for k in 0..SIG_SEGMENTS as i64 {
                let start = lo + k * seg;
                let center = start + seg / 2;
                z.extend([
                    start,
                    start + 1,
                    center - 1,
                    center,
                    center + 1,
                    start + seg - 1,
                ]);
            }
            for z in z {
                let want = reference::sigmoid(&sig, z);
                assert_eq!(sig.eval(z), want, "Q{frac_bits} z={z}");
            }
        }
    }

    #[test]
    fn grid_rounding_is_f64_round() {
        let mut cases = vec![
            0.0,
            0.49999999999999994,
            0.5,
            0.9999999999999999,
            1.0,
            16_777_216.0,
            16_777_215.5,
            (1u64 << 30) as f64,
            f64::NAN,
        ];
        cases.extend((0..64).map(|k| f64::from(k) + 0.5));
        cases.extend((0..64).map(|k| (f64::from(k) + 0.5).next_down()));
        let mut rng = StdRng::seed_from_u64(9);
        cases.extend((0..2_000).map(|_| rng.random::<f64>() * pow2(rng.random_range(0..=30))));
        for x in cases {
            assert_eq!(round_to_grid(x), x.round() as i64, "{x:e}");
        }
    }

    #[test]
    fn u64_root_is_the_u128_root() {
        let mut values = vec![0u64, 1, 2, 3, u64::MAX, u64::MAX - 1, (1 << 53) + 1];
        for root in (0..=30)
            .map(|e| 1u64 << e)
            .chain([3, 1_000_003, (1 << 30) - 1])
        {
            let sq = root * root;
            values.extend([sq.saturating_sub(1), sq, sq + 1]);
        }
        values.extend([u64::from(u32::MAX).pow(2), u64::from(u32::MAX).pow(2) - 1]);
        let mut rng = StdRng::seed_from_u64(5);
        values.extend((0..2_000).map(|_| rng.random::<u64>() >> rng.random_range(0..64u32)));
        for v in values {
            assert_eq!(u128::from(isqrt_u64(v)), isqrt_u128(u128::from(v)), "{v}");
        }
    }
}
