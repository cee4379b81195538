//! Shared execution of compiled NIC-side programs.
//!
//! Both the SmartNIC engine (consuming batched MGPV records) and the
//! software baseline extractor (consuming packets directly) run the same
//! `map`/`reduce`/`synthesize` semantics; this module implements them once.
//!
//! What a level *is* and what a group *has* are separate types. A
//! [`LevelPlan`], built once per [`LevelProgram`], owns everything every
//! group of the level shares; a [`GroupSlab`] holds all state of the
//! level's groups — map states, damped banks and every other reducer's
//! words; a [`GroupExec`] is one group's index into that slab, driven
//! through its plan with one [`RecordView`] per packet.

use std::ops::Range;

use superfe_net::snap::{StateReader, StateWriter};
use superfe_streaming::hist::Binning;
use superfe_streaming::hll::estimate_registers;
use superfe_streaming::{
    markers, normalize, sample_evenly, BidirOut, DampedBank, DampedPair, DampedStat, DecayMemo,
    Histogram, HyperLogLog, MinMax, Moments, PairBank, Reducer, SeqArray, Sum, Welford,
};

use crate::ast::{Field, MapFn, ReduceFn, SynthFn};
use crate::compile::{LevelProgram, MapOp};

/// The per-record values a group execution consumes, independent of whether
/// they came from a parsed packet (software path) or an MGPV record (NIC
/// path).
#[derive(Clone, Copy, Debug)]
pub struct RecordView {
    /// Wire size in bytes.
    pub size: f64,
    /// Arrival timestamp in nanoseconds.
    pub ts_ns: u64,
    /// ±1 direction factor (+1 ingress).
    pub direction: i64,
    /// Raw TCP flag bits.
    pub tcp_flags: u8,
}

/// Snapshot tag of an `f_damped` window's record: a [`DampedStat`].
const TAG_DAMPED: u8 = 7;
/// Snapshot tag of a 2-D window's record (`f_damped2d`, `f_mag`, `f_radius`,
/// `f_cov`, `f_pcc`): a [`DampedPair`].
const TAG_PAIR: u8 = 8;

/// Which Welford output a single-feature function emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WelfordOut {
    /// The mean.
    Mean,
    /// The population variance.
    Var,
    /// The standard deviation.
    Std,
}

/// Which extremum a single-feature function emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MinMaxOut {
    /// The minimum.
    Min,
    /// The maximum.
    Max,
}

/// Which higher moment a single-feature function emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MomentsOut {
    /// Skewness.
    Skew,
    /// Excess kurtosis.
    Kurtosis,
}

/// Which histogram-derived features to emit.
#[derive(Clone, Debug, PartialEq)]
pub enum HistOut {
    /// Raw counts.
    Counts,
    /// Normalized PDF.
    Pdf,
    /// Normalized CDF.
    Cdf,
    /// A single quantile (fraction in `[0, 1]`).
    Percentile(f64),
}

/// A reducing function outside the damped family as a kernel over a fixed
/// run of a group's words ([`Kernel::words`]): its kind and parameters,
/// which are the same for every group. `update` and `finalize_into` work on
/// the words; the streaming type of each kind is rebuilt from them only to
/// write or read the reducer's snapshot record, so the records are the ones
/// those types write. A count is kept as its `u64` bits.
#[derive(Clone, Debug)]
enum Kernel {
    /// `f_sum`: a [`Sum`]'s words (total, count).
    Sum,
    /// `f_mean` / `f_var` / `f_std`, one output: a [`Welford`]'s words
    /// (count, mean, M2).
    Welford(WelfordOut),
    /// `f_min` / `f_max`, one output: a [`MinMax`]'s words (min, max,
    /// count).
    MinMax(MinMaxOut),
    /// `f_skew` / `f_kur`, one output: a [`Moments`]' words (count, mean,
    /// M2, M3, M4).
    Moments(MomentsOut),
    /// `f_card` over `2^k` registers: a [`HyperLogLog`]'s words (the
    /// registers eight to a word, then the update count).
    Card(u8),
    /// `ft_hist` / `f_pdf` / `f_cdf` / `ft_percent`: a [`Histogram`]'s words
    /// (each bin's count, then the total).
    Hist {
        binning: Binning,
        bins: usize,
        out: HistOut,
    },
    /// `f_array{cap}`: one word, the dropped count. The samples are the
    /// group's array number `lane`, which allocates on its first sample.
    Array { cap: usize, lane: usize },
}

/// Adds one to the count kept as bits in `word`; returns the new count.
#[inline(always)]
fn bump(word: &mut f64) -> u64 {
    let n = word.to_bits() + 1;
    *word = f64::from_bits(n);
    n
}

impl Kernel {
    /// Words of a group's state.
    fn words(&self) -> usize {
        match *self {
            Kernel::Sum => Sum::WORDS,
            Kernel::Welford(_) => Welford::WORDS,
            Kernel::MinMax(_) => MinMax::WORDS,
            Kernel::Moments(_) => Moments::WORDS,
            Kernel::Card(k) => HyperLogLog::words(k),
            Kernel::Hist { bins, .. } => Histogram::words(bins),
            Kernel::Array { .. } => 1,
        }
    }

    /// Writes a fresh group's state into `words`, which are zeros: only an
    /// extremum pair starts elsewhere.
    fn fresh(&self, words: &mut [f64]) {
        if let Kernel::MinMax(_) = self {
            MinMax::new().to_words(words);
        }
    }

    /// Feeds one sample; `hash` is its hash, which `f_card` takes in place
    /// of the value (hash-reuse path). Inlined by force: with the slot loop
    /// in two copies, one emitting, LLVM stopped inlining the update, and
    /// the call cost NPOD's update ~10%.
    #[inline(always)]
    fn update(&self, words: &mut [f64], arrays: &mut [Vec<f64>], value: f64, hash: u32) {
        match *self {
            Kernel::Sum => {
                words[0] += value;
                bump(&mut words[1]);
            }
            Kernel::Welford(_) => {
                let n = bump(&mut words[0]);
                let delta = value - words[1];
                words[1] += delta / n as f64;
                words[2] += delta * (value - words[1]);
            }
            Kernel::MinMax(_) => {
                bump(&mut words[2]);
                if value < words[0] {
                    words[0] = value;
                }
                if value > words[1] {
                    words[1] = value;
                }
            }
            Kernel::Moments(_) => {
                let n1 = words[0].to_bits() as f64;
                let n = bump(&mut words[0]) as f64;
                let [mean, m2, m3, m4] = &mut words[1..5] else {
                    unreachable!("five words")
                };
                let delta = value - *mean;
                let delta_n = delta / n;
                let delta_n2 = delta_n * delta_n;
                let term1 = delta * delta_n * n1;
                *mean += delta_n;
                *m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * *m2
                    - 4.0 * delta_n * *m3;
                *m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * *m2;
                *m2 += term1;
            }
            Kernel::Card(k) => {
                let (registers, updates) = words.split_at_mut(words.len() - 1);
                bump(&mut updates[0]);
                let idx = (hash >> (32 - k)) as usize;
                let rest = hash << k;
                // Rank = leading zeros of the remaining (32-k) bits, plus 1.
                let rank = if rest == 0 {
                    32 - k + 1
                } else {
                    (rest.leading_zeros() as u8).min(32 - k) + 1
                };
                let (word, shift) = (&mut registers[idx / 8], 8 * (idx % 8));
                let bits = word.to_bits();
                if u64::from(rank) > (bits >> shift) & 0xFF {
                    *word = f64::from_bits(bits & !(0xFF << shift) | u64::from(rank) << shift);
                }
            }
            Kernel::Hist { binning, bins, .. } => {
                bump(&mut words[binning.bin_of(bins, value)]);
                bump(&mut words[bins]);
            }
            Kernel::Array { cap, lane } => {
                let seq = &mut arrays[lane];
                if seq.len() < cap {
                    seq.push(value);
                } else {
                    bump(&mut words[0]);
                }
            }
        }
    }

    /// Appends this function's feature values to `out`.
    fn finalize_into(&self, words: &[f64], arrays: &[Vec<f64>], out: &mut Vec<f64>) {
        match self {
            Kernel::Sum => out.push(words[0]),
            Kernel::Welford(which) => {
                let (n, mean, m2) = (words[0].to_bits(), words[1], words[2]);
                let var = if n == 0 { 0.0 } else { m2 / n as f64 };
                out.push(match which {
                    WelfordOut::Mean => mean,
                    WelfordOut::Var => var,
                    WelfordOut::Std => var.sqrt(),
                });
            }
            Kernel::MinMax(which) => out.push(match (words[2].to_bits(), which) {
                (0, _) => 0.0,
                (_, MinMaxOut::Min) => words[0],
                (_, MinMaxOut::Max) => words[1],
            }),
            Kernel::Moments(which) => {
                let (n, m2, m3, m4) = (words[0].to_bits(), words[2], words[3], words[4]);
                out.push(if n == 0 || m2 < 1e-12 {
                    0.0
                } else {
                    let n = n as f64;
                    match which {
                        MomentsOut::Skew => (m3 / n) / (m2 / n).powf(1.5),
                        MomentsOut::Kurtosis => n * m4 / (m2 * m2) - 3.0,
                    }
                });
            }
            Kernel::Card(_) => {
                let registers = &words[..words.len() - 1];
                let bytes = registers.iter().flat_map(|w| w.to_bits().to_le_bytes());
                out.push(estimate_registers(bytes));
            }
            Kernel::Hist {
                binning,
                bins,
                out: which,
            } => {
                let counts = words[..*bins].iter().map(|c| c.to_bits());
                let total = words[*bins].to_bits();
                match which {
                    HistOut::Counts => out.extend(counts.map(|c| c as f64)),
                    HistOut::Pdf | HistOut::Cdf if total == 0 => {
                        out.resize(out.len() + bins, 0.0);
                    }
                    HistOut::Pdf => out.extend(counts.map(|c| c as f64 / total as f64)),
                    HistOut::Cdf => {
                        let mut acc = 0u64;
                        out.extend(counts.map(|c| {
                            acc += c;
                            acc as f64 / total as f64
                        }));
                    }
                    HistOut::Percentile(q) => {
                        out.push(binning.percentile(counts, total, *q).unwrap_or(0.0));
                    }
                }
            }
            Kernel::Array { cap, lane } => {
                let seq = &arrays[*lane];
                out.extend_from_slice(seq);
                out.resize(out.len() + cap - seq.len(), 0.0);
            }
        }
    }

    /// Variant discriminant used to validate snapshots against the policy
    /// (the damped family's are [`TAG_DAMPED`] and [`TAG_PAIR`]).
    fn tag(&self) -> u8 {
        match self {
            Kernel::Sum => 0,
            Kernel::Welford(_) => 1,
            Kernel::MinMax(_) => 2,
            Kernel::Moments(_) => 3,
            Kernel::Card(_) => 4,
            Kernel::Array { .. } => 5,
            Kernel::Hist { .. } => 6,
        }
    }

    /// Writes the reducer's snapshot record: the variant tag, then the state
    /// as its streaming type writes it. Output selectors (which Welford
    /// output, which quantile, …) are structural — rebuilt from the policy
    /// on load — so they are not stored.
    fn save_state(&self, words: &[f64], arrays: &[Vec<f64>], w: &mut StateWriter) {
        w.put_u8(self.tag());
        match self {
            Kernel::Sum => Sum::from_words(words).save_state(w),
            Kernel::Welford(_) => Welford::from_words(words).save_state(w),
            Kernel::MinMax(_) => MinMax::from_words(words).save_state(w),
            Kernel::Moments(_) => Moments::from_words(words).save_state(w),
            Kernel::Card(_) => HyperLogLog::from_words(words).save_state(w),
            Kernel::Hist { binning, .. } => Histogram::from_words(*binning, words).save_state(w),
            Kernel::Array { cap, lane } => {
                let seq = arrays[*lane].clone();
                SeqArray::from_parts(*cap, seq, words[0].to_bits())
                    .expect("an array holds at most its cap")
                    .save_state(w);
            }
        }
    }

    /// Reads a record written by [`Kernel::save_state`] into a fresh group's
    /// state. Returns `None` on a variant mismatch (snapshot from a
    /// different policy), on a layout that is not the policy's — a
    /// histogram's binning or bin count, an `f_array`'s cap, an `f_card`'s
    /// register count, each of which sets how many values the group emits —
    /// or on corrupt input.
    fn load_state(
        &self,
        words: &mut [f64],
        arrays: &mut [Vec<f64>],
        r: &mut StateReader<'_>,
    ) -> Option<()> {
        if r.get_u8()? != self.tag() {
            return None;
        }
        match self {
            Kernel::Sum => Sum::load_state(r)?.to_words(words),
            Kernel::Welford(_) => Welford::load_state(r)?.to_words(words),
            Kernel::MinMax(_) => MinMax::load_state(r)?.to_words(words),
            Kernel::Moments(_) => Moments::load_state(r)?.to_words(words),
            Kernel::Card(k) => {
                let sketch = HyperLogLog::load_state(r)?;
                (sketch.register_count() == 1 << k).then(|| sketch.to_words(words))?;
            }
            Kernel::Hist { binning, bins, .. } => {
                let hist = Histogram::load_state(r)?;
                let same = hist.binning() == *binning && hist.bins() == *bins;
                same.then(|| hist.to_words(words))?;
            }
            Kernel::Array { cap, lane } => {
                let seq = SeqArray::load_state(r)?;
                if seq.feature_len() != *cap {
                    return None;
                }
                let (data, dropped) = seq.into_parts();
                (arrays[*lane], words[0]) = (data, f64::from_bits(dropped));
            }
        }
        Some(())
    }
}

/// Where one reducing function's state lives in a group.
enum Lane {
    /// An `f_damped{λ}` window of a 1-D bank.
    Damped(f64),
    /// A 2-D window of a pair bank: its λ and its outputs.
    Pair(f64, BidirOut),
    /// Every other function, as a kernel over words of its own.
    Kernel(Kernel),
}

impl Lane {
    /// The lane of one reducing function. Each parameter is checked as the
    /// streaming type checks it.
    fn of(f: &ReduceFn) -> Lane {
        let hist = |h: Option<Histogram>, out| {
            let h = h.expect("validated histogram");
            Kernel::Hist {
                binning: h.binning(),
                bins: h.bins(),
                out,
            }
        };
        Lane::Kernel(match f {
            ReduceFn::Sum => Kernel::Sum,
            ReduceFn::Mean => Kernel::Welford(WelfordOut::Mean),
            ReduceFn::Var => Kernel::Welford(WelfordOut::Var),
            ReduceFn::Std => Kernel::Welford(WelfordOut::Std),
            ReduceFn::Min => Kernel::MinMax(MinMaxOut::Min),
            ReduceFn::Max => Kernel::MinMax(MinMaxOut::Max),
            ReduceFn::Skew => Kernel::Moments(MomentsOut::Skew),
            ReduceFn::Kur => Kernel::Moments(MomentsOut::Kurtosis),
            ReduceFn::Card { k } => {
                HyperLogLog::new(*k).expect("validated bucket exponent");
                Kernel::Card(*k)
            }
            ReduceFn::Array { cap } => {
                SeqArray::new(*cap).expect("validated capacity");
                // The plan numbers the level's arrays.
                Kernel::Array { cap: *cap, lane: 0 }
            }
            ReduceFn::Hist { width, bins } => {
                hist(Histogram::fixed(*width, *bins), HistOut::Counts)
            }
            ReduceFn::HistLog { unit, base, bins } => {
                hist(Histogram::geometric(*unit, *base, *bins), HistOut::Counts)
            }
            ReduceFn::Pdf { width, bins } => hist(Histogram::fixed(*width, *bins), HistOut::Pdf),
            ReduceFn::Cdf { width, bins } => hist(Histogram::fixed(*width, *bins), HistOut::Cdf),
            ReduceFn::Percent { width, bins, q } => hist(
                Histogram::fixed(*width, *bins),
                HistOut::Percentile(*q / 100.0),
            ),
            ReduceFn::Mag => return Lane::Pair(0.0, BidirOut::Mag),
            ReduceFn::Radius => return Lane::Pair(0.0, BidirOut::Radius),
            ReduceFn::Cov => return Lane::Pair(0.0, BidirOut::Cov),
            ReduceFn::Pcc => return Lane::Pair(0.0, BidirOut::Pcc),
            ReduceFn::Damped { lambda } => return Lane::Damped(*lambda),
            ReduceFn::Damped2d { lambda } => return Lane::Pair(*lambda, BidirOut::Quad),
        })
    }
}

/// Per-group state of one `map` operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MapState {
    last_ts_ns: Option<u64>,
    last_dir: i64,
    burst_id: u64,
}

impl MapState {
    /// Whether `func` reads or writes a state. A map that does not keeps
    /// none in its group.
    fn kept_by(func: MapFn) -> bool {
        match func {
            MapFn::FIpt | MapFn::FSpeed | MapFn::FBurst => true,
            MapFn::FOne | MapFn::FDirection => false,
        }
    }

    /// Applies the mapping function for one record, given the source value.
    ///
    /// Returns `None` when the function has no output for this record (e.g.
    /// `f_ipt` on a group's first packet).
    pub fn apply(&mut self, func: MapFn, src: Option<f64>, rec: &RecordView) -> Option<f64> {
        match func {
            MapFn::FOne => Some(1.0),
            MapFn::FIpt => {
                let prev = self.last_ts_ns.replace(rec.ts_ns);
                prev.map(|p| rec.ts_ns.saturating_sub(p) as f64)
            }
            MapFn::FSpeed => {
                let prev = self.last_ts_ns.replace(rec.ts_ns);
                prev.and_then(|p| {
                    let dt = rec.ts_ns.saturating_sub(p) as f64;
                    if dt <= 0.0 {
                        None
                    } else {
                        Some(rec.size * 1e9 / dt) // bytes per second
                    }
                })
            }
            MapFn::FDirection => Some(src.unwrap_or(1.0) * rec.direction as f64),
            MapFn::FBurst => {
                if rec.direction != self.last_dir {
                    self.burst_id += 1;
                    self.last_dir = rec.direction;
                }
                Some(self.burst_id as f64)
            }
        }
    }

    /// Serializes the mapper state.
    pub fn save_state(&self, w: &mut StateWriter) {
        match self.last_ts_ns {
            Some(ts) => {
                w.put_bool(true);
                w.put_u64(ts);
            }
            None => w.put_bool(false),
        }
        w.put_i64(self.last_dir);
        w.put_u64(self.burst_id);
    }

    /// Reads state written by [`MapState::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        let last_ts_ns = if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        };
        Some(MapState {
            last_ts_ns,
            last_dir: r.get_i64()?,
            burst_id: r.get_u64()?,
        })
    }
}

/// Applies a synthesize chain to a feature block.
pub fn apply_synths(mut features: Vec<f64>, synths: &[SynthFn]) -> Vec<f64> {
    for s in synths {
        features = match s {
            SynthFn::Norm => normalize(&features),
            SynthFn::Marker => markers(&features),
            SynthFn::Sample { n } => sample_evenly(&features, *n),
        };
    }
    features
}

/// A precompiled per-record value source.
///
/// The name → slot binding is static per level, so [`LevelPlan::new`]
/// resolves it once and the hot path reduces to an indexed load.
#[derive(Clone, Copy, Debug)]
enum ValueSource {
    /// `rec.size`.
    Size,
    /// `rec.ts_ns`.
    Tstamp,
    /// `rec.direction`.
    Direction,
    /// `rec.tcp_flags`.
    TcpFlags,
    /// Output slot of the map at this index (last writer among those in
    /// scope, preserving the reverse-search semantics).
    Map(usize),
    /// Never resolvable (group-key fields, or a name no map in scope wrote).
    Missing,
}

impl ValueSource {
    /// Binds `field` against the maps in scope (`maps[..upto]` — maps read
    /// only earlier outputs; reduces read all of them).
    fn bind(field: &Field, maps: &[MapOp], upto: usize) -> ValueSource {
        match field {
            Field::Size => ValueSource::Size,
            Field::Tstamp => ValueSource::Tstamp,
            Field::Direction => ValueSource::Direction,
            Field::TcpFlags => ValueSource::TcpFlags,
            Field::Named(n) => maps[..upto]
                .iter()
                .rposition(|m| m.dst.name() == *n)
                .map_or(ValueSource::Missing, ValueSource::Map),
            // Addresses/ports/protocol are group keys, not per-record values;
            // reducing over them is meaningful only via f_card, which hashes
            // whatever numeric it gets. They are not resolvable here.
            _ => ValueSource::Missing,
        }
    }

    /// Reads the value for one record. `map_out` holds this record's map
    /// outputs for every slot a bound source can reference.
    fn read(self, rec: &RecordView, map_out: &[Option<f64>]) -> Option<f64> {
        match self {
            ValueSource::Size => Some(rec.size),
            ValueSource::Tstamp => Some(rec.ts_ns as f64),
            ValueSource::Direction => Some(rec.direction as f64),
            ValueSource::TcpFlags => Some(f64::from(rec.tcp_flags)),
            ValueSource::Map(i) => map_out[i],
            ValueSource::Missing => None,
        }
    }
}

/// Where in a group's words one reducer — or one run of damped windows —
/// keeps its accumulator.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// A run of `f_damped` windows: index into [`LevelPlan::banks1`].
    Bank1(usize),
    /// A run of 2-D windows: index into [`LevelPlan::banks2`].
    Bank2(usize),
    /// Any other reducer: index into [`LevelPlan::kernels`].
    Kernel(usize),
}

/// One `reduce` of a level: where its value comes from, which slots it
/// feeds and how its feature block is synthesized.
#[derive(Clone, Debug)]
struct ReducePlan {
    source: ValueSource,
    /// This reduce's slots, as a range of [`LevelPlan::slots`].
    slots: Range<usize>,
    /// Its reducing functions: one per kernel, one per bank window.
    reducers: usize,
    synths: Vec<SynthFn>,
}

/// One reduce's sample of one record: its value, the value's hash (for
/// `f_card`), when it was seen and which side of a 2-D window it feeds.
#[derive(Clone, Copy, Debug)]
struct Sample {
    value: f64,
    hash: u32,
    ts_ns: u64,
    into_a: bool,
}

/// Map outputs of one record live on the stack up to this many maps.
const STACK_MAPS: usize = 8;

/// Everything about a level that is the same for every group: the map
/// functions, the bound value sources, the reduce layout with the damped
/// windows' decay rates and every other reducer's kernel, and a fresh
/// group's words. Built once where the engine is constructed; a
/// [`GroupExec`] is an index into its level's [`GroupSlab`] and is driven
/// through its plan.
#[derive(Clone, Debug)]
pub struct LevelPlan {
    /// Each map's function, its bound source, which references only the
    /// outputs of earlier maps, and its index into a group's map states
    /// when it keeps one.
    maps: Vec<(MapFn, ValueSource, Option<usize>)>,
    reduces: Vec<ReducePlan>,
    /// Every reduce's slots, in policy order — the order `update`,
    /// `finalize_into` and `save_state` walk, whatever the slots hold.
    slots: Vec<Slot>,
    /// Each 1-D bank and the word of a group's words it starts at.
    banks1: Vec<(usize, DampedBank)>,
    /// Each 2-D bank and the word it starts at.
    banks2: Vec<(usize, PairBank)>,
    /// Each kernel and its run of a group's words.
    kernels: Vec<(Range<usize>, Kernel)>,
    /// A fresh group's words: the banks and kernels one after another in
    /// slot order.
    fresh: Box<[f64]>,
    /// `f_array`s of a group, each a sequence of its own.
    arrays: usize,
    /// Feature length of every group of the level.
    feature_len: usize,
}

impl LevelPlan {
    /// Plans the execution of `level`. Each maximal run of `f_damped` in a
    /// `reduce` becomes one bank, and so does each run of 2-D functions;
    /// every other reducer is a kernel.
    pub fn new(level: &LevelProgram) -> Self {
        let mut map_states = 0;
        let maps = (level.maps.iter().enumerate())
            .map(|(i, m)| {
                let state = MapState::kept_by(m.func).then(|| {
                    map_states += 1;
                    map_states - 1
                });
                (m.func, ValueSource::bind(&m.src, &level.maps, i), state)
            })
            .collect();
        let (mut slots, mut kernels) = (Vec::new(), Vec::new());
        let mut banks1: Vec<(usize, DampedBank)> = Vec::new();
        let mut banks2: Vec<(usize, PairBank)> = Vec::new();
        let mut arrays = 0;
        let reduces = level
            .reduces
            .iter()
            .map(|r| {
                let first = slots.len();
                for f in &r.funcs {
                    match (Lane::of(f), slots[first..].last()) {
                        (Lane::Damped(lambda), Some(Slot::Bank1(i))) => banks1[*i].1.push(lambda),
                        (Lane::Pair(lambda, out), Some(Slot::Bank2(i))) => {
                            banks2[*i].1.push(lambda, out);
                        }
                        (Lane::Damped(lambda), _) => {
                            banks1.push((0, DampedBank::new(lambda)));
                            slots.push(Slot::Bank1(banks1.len() - 1));
                        }
                        (Lane::Pair(lambda, out), _) => {
                            banks2.push((0, PairBank::new(lambda, out)));
                            slots.push(Slot::Bank2(banks2.len() - 1));
                        }
                        (Lane::Kernel(mut kernel), _) => {
                            if let Kernel::Array { lane, .. } = &mut kernel {
                                (*lane, arrays) = (arrays, arrays + 1);
                            }
                            kernels.push((0..0, kernel));
                            slots.push(Slot::Kernel(kernels.len() - 1));
                        }
                    }
                }
                ReducePlan {
                    source: ValueSource::bind(&r.src, &level.maps, level.maps.len()),
                    slots: first..slots.len(),
                    reducers: r.funcs.len(),
                    synths: r.synths.clone(),
                }
            })
            .collect();
        // The banks and kernels, one after another in slot order, make a
        // group's words.
        let mut words = 0;
        for slot in &slots {
            match *slot {
                Slot::Bank1(i) => (banks1[i].0, words) = (words, words + banks1[i].1.words()),
                Slot::Bank2(i) => (banks2[i].0, words) = (words, words + banks2[i].1.words()),
                Slot::Kernel(i) => {
                    let (run, kernel) = &mut kernels[i];
                    *run = words..words + kernel.words();
                    words = run.end;
                }
            }
        }
        let mut fresh = vec![0.0; words];
        for (run, kernel) in &kernels {
            kernel.fresh(&mut fresh[run.clone()]);
        }
        LevelPlan {
            maps,
            reduces,
            slots,
            banks1,
            banks2,
            kernels,
            fresh: fresh.into(),
            arrays,
            feature_len: level.feature_len(),
        }
    }

    /// Appends reduce `r`'s feature block, read from a group's words and
    /// arrays, to `out`, through its `synthesize` chain.
    fn emit_block(&self, r: &ReducePlan, words: &[f64], arrays: &[Vec<f64>], out: &mut Vec<f64>) {
        let slots = &self.slots[r.slots.clone()];
        if r.synths.is_empty() {
            self.finalize_slots(slots, words, arrays, out);
        } else {
            let mut block = Vec::new();
            self.finalize_slots(slots, words, arrays, &mut block);
            out.extend(apply_synths(block, &r.synths));
        }
    }

    fn finalize_slots(
        &self,
        slots: &[Slot],
        words: &[f64],
        arrays: &[Vec<f64>],
        out: &mut Vec<f64>,
    ) {
        for slot in slots {
            match *slot {
                Slot::Bank1(i) => {
                    let (at, bank) = &self.banks1[i];
                    bank.finalize_into(&words[*at..], out);
                }
                Slot::Bank2(i) => {
                    let (at, bank) = &self.banks2[i];
                    bank.finalize_into(&words[*at..], out);
                }
                Slot::Kernel(i) => {
                    let (run, kernel) = &self.kernels[i];
                    kernel.finalize_into(&words[run.clone()], arrays, out);
                }
            }
        }
    }

    /// Feeds one reduce's sample to its `slots`, each slot then appending
    /// its features to `emit` when there is one. Inlined into both of
    /// [`GroupExec::update`]'s calls, so the one without `emit` carries no
    /// trace of it.
    #[inline(always)]
    fn update_slots(
        &self,
        slots: &[Slot],
        words: &mut [f64],
        arrays: &mut [Vec<f64>],
        s: Sample,
        memo: &mut DecayMemo,
        mut emit: Option<&mut Vec<f64>>,
    ) {
        for slot in slots {
            let emit = emit.as_deref_mut();
            match *slot {
                Slot::Bank1(i) => {
                    let (at, bank) = &self.banks1[i];
                    bank.update(&mut words[*at..], s.value, s.ts_ns, memo, emit);
                }
                Slot::Bank2(i) => {
                    let (at, bank) = &self.banks2[i];
                    let state = &mut words[*at..];
                    bank.update(state, s.value, s.ts_ns, s.into_a, memo, emit);
                }
                Slot::Kernel(i) => {
                    let (run, kernel) = &self.kernels[i];
                    let words = &mut words[run.clone()];
                    kernel.update(words, arrays, s.value, s.hash);
                    if let Some(out) = emit {
                        kernel.finalize_into(words, arrays, out);
                    }
                }
            }
        }
    }
}

/// Groups per chunk of a [`GroupSlab`]. A chunk of Kitsune's widest level
/// (a channel's 720 bytes of bank words) is ~46 KB, under glibc's mmap
/// threshold, so chunks freed at teardown go back to the allocator's arena
/// and the next engine's chunks do not fault their pages in again.
pub const SLAB_CHUNK_GROUPS: usize = 64;

/// One kind of group state, a run of values per group, kept in chunks of
/// [`SLAB_CHUNK_GROUPS`] groups that are allocated whole and never grown,
/// copied or moved. A state of no values allocates nothing.
#[derive(Clone, Debug)]
struct Chunks<T> {
    /// A fresh group's values; their number is the stride.
    fresh: Box<[T]>,
    chunks: Vec<Box<[T]>>,
}

impl<T: Clone + Default + PartialEq> Chunks<T> {
    fn new(fresh: Box<[T]>) -> Self {
        Chunks {
            fresh,
            chunks: Vec::new(),
        }
    }

    /// Makes room for group `at`, the first past every group so far: a new
    /// chunk of fresh groups when `at` starts one. A chunk starts as default
    /// values — `f64` words as the allocator's zeroed memory, whose fresh
    /// pages a group faults in when it is used, not when its chunk is made —
    /// and a template that is not all defaults is then written group by
    /// group.
    fn grow_to(&mut self, at: usize) {
        let stride = self.fresh.len();
        if stride > 0 && at == self.chunks.len() * SLAB_CHUNK_GROUPS {
            let mut chunk = vec![T::default(); SLAB_CHUNK_GROUPS * stride];
            if self.fresh.iter().any(|v| *v != T::default()) {
                for group in chunk.chunks_exact_mut(stride) {
                    group.clone_from_slice(&self.fresh);
                }
            }
            self.chunks.push(chunk.into_boxed_slice());
        }
    }

    #[inline]
    fn get(&self, at: usize) -> &[T] {
        let stride = self.fresh.len();
        if stride == 0 {
            return &[];
        }
        let chunk = &self.chunks[at / SLAB_CHUNK_GROUPS];
        &chunk[at % SLAB_CHUNK_GROUPS * stride..][..stride]
    }

    #[inline]
    fn get_mut(&mut self, at: usize) -> &mut [T] {
        let stride = self.fresh.len();
        if stride == 0 {
            return &mut [];
        }
        let chunk = &mut self.chunks[at / SLAB_CHUNK_GROUPS];
        &mut chunk[at % SLAB_CHUNK_GROUPS * stride..][..stride]
    }

    /// Makes group `at` fresh again, dropping what its values own.
    fn reset(&mut self, at: usize) {
        let stride = self.fresh.len();
        if stride == 0 {
            return;
        }
        let chunk = &mut self.chunks[at / SLAB_CHUNK_GROUPS];
        let values = &mut chunk[at % SLAB_CHUNK_GROUPS * stride..][..stride];
        for (value, fresh) in values.iter_mut().zip(&self.fresh[..]) {
            *value = fresh.clone();
        }
    }
}

/// All state of one level's groups: the states of a group's maps that keep
/// one (`f_ipt`, `f_speed`, `f_burst`), its words — its damped banks and
/// every other reducer's kernel state, one after another — and its
/// `f_array` sequences sit at one index, in three chunked lanes.
/// Released indices are reset, go on a free list and are handed out again
/// before any lane grows. A level's table and its slab are cloned, cleared
/// and restored together: a [`GroupExec`] is an index into the slab it was
/// created in.
#[derive(Clone, Debug)]
pub struct GroupSlab {
    maps: Chunks<MapState>,
    words: Chunks<f64>,
    /// One growing sequence per `f_array` of the level; empty, so holding
    /// nothing on the heap, until its first sample.
    arrays: Chunks<Vec<f64>>,
    /// Indices handed out so far, live or released.
    len: usize,
    /// Released indices.
    free: Vec<usize>,
}

impl GroupSlab {
    /// An empty slab for the groups of `plan`'s level.
    pub fn new(plan: &LevelPlan) -> Self {
        let states = plan.maps.iter().filter(|(.., s)| s.is_some()).count();
        GroupSlab {
            maps: Chunks::new(vec![MapState::default(); states].into()),
            words: Chunks::new(plan.fresh.clone()),
            arrays: Chunks::new(vec![Vec::new(); plan.arrays].into()),
            len: 0,
            free: Vec::new(),
        }
    }

    /// Forgets every group and frees every chunk.
    pub fn clear(&mut self) {
        self.maps.chunks.clear();
        self.words.chunks.clear();
        self.arrays.chunks.clear();
        self.len = 0;
        self.free.clear();
    }

    /// The index of a fresh group's state.
    fn alloc(&mut self) -> usize {
        if let Some(at) = self.free.pop() {
            return at;
        }
        let at = self.len;
        self.len += 1;
        self.maps.grow_to(at);
        self.words.grow_to(at);
        self.arrays.grow_to(at);
        at
    }

    /// Resets group `at` and takes its index back.
    fn release(&mut self, at: usize) {
        self.maps.reset(at);
        self.words.reset(at);
        self.arrays.reset(at);
        self.free.push(at);
    }

    /// Group `at`'s map states, words and arrays.
    #[inline]
    fn state_mut(&mut self, at: usize) -> (&mut [MapState], &mut [f64], &mut [Vec<f64>]) {
        let GroupSlab {
            maps,
            words,
            arrays,
            ..
        } = self;
        (maps.get_mut(at), words.get_mut(at), arrays.get_mut(at))
    }
}

/// One group at one granularity level: where its state sits in the level's
/// [`GroupSlab`], and nothing else — no allocation of its own. Every method
/// takes the [`LevelPlan`] the group was created from and that slab.
///
/// Not `Clone`: a copy of the index would share the state behind it. A
/// group is copied only together with its slab, by [`GroupExec::fork`].
#[derive(Debug)]
pub struct GroupExec {
    at: usize,
}

impl GroupExec {
    /// A fresh group of `plan`'s level, its state at a fresh index of
    /// `slab`.
    pub fn new(slab: &mut GroupSlab) -> Self {
        GroupExec { at: slab.alloc() }
    }

    /// This group in a clone of its slab: the same index.
    pub fn fork(&self) -> Self {
        GroupExec { at: self.at }
    }

    /// Returns the group's index to `slab`, whose next new group reuses it.
    pub fn release(self, slab: &mut GroupSlab) {
        slab.release(self.at);
    }

    /// Feeds one record through the level's maps and reduces.
    ///
    /// `key_hash` is the switch-computed hash, reused by `f_card`. `memo`
    /// serves repeated decay factors; the caller clears it once per record
    /// (it may span the levels of that record). With `out` — a per-packet
    /// vector — the group appends its feature block in the same walk: each
    /// slot emits from the state it has just updated, a slot with no sample
    /// only emits, and a reduce with a `synthesize` chain emits its block
    /// once its slots have updated. The block is what
    /// [`GroupExec::finalize_into`] appends after the update.
    pub fn update(
        &mut self,
        plan: &LevelPlan,
        slab: &mut GroupSlab,
        rec: &RecordView,
        key_hash: u32,
        memo: &mut DecayMemo,
        mut out: Option<&mut Vec<f64>>,
    ) {
        let (maps, words, arrays) = slab.state_mut(self.at);
        // Slot `i` is written before anything reads it.
        let (mut stack, mut heap) = ([None; STACK_MAPS], Vec::new());
        let map_out: &mut [Option<f64>] = if plan.maps.len() <= STACK_MAPS {
            &mut stack[..plan.maps.len()]
        } else {
            heap.resize(plan.maps.len(), None);
            &mut heap
        };
        // Evaluate maps in order; later maps may read earlier outputs. A
        // map that keeps no state applies to one it does not touch.
        let mut stateless = MapState::default();
        for (i, (func, source, state)) in plan.maps.iter().enumerate() {
            let state = state.map_or(&mut stateless, |s| &mut maps[s]);
            map_out[i] = state.apply(*func, source.read(rec, map_out), rec);
        }
        for r in &plan.reduces {
            let sample = r.source.read(rec, map_out).map(|value| Sample {
                value,
                hash: mix_hash(key_hash, value),
                ts_ns: rec.ts_ns,
                into_a: rec.direction >= 0,
            });
            let slots = &plan.slots[r.slots.clone()];
            let Some(out) = out.as_deref_mut() else {
                if let Some(s) = sample {
                    plan.update_slots(slots, words, arrays, s, memo, None);
                }
                continue;
            };
            match sample {
                Some(s) if r.synths.is_empty() => {
                    plan.update_slots(slots, words, arrays, s, memo, Some(out));
                }
                // A synthesize chain reads the whole block: the slots
                // update, then the block emits.
                Some(s) => {
                    plan.update_slots(slots, words, arrays, s, memo, None);
                    plan.emit_block(r, words, arrays, out);
                }
                // No sample (e.g. f_ipt's first packet): the block only
                // emits.
                None => plan.emit_block(r, words, arrays, out),
            }
        }
    }

    /// Emits the group's feature block (reduces in order, synthesized).
    pub fn finalize(&self, plan: &LevelPlan, slab: &GroupSlab) -> Vec<f64> {
        let mut out = Vec::with_capacity(plan.feature_len);
        self.finalize_into(plan, slab, &mut out);
        out
    }

    /// Appends the group's feature block to `out` — the buffer-reusing form
    /// of [`GroupExec::finalize`].
    pub fn finalize_into(&self, plan: &LevelPlan, slab: &GroupSlab, out: &mut Vec<f64>) {
        let (words, arrays) = (slab.words.get(self.at), slab.arrays.get(self.at));
        for r in &plan.reduces {
            plan.emit_block(r, words, arrays, out);
        }
    }

    /// Serializes the group's dynamic state (mapper state + reducer
    /// accumulators, in policy order). Banks and kernels are layout, not
    /// state: the bytes are one record per reducer — a variant tag, then
    /// the estimator's state as its streaming type writes it, a bank
    /// window's as the window alone writes it.
    pub fn save_state(&self, plan: &LevelPlan, slab: &GroupSlab, w: &mut StateWriter) {
        let maps = slab.maps.get(self.at);
        let (words, arrays) = (slab.words.get(self.at), slab.arrays.get(self.at));
        // One record per map: a map that keeps no state writes a fresh one.
        w.put_u16(plan.maps.len() as u16);
        for (.., state) in &plan.maps {
            state.map_or(MapState::default(), |s| maps[s]).save_state(w);
        }
        w.put_u16(plan.reduces.len() as u16);
        for r in &plan.reduces {
            w.put_u16(r.reducers as u16);
            for slot in &plan.slots[r.slots.clone()] {
                match *slot {
                    Slot::Bank1(b) => {
                        let (at, bank) = &plan.banks1[b];
                        for i in 0..bank.len() {
                            w.put_u8(TAG_DAMPED);
                            bank.window(&words[*at..], i).save_state(w);
                        }
                    }
                    Slot::Bank2(b) => {
                        let (at, bank) = &plan.banks2[b];
                        for i in 0..bank.len() {
                            w.put_u8(TAG_PAIR);
                            bank.window(&words[*at..], i).save_state(w);
                        }
                    }
                    Slot::Kernel(k) => {
                        let (run, kernel) = &plan.kernels[k];
                        kernel.save_state(&words[run.clone()], arrays, w);
                    }
                }
            }
        }
    }

    /// Restores a group of `plan`'s level, at a fresh index of `slab`, from
    /// the dynamic state written by [`GroupExec::save_state`]. Returns `None`
    /// — and releases the index — when the snapshot's shape does not match
    /// the plan (different policy), when a damped window's λ is not the
    /// plan's or the windows of one bank disagree on their shared header, or
    /// when the input is corrupt.
    pub fn load_state(
        plan: &LevelPlan,
        slab: &mut GroupSlab,
        r: &mut StateReader<'_>,
    ) -> Option<Self> {
        let g = GroupExec::new(slab);
        match g.load_into(plan, slab, r) {
            Some(()) => Some(g),
            None => {
                g.release(slab);
                None
            }
        }
    }

    fn load_into(
        &self,
        plan: &LevelPlan,
        slab: &mut GroupSlab,
        r: &mut StateReader<'_>,
    ) -> Option<()> {
        let (maps, words, arrays) = slab.state_mut(self.at);
        if r.get_u16()? as usize != plan.maps.len() {
            return None;
        }
        for (.., state) in &plan.maps {
            let loaded = MapState::load_state(r)?;
            match state {
                Some(s) => maps[*s] = loaded,
                // No group could have written a stateless map's state.
                None if loaded != MapState::default() => return None,
                None => {}
            }
        }
        if r.get_u16()? as usize != plan.reduces.len() {
            return None;
        }
        for reduce in &plan.reduces {
            if r.get_u16()? as usize != reduce.reducers {
                return None;
            }
            for slot in &plan.slots[reduce.slots.clone()] {
                match *slot {
                    Slot::Bank1(b) => {
                        let (at, bank) = &plan.banks1[b];
                        for i in 0..bank.len() {
                            if r.get_u8()? != TAG_DAMPED {
                                return None;
                            }
                            let window = DampedStat::load_state(r)?;
                            bank.load_window(&mut words[*at..], i, &window)?;
                        }
                    }
                    Slot::Bank2(b) => {
                        let (at, bank) = &plan.banks2[b];
                        for i in 0..bank.len() {
                            if r.get_u8()? != TAG_PAIR {
                                return None;
                            }
                            let window = DampedPair::load_state(r)?;
                            bank.load_window(&mut words[*at..], i, &window)?;
                        }
                    }
                    Slot::Kernel(k) => {
                        let (run, kernel) = &plan.kernels[k];
                        kernel.load_state(&mut words[run.clone()], arrays, r)?;
                    }
                }
            }
        }
        Some(())
    }
}

/// Mixes the group-key hash with a sample value into a 32-bit hash for
/// `f_card` (fmix32 finalizer over the folded bits).
fn mix_hash(key_hash: u32, value: f64) -> u32 {
    let vb = value.to_bits();
    let mut h = key_hash ^ (vb ^ (vb >> 32)) as u32;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^= h >> 16;
    h
}

/// Builds a [`RecordView`] from a parsed packet (software path).
pub fn view_of_packet(p: &superfe_net::PacketRecord) -> RecordView {
    RecordView {
        size: f64::from(p.size),
        ts_ns: p.ts_ns,
        direction: p.direction_factor(),
        tcp_flags: p.tcp_flags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::pktstream;
    use crate::compile::compile;
    use proptest::prelude::*;
    use superfe_net::Granularity;

    fn level_of(src_policy: crate::ast::Policy) -> LevelProgram {
        compile(&src_policy).unwrap().nic.levels.remove(0)
    }

    /// A level's plan, its slab and one fresh group of it.
    struct One {
        plan: LevelPlan,
        slab: GroupSlab,
        g: GroupExec,
    }

    impl One {
        /// One record into the group, under a memo of its own as an
        /// engine's would be after its per-record `clear`.
        fn feed(&mut self, rec: &RecordView, key_hash: u32) {
            let memo = &mut DecayMemo::new();
            (self.g).update(&self.plan, &mut self.slab, rec, key_hash, memo, None);
        }

        fn finalize(&self) -> Vec<f64> {
            self.g.finalize(&self.plan, &self.slab)
        }
    }

    fn group_of(src_policy: crate::ast::Policy) -> One {
        let plan = LevelPlan::new(&level_of(src_policy));
        let mut slab = GroupSlab::new(&plan);
        let g = GroupExec::new(&mut slab);
        One { plan, slab, g }
    }

    fn rec(size: f64, ts_ms: u64, dir: i64) -> RecordView {
        RecordView {
            size,
            ts_ns: ts_ms * 1_000_000,
            direction: dir,
            tcp_flags: 0,
        }
    }

    #[test]
    fn basic_stats_group() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .reduce(
                "size",
                vec![ReduceFn::Mean, ReduceFn::Var, ReduceFn::Min, ReduceFn::Max],
            )
            .collect_group(Granularity::Flow)
            .build()
            .unwrap();
        let mut g = group_of(p);
        for (i, s) in [100.0, 200.0, 300.0].iter().enumerate() {
            g.feed(&rec(*s, i as u64, 1), 0);
        }
        let f = g.finalize();
        assert_eq!(f.len(), 4);
        assert!((f[0] - 200.0).abs() < 1e-9); // mean
        assert!((f[1] - 6666.666).abs() < 1.0); // var
        assert_eq!(f[2], 100.0); // min
        assert_eq!(f[3], 300.0); // max
    }

    #[test]
    fn ipt_skips_first_packet() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .map("ipt", "tstamp", MapFn::FIpt)
            .reduce("ipt", vec![ReduceFn::Mean, ReduceFn::Sum])
            .collect_group(Granularity::Flow)
            .build()
            .unwrap();
        let mut g = group_of(p);
        g.feed(&rec(100.0, 0, 1), 0);
        g.feed(&rec(100.0, 10, 1), 0);
        g.feed(&rec(100.0, 30, 1), 0);
        let f = g.finalize();
        // Two IPT samples: 10ms and 20ms (in ns).
        assert!((f[0] - 15e6).abs() < 1.0, "mean ipt {}", f[0]);
        assert!((f[1] - 30e6).abs() < 1.0, "sum ipt {}", f[1]);
    }

    #[test]
    fn direction_sequence_matches_fig5() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .map("one", "_", MapFn::FOne)
            .map("d", "one", MapFn::FDirection)
            .reduce("d", vec![ReduceFn::Array { cap: 6 }])
            .collect_group(Granularity::Flow)
            .build()
            .unwrap();
        let mut g = group_of(p);
        for (i, dir) in [1i64, 1, -1, 1, -1, -1].iter().enumerate() {
            g.feed(&rec(100.0, i as u64, *dir), 0);
        }
        assert_eq!(g.finalize(), vec![1.0, 1.0, -1.0, 1.0, -1.0, -1.0]);
    }

    #[test]
    fn burst_ids_increment_on_flip() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .map("b", "_", MapFn::FBurst)
            .reduce("b", vec![ReduceFn::Max])
            .collect_group(Granularity::Flow)
            .build()
            .unwrap();
        let mut g = group_of(p);
        for (i, dir) in [1i64, 1, -1, -1, 1].iter().enumerate() {
            g.feed(&rec(100.0, i as u64, *dir), 0);
        }
        // Three bursts.
        assert_eq!(g.finalize(), vec![3.0]);
    }

    #[test]
    fn speed_requires_positive_gap() {
        let mut st = MapState::default();
        let r0 = rec(1000.0, 0, 1);
        assert_eq!(st.apply(MapFn::FSpeed, None, &r0), None);
        let r1 = rec(1000.0, 1, 1); // 1000 B over 1 ms -> 1e6 B/s
        let v = st.apply(MapFn::FSpeed, None, &r1).unwrap();
        assert!((v - 1e6).abs() < 1.0, "speed {v}");
        // Same timestamp: no output.
        assert_eq!(st.apply(MapFn::FSpeed, None, &r1), None);
    }

    #[test]
    fn damped2d_splits_by_direction() {
        let p = pktstream()
            .groupby(Granularity::Channel)
            .reduce("size", vec![ReduceFn::Damped2d { lambda: 0.0 }])
            .collect_group(Granularity::Channel)
            .build()
            .unwrap();
        let mut g = group_of(p);
        g.feed(&rec(300.0, 0, 1), 0);
        g.feed(&rec(400.0, 1, -1), 0);
        let f = g.finalize();
        assert_eq!(f.len(), 4);
        assert!((f[0] - 500.0).abs() < 1e-6, "magnitude {}", f[0]); // 3-4-5
    }

    #[test]
    fn synth_chain_applies() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .map("one", "_", MapFn::FOne)
            .map("d", "one", MapFn::FDirection)
            .reduce("d", vec![ReduceFn::Array { cap: 4 }])
            .synthesize(SynthFn::Norm)
            .synthesize(SynthFn::Sample { n: 2 })
            .collect_group(Granularity::Flow)
            .build()
            .unwrap();
        let mut g = group_of(p);
        for (i, dir) in [1i64, -1, 1, -1].iter().enumerate() {
            g.feed(&rec(100.0, i as u64, *dir), 0);
        }
        let f = g.finalize();
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.abs() <= 1.0));
    }

    #[test]
    fn feature_len_is_stable() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .reduce(
                "size",
                vec![ReduceFn::Hist {
                    width: 100.0,
                    bins: 16,
                }],
            )
            .collect_group(Granularity::Flow)
            .build()
            .unwrap();
        let g = group_of(p);
        assert_eq!(g.plan.feature_len, 16);
        assert_eq!(g.finalize().len(), 16);
    }

    #[test]
    fn histlog_uses_geometric_bins() {
        let p = pktstream()
            .groupby(Granularity::Flow)
            .reduce(
                "size",
                vec![ReduceFn::HistLog {
                    unit: 1.0,
                    base: 2.0,
                    bins: 8,
                }],
            )
            .collect_group(Granularity::Flow)
            .build()
            .unwrap();
        let mut g = group_of(p);
        // Edges: 0,1,3,7,15,... — 0.5 -> bin 0, 2 -> bin 1, 5 -> bin 2.
        for (i, s) in [0.5, 2.0, 5.0].iter().enumerate() {
            g.feed(&rec(*s, i as u64, 1), 0);
        }
        let f = g.finalize();
        assert_eq!(f[0], 1.0);
        assert_eq!(f[1], 1.0);
        assert_eq!(f[2], 1.0);
    }

    #[test]
    fn cardinality_uses_hash_path() {
        let p = pktstream()
            .groupby(Granularity::Host)
            .reduce("size", vec![ReduceFn::Card { k: 8 }])
            .collect_group(Granularity::Host)
            .build()
            .unwrap();
        let mut g = group_of(p);
        for i in 0..500u32 {
            // 100 distinct sizes.
            g.feed(&rec(f64::from(i % 100), u64::from(i), 1), 0);
        }
        let est = g.finalize()[0];
        assert!((est - 100.0).abs() / 100.0 < 0.3, "estimate {est}");
    }

    /// Bytes a fresh group of `plan`'s level keeps in its slab — map states,
    /// words and `f_array` sequences — and the allocations of its own, which
    /// only a sequence makes, on its first sample.
    fn heap_of(plan: &LevelPlan) -> (usize, usize) {
        let mut slab = GroupSlab::new(plan);
        let g = GroupExec::new(&mut slab);
        let arrays = slab.arrays.get(g.at);
        let block = std::mem::size_of_val(slab.maps.get(g.at))
            + std::mem::size_of_val(slab.words.get(g.at))
            + std::mem::size_of_val(arrays);
        (block, arrays.iter().filter(|a| a.capacity() > 0).count())
    }

    #[test]
    fn kitsune_groups_stay_within_their_measured_sizes() {
        const WINDOWS: &str = "{5}, X{3}, X{1}, X{0.1}, X{0.01}";
        let d1 = format!("[f_damped{}]", WINDOWS.replace('X', "f_damped"));
        let d2 = format!("[f_damped2d{}]", WINDOWS.replace('X', "f_damped2d"));
        let src = format!(
            "pktstream\n.groupby(socket)\n.reduce(size, {d1})\n.reduce(size, {d2})\n.collect(pkt)\n\
             .groupby(channel)\n.map(ipt, tstamp, f_ipt)\n.reduce(size, {d1})\n\
             .reduce(size, {d2})\n.reduce(ipt, {d1})\n.collect(pkt)\n\
             .groupby(host)\n.reduce(size, {d1})\n.reduce(size, {d1})\n.collect(pkt)"
        );
        let levels = compile(&crate::dsl::parse(&src).unwrap())
            .unwrap()
            .nic
            .levels;
        let heap: Vec<(usize, usize)> =
            levels.iter().map(|l| heap_of(&LevelPlan::new(l))).collect();
        // The §6.2 model sizes the socket group at 280 bytes of 4-byte words;
        // the host engine keeps f64 words and stays under 2.2 times that.
        assert!(heap[0].0 <= 600, "socket group {:?}", heap[0]);
        assert!(heap[1].0 <= 760, "channel group {:?}", heap[1]);
        // The host level inherits the channel level's `ipt` map state.
        assert!(heap[2].0 <= 320, "host group {:?}", heap[2]);
        // No Kitsune group allocates anything of its own.
        assert!(heap.iter().all(|&(_, allocs)| allocs == 0), "{heap:?}");
        // A socket is two banks of five windows and nothing else.
        let socket = LevelPlan::new(&levels[0]);
        assert!(matches!(socket.slots[..], [Slot::Bank1(0), Slot::Bank2(0)]));
        assert_eq!((socket.banks1[0].1.len(), socket.banks2[0].1.len()), (5, 5));
        assert!(socket.kernels.is_empty() && socket.maps.is_empty());
    }

    #[test]
    fn flow_groups_stay_within_their_measured_sizes() {
        let size_of = |src: &str| {
            let level = level_of(crate::dsl::parse(src).unwrap());
            heap_of(&LevelPlan::new(&level))
        };
        // flow_bytes: a Sum's two words and a MinMax's three, no map.
        let flow_bytes = "pktstream\n.groupby(flow)\n.reduce(size, [f_sum, f_max])\n.collect(flow)";
        assert_eq!(size_of(flow_bytes), (40, 0));
        // flow_stats: three Welford runs and two MinMax runs (15 words),
        // and `f_ipt`'s map state.
        let flow_stats =
            "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.map(ipt, tstamp, f_ipt)\n\
                          .reduce(ipt, [f_mean, f_var])\n.reduce(size, [f_mean, f_min, f_max])\n\
                          .collect(flow)";
        assert_eq!(size_of(flow_stats), (152, 0));
        // NPOD: two histograms of 16 and 20 bins with their totals and a
        // Sum (40 words), and `f_ipt`'s map state; `f_one` keeps none.
        let npod = "pktstream\n.groupby(flow)\n.map(one, _, f_one)\n.map(ipt, tstamp, f_ipt)\n\
                    .reduce(size, [ft_hist{100, 16}])\n.collect(flow)\n\
                    .reduce(ipt, [ft_hist{10000000, 20}])\n.collect(flow)\n\
                    .reduce(one, [f_sum])\n.collect(flow)";
        assert_eq!(size_of(npod), (352, 0));
        // AWF's fixed part: the dropped count and an empty sequence, which
        // reserves none of its 5,000 values until a sample; neither of its
        // maps keeps a state.
        let awf = "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.map(one, _, f_one)\n\
                   .map(dirseq, one, f_direction)\n.reduce(dirseq, [f_array{5000}])\n.collect(flow)";
        assert_eq!(size_of(awf), (32, 0));
    }

    #[test]
    fn a_bank_is_a_run_within_one_reduce() {
        let src = "pktstream\n.groupby(channel)\n\
                   .reduce(size, [f_damped{5}, f_sum, f_damped{3}, f_damped{1}])\n\
                   .reduce(size, [f_damped{0.1}])\n\
                   .reduce(size, [f_damped2d{1}, f_mag, f_damped{1}, f_pcc])\n.collect(channel)";
        let plan = LevelPlan::new(
            &compile(&crate::dsl::parse(src).unwrap())
                .unwrap()
                .nic
                .levels[0],
        );
        let shape: Vec<(char, usize)> = plan
            .slots
            .iter()
            .map(|s| match s {
                Slot::Bank1(i) => ('1', plan.banks1[*i].1.len()),
                Slot::Bank2(i) => ('2', plan.banks2[*i].1.len()),
                Slot::Kernel(_) => ('g', 1),
            })
            .collect();
        let want = [
            ('1', 1),
            ('g', 1),
            ('1', 2),
            ('1', 1),
            ('2', 2),
            ('1', 1),
            ('2', 1),
        ];
        assert_eq!(shape, want);
        // The banks' and the kernel's words tile a group's words.
        let words: usize = plan.banks1.iter().map(|(_, b)| b.words()).sum::<usize>()
            + plan.banks2.iter().map(|(_, b)| b.words()).sum::<usize>()
            + plan.kernels.iter().map(|(_, k)| k.words()).sum::<usize>();
        assert_eq!(plan.fresh.len(), words);
    }

    /// A socket-like group that has seen both directions: one reduce of
    /// Kitsune's five 1-D windows, one of its five 2-D windows.
    fn kitsune_socket_snapshot() -> (LevelPlan, Vec<u8>) {
        let src = "pktstream\n.groupby(socket)\n\
                   .reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])\n\
                   .reduce(size, [f_damped2d{5}, f_damped2d{3}, f_damped2d{1}, f_damped2d{0.1}, f_damped2d{0.01}])\n\
                   .collect(pkt)";
        let mut g = group_of(crate::dsl::parse(src).unwrap());
        for (i, dir) in [1i64, -1, 1, 1, -1].iter().enumerate() {
            g.feed(&rec(100.0 + i as f64, i as u64, *dir), 0);
        }
        let mut w = StateWriter::new();
        g.g.save_state(&g.plan, &g.slab, &mut w);
        (g.plan, w.into_bytes())
    }

    /// Byte offsets in [`kitsune_socket_snapshot`]'s bytes: the map count,
    /// the reduce count and the first reduce's reducer count come first; a
    /// 1-D window's record is a tag and a `DampedStat` (λ, w, LS, SS, last_ts,
    /// seen); a 2-D window's a tag and a `DampedPair` (two such, then SR, w3,
    /// the residuals, last_ts, seen).
    const STAT: usize = 4 * 8 + 8 + 1;
    const ONE_D: usize = 1 + STAT;
    const TWO_D: usize = 1 + 2 * STAT + 4 * 8 + 8 + 1;
    const FIRST_1D: usize = 3 * 2;
    const FIRST_2D: usize = FIRST_1D + 5 * ONE_D + 2;

    fn loads(plan: &LevelPlan, bytes: &[u8]) -> bool {
        let mut r = StateReader::new(bytes);
        let slab = &mut GroupSlab::new(plan);
        GroupExec::load_state(plan, slab, &mut r).is_some_and(|_| r.is_empty())
    }

    #[test]
    fn a_snapshot_window_with_another_lambda_does_not_load() {
        let (plan, mut bytes) = kitsune_socket_snapshot();
        assert!(loads(&plan, &bytes));
        // The lowest bit of window 2's λ.
        bytes[FIRST_1D + 2 * ONE_D + 1] ^= 1;
        assert!(!loads(&plan, &bytes));
    }

    #[test]
    fn a_snapshot_window_on_a_clock_of_its_own_does_not_load() {
        let (plan, mut bytes) = kitsune_socket_snapshot();
        // Window 3's last_ts, its lowest bit flipped.
        bytes[FIRST_1D + 3 * ONE_D + 1 + 4 * 8] ^= 1;
        assert!(!loads(&plan, &bytes));
    }

    #[test]
    fn a_snapshot_pair_whose_b_side_forgot_its_samples_does_not_load() {
        let (plan, mut bytes) = kitsune_socket_snapshot();
        // Window 1's b-side `seen`: the group has seen side b, so it is 1.
        let seen_b = FIRST_2D + TWO_D + 1 + STAT + STAT - 1;
        assert_eq!(bytes[seen_b], 1);
        bytes[seen_b] = 0;
        assert!(!loads(&plan, &bytes));
    }

    /// A flow group of one reduce of `funcs` over `size` that has seen a few
    /// packets, and its snapshot bytes.
    fn general_snapshot(funcs: &str) -> (LevelPlan, Vec<u8>) {
        let src = format!("pktstream\n.groupby(flow)\n.reduce(size, [{funcs}])\n.collect(flow)");
        let mut g = group_of(crate::dsl::parse(&src).unwrap());
        for (i, size) in [120.0, 1400.0, 64.0].iter().enumerate() {
            g.feed(&rec(*size, i as u64, 1), 17 + i as u32);
        }
        let mut w = StateWriter::new();
        g.g.save_state(&g.plan, &g.slab, &mut w);
        (g.plan, w.into_bytes())
    }

    #[test]
    fn a_histogram_of_another_bin_count_does_not_load() {
        let (plan, bytes) = general_snapshot("ft_hist{100, 16}");
        assert!(loads(&plan, &bytes));
        let (_, wider) = general_snapshot("ft_hist{100, 17}");
        assert!(!loads(&plan, &wider), "the group vector would grow a value");
        let (_, other) = general_snapshot("ft_histlog{1, 2, 16}");
        assert!(
            !loads(&plan, &other),
            "geometric bins where the policy says fixed"
        );
    }

    #[test]
    fn a_histogram_bin_count_past_the_bytes_does_not_load() {
        let (plan, mut bytes) = general_snapshot("ft_hist{100, 16}");
        // Map, reduce and reducer counts, the tag, the binning's tag and
        // width: then the bin count.
        let bins = 3 * 2 + 1 + 1 + 8;
        assert_eq!(bytes[bins..bins + 4], 16u32.to_le_bytes());
        bytes[bins..bins + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(!loads(&plan, &bytes));
    }

    #[test]
    fn an_array_of_another_cap_does_not_load() {
        let (plan, mut bytes) = general_snapshot("f_array{4}");
        assert!(loads(&plan, &bytes));
        // The counts and the tag, then the cap: 2^26 would finalize to
        // 67,108,864 values.
        let cap = 3 * 2 + 1;
        assert_eq!(bytes[cap..cap + 4], 4u32.to_le_bytes());
        bytes[cap..cap + 4].copy_from_slice(&(1u32 << 26).to_le_bytes());
        assert!(!loads(&plan, &bytes));
    }

    #[test]
    fn a_stateless_map_with_a_state_does_not_load() {
        let src =
            "pktstream\n.groupby(flow)\n.map(one, _, f_one)\n.reduce(one, [f_sum])\n.collect(flow)";
        let mut g = group_of(crate::dsl::parse(src).unwrap());
        g.feed(&rec(100.0, 0, 1), 0);
        let mut w = StateWriter::new();
        g.g.save_state(&g.plan, &g.slab, &mut w);
        let mut bytes = w.into_bytes();
        assert!(loads(&g.plan, &bytes));
        // The map count, then `f_one`'s record: no last timestamp, the last
        // direction, then the burst count, which no `f_one` moves.
        let burst = 2 + 1 + 8;
        assert_eq!(bytes[burst..burst + 8], 0u64.to_le_bytes());
        bytes[burst] = 1;
        assert!(!loads(&g.plan, &bytes));
    }

    #[test]
    fn a_cardinality_sketch_of_another_size_does_not_load() {
        let (plan, bytes) = general_snapshot("f_card{8}");
        assert!(loads(&plan, &bytes));
        let (_, larger) = general_snapshot("f_card{10}");
        assert!(!loads(&plan, &larger));
    }

    #[test]
    fn more_maps_than_the_stack_holds() {
        let mut b = pktstream().groupby(Granularity::Flow);
        for i in 0..=STACK_MAPS {
            b = b.map(&format!("m{i}"), "_", MapFn::FOne);
        }
        let last = format!("m{STACK_MAPS}");
        let p = b
            .map("d", &last, MapFn::FDirection)
            .reduce("d", vec![ReduceFn::Sum])
            .collect_group(Granularity::Flow)
            .build()
            .unwrap();
        let mut g = group_of(p);
        assert!(g.plan.maps.len() > STACK_MAPS);
        for (i, dir) in [1i64, -1, -1].iter().enumerate() {
            g.feed(&rec(100.0, i as u64, *dir), 0);
        }
        assert_eq!(g.finalize(), vec![-1.0]);
    }

    /// One reducer as the shape before banks and kernels kept it: its
    /// streaming type with the output it selects, or one damped window on
    /// its own, updated and finalized reducer by reducer and with no memo.
    enum RefReducer {
        Sum(Sum),
        Welford(Welford, WelfordOut),
        MinMax(MinMax, MinMaxOut),
        Moments(Moments, MomentsOut),
        Card(HyperLogLog),
        Array(SeqArray),
        Hist(Histogram, HistOut),
        Damped(DampedStat),
        Bidir(DampedPair, BidirOut),
    }

    impl RefReducer {
        fn new(f: &ReduceFn) -> Self {
            let pair = |lambda, which| RefReducer::Bidir(DampedPair::new(lambda), which);
            let fixed = |width, bins, which| {
                RefReducer::Hist(Histogram::fixed(width, bins).unwrap(), which)
            };
            match *f {
                ReduceFn::Sum => RefReducer::Sum(Sum::new()),
                ReduceFn::Mean => RefReducer::Welford(Welford::new(), WelfordOut::Mean),
                ReduceFn::Var => RefReducer::Welford(Welford::new(), WelfordOut::Var),
                ReduceFn::Std => RefReducer::Welford(Welford::new(), WelfordOut::Std),
                ReduceFn::Min => RefReducer::MinMax(MinMax::new(), MinMaxOut::Min),
                ReduceFn::Max => RefReducer::MinMax(MinMax::new(), MinMaxOut::Max),
                ReduceFn::Skew => RefReducer::Moments(Moments::new(), MomentsOut::Skew),
                ReduceFn::Kur => RefReducer::Moments(Moments::new(), MomentsOut::Kurtosis),
                ReduceFn::Card { k } => RefReducer::Card(HyperLogLog::new(k).unwrap()),
                ReduceFn::Array { cap } => RefReducer::Array(SeqArray::new(cap).unwrap()),
                ReduceFn::Hist { width, bins } => fixed(width, bins, HistOut::Counts),
                ReduceFn::HistLog { unit, base, bins } => RefReducer::Hist(
                    Histogram::geometric(unit, base, bins).unwrap(),
                    HistOut::Counts,
                ),
                ReduceFn::Pdf { width, bins } => fixed(width, bins, HistOut::Pdf),
                ReduceFn::Cdf { width, bins } => fixed(width, bins, HistOut::Cdf),
                ReduceFn::Percent { width, bins, q } => {
                    fixed(width, bins, HistOut::Percentile(q / 100.0))
                }
                ReduceFn::Damped { lambda } => RefReducer::Damped(DampedStat::new(lambda)),
                ReduceFn::Damped2d { lambda } => pair(lambda, BidirOut::Quad),
                ReduceFn::Mag => pair(0.0, BidirOut::Mag),
                ReduceFn::Radius => pair(0.0, BidirOut::Radius),
                ReduceFn::Cov => pair(0.0, BidirOut::Cov),
                ReduceFn::Pcc => pair(0.0, BidirOut::Pcc),
            }
        }

        fn update_hashed(&mut self, value: f64, hash: u32, ts_ns: u64, direction: i64) {
            match self {
                RefReducer::Sum(s) => s.update(value),
                RefReducer::Welford(s, _) => s.update(value),
                RefReducer::MinMax(s, _) => s.update(value),
                RefReducer::Moments(s, _) => s.update(value),
                RefReducer::Card(s) => s.update_hash(hash),
                RefReducer::Array(s) => s.update(value),
                RefReducer::Hist(s, _) => s.update(value),
                RefReducer::Damped(d) => d.update_at(value, ts_ns),
                RefReducer::Bidir(p, _) => p.update(value, ts_ns, direction >= 0),
            }
        }

        fn finalize(&self) -> Vec<f64> {
            match self {
                RefReducer::Sum(s) => vec![s.value()],
                RefReducer::Welford(s, which) => vec![match which {
                    WelfordOut::Mean => s.mean(),
                    WelfordOut::Var => s.variance(),
                    WelfordOut::Std => s.std_dev(),
                }],
                RefReducer::MinMax(s, which) => vec![match which {
                    MinMaxOut::Min => s.min(),
                    MinMaxOut::Max => s.max(),
                }],
                RefReducer::Moments(s, which) => vec![match which {
                    MomentsOut::Skew => s.skewness(),
                    MomentsOut::Kurtosis => s.kurtosis(),
                }],
                RefReducer::Card(s) => vec![s.estimate()],
                RefReducer::Array(s) => s.finalize(),
                RefReducer::Hist(s, which) => match which {
                    HistOut::Counts => s.finalize(),
                    HistOut::Pdf => s.pdf(),
                    HistOut::Cdf => s.cdf(),
                    HistOut::Percentile(q) => vec![s.percentile(*q).unwrap_or(0.0)],
                },
                RefReducer::Damped(d) => d.triple().to_vec(),
                RefReducer::Bidir(p, which) => match which {
                    BidirOut::Mag => vec![p.magnitude()],
                    BidirOut::Radius => vec![p.radius()],
                    BidirOut::Cov => vec![p.covariance()],
                    BidirOut::Pcc => vec![p.pcc()],
                    BidirOut::Quad => p.quad().to_vec(),
                },
            }
        }

        /// The variant tag, then the state as the streaming type writes it:
        /// the tags of the one-enum shape, 0 to 6 in declaration order
        /// (arrays before histograms), 7 and 8 for the damped windows.
        fn save_state(&self, w: &mut StateWriter) {
            match self {
                RefReducer::Sum(s) => {
                    w.put_u8(0);
                    s.save_state(w);
                }
                RefReducer::Welford(s, _) => {
                    w.put_u8(1);
                    s.save_state(w);
                }
                RefReducer::MinMax(s, _) => {
                    w.put_u8(2);
                    s.save_state(w);
                }
                RefReducer::Moments(s, _) => {
                    w.put_u8(3);
                    s.save_state(w);
                }
                RefReducer::Card(s) => {
                    w.put_u8(4);
                    s.save_state(w);
                }
                RefReducer::Array(s) => {
                    w.put_u8(5);
                    s.save_state(w);
                }
                RefReducer::Hist(s, _) => {
                    w.put_u8(6);
                    s.save_state(w);
                }
                RefReducer::Damped(d) => {
                    w.put_u8(7);
                    d.save_state(w);
                }
                RefReducer::Bidir(p, _) => {
                    w.put_u8(8);
                    p.save_state(w);
                }
            }
        }
    }

    /// The shape this module had before plans and lanes: every reducer of a
    /// group a [`RefReducer`] in one `Vec` per reduce, fields resolved
    /// by name per record, decay factors computed per window. The banks and
    /// the memo must not differ from it in one bit of output or of snapshot.
    struct RefGroup {
        maps: Vec<MapState>,
        reduces: Vec<Vec<RefReducer>>,
    }

    impl RefGroup {
        fn new(level: &LevelProgram) -> Self {
            RefGroup {
                maps: vec![MapState::default(); level.maps.len()],
                reduces: level
                    .reduces
                    .iter()
                    .map(|r| r.funcs.iter().map(RefReducer::new).collect())
                    .collect(),
            }
        }

        fn lookup(field: &Field, rec: &RecordView, outs: &[(String, Option<f64>)]) -> Option<f64> {
            match field {
                Field::Size => Some(rec.size),
                Field::Tstamp => Some(rec.ts_ns as f64),
                Field::Direction => Some(rec.direction as f64),
                Field::TcpFlags => Some(f64::from(rec.tcp_flags)),
                Field::Named(n) => outs.iter().rev().find(|(name, _)| name == n)?.1,
                _ => None,
            }
        }

        fn update(&mut self, level: &LevelProgram, rec: &RecordView, key_hash: u32) {
            let mut outs = Vec::new();
            for (op, state) in level.maps.iter().zip(&mut self.maps) {
                let src = Self::lookup(&op.src, rec, &outs);
                outs.push((op.dst.name(), state.apply(op.func, src, rec)));
            }
            for (op, instances) in level.reduces.iter().zip(&mut self.reduces) {
                let Some(value) = Self::lookup(&op.src, rec, &outs) else {
                    continue;
                };
                let hash = mix_hash(key_hash, value);
                for inst in instances {
                    inst.update_hashed(value, hash, rec.ts_ns, rec.direction);
                }
            }
        }

        fn finalize(&self, level: &LevelProgram) -> Vec<f64> {
            let mut out = Vec::new();
            for (op, instances) in level.reduces.iter().zip(&self.reduces) {
                let block = instances.iter().flat_map(RefReducer::finalize).collect();
                out.extend(apply_synths(block, &op.synths));
            }
            out
        }

        fn save_state(&self, w: &mut StateWriter) {
            w.put_u16(self.maps.len() as u16);
            for state in &self.maps {
                state.save_state(w);
            }
            w.put_u16(self.reduces.len() as u16);
            for instances in &self.reduces {
                w.put_u16(instances.len() as u16);
                for inst in instances {
                    inst.save_state(w);
                }
            }
        }
    }

    /// Every reducing function, with small parameters.
    fn any_reduce_fn() -> impl Strategy<Value = ReduceFn> {
        let lambda = || prop_oneof![Just(0.0), Just(0.01), Just(0.1), Just(1.0), Just(5.0)];
        let (width, bins) = (100.0, 4);
        prop_oneof![
            prop_oneof![
                Just(ReduceFn::Sum),
                Just(ReduceFn::Mean),
                Just(ReduceFn::Var),
                Just(ReduceFn::Std),
                Just(ReduceFn::Max),
                Just(ReduceFn::Min),
                Just(ReduceFn::Kur),
                Just(ReduceFn::Skew),
                Just(ReduceFn::Mag),
                Just(ReduceFn::Radius),
                Just(ReduceFn::Cov),
                Just(ReduceFn::Pcc),
                Just(ReduceFn::Card { k: 4 }),
                Just(ReduceFn::Array { cap: 5 }),
                Just(ReduceFn::Hist { width, bins }),
                Just(ReduceFn::HistLog {
                    unit: 1.0,
                    base: 2.0,
                    bins
                }),
                Just(ReduceFn::Pdf { width, bins }),
                Just(ReduceFn::Cdf { width, bins }),
                Just(ReduceFn::Percent {
                    width,
                    bins,
                    q: 50.0
                }),
            ],
            // A third each to 1-D and 2-D windows, so banks and the general
            // lane interleave and the memo sees repeats.
            lambda().prop_map(|lambda| ReduceFn::Damped { lambda }),
            lambda().prop_map(|lambda| ReduceFn::Damped2d { lambda }),
        ]
    }

    /// Kitsune's five decay rates.
    const KITSUNE: [f64; 5] = [5.0, 3.0, 1.0, 0.1, 0.01];

    /// Runs the plan must cut into banks: split by another function (two
    /// banks of one), Kitsune's five windows of each kind, and a 2-D run of
    /// every output beside a 1-D window.
    fn bank_runs() -> impl Strategy<Value = Vec<ReduceFn>> {
        let damped = |lambda| ReduceFn::Damped { lambda };
        let damped2d = |lambda| ReduceFn::Damped2d { lambda };
        prop_oneof![
            Just(vec![damped(5.0), ReduceFn::Sum, damped(3.0)]),
            Just(KITSUNE.map(damped).to_vec()),
            Just(KITSUNE.map(damped2d).to_vec()),
            // Banks a record's memo must tell apart from Kitsune's at the
            // same gap: two of its rates, in another order and alone.
            Just(vec![damped(3.0), damped(5.0)]),
            Just(vec![damped2d(5.0), damped2d(3.0)]),
            Just(vec![
                damped2d(1.0),
                ReduceFn::Mag,
                ReduceFn::Pcc,
                damped(0.1),
                ReduceFn::Cov,
                ReduceFn::Radius,
                damped2d(0.01),
            ]),
        ]
    }

    /// Kitsune's channel-level shape over `f_ipt`: both banks take their
    /// first sample from the group's second packet.
    fn ipt_level() -> LevelProgram {
        let reduce = |funcs| crate::compile::ReduceOp {
            src: Field::from_name("ipt"),
            funcs,
            synths: vec![],
        };
        LevelProgram {
            granularity: Granularity::Channel,
            maps: vec![MapOp {
                dst: Field::from_name("ipt"),
                src: Field::Tstamp,
                func: MapFn::FIpt,
            }],
            reduces: vec![
                reduce(KITSUNE.map(|lambda| ReduceFn::Damped { lambda }).to_vec()),
                reduce(KITSUNE.map(|lambda| ReduceFn::Damped2d { lambda }).to_vec()),
            ],
            collect: None,
        }
    }

    /// Banks behind `synthesize` chains: Kitsune's windows over `f_ipt`,
    /// whose first packet emits a block of empty windows, normalized; and
    /// 2-D windows marked and sampled. Each block emits once its bank has
    /// updated, never window by window.
    fn synth_level() -> LevelProgram {
        let mut level = ipt_level();
        level.reduces[0].synths = vec![SynthFn::Norm];
        level.reduces[1].src = Field::Size;
        level.reduces[1].synths = vec![SynthFn::Marker, SynthFn::Sample { n: 7 }];
        level
    }

    /// A level built directly (no policy validation in the way): one of a
    /// few map chains, one to three reduces over sources that may or may not
    /// resolve, with and without `synthesize` chains — or [`ipt_level`], or
    /// [`synth_level`].
    fn any_level() -> impl Strategy<Value = LevelProgram> {
        prop_oneof![
            random_level(),
            random_level(),
            random_level(),
            Just(ipt_level()),
            Just(synth_level())
        ]
    }

    fn random_level() -> impl Strategy<Value = LevelProgram> {
        let map = |dst: &str, src: &str, func| MapOp {
            dst: Field::from_name(dst),
            src: Field::from_name(src),
            func,
        };
        let maps = prop_oneof![
            Just(vec![]),
            Just(vec![map("ipt", "tstamp", MapFn::FIpt)]),
            Just(vec![
                map("one", "_", MapFn::FOne),
                map("d", "one", MapFn::FDirection)
            ]),
            Just(vec![
                map("ipt", "tstamp", MapFn::FSpeed),
                map("b", "_", MapFn::FBurst),
                // A later writer of the same name wins.
                map("ipt", "tstamp", MapFn::FIpt),
            ]),
        ];
        let src = prop_oneof![
            Just("size"),
            Just("ipt"),
            Just("d"),
            Just("b"),
            Just("tcpflags"),
            Just("direction")
        ];
        let synths = prop_oneof![
            Just(vec![]),
            Just(vec![]),
            Just(vec![SynthFn::Norm]),
            Just(vec![SynthFn::Marker, SynthFn::Sample { n: 2 }]),
        ];
        let funcs = prop_oneof![
            proptest::collection::vec(any_reduce_fn(), 1..6),
            proptest::collection::vec(any_reduce_fn(), 1..6),
            bank_runs(),
        ];
        let reduce =
            (src, funcs, synths).prop_map(|(src, funcs, synths)| crate::compile::ReduceOp {
                src: Field::from_name(src),
                funcs,
                synths,
            });
        (maps, proptest::collection::vec(reduce, 1..4)).prop_map(|(maps, reduces)| LevelProgram {
            granularity: Granularity::Flow,
            maps,
            reduces,
            collect: None,
        })
    }

    /// `(group, size, timestamp step, ingress, flags)`; steps repeat a
    /// timestamp, advance it by 1 µs to 1 s, or go back 200 ms.
    fn any_records() -> impl Strategy<Value = Vec<(usize, u16, i64, bool, u8)>> {
        let step = prop_oneof![
            Just(0i64),
            Just(1_000),
            Just(1_000_000),
            Just(100_000_000),
            Just(1_000_000_000),
            Just(-200_000_000)
        ];
        proptest::collection::vec(
            (0usize..2, 40u16..1500, step, proptest::bool::ANY, 0u8..64),
            1..48,
        )
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Cases of the differential below: `BANK_DIFF_CASES` (`ci.sh` raises
    /// it), else 96.
    fn bank_diff_cases() -> u32 {
        let cases = std::env::var("BANK_DIFF_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(96);
        eprintln!("damped bank differential: {cases} cases");
        cases
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(bank_diff_cases()))]

        #[test]
        fn lanes_and_memo_match_the_reference_bitwise(
            levels in proptest::collection::vec(any_level(), 1..4),
            records in any_records(),
        ) {
            let plans: Vec<LevelPlan> = levels.iter().map(LevelPlan::new).collect();
            // Two groups per level, in one slab per level.
            let mut slabs: Vec<GroupSlab> = plans.iter().map(GroupSlab::new).collect();
            let mut groups: Vec<[GroupExec; 2]> = plans
                .iter()
                .zip(&mut slabs)
                .map(|(_, s)| [GroupExec::new(s), GroupExec::new(s)])
                .collect();
            let mut refs: Vec<[RefGroup; 2]> = levels
                .iter()
                .map(|l| [RefGroup::new(l), RefGroup::new(l)])
                .collect();
            let mut memo = DecayMemo::new();
            let mut ts_ns = 1_000_000_000i64;
            for (n, (which, size, step, ingress, flags)) in records.into_iter().enumerate() {
                ts_ns = (ts_ns + step).max(0);
                let view = RecordView {
                    size: f64::from(size),
                    ts_ns: ts_ns as u64,
                    direction: if ingress { 1 } else { -1 },
                    tcp_flags: flags,
                };
                // One memo per record, shared by its levels.
                memo.clear();
                for (li, level) in levels.iter().enumerate() {
                    let hash = 0x9E37_79B9u32.wrapping_mul((li * 2 + which + 1) as u32);
                    let (plan, slab, g) = (&plans[li], &mut slabs[li], &mut groups[li][which]);
                    // One walk, emitting as it updates, against the
                    // reference's update, then finalize.
                    let mut emitted = Vec::new();
                    g.update(plan, slab, &view, hash, &mut memo, Some(&mut emitted));
                    refs[li][which].update(level, &view, hash);
                    let want = bits(&refs[li][which].finalize(level));
                    prop_assert_eq!(bits(&emitted), want.clone(), "record {} level {}", n, li);
                    prop_assert_eq!(bits(&g.finalize(plan, slab)), want, "record {} level {}", n, li);
                }
            }
            for (li, plan) in plans.iter().enumerate() {
                let slab = &mut slabs[li];
                for which in 0..2 {
                    let (mut got, mut want) = (StateWriter::new(), StateWriter::new());
                    groups[li][which].save_state(plan, slab, &mut got);
                    refs[li][which].save_state(&mut want);
                    let got = got.into_bytes();
                    prop_assert_eq!(&got, &want.into_bytes(), "snapshot of level {}", li);
                    // And the bytes load back into the same banks.
                    let mut r = StateReader::new(&got);
                    let loaded = GroupExec::load_state(plan, slab, &mut r);
                    prop_assert!(loaded.is_some() && r.is_empty());
                    let mut again = StateWriter::new();
                    loaded.unwrap().save_state(plan, slab, &mut again);
                    prop_assert_eq!(&again.into_bytes(), &got);
                }
            }
        }
    }
}
