//! Streaming (one-pass) statistics used by the SuperFE SmartNIC engine.
//!
//! §6.1 of the paper implements the policy language's *reducing functions*
//! with streaming algorithms so that feature computation needs only O(1)
//! state per group and a single pass over the metadata stream:
//!
//! | Module | Paper functions | Algorithm |
//! |---|---|---|
//! | [`welford`] | `f_mean`, `f_var`, `f_std` | Welford's online algorithm (Eq. 1–2) |
//! | [`moments`] | `f_skew`, `f_kur` | one-pass central moments (M2/M3/M4) |
//! | [`simple`] | `f_sum`, `f_max`, `f_min`, count | direct accumulators |
//! | [`hll`] | `f_card` | HyperLogLog with 2^k buckets |
//! | [`hist`] | `ft_hist`, `ft_percent`, `f_cdf`, `f_pdf` | fixed/variable-width histograms |
//! | [`damped`] | Kitsune-style damped-window stats incl. `f_mag`, `f_radius`, `f_cov`, `f_pcc` | exponentially decayed sums |
//! | [`seq`] | `f_array`, `f_marker`, `f_norm`, `ft_sample` | bounded sequence ops |
//! | [`fixed`] | NIC integer path | division-free fixed-point variants (§6.2) |
//! | [`naive`] | — | buffer-everything baselines for the Fig. 15 comparison |
//! | [`transfer`] | — | abstract transfer functions for the SF05xx value analysis |
//!
//! All estimators implement [`Reducer`] and report their state footprint
//! via [`Reducer::state_bytes`] (the quantity Fig. 15 compares). A group
//! lives on exactly one NIC shard, so no partial states are ever combined.

pub mod damped;
pub mod fixed;
pub mod hist;
pub mod hll;
pub mod moments;
pub mod naive;
pub mod reducer;
pub mod seq;
pub mod simple;
pub mod transfer;
pub mod welford;

pub use damped::{BidirOut, DampedBank, DampedPair, DampedStat, DecayMemo, PairBank};
pub use fixed::{FixedWelford, Q16};
pub use hist::Histogram;
pub use hll::HyperLogLog;
pub use moments::Moments;
pub use naive::{NaiveCardinality, NaiveDistribution, NaiveVariance};
pub use reducer::Reducer;
pub use seq::{markers, normalize, sample_evenly, SeqArray};
pub use simple::{Count, MinMax, Sum};
pub use transfer::Interval;
pub use welford::Welford;
