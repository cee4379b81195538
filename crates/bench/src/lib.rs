//! The SuperFE evaluation harness: one module per table/figure of §8.
//!
//! Every module exposes `run() -> String` producing the table the paper
//! reports (same rows/series; functional shapes and hardware-model numbers,
//! plus this machine's wall clock in Figs. 9, 15 and 16). The one `bench`
//! binary runs them by module name: `cargo run --release -p superfe-bench --
//! <all|list|tab02|fig12|...>`. Performance numbers anything is claimed
//! against come from `benchmark/run.sh`, not from this crate.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`experiments::tab02`] | Table 2 — workload trace statistics |
//! | [`experiments::tab03`] | Table 3 — policy LoC / feature dimensions |
//! | [`experiments::tab04`] | Table 4 — switch & NIC resource utilization |
//! | [`experiments::fig09`] | Fig. 9 — throughput vs software baselines |
//! | [`experiments::fig10`] | Fig. 10 — feature extraction error |
//! | [`experiments::fig11`] | Fig. 11 — Kitsune detection accuracy |
//! | [`experiments::fig12`] | Fig. 12 — MGPV aggregation ratio |
//! | [`experiments::fig13`] | Fig. 13 — MGPV vs GPV resource efficiency |
//! | [`experiments::fig14`] | Fig. 14 — aging-mechanism sweep |
//! | [`experiments::fig15`] | Fig. 15 — streaming vs naive algorithms |
//! | [`experiments::fig16`] | Fig. 16 — multi-core scalability |
//! | [`experiments::fig17`] | Fig. 17 — incremental NIC optimizations |
//! | [`experiments::ablations`] | Ablations — long buffers, probe rate, table width |
//! | [`experiments::scale`] | Bounded NIC state — flows × eviction policy |

pub mod experiments;
pub mod util;
