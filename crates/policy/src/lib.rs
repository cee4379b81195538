//! The SuperFE policy language (§4 of the paper).
//!
//! A *policy* describes a feature extractor as a chain of Spark-style
//! dataflow operators over a packet stream:
//!
//! ```text
//! pktstream
//!   .filter(tcp.exist)
//!   .groupby(flow)
//!   .map(ipt, tstamp, f_ipt)
//!   .reduce(size, [f_mean, f_var, f_min, f_max])
//!   .collect(flow)
//! ```
//!
//! This crate provides:
//!
//! - [`ast`]: the operator AST — [`Policy`], [`Operator`], predicates and the
//!   full Table 5 function inventory ([`MapFn`], [`ReduceFn`], [`SynthFn`]).
//! - [`builder`]: a fluent Rust builder mirroring the DSL
//!   ([`builder::pktstream`]).
//! - [`dsl`]: a parser for the textual form used in the paper's figures,
//!   plus the LoC metric of Table 3.
//! - [`validate`]: the well-formedness rules (operator ordering, granularity
//!   dependency chains, field availability).
//! - [`analyze`]: the static analyzer behind `superfe check` — structural
//!   diagnostics (`SF01xx`), dataflow lints (`SF02xx`), value-range and
//!   overflow proofs (`SF05xx`), the static cost model (`SF06xx`), and the
//!   [`Diagnostic`]/[`AnalysisReport`] types the hardware feasibility passes
//!   (`SF03xx`/`SF04xx`, in the switch and NIC crates) share.
//! - [`ir`]: the typed dataflow IR behind the value analysis and the
//!   analysis-gated optimizer ([`ir::opt`]: filter pushdown, map fusion,
//!   dead-field elimination).
//! - [`exec`]: the shared `map`/`reduce`/`synthesize` execution semantics
//!   used by both the SmartNIC engine and the software baseline.
//! - [`mod@compile`]: the policy enforcement engine, splitting a policy into a
//!   [`compile::SwitchProgram`] (`groupby` + `filter`, deployed on the
//!   switch) and a [`compile::NicProgram`] (`map`/`reduce`/`synthesize`/
//!   `collect`, deployed on the SmartNIC), exactly as §4.1's "natural support
//!   to SuperFE architecture" prescribes.

pub mod analyze;
pub mod ast;
pub mod builder;
pub mod compile;
pub mod dsl;
pub mod error;
pub mod exec;
pub mod ir;
pub mod validate;

pub use analyze::values::ValueConfig;
pub use analyze::{analyze_policy, analyze_policy_with, AnalysisReport, Diagnostic, Severity};
pub use ast::{CollectUnit, Field, MapFn, Operator, Policy, Predicate, ReduceFn, SynthFn};
pub use builder::pktstream;
pub use compile::{compile, CompiledPolicy, LevelProgram, MetaField, NicProgram, SwitchProgram};
pub use error::PolicyError;
