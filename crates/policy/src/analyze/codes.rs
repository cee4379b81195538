//! The stable diagnostic code namespace.
//!
//! Codes never change meaning once shipped; renderers and tests match on
//! them. The hundreds digit selects the analysis layer:
//!
//! | range    | layer                                   | emitted by            |
//! |----------|-----------------------------------------|-----------------------|
//! | `SF01xx` | structural well-formedness (errors)     | `analyze::structural` |
//! | `SF02xx` | dataflow lints (warnings)               | `analyze::dataflow`   |
//! | `SF03xx` | switch resource feasibility             | `superfe-switch`      |
//! | `SF04xx` | SmartNIC memory feasibility             | `superfe-nic`         |
//! | `SF05xx` | value ranges / overflow proofs          | `analyze::values`     |
//! | `SF06xx` | static cost model                       | `analyze::cost`       |
//! | `SF07xx` | cross-policy equivalence / fusion       | `analyze::share`      |
//! | `SF08xx` | shared-prefix analysis / cross-tenant CSE | `analyze::share`    |
//! | `SF09xx` | quantized-inference certification       | `analyze::quant`      |

// --- SF01xx: structural -------------------------------------------------

/// Policy has no operators.
pub const EMPTY_POLICY: &str = "SF0101";
/// Policy never calls `groupby`.
pub const NO_GROUPBY: &str = "SF0102";
/// Policy does not end with `collect`.
pub const NO_TRAILING_COLLECT: &str = "SF0103";
/// A `reduce` is never committed by a `collect` before the chain ends.
pub const UNCOMMITTED_REDUCE: &str = "SF0104";
/// `filter` appears after `groupby`.
pub const FILTER_AFTER_GROUPBY: &str = "SF0105";
/// `map`/`reduce`/`collect` appears before any `groupby`.
pub const OP_BEFORE_GROUPBY: &str = "SF0106";
/// `synthesize` does not follow a `reduce` or another `synthesize`.
pub const SYNTH_WITHOUT_REDUCE: &str = "SF0107";
/// The same granularity is grouped by twice in a row.
pub const DUPLICATE_GROUPBY: &str = "SF0108";
/// A `groupby` chain does not walk the dependency graph fine → coarse.
pub const BAD_GRANULARITY_CHAIN: &str = "SF0109";
/// `collect(g)` names a granularity that was never grouped by.
pub const COLLECT_UNGROUPED: &str = "SF0110";
/// An operator reads a field that is neither builtin nor mapped earlier.
pub const UNKNOWN_FIELD: &str = "SF0111";
/// A `reduce` has an empty function list.
pub const EMPTY_REDUCE: &str = "SF0112";
/// A function received out-of-range parameters.
pub const BAD_PARAMETERS: &str = "SF0113";

// --- SF02xx: dataflow ---------------------------------------------------

/// A `map` defines a field that is never read downstream.
pub const DEAD_MAP: &str = "SF0201";
/// A `map` redefines an existing field (builtin or previously mapped).
pub const SHADOWED_FIELD: &str = "SF0202";
/// A `reduce` whose features are never collected at its level.
pub const UNCOLLECTED_REDUCE: &str = "SF0203";
/// A filter predicate is unsatisfiable; downstream operators see no packets.
pub const UNSATISFIABLE_FILTER: &str = "SF0204";
/// A filter predicate is a tautology and can be removed.
pub const TAUTOLOGICAL_FILTER: &str = "SF0205";

// --- SF03xx: switch resources (emitted by superfe-switch) ----------------

/// Match-table demand exceeds the Tofino budget.
pub const SWITCH_TABLES_EXCEEDED: &str = "SF0301";
/// Stateful-ALU demand exceeds the Tofino budget.
pub const SWITCH_SALUS_EXCEEDED: &str = "SF0302";
/// SRAM demand exceeds the Tofino budget.
pub const SWITCH_SRAM_EXCEEDED: &str = "SF0303";
/// A switch resource is within budget but above the headroom threshold.
pub const SWITCH_HEADROOM: &str = "SF0304";

// --- SF04xx: SmartNIC memory (emitted by superfe-nic) ---------------------

/// The placement problem is infeasible (degenerate table or memory model).
pub const NIC_PLACEMENT_INFEASIBLE: &str = "SF0401";
/// The placement solver fell back to the greedy heuristic (non-optimal).
pub const NIC_PLACEMENT_FALLBACK: &str = "SF0402";
/// Per-group states exceed the bus budget and spill to DRAM.
pub const NIC_DRAM_SPILL: &str = "SF0403";
/// Projected state demand exceeds total NIC memory including DRAM.
pub const NIC_CAPACITY_EXCEEDED: &str = "SF0404";
/// On-chip memory is above the headroom threshold at the projected scale.
pub const NIC_HEADROOM: &str = "SF0405";

// --- SF05xx: value ranges / overflow (emitted by analyze::values) ---------

/// A reducer's accumulator provably overflows its hardware width at the
/// configured batch size (a concrete witness trace exists).
pub const ACC_OVERFLOW: &str = "SF0501";
/// A reducer's accumulator fits its width but with less than 2× margin, or
/// its input interval is unbounded: wraparound is possible.
pub const ACC_WRAP_POSSIBLE: &str = "SF0502";
/// A fixed-point (Q16) accumulator provably saturates at the configured
/// batch size.
pub const Q16_SATURATION: &str = "SF0503";
/// A fixed-point (Q16) accumulator may saturate (bound within 2× of the
/// limit, or unbounded input).
pub const Q16_SAT_POSSIBLE: &str = "SF0504";
/// A histogram over time values uses bins finer than the hardware's 1 µs
/// timestamp tick; bins below the tick can never be distinguished.
pub const PRECISION_LOSS: &str = "SF0505";
/// A reducer consumes the raw timestamp; the 32-bit µs switch metadata wraps
/// about every 71.6 minutes.
pub const TSTAMP_WRAP_HORIZON: &str = "SF0506";

// --- SF06xx: static cost model (emitted by analyze::cost) -----------------

/// Per-packet arithmetic op estimate exceeds the NIC comfort threshold.
pub const COST_OPS_HIGH: &str = "SF0601";
/// Per-packet state bytes touched exceed the memory-bus comfort threshold.
pub const COST_STATE_HIGH: &str = "SF0602";

// --- SF07xx: cross-policy equivalence / fusion (emitted by analyze::share)
// ---------------------------------------------------------------------------

/// Two or more policies are proven semantically equivalent and fusible
/// into one shared extraction plan.
pub const FUSION_CLASS: &str = "SF0701";
/// Two policies share a subplan (filter set or a whole level program) but
/// cannot fuse; the message names the blocking reason.
pub const FUSION_NEAR_MISS: &str = "SF0702";

// --- SF08xx: shared-prefix analysis / cross-tenant CSE (emitted by
// analyze::share) ------------------------------------------------------------

/// Two or more policies share a value-certified stage prefix (parse →
/// groupby key → filter conjunct set): one switch partition can serve all
/// of them, with per-tenant map/reduce tails on the NIC.
pub const SHARE_PREFIX: &str = "SF0801";
/// Two policies share leading stages but diverge before the switch
/// boundary; the message names the first divergent op and the culprit
/// field/constant that broke sharing.
pub const SHARE_NEAR_MISS: &str = "SF0802";
/// Estimated switch/NIC demand saving bought by prefix sharing, priced by
/// the SF06xx cost model.
pub const SHARE_SAVING: &str = "SF0803";

// --- SF09xx: quantized-inference certification (emitted by analyze::quant)
// ---------------------------------------------------------------------------

/// The fixed-point lowering of a detector is certified against this policy:
/// the worst-case |float − quantized| score error is provably within the
/// alert-threshold tolerance over the policy's SF05xx feature hull.
pub const QUANT_CERTIFIED: &str = "SF0901";
/// The fixed-point lowering cannot be certified — the provable error bound
/// exceeds the tolerance or no finite bound exists; the message names the
/// culprit layer.
pub const QUANT_BOUND_EXCEEDED: &str = "SF0902";
/// Cycle-cost note for in-pipeline inference: the integer ALU ops the
/// quantized model adds per emitted feature vector, alongside the policy's
/// own per-packet cost. Admission does not charge it.
pub const QUANT_CYCLE_COST: &str = "SF0903";

#[cfg(test)]
mod tests {
    #[test]
    fn codes_are_unique_and_well_formed() {
        let all = [
            super::EMPTY_POLICY,
            super::NO_GROUPBY,
            super::NO_TRAILING_COLLECT,
            super::UNCOMMITTED_REDUCE,
            super::FILTER_AFTER_GROUPBY,
            super::OP_BEFORE_GROUPBY,
            super::SYNTH_WITHOUT_REDUCE,
            super::DUPLICATE_GROUPBY,
            super::BAD_GRANULARITY_CHAIN,
            super::COLLECT_UNGROUPED,
            super::UNKNOWN_FIELD,
            super::EMPTY_REDUCE,
            super::BAD_PARAMETERS,
            super::DEAD_MAP,
            super::SHADOWED_FIELD,
            super::UNCOLLECTED_REDUCE,
            super::UNSATISFIABLE_FILTER,
            super::TAUTOLOGICAL_FILTER,
            super::SWITCH_TABLES_EXCEEDED,
            super::SWITCH_SALUS_EXCEEDED,
            super::SWITCH_SRAM_EXCEEDED,
            super::SWITCH_HEADROOM,
            super::NIC_PLACEMENT_INFEASIBLE,
            super::NIC_PLACEMENT_FALLBACK,
            super::NIC_DRAM_SPILL,
            super::NIC_CAPACITY_EXCEEDED,
            super::NIC_HEADROOM,
            super::ACC_OVERFLOW,
            super::ACC_WRAP_POSSIBLE,
            super::Q16_SATURATION,
            super::Q16_SAT_POSSIBLE,
            super::PRECISION_LOSS,
            super::TSTAMP_WRAP_HORIZON,
            super::COST_OPS_HIGH,
            super::COST_STATE_HIGH,
            super::FUSION_CLASS,
            super::FUSION_NEAR_MISS,
            super::SHARE_PREFIX,
            super::SHARE_NEAR_MISS,
            super::SHARE_SAVING,
            super::QUANT_CERTIFIED,
            super::QUANT_BOUND_EXCEEDED,
            super::QUANT_CYCLE_COST,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(a.starts_with("SF") && a.len() == 6, "{a}");
            assert!(a[2..].bytes().all(|b| b.is_ascii_digit()), "{a}");
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
