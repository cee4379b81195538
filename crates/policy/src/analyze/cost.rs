//! `SF06xx` static cost model: per-packet work and state-touch estimates.
//!
//! Derived from the typed IR, before any hardware model is consulted: the
//! counts are properties of the policy alone (ops per packet, bytes of
//! reducer state touched per packet, resident bytes per group), so they can
//! be compared across policies and fed to the NIC cycle model downstream.
//! `superfe explain` renders the full breakdown; the analyzer only speaks up
//! with note-severity findings when a policy is far enough outside the
//! comfortable envelope that placement is likely to struggle.
//!
//! This module owns the *policy* half of the NIC cost model: the only
//! per-function price list in the tree (`reduce_fn_cost`, `map_fn_cost`)
//! and the only walker that totals it per level ([`policy_cost`]). The
//! hardware half — per-record constants and the cycle formula — is
//! `superfe_nic::perf`, which reads nothing of a policy but these totals.

use superfe_net::Granularity;

use super::{codes, Diagnostic};
use crate::ast::{MapFn, Policy, ReduceFn};
use crate::ir::{lower, IrOp};

/// Per-packet ALU op estimate above which `SF0601` notes that worker cores
/// may become compute-bound.
pub const OPS_NOTE_THRESHOLD: usize = 512;

/// Per-packet touched-state estimate (bytes) above which `SF0602` notes that
/// the memory bus may bottleneck.
pub const STATE_NOTE_THRESHOLD: usize = 4096;

/// The per-function price list, reduce side: what one update costs the NIC,
/// as `(ALU ops, divides on the naive path, state bytes touched)`. The ops
/// are arithmetic only; the per-record dispatch/hash overhead lives in the
/// NIC cycle formula.
fn reduce_fn_cost(f: &ReduceFn) -> (usize, bool, usize) {
    // Array/histogram/HLL reducers update a single slot plus a cursor, not
    // their whole resident state.
    const SLOT: usize = 8;
    let state = f.state_bytes();
    match f {
        ReduceFn::Sum | ReduceFn::Max | ReduceFn::Min => (1, false, state),
        ReduceFn::Mean | ReduceFn::Var | ReduceFn::Std => (4, true, state),
        ReduceFn::Kur | ReduceFn::Skew => (6, true, state),
        ReduceFn::Mag | ReduceFn::Radius | ReduceFn::Cov | ReduceFn::Pcc => (8, true, state),
        ReduceFn::Card { .. } => (3, false, SLOT),
        ReduceFn::Array { .. } => (2, false, SLOT),
        ReduceFn::Pdf { .. }
        | ReduceFn::Cdf { .. }
        | ReduceFn::Hist { .. }
        | ReduceFn::HistLog { .. }
        | ReduceFn::Percent { .. } => (3, false, SLOT),
        ReduceFn::Damped { .. } => (6, true, state),
        ReduceFn::Damped2d { .. } => (10, true, state),
    }
}

/// The price list, map side: ALU ops of one application. A map never
/// divides and touches all the state it has (`f_one`, `f_direction`: none).
fn map_fn_cost(f: MapFn) -> usize {
    match f {
        MapFn::FOne | MapFn::FDirection => 1,
        MapFn::FIpt | MapFn::FBurst => 2,
        MapFn::FSpeed => 3,
    }
}

/// Static cost of one groupby level.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelCost {
    /// The level's grouping granularity.
    pub granularity: Granularity,
    /// Mapping functions applied per packet.
    pub maps: usize,
    /// Reducing functions updated per packet.
    pub reduce_funcs: usize,
    /// Estimated ALU ops per packet.
    pub alu_ops: usize,
    /// Divisions per packet on the naive (pre-elimination) path: one per
    /// dividing reduce *op*, whose functions share one normalisation pass.
    pub divisions: usize,
    /// State accesses per packet: one per reduce function and stateful map.
    pub accesses: usize,
    /// State bytes touched per packet.
    pub touched_bytes: usize,
    /// Resident state bytes per group.
    pub resident_bytes: usize,
    /// Feature values this level contributes to the output vector.
    pub feature_dim: usize,
}

impl LevelCost {
    fn new(granularity: Granularity) -> Self {
        LevelCost {
            granularity,
            maps: 0,
            reduce_funcs: 0,
            alu_ops: 0,
            divisions: 0,
            accesses: 0,
            touched_bytes: 0,
            resident_bytes: 0,
            feature_dim: 0,
        }
    }

    fn add_map(&mut self, func: MapFn) {
        self.maps += 1;
        self.alu_ops += map_fn_cost(func);
        self.accesses += usize::from(func.state_bytes() > 0);
        self.touched_bytes += func.state_bytes();
        self.resident_bytes += func.state_bytes();
    }

    fn add_reduce(&mut self, funcs: &[ReduceFn]) {
        self.reduce_funcs += funcs.len();
        self.accesses += funcs.len();
        let mut any_divides = false;
        for f in funcs {
            let (alu_ops, divides, touched_bytes) = reduce_fn_cost(f);
            self.alu_ops += alu_ops;
            any_divides |= divides;
            self.touched_bytes += touched_bytes;
            self.resident_bytes += f.state_bytes();
        }
        // The generated Micro-C normalizes one reduce op's state block with
        // a shared division pass: one division per dividing op, not one per
        // statistic.
        self.divisions += usize::from(any_divides);
    }
}

/// The full static cost breakdown of a policy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PolicyCost {
    /// Match-table entries the filters expand to on the switch.
    pub filter_entries: usize,
    /// Per-level costs, fine to coarse.
    pub levels: Vec<LevelCost>,
}

impl PolicyCost {
    /// Total estimated ALU ops per packet across all levels.
    pub fn total_alu_ops(&self) -> usize {
        self.levels.iter().map(|l| l.alu_ops).sum()
    }

    /// Total divisions per packet on the naive path.
    pub fn total_divisions(&self) -> usize {
        self.levels.iter().map(|l| l.divisions).sum()
    }

    /// Total state accesses per packet.
    pub fn total_accesses(&self) -> usize {
        self.levels.iter().map(|l| l.accesses).sum()
    }

    /// Total state bytes touched per packet.
    pub fn total_touched_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.touched_bytes).sum()
    }

    /// Total resident state bytes per group-of-each-level.
    pub fn total_resident_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.resident_bytes).sum()
    }

    /// Output feature dimension.
    pub fn feature_dimension(&self) -> usize {
        self.levels.iter().map(|l| l.feature_dim).sum()
    }

    /// Plain-text rendering used by `superfe explain`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("cost model (per packet):\n");
        for (i, l) in self.levels.iter().enumerate() {
            writeln!(
                out,
                "  level {} ({}): {} map(s), {} reduce func(s), {} alu op(s), \
                 {} division(s), {} B touched, {} B resident/group, {} feature(s)",
                i + 1,
                l.granularity.name(),
                l.maps,
                l.reduce_funcs,
                l.alu_ops,
                l.divisions,
                l.touched_bytes,
                l.resident_bytes,
                l.feature_dim
            )
            .expect("write");
        }
        writeln!(
            out,
            "  total: {} alu op(s), {} division(s), {} B touched per packet; \
             {} B resident per group; {} filter entries; {} features",
            self.total_alu_ops(),
            self.total_divisions(),
            self.total_touched_bytes(),
            self.total_resident_bytes(),
            self.filter_entries,
            self.feature_dimension()
        )
        .expect("write");
        out
    }
}

/// Computes the static cost of a policy from its typed IR: per level, what
/// the compiled NIC program executes for one record of that level.
pub fn policy_cost(policy: &Policy) -> PolicyCost {
    let ir = lower(policy);
    let mut cost = PolicyCost::default();
    // A later level re-runs every earlier map on per-group state of its own
    // (`compile` hands each `LevelProgram` the maps declared before it).
    let mut inherited: Vec<MapFn> = Vec::new();
    let mut last_dim = 0usize;
    for node in &ir.nodes {
        match &node.op {
            IrOp::Filter { pred } => cost.filter_entries += pred.table_entries(),
            IrOp::GroupBy { granularity } => {
                let mut level = LevelCost::new(*granularity);
                inherited.iter().for_each(|f| level.add_map(*f));
                cost.levels.push(level);
            }
            IrOp::Map { func, .. } => {
                inherited.push(*func);
                if let Some(l) = cost.levels.last_mut() {
                    l.add_map(*func);
                }
            }
            IrOp::Reduce { funcs, .. } => {
                if let Some(l) = cost.levels.last_mut() {
                    l.add_reduce(funcs);
                    last_dim = funcs.iter().map(ReduceFn::feature_len).sum();
                    l.feature_dim += last_dim;
                }
            }
            IrOp::Synthesize { func } => {
                if let Some(l) = cost.levels.last_mut() {
                    // A synthesize replaces the previous stage's features.
                    l.feature_dim -= last_dim;
                    last_dim = func.output_len(last_dim);
                    l.feature_dim += last_dim;
                }
            }
            IrOp::Collect { .. } => {}
        }
    }
    cost
}

/// The `SF06xx` pass: note-severity findings for policies far outside the
/// comfortable per-packet envelope.
pub fn check(policy: &Policy) -> Vec<Diagnostic> {
    let cost = policy_cost(policy);
    let mut out = Vec::new();
    let ops = cost.total_alu_ops();
    if ops > OPS_NOTE_THRESHOLD {
        out.push(
            Diagnostic::note(
                codes::COST_OPS_HIGH,
                format!(
                    "estimated {ops} ALU ops per packet (threshold ~{OPS_NOTE_THRESHOLD}); \
                     NIC worker cores are likely compute-bound"
                ),
            )
            .with_suggestion("split the policy across deployments or drop reducer functions"),
        );
    }
    let touched = cost.total_touched_bytes();
    if touched > STATE_NOTE_THRESHOLD {
        out.push(
            Diagnostic::note(
                codes::COST_STATE_HIGH,
                format!(
                    "estimated {touched} state bytes touched per packet (threshold \
                     ~{STATE_NOTE_THRESHOLD}); the NIC memory bus is likely the bottleneck"
                ),
            )
            .with_suggestion("prefer compact reducers (sums, Welford) over wide per-packet state"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::pktstream;
    use crate::dsl;

    #[test]
    fn cost_counts_levels_maps_and_reduces() {
        let p = dsl::parse(
            "pktstream
             .filter(tcp.exist)
             .groupby(socket)
             .map(one, _, f_one)
             .map(ipt, tstamp, f_ipt)
             .reduce(size, [f_sum, f_mean])
             .collect(socket)
             .reduce(ipt, [f_array{100}])
             .synthesize(ft_sample{10})
             .collect(socket)
             .groupby(host)
             .reduce(size, [f_mean, f_var, f_std])
             .collect(host)",
        )
        .unwrap();
        let c = policy_cost(&p);
        assert_eq!(c.filter_entries, 1);
        assert_eq!(c.levels.len(), 2);
        let l = &c.levels[0];
        assert_eq!(l.maps, 2);
        assert_eq!(l.reduce_funcs, 3);
        // f_one (1) + f_ipt (2) + f_sum (1) + f_mean (4) + f_array (2).
        assert_eq!(l.alu_ops, 10);
        assert_eq!(l.divisions, 1, "only f_mean divides on the naive path");
        assert_eq!(
            l.accesses, 4,
            "three reduce functions and f_ipt; f_one has no state"
        );
        // Synthesize replaced the 100-wide array with 10 samples.
        assert_eq!(l.feature_dim, 2 + 10);
        // The host level re-runs both maps on per-group state of its own,
        // and its three dividing functions share one op's division.
        let host = &c.levels[1];
        assert_eq!((host.maps, host.reduce_funcs, host.accesses), (2, 3, 4));
        assert_eq!(host.alu_ops, 1 + 2 + 3 * 4);
        assert_eq!(host.divisions, 1, "one division per dividing op");
        assert_eq!(c.feature_dimension(), 12 + 3);
        let text = c.render();
        assert!(text.contains("level 1 (socket)"));
        assert!(text.contains("total:"));
    }

    #[test]
    fn moderate_policies_have_no_cost_notes() {
        let p =
            dsl::parse("pktstream .groupby(flow) .reduce(size, [f_mean, f_var]) .collect(flow)")
                .unwrap();
        assert!(check(&p).is_empty());
    }

    #[test]
    fn extreme_policies_get_both_notes() {
        // 110 damped-2d reducers: 1100 ops and 4400 touched bytes per packet.
        let p = pktstream()
            .groupby(superfe_net::Granularity::Flow)
            .reduce("size", vec![ReduceFn::Damped2d { lambda: 1.0 }; 110])
            .collect_group(superfe_net::Granularity::Flow)
            .build_unchecked();
        let ds = check(&p);
        assert!(ds.iter().any(|d| d.code == codes::COST_OPS_HIGH));
        assert!(ds.iter().any(|d| d.code == codes::COST_STATE_HIGH));
        assert!(ds
            .iter()
            .all(|d| d.severity == super::super::Severity::Note));
    }
}
