//! The FE-NIC cycle model (§6.2, basis of Figs. 16 and 17).
//!
//! NFP cores are in-order RISC engines; throughput is determined by the
//! cycles spent per metadata record. The model decomposes that cost into
//! compute (ALU work of maps/reduces), hashing, division, and memory-access
//! latency, and exposes the paper's three optimizations as toggles:
//!
//! 1. **Hash reuse**: the switch ships its CRC with each MGPV, so the NIC
//!    skips key hashing.
//! 2. **Threading**: 8 hardware threads per core hide memory latency behind
//!    2-cycle context switches.
//! 3. **Division elimination**: the compare trick replaces ~1500-cycle soft
//!    divisions with a handful of ALU ops.

use superfe_policy::analyze::cost::{map_fn_cost, reduce_fn_cost};
use superfe_policy::NicProgram;

use crate::arch::NfpModel;
use crate::placement::Placement;

/// Optimization toggles (§6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptFlags {
    /// Reuse the switch-computed hash.
    pub reuse_hash: bool,
    /// Hide memory latency with hardware threads.
    pub threading: bool,
    /// Replace per-update divisions with the compare trick.
    pub div_elim: bool,
}

impl OptFlags {
    /// All optimizations on (the shipping configuration).
    pub fn all_on() -> Self {
        OptFlags {
            reuse_hash: true,
            threading: true,
            div_elim: true,
        }
    }

    /// All optimizations off (the Fig. 17 baseline).
    pub fn all_off() -> Self {
        OptFlags {
            reuse_hash: false,
            threading: false,
            div_elim: false,
        }
    }
}

/// Per-record cost estimate.
#[derive(Clone, Copy, Debug)]
pub struct PerfEstimate {
    /// Total effective cycles per metadata record.
    pub cycles_per_record: f64,
    /// Compute-only component (ALU + hash + division).
    pub compute_cycles: f64,
    /// Raw (unhidden) memory-latency component.
    pub memory_cycles: f64,
}

impl PerfEstimate {
    /// Records per second on `cores` cores of `model`.
    pub fn records_per_sec(&self, cores: usize, model: &NfpModel) -> f64 {
        cores as f64 * model.freq_hz / self.cycles_per_record
    }

    /// Original-traffic throughput in Gbps: each record summarizes one
    /// packet of `avg_pkt_bytes` on the monitored link.
    pub fn gbps(&self, cores: usize, model: &NfpModel, avg_pkt_bytes: f64) -> f64 {
        self.records_per_sec(cores, model) * avg_pkt_bytes * 8.0 / 1e9
    }
}

/// Cycle costs of primitive operations on an NFP core.
mod cost {
    /// Per-record dispatch/DMA bookkeeping.
    pub const DISPATCH: f64 = 30.0;
    /// CRC hash of a group key.
    pub const HASH: f64 = 60.0;
    /// The compare trick replacing one division.
    pub const DIV_ELIMINATED: f64 = 6.0;
}

/// The assembled cycle model for one deployed NIC program.
#[derive(Clone, Debug)]
pub struct CycleModel {
    model: NfpModel,
    levels: usize,
    map_cycles: f64,
    reduce_cycles: f64,
    divs_per_record: f64,
    memory_cycles: f64,
    mem_accesses: f64,
}

impl CycleModel {
    /// Builds the model from a compiled program and its state placement.
    pub fn new(program: &NicProgram, placement: &Placement, model: NfpModel) -> Self {
        let mut map_cycles = 0.0;
        let mut reduce_cycles = 0.0;
        let mut divs = 0.0;
        let mut mem_accesses = 0.0;
        for level in &program.levels {
            map_cycles += level
                .maps
                .iter()
                .map(|m| map_fn_cost(m.func).alu_ops as f64)
                .sum::<f64>();
            mem_accesses += level
                .maps
                .iter()
                .filter(|m| m.func.state_bytes() > 0)
                .count() as f64;
            for r in &level.reduces {
                // The generated Micro-C normalizes one reduce op's state
                // block with a shared division pass, so we charge one
                // (expensive) division per dividing op per record, not one
                // per statistic.
                if r.funcs
                    .iter()
                    .any(superfe_policy::ReduceFn::divides_per_update)
                {
                    divs += 1.0;
                }
                for f in &r.funcs {
                    reduce_cycles += reduce_fn_cost(f).alu_ops as f64;
                    mem_accesses += 1.0;
                }
            }
        }
        CycleModel {
            model,
            levels: program.levels.len().max(1),
            map_cycles,
            reduce_cycles,
            divs_per_record: divs,
            memory_cycles: placement.total_cost,
            mem_accesses: mem_accesses.max(1.0),
        }
    }

    /// The hardware model in use.
    pub fn hardware(&self) -> &NfpModel {
        &self.model
    }

    /// Estimates per-record cycles under the given optimization flags.
    pub fn estimate(&self, flags: OptFlags) -> PerfEstimate {
        let hash = if flags.reuse_hash {
            0.0
        } else {
            cost::HASH * self.levels as f64
        };
        let div = if flags.div_elim {
            cost::DIV_ELIMINATED * self.divs_per_record
        } else {
            self.model.soft_div_cycles as f64 * self.divs_per_record
        };
        let compute = cost::DISPATCH + hash + div + self.map_cycles + self.reduce_cycles;
        let memory = self.memory_cycles;
        let cycles = if flags.threading {
            // Threads overlap memory stalls; each access costs two context
            // switches, and the residual latency is divided across threads.
            let switch_overhead = 2.0 * self.model.ctx_switch_cycles as f64 * self.mem_accesses;
            compute + switch_overhead + memory / self.model.threads_per_core as f64
        } else {
            compute + memory
        };
        PerfEstimate {
            cycles_per_record: cycles,
            compute_cycles: compute,
            memory_cycles: memory,
        }
    }

    /// Convenience: throughput in Gbps for `cores` cores, all-on flags.
    pub fn gbps(&self, cores: usize, avg_pkt_bytes: f64) -> f64 {
        self.estimate(OptFlags::all_on())
            .gbps(cores, &self.model, avg_pkt_bytes)
    }
}

/// Per-record cycle estimate straight from the policy-level static cost
/// model, before compilation or state placement. `superfe explain` uses this
/// to turn the abstract `SF06xx` op counts into a concrete throughput figure
/// without deploying anything; the full [`CycleModel`] (which knows the real
/// placement) supersedes it once a program exists.
///
/// Memory accesses are assumed to land in on-island CTM — the optimistic end
/// of the placement spectrum — so this is a lower bound on real cycles.
pub fn cycles_from_cost(
    cost: &superfe_policy::analyze::cost::PolicyCost,
    model: &NfpModel,
    flags: OptFlags,
) -> PerfEstimate {
    let levels = cost.levels.len().max(1) as f64;
    let accesses = (cost.total_accesses() as f64).max(1.0);
    let hash = if flags.reuse_hash {
        0.0
    } else {
        cost::HASH * levels
    };
    let divs = cost.total_divisions() as f64;
    let div = if flags.div_elim {
        cost::DIV_ELIMINATED * divs
    } else {
        model.soft_div_cycles as f64 * divs
    };
    let compute = cost::DISPATCH + hash + div + cost.total_alu_ops() as f64;
    let ctm_latency = model
        .memories
        .iter()
        .find(|m| m.level == crate::arch::MemLevel::Ctm)
        .map(|m| m.latency_cycles as f64)
        .unwrap_or(80.0);
    let memory = ctm_latency * accesses;
    let cycles = if flags.threading {
        let switch_overhead = 2.0 * model.ctx_switch_cycles as f64 * accesses;
        compute + switch_overhead + memory / model.threads_per_core as f64
    } else {
        compute + memory
    };
    PerfEstimate {
        cycles_per_record: cycles,
        compute_cycles: compute,
        memory_cycles: memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::solve_placement;
    use superfe_policy::dsl::parse;
    use superfe_policy::{compile, CompiledPolicy};

    fn compiled(src: &str) -> CompiledPolicy {
        compile(&parse(src).unwrap()).unwrap()
    }

    fn model_for(src: &str) -> CycleModel {
        let c = compiled(src);
        let states = c.nic.states();
        let nfp = NfpModel::nfp4000();
        let p = solve_placement(&states, &nfp, 1).unwrap();
        CycleModel::new(&c.nic, &p, nfp)
    }

    /// Kitsune's shape at a third of its size: three levels, five decay
    /// rates per reduce op (the division is shared per op, so the rates per
    /// op set how much of a record the soft divide is).
    fn kitsune_like() -> CycleModel {
        model_for(
            "pktstream\n.groupby(socket)\n\
             .reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])\n\
             .collect(socket)\n.groupby(channel)\n\
             .reduce(size, [f_damped2d{5}, f_damped2d{3}, f_damped2d{1}, f_damped2d{0.1}, f_damped2d{0.01}])\n\
             .collect(channel)\n.groupby(host)\n\
             .reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])\n\
             .collect(pkt)",
        )
    }

    #[test]
    fn all_optimizations_give_multiple_x_speedup() {
        let m = kitsune_like();
        let off = m.estimate(OptFlags::all_off()).cycles_per_record;
        let on = m.estimate(OptFlags::all_on()).cycles_per_record;
        let speedup = off / on;
        assert!(
            (2.0..20.0).contains(&speedup),
            "speedup {speedup} (off {off}, on {on})"
        );
        // The paper reports ~4x for Kitsune-class policies; we accept a band
        // but check it is the div elimination that dominates.
        let div_only = m
            .estimate(OptFlags {
                div_elim: true,
                ..OptFlags::all_off()
            })
            .cycles_per_record;
        let hash_only = m
            .estimate(OptFlags {
                reuse_hash: true,
                ..OptFlags::all_off()
            })
            .cycles_per_record;
        assert!(
            off - div_only > off - hash_only,
            "division elimination must be the largest single win"
        );
    }

    #[test]
    fn threading_hides_memory_latency() {
        let m = kitsune_like();
        let base = OptFlags {
            threading: false,
            ..OptFlags::all_on()
        };
        let with = m.estimate(OptFlags::all_on());
        let without = m.estimate(base);
        assert!(with.cycles_per_record < without.cycles_per_record);
        assert_eq!(with.memory_cycles, without.memory_cycles);
    }

    #[test]
    fn throughput_scales_linearly_with_cores() {
        let m = kitsune_like();
        let e = m.estimate(OptFlags::all_on());
        let one = e.records_per_sec(1, m.hardware());
        let many = e.records_per_sec(120, m.hardware());
        assert!((many / one - 120.0).abs() < 1e-9);
    }

    #[test]
    fn simple_policy_is_cheaper_than_kitsune() {
        let simple = model_for(
            "pktstream\n.groupby(flow)\n.map(one, _, f_one)\n.map(d, one, f_direction)\n\
             .reduce(d, [f_array{5000}])\n.collect(flow)",
        );
        let s = simple.estimate(OptFlags::all_on()).cycles_per_record;
        let k = kitsune_like()
            .estimate(OptFlags::all_on())
            .cycles_per_record;
        assert!(s < k, "simple {s} vs kitsune {k}");
    }

    #[test]
    fn multi_100gbps_with_full_nics_on_backbone_traffic() {
        // The headline claim: with batching upstream, 120 cores keep up with
        // multi-100Gbps original traffic for MTU-heavy traces.
        let m = kitsune_like();
        let gbps = m.gbps(120, 1246.0);
        assert!(gbps > 100.0, "only {gbps} Gbps");
    }

    #[test]
    fn cost_model_estimate_tracks_policy_weight() {
        use superfe_policy::analyze::cost::policy_cost;
        let light = policy_cost(
            &parse("pktstream\n.groupby(flow)\n.reduce(size, [f_mean])\n.collect(flow)").unwrap(),
        );
        let heavy = policy_cost(
            &parse(
                "pktstream\n.groupby(socket)\n\
                 .reduce(size, [f_damped{5}, f_damped{1}, f_damped{0.1}])\n.collect(socket)\n\
                 .groupby(channel)\n.reduce(size, [f_mag, f_pcc])\n.collect(channel)",
            )
            .unwrap(),
        );
        let nfp = NfpModel::nfp4000();
        let l = cycles_from_cost(&light, &nfp, OptFlags::all_on());
        let h = cycles_from_cost(&heavy, &nfp, OptFlags::all_on());
        assert!(l.cycles_per_record > 0.0);
        assert!(
            h.cycles_per_record > l.cycles_per_record,
            "heavy {} vs light {}",
            h.cycles_per_record,
            l.cycles_per_record
        );
        // Without division elimination the soft divide dominates.
        let naive = cycles_from_cost(&light, &nfp, OptFlags::all_off());
        assert!(naive.cycles_per_record > l.cycles_per_record + 1000.0);
    }

    #[test]
    fn gbps_accounts_for_packet_size() {
        let m = kitsune_like();
        let big = m.gbps(60, 1246.0);
        let small = m.gbps(60, 135.0);
        assert!(big > small * 5.0);
    }
}
