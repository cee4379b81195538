//! The group-table placement ILP (§6.2, Eq. 3–5), solved exactly.
//!
//! Each policy state `s` (size `b_s` bytes, `t_s` accesses per packet) must
//! be placed into exactly one memory level `m` (latency `l_m`, bus width
//! `w_m`), minimizing total access latency `Σ p_{s,m} · t_s · l_m` subject to
//! the bus constraint `n_m · Σ_{s∈m} b_s ≤ w_m`, where `n_m` is the group
//! table's width (entries per 64-byte bucket). DRAM is the escape hatch: it
//! is not bus-constrained (multi-beat bulk access) but is the slowest level.
//!
//! The paper calls Gurobi; the instances are tiny (|S|·|M| ≲ 150 binary
//! variables), so a branch-and-bound search finds the provable optimum in
//! microseconds, with a greedy fallback for adversarially large inputs.

use superfe_policy::compile::StateSpec;

use crate::arch::{MemLevel, NfpModel};

/// A solved placement.
#[derive(Clone, Debug)]
pub struct Placement {
    /// `(state name, memory level)` for every input state, in input order.
    pub assignment: Vec<(String, MemLevel)>,
    /// The objective value `Σ t_s · l_m` (cycles per packet spent on state
    /// access, before thread-level latency hiding).
    pub total_cost: f64,
    /// Whether the solution is the proven optimum (false = greedy fallback).
    pub optimal: bool,
}

impl Placement {
    /// The level a named state was placed into: the oracle of the tests
    /// `single_small_state_goes_to_cls`, `hottest_states_win_the_fast_memory`,
    /// `wide_tables_shrink_budgets` and `oversized_states_fall_to_dram`.
    #[cfg(test)]
    fn level_of(&self, name: &str) -> Option<MemLevel> {
        self.assignment
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, m)| m)
    }

    /// Total state bytes placed per memory level: the oracle of the tests
    /// `bytes_per_level_partitions_states` and
    /// `kitsune_scale_instance_solves_optimally`.
    #[cfg(test)]
    fn bytes_per_level(&self, states: &[StateSpec]) -> Vec<(MemLevel, usize)> {
        MemLevel::all()
            .iter()
            .map(|&lvl| {
                let bytes = self
                    .assignment
                    .iter()
                    .zip(states)
                    .filter(|((_, m), _)| *m == lvl)
                    .map(|(_, s)| s.bytes)
                    .sum();
                (lvl, bytes)
            })
            .collect()
    }
}

/// Node budget before falling back to the greedy heuristic.
const MAX_NODES: u64 = 2_000_000;

/// Solves the placement problem for `states` on `model` with a group table
/// of `table_width` entries per bucket.
///
/// Returns `None` when `table_width == 0` or the model has no memories.
pub fn solve_placement(
    states: &[StateSpec],
    model: &NfpModel,
    table_width: usize,
) -> Option<Placement> {
    if table_width == 0 || model.memories.is_empty() {
        return None;
    }
    if states.is_empty() {
        return Some(Placement {
            assignment: Vec::new(),
            total_cost: 0.0,
            optimal: true,
        });
    }

    // Per-memory byte budget for the per-group state block: w_m / n_m.
    // DRAM is unconstrained.
    let budgets: Vec<f64> = model
        .memories
        .iter()
        .map(|m| {
            if m.level == MemLevel::Dram {
                f64::INFINITY
            } else {
                m.bus_bytes as f64 / table_width as f64
            }
        })
        .collect();
    let latencies: Vec<f64> = model
        .memories
        .iter()
        .map(|m| m.latency_cycles as f64)
        .collect();

    // Order states by access weight descending for effective pruning.
    let mut order: Vec<usize> = (0..states.len()).collect();
    order.sort_by(|&a, &b| {
        (states[b].accesses_per_pkt * states[b].bytes as f64)
            .partial_cmp(&(states[a].accesses_per_pkt * states[a].bytes as f64))
            .expect("finite weights")
    });

    // Memories fastest-first, used both for branching and for the bound.
    let mut mem_order: Vec<usize> = (0..latencies.len()).collect();
    mem_order.sort_by(|&a, &b| latencies[a].partial_cmp(&latencies[b]).expect("finite"));

    // Density order (t_s / b_s descending) for the fractional bound.
    let mut density_order: Vec<usize> = (0..states.len()).collect();
    density_order.sort_by(|&a, &b| {
        let da = states[a].accesses_per_pkt / states[a].bytes.max(1) as f64;
        let db = states[b].accesses_per_pkt / states[b].bytes.max(1) as f64;
        db.partial_cmp(&da).expect("finite densities")
    });
    // position in `order` (branching order) of each state index.
    let mut pos_in_order = vec![0usize; states.len()];
    for (d, &i) in order.iter().enumerate() {
        pos_in_order[i] = d;
    }

    // Symmetry breaking: identical consecutive states (same bytes, same
    // accesses) are interchangeable, so force their memory ranks to be
    // non-decreasing along the branching order.
    let same_as_prev: Vec<bool> = order
        .iter()
        .enumerate()
        .map(|(d, &i)| {
            d > 0 && {
                let p = &states[order[d - 1]];
                let s = &states[i];
                p.bytes == s.bytes && p.accesses_per_pkt == s.accesses_per_pkt
            }
        })
        .collect();

    struct Ctx<'a> {
        states: &'a [StateSpec],
        order: &'a [usize],
        mem_order: &'a [usize],
        density_order: &'a [usize],
        pos_in_order: &'a [usize],
        same_as_prev: &'a [bool],
        latencies: &'a [f64],
        best_cost: f64,
        best: Vec<usize>,
        current: Vec<usize>,
        current_rank: Vec<usize>,
        nodes: u64,
    }

    /// Fractional transport relaxation: unassigned states, in density order,
    /// fill the remaining capacities fastest-first, splitting freely. This
    /// is the LP optimum of the relaxed problem, hence a valid lower bound.
    fn frac_bound(ctx: &Ctx<'_>, depth: usize, remaining: &[f64]) -> f64 {
        let mut cap: Vec<f64> = ctx.mem_order.iter().map(|&m| remaining[m]).collect();
        let mut mi = 0usize;
        let mut bound = 0.0;
        for &i in ctx.density_order {
            if ctx.pos_in_order[i] < depth {
                continue; // already assigned on this path
            }
            let s = &ctx.states[i];
            let mut left = s.bytes as f64;
            while left > 0.0 {
                if mi >= cap.len() {
                    return f64::INFINITY; // cannot happen: DRAM is infinite
                }
                let take = left.min(cap[mi]);
                if take > 0.0 {
                    let m = ctx.mem_order[mi];
                    bound += s.accesses_per_pkt * ctx.latencies[m] * take / s.bytes as f64;
                    cap[mi] -= take;
                    left -= take;
                }
                if cap[mi] <= 0.0 {
                    mi += 1;
                }
            }
        }
        bound
    }

    fn dfs(ctx: &mut Ctx<'_>, depth: usize, remaining: &mut [f64], cost: f64) {
        ctx.nodes += 1;
        if ctx.nodes > MAX_NODES {
            return;
        }
        if depth == ctx.order.len() {
            if cost < ctx.best_cost {
                ctx.best_cost = cost;
                ctx.best = ctx.current.clone();
            }
            return;
        }
        if cost + frac_bound(ctx, depth, remaining) >= ctx.best_cost {
            return;
        }
        let s = &ctx.states[ctx.order[depth]];
        let start_rank = if ctx.same_as_prev[depth] {
            ctx.current_rank[ctx.order[depth - 1]]
        } else {
            0
        };
        for mo in start_rank..ctx.mem_order.len() {
            let m = ctx.mem_order[mo];
            if (s.bytes as f64) <= remaining[m] {
                remaining[m] -= s.bytes as f64;
                ctx.current[ctx.order[depth]] = m;
                ctx.current_rank[ctx.order[depth]] = mo;
                dfs(
                    ctx,
                    depth + 1,
                    remaining,
                    cost + s.accesses_per_pkt * ctx.latencies[m],
                );
                remaining[m] += s.bytes as f64;
            }
        }
    }

    let mut ctx = Ctx {
        states,
        order: &order,
        mem_order: &mem_order,
        density_order: &density_order,
        pos_in_order: &pos_in_order,
        latencies: &latencies,
        same_as_prev: &same_as_prev,
        best_cost: f64::INFINITY,
        best: vec![model.memories.len() - 1; states.len()],
        current: vec![0; states.len()],
        current_rank: vec![0; states.len()],
        nodes: 0,
    };
    let mut remaining = budgets.clone();
    dfs(&mut ctx, 0, &mut remaining, 0.0);

    let (choice, optimal) = if ctx.best_cost.is_finite() && ctx.nodes <= MAX_NODES {
        (ctx.best, true)
    } else {
        // Greedy fallback: hottest states into the fastest feasible level.
        let mut rem = budgets.clone();
        let mut choice = vec![model.memories.len() - 1; states.len()];
        for &i in &order {
            let s = &states[i];
            let mut mems: Vec<usize> = (0..latencies.len()).collect();
            mems.sort_by(|&a, &b| latencies[a].partial_cmp(&latencies[b]).expect("finite"));
            for m in mems {
                if (s.bytes as f64) <= rem[m] {
                    rem[m] -= s.bytes as f64;
                    choice[i] = m;
                    break;
                }
            }
        }
        (choice, false)
    };

    let total_cost = choice
        .iter()
        .zip(states)
        .map(|(&m, s)| s.accesses_per_pkt * latencies[m])
        .sum();
    let assignment = choice
        .iter()
        .zip(states)
        .map(|(&m, s)| (s.name.clone(), model.memories[m].level))
        .collect();
    Some(Placement {
        assignment,
        total_cost,
        optimal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(name: &str, bytes: usize, t: f64) -> StateSpec {
        StateSpec {
            name: name.into(),
            bytes,
            accesses_per_pkt: t,
        }
    }

    fn model() -> NfpModel {
        NfpModel::nfp4000()
    }

    #[test]
    fn empty_states_trivial() {
        let p = solve_placement(&[], &model(), 1).unwrap();
        assert_eq!(p.total_cost, 0.0);
        assert!(p.optimal);
    }

    #[test]
    fn rejects_zero_width() {
        assert!(solve_placement(&[state("a", 4, 1.0)], &model(), 0).is_none());
    }

    #[test]
    fn single_small_state_goes_to_cls() {
        let p = solve_placement(&[state("a", 12, 1.0)], &model(), 1).unwrap();
        assert_eq!(p.level_of("a"), Some(MemLevel::Cls));
        assert_eq!(p.total_cost, 30.0);
        assert!(p.optimal);
    }

    #[test]
    fn hottest_states_win_the_fast_memory() {
        // Width 1 -> 64 B per level. Two 40-byte states cannot share CLS;
        // the hotter one must get it.
        let states = [state("cold", 40, 1.0), state("hot", 40, 10.0)];
        let p = solve_placement(&states, &model(), 1).unwrap();
        assert_eq!(p.level_of("hot"), Some(MemLevel::Cls));
        assert_eq!(p.level_of("cold"), Some(MemLevel::Ctm));
        assert_eq!(p.total_cost, 10.0 * 30.0 + 80.0);
    }

    #[test]
    fn wide_tables_shrink_budgets() {
        // Width 4 -> 16 B per level: a 40-byte state only fits DRAM.
        let p = solve_placement(&[state("big", 40, 1.0)], &model(), 4).unwrap();
        assert_eq!(p.level_of("big"), Some(MemLevel::Dram));
    }

    #[test]
    fn oversized_states_fall_to_dram() {
        // A histogram of 400 bytes exceeds every bus-constrained level.
        let p = solve_placement(&[state("hist", 400, 1.0)], &model(), 1).unwrap();
        assert_eq!(p.level_of("hist"), Some(MemLevel::Dram));
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let states = [
            state("a", 20, 3.0),
            state("b", 30, 1.0),
            state("c", 16, 7.0),
            state("d", 50, 2.0),
        ];
        let m = model();
        let p = solve_placement(&states, &m, 1).unwrap();
        assert!(p.optimal);

        // Brute force over all 5^4 assignments.
        let budgets: Vec<f64> = m
            .memories
            .iter()
            .map(|mm| {
                if mm.level == MemLevel::Dram {
                    f64::INFINITY
                } else {
                    mm.bus_bytes as f64
                }
            })
            .collect();
        let lat: Vec<f64> = m
            .memories
            .iter()
            .map(|mm| mm.latency_cycles as f64)
            .collect();
        let mut best = f64::INFINITY;
        let n_mem = m.memories.len();
        for code in 0..n_mem.pow(4) {
            let mut c = code;
            let mut used = vec![0f64; n_mem];
            let mut cost = 0.0;
            let mut ok = true;
            for s in &states {
                let mi = c % n_mem;
                c /= n_mem;
                used[mi] += s.bytes as f64;
                if used[mi] > budgets[mi] {
                    ok = false;
                    break;
                }
                cost += s.accesses_per_pkt * lat[mi];
            }
            if ok && cost < best {
                best = cost;
            }
        }
        assert!(
            (p.total_cost - best).abs() < 1e-9,
            "{} vs {best}",
            p.total_cost
        );
    }

    #[test]
    fn bytes_per_level_partitions_states() {
        let states = [state("a", 20, 1.0), state("b", 400, 1.0)];
        let p = solve_placement(&states, &model(), 1).unwrap();
        let per: usize = p.bytes_per_level(&states).iter().map(|&(_, b)| b).sum();
        assert_eq!(per, 420);
    }

    #[test]
    fn kitsune_scale_instance_solves_optimally() {
        // ~20 states like a Kitsune deployment: damped triples and quads.
        let mut states = Vec::new();
        for i in 0..10 {
            states.push(state(&format!("d{i}"), 16, 1.0));
        }
        for i in 0..10 {
            states.push(state(&format!("q{i}"), 40, 1.0));
        }
        let p = solve_placement(&states, &model(), 1).unwrap();
        assert!(p.optimal, "expected optimal solve");
        // Fast memories should be saturated: CLS holds 64 bytes' worth.
        let per = p.bytes_per_level(&states);
        let cls = per.iter().find(|(l, _)| *l == MemLevel::Cls).unwrap().1;
        assert!(cls > 0 && cls <= 64, "CLS bytes {cls}");
    }
}
