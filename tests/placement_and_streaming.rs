//! Property-based tests of the placement ILP (optimality vs brute force) and
//! of the streaming estimators against exact references.

use proptest::prelude::*;

use superfe::nic::{solve_placement, MemLevel, NfpModel};
use superfe::policy::compile::StateSpec;
use superfe::streaming::{Moments, Reducer, Welford};

fn states_strategy() -> impl Strategy<Value = Vec<StateSpec>> {
    proptest::collection::vec((1usize..80, 1u8..8), 1..5).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (bytes, t))| StateSpec {
                name: format!("s{i}"),
                bytes,
                accesses_per_pkt: f64::from(t),
            })
            .collect()
    })
}

fn brute_force(states: &[StateSpec], model: &NfpModel) -> f64 {
    let budgets: Vec<f64> = model
        .memories
        .iter()
        .map(|m| {
            if m.level == MemLevel::Dram {
                f64::INFINITY
            } else {
                m.bus_bytes as f64
            }
        })
        .collect();
    let lat: Vec<f64> = model
        .memories
        .iter()
        .map(|m| m.latency_cycles as f64)
        .collect();
    let n_mem = model.memories.len();
    let mut best = f64::INFINITY;
    for code in 0..n_mem.pow(states.len() as u32) {
        let mut c = code;
        let mut used = vec![0f64; n_mem];
        let mut cost = 0.0;
        let mut ok = true;
        for s in states {
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
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn placement_is_optimal(states in states_strategy()) {
        let nfp = NfpModel::nfp4000();
        let p = solve_placement(&states, &nfp, 1).expect("solves");
        prop_assert!(p.optimal);
        let bf = brute_force(&states, &nfp);
        prop_assert!((p.total_cost - bf).abs() < 1e-9, "B&B {} vs brute {}", p.total_cost, bf);
    }

    #[test]
    fn placement_respects_bus_budgets(states in states_strategy()) {
        let nfp = NfpModel::nfp4000();
        let width = 2usize;
        let p = solve_placement(&states, &nfp, width).expect("solves");
        for mem in &nfp.memories {
            if mem.level == MemLevel::Dram {
                continue;
            }
            let used: usize = p
                .assignment
                .iter()
                .zip(&states)
                .filter(|((_, m), _)| *m == mem.level)
                .map(|(_, s)| s.bytes)
                .sum();
            prop_assert!(
                used * width <= mem.bus_bytes,
                "{}: {} bytes x width {} > bus {}",
                mem.level.name(), used, width, mem.bus_bytes
            );
        }
    }

    #[test]
    fn welford_matches_exact(xs in proptest::collection::vec(-1e5f64..1e5, 1..300)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.update(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((w.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((w.variance() - var).abs() <= 1e-6 * var.max(1.0));
    }

    #[test]
    fn moments_match_exact(xs in proptest::collection::vec(-1e3f64..1e3, 2..300)) {
        let mut m = Moments::new();
        for &x in &xs {
            m.update(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let central = |p: i32| xs.iter().map(|x| (x - mean).powi(p)).sum::<f64>() / n;
        let var = central(2);
        prop_assert!((m.variance() - var).abs() <= 1e-6 * var.max(1.0));
        if var > 1e-9 {
            let skew = central(3) / var.powf(1.5);
            prop_assert!((m.skewness() - skew).abs() <= 1e-5 * skew.abs().max(1.0));
        }
    }

    #[test]
    fn histogram_mass_conserved(xs in proptest::collection::vec(0f64..2_000.0, 0..500)) {
        let mut h = superfe::streaming::Histogram::fixed(50.0, 32).expect("valid");
        for &x in &xs {
            h.update(x);
        }
        prop_assert_eq!(h.counts().iter().sum::<u64>() as usize, xs.len());
        if !xs.is_empty() {
            let cdf = h.cdf();
            prop_assert!((cdf.last().expect("bins") - 1.0).abs() < 1e-9);
            for w in cdf.windows(2) {
                prop_assert!(w[1] >= w[0]);
            }
        }
    }
}
