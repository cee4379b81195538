//! One NIC cost model: a cycle estimate made before placement and one made
//! after it are the same table through the same formula, and a solved
//! `Placement` moves nothing but the memory term.

use superfe::apps::policies::all_apps;
use superfe::nic::{
    cycles_from_cost, estimate, solve_placement, MemLevel, NfpModel, OptFlags, RecordWork,
};
use superfe::policy::analyze::cost::policy_cost;
use superfe::policy::{compile, dsl, Policy};

/// The ten bundled applications and every `examples/*.sfe`.
fn corpus() -> Vec<(String, Policy)> {
    let mut out: Vec<(String, Policy)> = all_apps()
        .iter()
        .map(|a| (a.name.to_string(), a.policy()))
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sfe"))
        .collect();
    files.sort();
    for f in files {
        let src = std::fs::read_to_string(&f).expect("readable");
        out.push((f.display().to_string(), dsl::parse(&src).expect("parses")));
    }
    assert!(out.len() >= 13, "ten apps and three examples");
    out
}

#[test]
fn placement_moves_only_the_memory_term() {
    let nfp = NfpModel::nfp4000();
    let (mut beats_ctm, mut exceeds_ctm) = (Vec::new(), Vec::new());
    for (name, policy) in corpus() {
        let cost = policy_cost(&policy);
        let compiled = compile(&policy).expect("compiles");
        let states = compiled.nic.states();
        // The walker counts what the compiled program executes: per level
        // its own and its inherited maps, and one access per placed state.
        let maps: Vec<usize> = compiled.nic.levels.iter().map(|l| l.maps.len()).collect();
        assert_eq!(
            cost.levels.iter().map(|l| l.maps).collect::<Vec<_>>(),
            maps,
            "{name}"
        );
        assert_eq!(cost.total_accesses(), states.len(), "{name}");

        let placement = solve_placement(&states, &nfp, 1).expect("placement solves");
        let all_fast = placement
            .assignment
            .iter()
            .all(|(_, m)| matches!(m, MemLevel::Cls | MemLevel::Ctm));
        for flags in [OptFlags::all_on(), OptFlags::all_off()] {
            let assumed = cycles_from_cost(&cost, &nfp, flags);
            let placed = estimate(RecordWork::from(&cost), Some(&placement), &nfp, flags);
            assert_eq!(
                assumed.compute_cycles, placed.compute_cycles,
                "{name} {flags:?}"
            );
            assert_eq!(placed.memory_cycles, placement.total_cost, "{name}");
            // The CTM assumption is a bound in neither direction: the
            // placed term is under it exactly when the solver kept every
            // state at CTM speed or better.
            assert_eq!(
                placed.memory_cycles <= assumed.memory_cycles,
                all_fast,
                "{name}: placed {} vs assumed {}",
                placed.memory_cycles,
                assumed.memory_cycles
            );
        }
        if all_fast {
            beats_ctm.push(name);
        } else {
            exceeds_ctm.push(name);
        }
    }
    // PeerShark's state fits in CLS, so its placed estimate is *below* the
    // pre-placement one; Kitsune spills to DRAM and lands above it.
    assert!(beats_ctm.iter().any(|n| n == "PeerShark"), "{beats_ctm:?}");
    assert!(
        exceeds_ctm.iter().any(|n| n == "Kitsune"),
        "{exceeds_ctm:?}"
    );
}
