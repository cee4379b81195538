//! Keystone isolation differential for the multi-tenant control plane:
//! each tenant's feature vectors on the shared switch/NIC must be
//! **bitwise identical** to the same policy running alone — including
//! under mid-stream hot attach and detach of *other* tenants, with its
//! detector, under a table budget, and whatever the join rule shares. This
//! is the executable form of the control plane's isolation contract:
//! tenancy is invisible in the output.
//!
//! The differential itself is `plane_schedules.rs`, which draws schedules
//! and holds each to the oracle in `plane/mod.rs`. The tests here keep a
//! few fixed schedules through that oracle, under the names of the tests
//! they replaced, and the bundled applications at trace scale.

mod plane;

use plane::Op::{Budget, Detach, Duplicate, Push, Restore, Score, Sharer};
use plane::{attach, budget, check, colliders, push, steady, WORKER_COUNTS};

/// Distinct partitions under hot attach and detach: two tenants from the
/// start, a third mid-stream, the first leaving, a fourth arriving.
#[test]
fn shared_plane_is_bitwise_identical_to_solo() {
    let ops = [
        attach(0),
        attach(1),
        push(150),
        attach(2),
        push(150),
        Detach(0),
        attach(3),
        push(150),
    ];
    let reached = check(&ops, &steady(600), &WORKER_COUNTS);
    assert!(reached.contains("disjoint partitions"), "{reached:?}");
}

/// Frame boundaries depend on time since a hungry worker can ask for its
/// partial frame; isolation must not. The producer stalls past the ring
/// dwell around attach and detach epochs, with some tenants' shards idle
/// and others' busy.
#[test]
fn stalled_plane_is_bitwise_identical_to_solo() {
    let stall = |n| Push { n, stall: true };
    let ops = [
        attach(0),
        attach(3),
        stall(100),
        attach(1),
        stall(1),
        Detach(0),
        stall(100),
        stall(1),
    ];
    let reached = check(&ops, &steady(400), &WORKER_COUNTS);
    assert!(reached.contains("stalled"), "{reached:?}");
}

mod fusion_isolation {
    use super::*;

    /// Three tenants of one policy fuse into one unit beside a fourth;
    /// the unit's founder leaves mid-stream, then a second member.
    #[test]
    fn fused_plane_is_bitwise_identical_to_solo() {
        let ops = [
            attach(0),
            Duplicate { n: 0, sinks: false },
            Duplicate { n: 0, sinks: true },
            attach(1),
            push(300),
            Detach(0),
            push(150),
            Detach(0),
        ];
        let reached = check(&ops, &steady(600), &WORKER_COUNTS);
        for shape in ["fused", "fused member detached", "founder detached"] {
            assert!(reached.contains(shape), "{shape}: {reached:?}");
        }
    }
}

mod prefix_isolation {
    use super::*;

    /// Four distinct tails ride one `filter(tcp.exist) → groupby(flow)`
    /// partition; two leave it mid-stream, its founder among them.
    #[test]
    fn prefix_shared_plane_is_bitwise_identical_to_solo() {
        let ops = [
            attach(4),
            attach(5),
            attach(6),
            attach(7),
            push(300),
            Detach(1),
            push(150),
            Detach(0),
        ];
        let reached = check(&ops, &steady(600), &WORKER_COUNTS);
        for shape in ["prefix-shared", "prefix unit detached", "founder detached"] {
            assert!(reached.contains(shape), "{shape}: {reached:?}");
        }
    }
}

mod join_rule_isolation {
    use super::*;

    /// A fused pair, a prefix sharer on their partition, one tenant that
    /// shares nothing: every depth of the sharing lattice in one set.
    const SET: [usize; 4] = [0, 0, 8, 1];

    /// Whatever order the four arrive in at position 0, every tenant stays
    /// bitwise solo, also when the first of them leaves mid-stream.
    #[test]
    fn every_attach_order_converges_and_stays_bitwise_solo() {
        let trace = steady(600);
        let mut orders = 0;
        for a in 0..4 {
            for b in (0..4).filter(|&b| b != a) {
                for c in (0..4).filter(|&c| c != a && c != b) {
                    let order = [a, b, c, 6 - a - b - c].map(|i| attach(SET[i]));
                    let ops = [&order[..], &[push(300), Detach(0)]].concat();
                    let reached = check(&ops, &trace, &[1]);
                    for shape in ["fused", "prefix-shared", "disjoint partitions"] {
                        assert!(reached.contains(shape), "{shape} in {order:?}");
                    }
                    orders += 1;
                }
            }
        }
        assert_eq!(orders, 24);
    }
}

mod alert_isolation {
    use super::*;

    /// A scored tenant fused with an unscored one, a prefix sharer with a
    /// detector of its own on their partition, and a noisy neighbor: each
    /// detector's alerts are its tenant's solo alerts.
    #[test]
    fn alerts_unchanged_by_noisy_neighbor() {
        let ops = [
            attach(0),
            Score(0),
            Duplicate { n: 0, sinks: false },
            Sharer { n: 0, sinks: false },
            attach(3),
            Score(1),
        ];
        let reached = check(&ops, &steady(800), &[1, 2, 4]);
        for shape in ["alerts raised", "alerts on a shared unit or partition"] {
            assert!(reached.contains(shape), "{shape}: {reached:?}");
        }
    }
}

mod eviction_isolation {
    use super::*;

    /// Under a two-group spill and each eviction policy, a lone tenant and
    /// every member of a fused unit get back every vector the budget
    /// evicted (or lose every update it refused), and a fused member
    /// leaving mid-stream takes exactly its window's.
    #[test]
    fn budgeted_plane_returns_every_evicted_vector() {
        let mut reached = std::collections::BTreeSet::new();
        for policy in 0..4 {
            let ops = [
                Budget(budget(2, policy)),
                attach(0),
                Duplicate { n: 0, sinks: false },
                attach(1),
                push(300),
                Detach(1),
            ];
            reached.extend(check(&ops, &steady(600), &[1, 4]));
        }
        assert!(reached.contains("budget evicted"), "{reached:?}");
    }

    /// A budget set between two attaches of one policy at one position
    /// holds for the second: it does not fuse into the first's unit, whose
    /// engines run under the default, but gets engines of its own under
    /// the one-group spill. Across a restore the two units stay apart (their
    /// engines carry their budgets), and a third attach under the budget
    /// in force fuses with the second.
    #[test]
    fn a_budget_set_before_an_attach_holds_for_a_duplicate() {
        let ops = [attach(0), Budget(budget(1, 1)), attach(0)];
        let reached = check(&ops, &colliders(), &WORKER_COUNTS);
        assert!(!reached.contains("fused"), "{reached:?}");
        assert!(reached.contains("budget evicted"), "{reached:?}");
        let ops = [&ops[..], &[Restore, attach(0)]].concat();
        let reached = check(&ops, &colliders(), &WORKER_COUNTS);
        for shape in ["restored", "fused", "restored under a budget that evicts"] {
            assert!(reached.contains(shape), "{shape}: {reached:?}");
        }
        // The third attach fuses before the snapshot: the restore must
        // rebuild it into the second's unit, not the first's.
        let ops = [&ops[..3], &[attach(0), Restore]].concat();
        let reached = check(&ops, &colliders(), &WORKER_COUNTS);
        for shape in ["restored", "fused", "restored under a budget that evicts"] {
            assert!(reached.contains(shape), "{shape}: {reached:?}");
        }
    }
}

mod bundled_isolation {
    use superfe::apps::policies;
    use superfe::ctrl::{CtrlPlane, TenantSpec};
    use superfe::policy::dsl;
    use superfe::{AnalyzeConfig, StreamingPipeline, SuperFeConfig};
    use superfe_trafficgen::Workload;

    /// The bundled applications at trace scale, where the schedules above
    /// use synthetic pools on short traces: AWF twice (the SF07xx
    /// duplicate — 5,000-wide `f_array` vectors cloned at the demux), NPOD
    /// and CUMUL over a MAWI-like trace. Every tenant's vectors must be the
    /// same through the fused plane, the unfused plane, and alone.
    #[test]
    fn bundled_set_is_bitwise_identical_fused_unfused_and_solo() {
        const WORKERS: usize = 2;
        let trace = Workload::mawi().packets(3_000).seed(4).generate();
        let specs: Vec<TenantSpec> = [
            ("awf-0", policies::AWF),
            ("awf-1", policies::AWF),
            ("npod", policies::NPOD),
            ("cumul", policies::CUMUL),
        ]
        .into_iter()
        .map(|(name, src)| TenantSpec {
            name: name.into(),
            policy: dsl::parse(src).expect("bundled policy parses"),
            cfg: SuperFeConfig::default(),
        })
        .collect();
        let serve = |fuse: bool| {
            let mut plane = if fuse {
                CtrlPlane::new(WORKERS, AnalyzeConfig::default())
            } else {
                CtrlPlane::without_fusion(WORKERS, AnalyzeConfig::default())
            };
            for spec in &specs {
                plane.attach(spec, None).expect("the set is admissible");
            }
            let units = plane.units().len();
            for p in &trace.records {
                plane.push(p).expect("workers alive");
            }
            (plane.finish().expect("workers alive"), units)
        };
        let (fused, fused_units) = serve(true);
        let (unfused, unfused_units) = serve(false);
        assert_eq!(fused_units, 3, "the AWF pair shares one execution unit");
        assert_eq!(unfused_units, 4);
        for ((f, u), spec) in fused.iter().zip(&unfused).zip(&specs) {
            let mut fe = StreamingPipeline::with_config(&spec.policy, spec.cfg, WORKERS)
                .expect("policy deploys");
            for p in &trace.records {
                fe.push(p).expect("workers alive");
            }
            let solo = fe.finish().expect("workers alive");
            assert!(
                !solo.group_vectors.is_empty() || !solo.packet_vectors.is_empty(),
                "{} emitted nothing",
                spec.name
            );
            for (how, run) in [("fused", f), ("unfused", u)] {
                assert_eq!(run.name, spec.name);
                assert_eq!(
                    run.output.group_vectors, solo.group_vectors,
                    "{} group vectors diverged {how}",
                    spec.name
                );
                assert_eq!(
                    run.output.packet_vectors, solo.packet_vectors,
                    "{} packet vectors diverged {how}",
                    spec.name
                );
            }
        }
    }
}
