//! Property-based tests of the static analyzer: on any policy the
//! validator and compiler accept, the analyzer must not report errors under
//! the default deployment configuration (warnings and notes are allowed —
//! they flag style and capacity pressure, not infeasibility), and analysis
//! must never panic, even on invalid policies. Over generated tenant *sets*,
//! the sharing lattice's classes must nest, agree with op-for-op equality,
//! and not depend on the order the tenants are listed in.

use proptest::prelude::*;

use superfe::policy::analyze::share::{analyze_sharing, prefix_form};
use superfe::policy::analyze::{analyze_policy, Severity};
use superfe::policy::validate::validate;
use superfe::policy::{compile, dsl};
use superfe::policy::{Policy, ValueConfig};
use superfe::{analyze, AnalyzeConfig};

/// A generator of *valid* single-level policies (the same space as
/// `tests/policy_properties.rs`).
fn valid_policy_source() -> impl Strategy<Value = String> {
    let gran = prop_oneof![Just("flow"), Just("host"), Just("channel"), Just("socket")];
    let filt = prop_oneof![
        Just(""),
        Just(".filter(tcp.exist)\n"),
        Just(".filter(udp.exist or dstport == 53)\n"),
        Just(".filter(size > 100 and not (srcport == 22))\n"),
    ];
    let reduce = prop_oneof![
        Just("[f_sum]"),
        Just("[f_mean, f_var]"),
        Just("[f_min, f_max, f_std]"),
        Just("[ft_hist{100, 16}]"),
        Just("[f_card{8}]"),
        Just("[f_skew, f_kur]"),
        Just("[f_damped{1}]"),
    ];
    (gran, filt, reduce, proptest::bool::ANY).prop_map(|(g, f, r, with_ipt)| {
        let mapline = if with_ipt {
            ".map(ipt, tstamp, f_ipt)\n.reduce(ipt, [f_mean])\n.collect(GRAN)\n"
        } else {
            ""
        };
        format!(
            "pktstream\n{f}.groupby({g})\n{}\n.reduce(size, {r})\n.collect({g})",
            mapline.replace("GRAN", g)
        )
    })
}

/// Tenant sets drawn from the single-policy space, with the first policy
/// repeated half the time so full-depth classes are not left to chance,
/// and a rotation + reversal to list the same set in another order.
fn tenant_set() -> impl Strategy<Value = (Vec<Policy>, usize, bool)> {
    (
        proptest::collection::vec(valid_policy_source(), 2..7),
        proptest::bool::ANY,
        0usize..7,
        proptest::bool::ANY,
    )
        .prop_map(|(mut srcs, repeat, rotate, reverse)| {
            if repeat {
                srcs.push(srcs[0].clone());
            }
            let set = srcs
                .iter()
                .map(|s| dsl::parse(s).expect("generated policy is valid"))
                .collect();
            (set, rotate, reverse)
        })
}

/// The classes of one analysis as sets of *original* indices, order-free:
/// `order[k]` is the original index of the policy listed `k`-th.
fn classes(members: Vec<&Vec<usize>>, order: &[usize]) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = members
        .into_iter()
        .map(|m| {
            let mut m: Vec<usize> = m.iter().map(|&k| order[k]).collect();
            m.sort_unstable();
            m
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One lattice, two depths: every plan class lies inside one partition
    /// class, two policies are one plan exactly when their lattices are
    /// op-for-op equal over their whole length, and listing the tenants in
    /// another order moves members around inside classes, never between.
    #[test]
    fn sharing_classes_nest_and_ignore_input_order(case in tenant_set()) {
        let (set, rotate, reverse) = case;
        let cfg = ValueConfig::default();
        let names: Vec<String> = (0..set.len()).map(|i| format!("t{i}")).collect();
        let listed = |order: &[usize]| {
            let named: Vec<(&str, &Policy)> =
                order.iter().map(|&i| (names[i].as_str(), &set[i])).collect();
            analyze_sharing(&named, &cfg)
        };
        let identity: Vec<usize> = (0..set.len()).collect();
        let analysis = listed(&identity);

        for plan in &analysis.plans {
            let partition = &analysis.partitions[plan.partition];
            prop_assert!(plan.members.iter().all(|m| partition.members.contains(m)));
        }
        for classed in [
            classes(analysis.plans.iter().map(|c| &c.members).collect(), &identity),
            classes(analysis.partitions.iter().map(|c| &c.members).collect(), &identity),
        ] {
            let mut all: Vec<usize> = classed.concat();
            all.sort_unstable();
            prop_assert_eq!(&all, &identity, "every policy is in exactly one class");
        }

        let forms: Vec<_> = set.iter().map(|p| prefix_form(p, &cfg)).collect();
        for (i, a) in forms.iter().enumerate() {
            for (j, b) in forms.iter().enumerate() {
                let depth = a.shared_depth(b);
                let op_equal = depth == a.ops.len() && depth == b.ops.len();
                prop_assert_eq!(op_equal, a.full() == b.full(), "t{} vs t{}", i, j);
                let same_plan = analysis.plans.iter().any(|c| c.members.contains(&i) && c.members.contains(&j));
                prop_assert_eq!(same_plan, op_equal, "t{} vs t{}", i, j);
            }
        }

        let mut order = identity.clone();
        order.rotate_left(rotate % set.len());
        if reverse {
            order.reverse();
        }
        let permuted = listed(&order);
        prop_assert_eq!(
            classes(permuted.plans.iter().map(|c| &c.members).collect(), &order),
            classes(analysis.plans.iter().map(|c| &c.members).collect(), &identity)
        );
        prop_assert_eq!(
            classes(permuted.partitions.iter().map(|c| &c.members).collect(), &order),
            classes(analysis.partitions.iter().map(|c| &c.members).collect(), &identity)
        );
    }

    /// Accepted policies never produce analyzer *errors* under the default
    /// budget: the analyzer is strictly more permissive than validate+compile
    /// at the error severity for policies the default hardware can host.
    #[test]
    fn accepted_policies_have_no_analyzer_errors(src in valid_policy_source()) {
        let policy = dsl::parse(&src).expect("generated policy is valid");
        validate(&policy).expect("validates");
        compile(&policy).expect("compiles");
        let report = analyze(&policy, &AnalyzeConfig::default());
        prop_assert!(
            !report.has_errors(),
            "analyzer errored on an accepted policy:\n{}\n{}",
            src,
            report.render()
        );
    }

    /// The structural pass and `validate` agree exactly on accept/reject.
    #[test]
    fn structural_pass_agrees_with_validate(src in valid_policy_source()) {
        let policy = dsl::parse(&src).expect("generated policy is valid");
        let report = analyze_policy(&policy);
        let structural_errors = report
            .of_severity(Severity::Error)
            .any(|d| d.code.starts_with("SF01"));
        prop_assert_eq!(validate(&policy).is_err(), structural_errors);
    }

    /// Whatever bytes parse into a policy, analysis must not panic.
    #[test]
    fn analyzer_never_panics(src in "[ -~\n]{0,200}") {
        if let Ok(policy) = dsl::parse(&src) {
            let report = analyze(&policy, &AnalyzeConfig::default());
            // Rendering exercises every diagnostic's Display path.
            let _ = report.render();
        }
    }
}
