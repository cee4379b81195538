//! The Table 3 feature extractors as SuperFE policies.
//!
//! Each constant is the complete policy source in the paper's DSL; the
//! [`AppSpec`] table carries the metadata the Table 3 experiment reports
//! (objective, feature dimension, lines of code).

use superfe_policy::dsl;
use superfe_policy::Policy;

/// CUMUL (Panchenko et al., NDSS'16): per-flow statistics plus 100
/// interpolated cumulative-size points (104 features).
pub const CUMUL: &str = "\
pktstream
.filter(tcp.exist)
.groupby(flow)
.map(one, _, f_one)
.map(dirone, one, f_direction)
.map(dirsize, size, f_direction)
.reduce(one, [f_sum])
.collect(flow)
.reduce(dirone, [f_sum])
.collect(flow)
.reduce(size, [f_sum])
.collect(flow)
.reduce(dirsize, [f_sum])
.collect(flow)
.reduce(dirsize, [f_array{2000}])
.synthesize(f_marker)
.synthesize(ft_sample{100})
.collect(flow)
";

/// AWF (Rimmer et al., NDSS'18): a fixed-length ±1 direction sequence.
pub const AWF: &str = "\
pktstream
.filter(tcp.exist)
.groupby(flow)
.map(one, _, f_one)
.map(dirseq, one, f_direction)
.reduce(dirseq, [f_array{5000}])
.collect(flow)
";

/// DF (Sirinam et al., CCS'18): same input representation as AWF.
pub const DF: &str = AWF;

/// TF (Sirinam et al., CCS'19): same input representation as AWF/DF.
pub const TF: &str = AWF;

/// PeerShark (Narang et al., S&P workshops'14): 4 conversational features
/// per IP pair.
pub const PEERSHARK: &str = "\
pktstream
.groupby(channel)
.map(one, _, f_one)
.map(ipt, tstamp, f_ipt)
.reduce(one, [f_sum])
.collect(channel)
.reduce(size, [f_mean])
.collect(channel)
.reduce(ipt, [f_mean])
.collect(channel)
.reduce(size, [f_sum])
.collect(channel)
";

/// N-BaIoT (Meidan et al., IEEE PerCom'18): damped statistics over three
/// granularities and five time windows (65 features).
pub const NBAIOT: &str = "\
pktstream
.groupby(socket)
.reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])
.collect(pkt)
.groupby(channel)
.reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])
.reduce(size, [f_damped2d{5}, f_damped2d{3}, f_damped2d{1}, f_damped2d{0.1}, f_damped2d{0.01}])
.collect(pkt)
.groupby(host)
.reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])
.collect(pkt)
";

/// MPTD (Barradas et al., USENIX Sec'18): a large mixed statistical feature
/// set per flow (166 features).
pub const MPTD: &str = "\
pktstream
.filter(tcp.exist)
.groupby(flow)
.map(ipt, tstamp, f_ipt)
.reduce(size, [ft_hist{24, 64}])
.collect(flow)
.reduce(ipt, [ft_hist{5000000, 80}])
.collect(flow)
.reduce(size, [f_sum, f_mean, f_var, f_std, f_min, f_max, f_skew, f_kur])
.collect(flow)
.reduce(ipt, [f_sum, f_mean, f_var, f_std, f_min, f_max, f_skew, f_kur])
.collect(flow)
.reduce(size, [ft_percent{24, 64, 25}, ft_percent{24, 64, 50}, ft_percent{24, 64, 75}])
.collect(flow)
.reduce(ipt, [ft_percent{5000000, 80, 25}, ft_percent{5000000, 80, 50}, ft_percent{5000000, 80, 75}])
.collect(flow)
";

/// NPOD (Wang et al., CCS'15): packet-size and inter-packet-time
/// distributions per flow plus the packet count (37 features).
pub const NPOD: &str = "\
pktstream
.groupby(flow)
.map(one, _, f_one)
.map(ipt, tstamp, f_ipt)
.reduce(size, [ft_hist{100, 16}])
.collect(flow)
.reduce(ipt, [ft_hist{10000000, 20}])
.collect(flow)
.reduce(one, [f_sum])
.collect(flow)
";

/// HELAD (Zhong et al., ComNet'20): damped multi-granularity statistics
/// (100 features).
pub const HELAD: &str = "\
pktstream
.groupby(socket)
.reduce(size, [f_damped2d{5}, f_damped2d{3}, f_damped2d{1}, f_damped2d{0.1}, f_damped2d{0.01}])
.reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])
.collect(pkt)
.groupby(channel)
.map(ipt, tstamp, f_ipt)
.reduce(size, [f_damped2d{5}, f_damped2d{3}, f_damped2d{1}, f_damped2d{0.1}, f_damped2d{0.01}])
.reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])
.reduce(ipt, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])
.collect(pkt)
.groupby(host)
.reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])
.collect(pkt)
";

/// Kitsune (Mirsky et al., NDSS'18): 115 damped-window features over the
/// socket/channel/host dependency chain and five decay rates.
pub const KITSUNE: &str = "\
pktstream
.groupby(socket)
.reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])
.reduce(size, [f_damped2d{5}, f_damped2d{3}, f_damped2d{1}, f_damped2d{0.1}, f_damped2d{0.01}])
.collect(pkt)
.groupby(channel)
.map(ipt, tstamp, f_ipt)
.reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])
.reduce(size, [f_damped2d{5}, f_damped2d{3}, f_damped2d{1}, f_damped2d{0.1}, f_damped2d{0.01}])
.reduce(ipt, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])
.collect(pkt)
.groupby(host)
.reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])
.reduce(size, [f_damped{5}, f_damped{3}, f_damped{1}, f_damped{0.1}, f_damped{0.01}])
.collect(pkt)
";

/// One Table 3 row.
#[derive(Clone, Copy, Debug)]
pub struct AppSpec {
    /// Application name as in the paper.
    pub name: &'static str,
    /// The "objective of traffic analysis" column.
    pub objective: &'static str,
    /// The policy source.
    pub dsl: &'static str,
    /// Feature dimension the paper reports.
    pub paper_dim: usize,
    /// LoC the paper reports for its (Python-embedded) interface.
    pub paper_loc: usize,
}

impl AppSpec {
    /// Parses and validates this application's policy.
    pub fn policy(&self) -> Policy {
        dsl::parse(self.dsl).expect("shipped policies are valid")
    }

    /// Our LoC metric for the policy source.
    pub fn loc(&self) -> usize {
        dsl::loc(self.dsl)
    }

    /// Our feature dimension.
    pub fn dim(&self) -> usize {
        self.policy().feature_dimension()
    }
}

/// All ten Table 3 applications, in paper order.
pub fn all_apps() -> Vec<AppSpec> {
    vec![
        AppSpec {
            name: "CUMUL",
            objective: "Website fingerprinting",
            dsl: CUMUL,
            paper_dim: 104,
            paper_loc: 29,
        },
        AppSpec {
            name: "AWF",
            objective: "Website fingerprinting",
            dsl: AWF,
            paper_dim: 5000,
            paper_loc: 9,
        },
        AppSpec {
            name: "DF",
            objective: "Website fingerprinting",
            dsl: DF,
            paper_dim: 5000,
            paper_loc: 9,
        },
        AppSpec {
            name: "TF",
            objective: "Website fingerprinting",
            dsl: TF,
            paper_dim: 5000,
            paper_loc: 9,
        },
        AppSpec {
            name: "PeerShark",
            objective: "Botnet detection",
            dsl: PEERSHARK,
            paper_dim: 4,
            paper_loc: 22,
        },
        AppSpec {
            name: "N-BaIoT",
            objective: "Botnet detection",
            dsl: NBAIOT,
            paper_dim: 65,
            paper_loc: 34,
        },
        AppSpec {
            name: "MPTD",
            objective: "Covert channel detection",
            dsl: MPTD,
            paper_dim: 166,
            paper_loc: 101,
        },
        AppSpec {
            name: "NPOD",
            objective: "Covert channel detection",
            dsl: NPOD,
            paper_dim: 37,
            paper_loc: 24,
        },
        AppSpec {
            name: "HELAD",
            objective: "Intrusion detection",
            dsl: HELAD,
            paper_dim: 100,
            paper_loc: 49,
        },
        AppSpec {
            name: "Kitsune",
            objective: "Intrusion detection",
            dsl: KITSUNE,
            paper_dim: 115,
            paper_loc: 49,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_parse_and_validate() {
        for app in all_apps() {
            let p = app.policy();
            assert!(!p.ops.is_empty(), "{}", app.name);
        }
    }

    #[test]
    fn feature_dimensions_match_the_paper() {
        for app in all_apps() {
            assert_eq!(
                app.dim(),
                app.paper_dim,
                "{}: dim {} vs paper {}",
                app.name,
                app.dim(),
                app.paper_dim
            );
        }
    }

    #[test]
    fn policies_are_concise() {
        // The Table 3 claim: tens of lines, not thousands. Our DSL should be
        // within ~2x of the paper's LoC.
        for app in all_apps() {
            let loc = app.loc();
            assert!(
                loc <= app.paper_loc * 2,
                "{}: {loc} lines vs paper {}",
                app.name,
                app.paper_loc
            );
        }
    }

    #[test]
    fn all_policies_are_lint_clean() {
        // Every bundled policy must pass `superfe check` under the default
        // deployment configuration: no analyzer errors, no warnings (notes —
        // e.g. expected DRAM spill for big-array policies — are fine).
        let cfg = superfe_core::AnalyzeConfig::default();
        for app in all_apps() {
            let report = superfe_core::analyze(&app.policy(), &cfg);
            assert!(
                report.error_count() == 0 && report.warning_count() == 0,
                "{} is not lint-clean:\n{}",
                app.name,
                report.render()
            );
        }
    }

    #[test]
    fn all_policies_are_overflow_clean_at_default_config() {
        // The `SF05xx` value analysis must prove every bundled policy free
        // of sALU overflow and Q16 saturation at the default batch size
        // (10k packets/group) and aging horizon (25 ms). A single SF05xx
        // finding here means either the policy or the default deployment
        // parameters are wrong for real hardware.
        let cfg = superfe_core::AnalyzeConfig::default();
        for app in all_apps() {
            let report = superfe_core::analyze(&app.policy(), &cfg);
            let value_findings: Vec<_> = report
                .diagnostics()
                .iter()
                .filter(|d| d.code.starts_with("SF05"))
                .collect();
            assert!(
                value_findings.is_empty(),
                "{} has value-analysis findings: {:?}",
                app.name,
                value_findings
            );
        }
    }

    #[test]
    fn wf_trio_shares_representation() {
        assert_eq!(AWF, DF);
        assert_eq!(AWF, TF);
    }

    #[test]
    fn kitsune_compiles_to_three_levels() {
        let c = superfe_policy::compile(&all_apps()[9].policy()).unwrap();
        assert_eq!(c.nic.levels.len(), 3);
        assert!(c.switch.needs_fg_table());
        assert_eq!(c.nic.feature_dimension(), 115);
    }
}
