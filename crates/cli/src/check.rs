//! `superfe check`: static analysis of one or more policies — lints plus
//! hardware feasibility. Several policies add the SF07xx fusion and SF08xx
//! prefix-sharing sections, which `explain` prints too.

use std::fmt::Write as _;

use superfe_core::{analyze, AnalyzeConfig};
use superfe_policy::analyze::json::Json;
use superfe_policy::analyze::share::{analyze_sharing, Divergence, ShareAnalysis};
use superfe_policy::{AnalysisReport, Policy, ValueConfig};

use crate::args::{resolve_policy_unchecked, CliError, Flags, OutputFormat};

/// Options of `superfe check`.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckArgs {
    /// Built-in names or file paths (at least one).
    pub policies: Vec<String>,
    /// Headroom warning threshold in percent.
    pub headroom: f64,
    /// Switch short-buffer slot count (overrides the §7 default).
    pub cache_slots: Option<usize>,
    /// Expected concurrent groups per granularity level.
    pub groups: usize,
    /// Output rendering.
    pub format: OutputFormat,
}

impl Default for CheckArgs {
    fn default() -> Self {
        CheckArgs {
            policies: Vec::new(),
            headroom: 90.0,
            cache_slots: None,
            groups: 5_000,
            format: OutputFormat::Text,
        }
    }
}

/// Parses the arguments after `superfe check`.
pub(crate) fn parse(args: &[String]) -> Result<CheckArgs, CliError> {
    let (policies, flags) = Flags::after_policies(
        args,
        "usage: superfe check <policy> [<policy>...] [options]",
    )?;
    let mut a = CheckArgs {
        policies,
        ..CheckArgs::default()
    };
    flags.each(|flag, f| {
        match flag {
            "--headroom" => a.headroom = f.parse("a percentage")?,
            "--cache-slots" => a.cache_slots = Some(f.parse("an integer")?),
            "--groups" => a.groups = f.parse("an integer")?,
            "--format" => a.format = f.format()?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(a)
}

/// Runs `superfe check`. Any error-severity finding fails the command, its
/// report the error's message.
pub(crate) fn check(a: &CheckArgs) -> Result<String, CliError> {
    let mut cfg = AnalyzeConfig {
        headroom_pct: a.headroom,
        groups: a.groups,
        ..AnalyzeConfig::default()
    };
    if let Some(slots) = a.cache_slots {
        cfg.cache.short_count = slots;
    }
    let mut named = Vec::new();
    for name in &a.policies {
        named.push((name.clone(), resolve_policy_unchecked(name)?));
    }
    let reports: Vec<_> = named.iter().map(|(_, p)| analyze(p, &cfg)).collect();
    let text = render(
        &named,
        &cfg.value_config(),
        a.format,
        |i| format!("checking {}\n{}", named[i].0, reports[i].render()),
        |i| match named.len() {
            1 => reports[i].to_json(),
            _ => Json::Obj(vec![
                ("policy", Json::str(&named[i].0)),
                ("report", reports[i].to_json()),
            ]),
        },
    );
    if reports.iter().any(AnalysisReport::has_errors) {
        // Non-zero exit: main prints machine output to stdout and prose to
        // stderr, failing either way.
        Err(CliError {
            message: text,
            machine: a.format == OutputFormat::Json,
        })
    } else {
        Ok(text)
    }
}

/// A `check` / `explain` output: each policy's part (`text` or `json` of
/// its index) and, for several policies, the fusion and prefix-sharing
/// sections, all four renderings of which read one sharing analysis.
pub(crate) fn render(
    named: &[(String, Policy)],
    vc: &ValueConfig,
    format: OutputFormat,
    text: impl Fn(usize) -> String,
    json: impl Fn(usize) -> Json,
) -> String {
    if named.len() == 1 {
        return match format {
            OutputFormat::Text => text(0),
            OutputFormat::Json => json(0).compact() + "\n",
        };
    }
    let refs: Vec<(&str, &Policy)> = named.iter().map(|(n, p)| (n.as_str(), p)).collect();
    let analysis = analyze_sharing(&refs, vc);
    match format {
        OutputFormat::Text => {
            (0..named.len()).map(text).collect::<String>()
                + &fusion_text(named, &analysis)
                + &sharing_text(named, &analysis)
        }
        OutputFormat::Json => {
            let doc = Json::Obj(vec![
                ("policies", Json::Arr((0..named.len()).map(json).collect())),
                ("fusion", fusion_json(named, &analysis)),
                ("sharing", sharing_json(named, &analysis)),
            ]);
            doc.compact() + "\n"
        }
    }
}

/// The names of one class's members.
fn member_names<'a>(named: &'a [(String, Policy)], members: &[usize]) -> Vec<&'a str> {
    members.iter().map(|&m| named[m].0.as_str()).collect()
}

/// The human-readable fusion section: the plan classes (who shares whose
/// hardware) and every SF0701/SF0702 finding.
fn fusion_text(named: &[(String, Policy)], analysis: &ShareAnalysis) -> String {
    let plans = analysis.plans.len();
    let header = format!(
        "cross-policy fusion (SF07xx): {} policies need {plans} execution plan(s); \
         fusion saves {} duplicate plan(s)",
        named.len(),
        named.len() - plans
    );
    let classes = analysis
        .plans
        .iter()
        .map(|c| (&c.members[..], " (fused)".into()));
    section_text(header, "plan", named, classes, &analysis.plan_report)
}

/// A sharing section: its header, one line per class — its members, and
/// `suffix` when it has several — then every finding.
fn section_text<'a>(
    header: String,
    kind: &str,
    named: &[(String, Policy)],
    classes: impl Iterator<Item = (&'a [usize], String)>,
    report: &AnalysisReport,
) -> String {
    let mut out = header + "\n";
    for (i, (members, suffix)) in classes.enumerate() {
        let names = member_names(named, members).join(", ");
        let suffix = if members.len() > 1 { &suffix } else { "" };
        writeln!(out, "  {kind} {}: {names}{suffix}", i + 1).expect("write");
    }
    for d in report.diagnostics() {
        writeln!(out, "  {d}").expect("write");
    }
    out
}

/// The machine rendering of the fusion section: plan classes with member
/// names and the SF07xx finding report.
fn fusion_json(named: &[(String, Policy)], analysis: &ShareAnalysis) -> Json {
    let classes = analysis.plans.iter().map(|c| {
        Json::Obj(vec![
            ("hash", Json::str(format!("{:016x}", c.hash))),
            ("members", Json::strs(member_names(named, &c.members))),
        ])
    });
    let near = analysis.plan_near_misses.iter().map(|m| {
        Json::Obj(vec![
            ("a", Json::str(&named[m.a].0)),
            ("b", Json::str(&named[m.b].0)),
            ("reason", Json::str(&m.reason)),
            (
                "divergence",
                m.divergence.as_ref().map_or(Json::Null, divergence_json),
            ),
        ])
    });
    Json::Obj(vec![
        ("policy_count", Json::num(named.len())),
        ("plan_count", Json::num(analysis.plans.len())),
        ("plans_saved", Json::num(named.len() - analysis.plans.len())),
        ("classes", Json::Arr(classes.collect())),
        ("near_misses", Json::Arr(near.collect())),
        ("report", analysis.plan_report.to_json()),
    ])
}

/// The machine rendering of one SF0702/SF0802 first-divergence diff.
fn divergence_json(d: &Divergence) -> Json {
    Json::Obj(vec![
        ("stage", Json::str(d.stage.label())),
        ("op", Json::num(d.op_index)),
        ("culprit", Json::str(&d.culprit)),
    ])
}

/// The human-readable prefix-sharing section: the partition classes (whose
/// switch partitions merge) and every SF0801/SF0802/SF0803 finding.
fn sharing_text(named: &[(String, Policy)], analysis: &ShareAnalysis) -> String {
    let partitions = analysis.partitions.len();
    let header = format!(
        "cross-tenant prefix sharing (SF08xx): {} policies → {partitions} switch partition{} \
         ({} saved)",
        named.len(),
        if partitions == 1 { "" } else { "s" },
        named.len() - partitions
    );
    let classes = analysis.partitions.iter().map(|g| {
        let suffix = format!(" (shared prefix {:#018x})", g.prefix);
        (&g.members[..], suffix)
    });
    section_text(
        header,
        "partition",
        named,
        classes,
        &analysis.partition_report,
    )
}

/// The machine rendering of the prefix-sharing section: partition classes
/// with member names, structured near-misses, and the SF08xx finding
/// report.
fn sharing_json(named: &[(String, Policy)], analysis: &ShareAnalysis) -> Json {
    let groups = analysis.partitions.iter().map(|g| {
        Json::Obj(vec![
            ("prefix", Json::str(format!("{:016x}", g.prefix))),
            ("members", Json::strs(member_names(named, &g.members))),
            ("ops", Json::strs(&g.ops)),
        ])
    });
    let near = analysis.partition_near_misses.iter().map(|m| {
        Json::Obj(vec![
            ("a", Json::str(&named[m.a].0)),
            ("b", Json::str(&named[m.b].0)),
            ("divergence", divergence_json(&m.divergence)),
        ])
    });
    Json::Obj(vec![
        ("policy_count", Json::num(named.len())),
        ("partition_count", Json::num(analysis.partitions.len())),
        (
            "partitions_saved",
            Json::num(named.len() - analysis.partitions.len()),
        ),
        ("groups", Json::Arr(groups.collect())),
        ("near_misses", Json::Arr(near.collect())),
        ("report", analysis.partition_report.to_json()),
    ])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::args::argv;

    /// `policies` checked at the default options.
    fn checked(policies: &[&str], format: OutputFormat) -> Result<String, CliError> {
        check(&CheckArgs {
            policies: policies.iter().map(ToString::to_string).collect(),
            format,
            ..CheckArgs::default()
        })
    }

    /// Writes `name` with `src` to a test directory; its path.
    fn policy_file(dir: &str, name: &str, src: &str) -> String {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, src).unwrap();
        path.to_str().unwrap().to_string()
    }

    /// Two policies with the same filter and groupby and different reduce
    /// tails: one switch partition, two execution plans.
    pub(crate) fn write_prefix_pair(dir: &std::path::Path) -> (String, String) {
        let dir = dir.to_str().unwrap();
        let tail = |f: &str| {
            format!(
                "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [{f}])\n\
                 .collect(flow)"
            )
        };
        (
            policy_file(dir, "flow_sum.sfe", &tail("f_sum")),
            policy_file(dir, "flow_max.sfe", &tail("f_max")),
        )
    }

    #[test]
    fn parses_check_options() {
        let a = parse(&argv("kitsune --headroom 75 --cache-slots 99 --groups 500")).unwrap();
        assert_eq!(
            a,
            CheckArgs {
                policies: vec!["kitsune".into()],
                headroom: 75.0,
                cache_slots: Some(99),
                groups: 500,
                format: OutputFormat::Text,
            }
        );
        // Multiple positional policies collect in order.
        let a = parse(&argv("npod cumul --format json")).unwrap();
        assert_eq!(
            a,
            CheckArgs {
                policies: vec!["npod".into(), "cumul".into()],
                format: OutputFormat::Json,
                ..CheckArgs::default()
            }
        );
    }

    #[test]
    fn check_passes_builtin_policies() {
        for name in [
            "cumul",
            "awf",
            "df",
            "tf",
            "peershark",
            "n-baiot",
            "mptd",
            "npod",
            "helad",
            "kitsune",
        ] {
            let out = checked(&[name], OutputFormat::Text).unwrap();
            assert!(out.contains("0 error(s), 0 warning(s)"), "{name}: {out}");
        }
    }

    /// The acceptance case: a cache configured past the Tofino SRAM budget
    /// exits non-zero with an SF03xx error reporting utilization.
    fn oversized_cache(policies: &[&str], format: OutputFormat) -> CliError {
        check(&CheckArgs {
            policies: policies.iter().map(ToString::to_string).collect(),
            cache_slots: Some(4_000_000),
            groups: 10_000,
            format,
            ..CheckArgs::default()
        })
        .unwrap_err()
    }

    #[test]
    fn check_oversized_cache_fails_with_sram_diagnostic() {
        let e = oversized_cache(&["kitsune"], OutputFormat::Text);
        assert!(!e.machine);
        assert!(e.message.contains("SF0303"), "{e}");
        assert!(e.message.contains("% utilization"), "{e}");
    }

    #[test]
    fn check_reports_dataflow_warnings_without_failing() {
        let path = policy_file(
            "superfe_cli_check_test",
            "dead_map.sfe",
            "pktstream\n.groupby(flow)\n.map(ipt, tstamp, f_ipt)\n\
             .reduce(size, [f_sum])\n.collect(flow)",
        );
        let out = checked(&[path.as_str()], OutputFormat::Text).unwrap();
        assert!(out.contains("SF0201"), "{out}");
        assert!(out.contains("1 warning(s)"), "{out}");
    }

    #[test]
    fn check_reports_structural_errors_as_diagnostics() {
        // A structurally broken file goes through the analyzer (every SF01xx
        // finding with its code), not the parse-time one-line error.
        let path = policy_file(
            "superfe_cli_check_test",
            "no_collect.sfe",
            "pktstream\n.groupby(flow)\n.reduce(size, [f_mean])",
        );
        let e = checked(&[path.as_str()], OutputFormat::Text).unwrap_err();
        assert!(e.message.contains("SF0103"), "{e}");
        assert!(e.message.contains("SF0104"), "{e}");
    }

    #[test]
    fn check_json_format_emits_machine_output() {
        let out = checked(&["kitsune"], OutputFormat::Json).unwrap();
        assert!(out.starts_with(r#"{"errors":0"#), "{out}");
        assert!(out.ends_with("}\n"), "{out}");
        // A failing check in JSON mode keeps the JSON on stdout.
        let e = oversized_cache(&["kitsune"], OutputFormat::Json);
        assert!(e.machine);
        assert!(e.message.contains(r#""code":"SF0303""#), "{e}");
    }

    #[test]
    fn check_rejects_overflowing_policy_with_sf05_error() {
        // The acceptance case for the value analysis: a policy that provably
        // overflows a 32-bit sALU sum accumulator within one batch must be
        // rejected, and the diagnostic must name the reducer and the width.
        // tstamp is µs-scaled 32-bit metadata on the switch: summing it over
        // a 10k-packet batch can reach ~4.29e9 µs × 10_000 ≫ 2^32.
        let path = policy_file(
            "superfe_cli_check_test",
            "overflow.sfe",
            "pktstream\n.groupby(flow)\n.reduce(tstamp, [f_sum])\n.collect(flow)",
        );
        let e = checked(&[path.as_str()], OutputFormat::Text).unwrap_err();
        assert!(!e.machine);
        assert!(e.message.contains("SF0501"), "{e}");
        assert!(e.message.contains("f_sum"), "{e}");
        assert!(e.message.contains("32-bit"), "{e}");
    }

    #[test]
    fn check_multi_policy_emits_fusion_report() {
        // Two names that resolve to the same text must land in one class.
        let out = checked(&["df", "awf", "npod"], OutputFormat::Text).unwrap();
        assert!(out.contains("checking df"), "{out}");
        assert!(out.contains("checking npod"), "{out}");
        assert!(out.contains("cross-policy fusion (SF07xx):"), "{out}");
        assert!(out.contains("3 policies need 2 execution plan(s)"), "{out}");
        assert!(out.contains("fusion saves 1 duplicate plan(s)"), "{out}");
        assert!(out.contains("df, awf (fused)"), "{out}");
        assert!(out.contains("SF0701"), "{out}");
    }

    #[test]
    fn check_pair_emits_sharing_report() {
        let dir = std::env::temp_dir().join("superfe_cli_share_test");
        let (a, b) = write_prefix_pair(&dir);
        let out = checked(&[a.as_str(), b.as_str()], OutputFormat::Text).unwrap();
        assert!(
            out.contains("cross-tenant prefix sharing (SF08xx):"),
            "{out}"
        );
        assert!(
            out.contains("2 policies → 1 switch partition (1 saved)"),
            "{out}"
        );
        assert!(out.contains("(shared prefix 0x"), "{out}");
        assert!(out.contains("SF0801"), "{out}");
        assert!(out.contains("SF0803"), "{out}");
        let out = checked(&[a.as_str(), b.as_str()], OutputFormat::Json).unwrap();
        assert!(out.contains(r#""sharing":{"#), "{out}");
        assert!(out.contains(r#""partition_count":1"#), "{out}");
        assert!(out.contains(r#""partitions_saved":1"#), "{out}");
        assert!(out.contains(r#""code":"SF0801""#), "{out}");
        assert!(out.ends_with("}\n"), "{out}");
    }

    #[test]
    fn check_near_miss_reports_first_divergence() {
        // Same groupby key, filter constants apart by one knob: the SF0802
        // near-miss must carry the structured first-divergence diff in
        // both renderings.
        let dir = "superfe_cli_share_nearmiss_test";
        let src = |size: u32| {
            format!(
                "pktstream\n.filter(size > {size})\n.groupby(flow)\n.reduce(size, [f_sum])\n\
                 .collect(flow)"
            )
        };
        let a = policy_file(dir, "small.sfe", &src(100));
        let b = policy_file(dir, "large.sfe", &src(200));
        let out = checked(&[a.as_str(), b.as_str()], OutputFormat::Text).unwrap();
        assert!(out.contains("SF0802"), "{out}");
        assert!(out.contains("first divergence at"), "{out}");
        assert!(out.contains("100") && out.contains("200"), "{out}");
        let out = checked(&[a.as_str(), b.as_str()], OutputFormat::Json).unwrap();
        assert!(
            out.contains(r#""divergence":{"stage":"filter set""#),
            "{out}"
        );
        assert!(out.contains(r#""culprit":"#), "{out}");
    }

    #[test]
    fn check_multi_policy_json_reports_classes() {
        let out = checked(&["df", "awf"], OutputFormat::Json).unwrap();
        assert!(out.starts_with(r#"{"policies":["#), "{out}");
        assert!(out.contains(r#""policy":"df""#), "{out}");
        assert!(out.contains(r#""fusion":{"#), "{out}");
        assert!(out.contains(r#""policy_count":2"#), "{out}");
        assert!(out.contains(r#""plan_count":1"#), "{out}");
        assert!(out.contains(r#""plans_saved":1"#), "{out}");
        assert!(out.contains(r#""members":["df","awf"]"#), "{out}");
        assert!(out.contains(r#""code":"SF0701""#), "{out}");
        assert!(out.ends_with("}\n"), "{out}");
        // An infeasible member still fails the whole check in JSON mode.
        let e = oversized_cache(&["df", "kitsune"], OutputFormat::Json);
        assert!(e.machine);
        assert!(e.message.contains(r#""code":"SF0303""#), "{e}");
        assert!(e.message.contains(r#""fusion":{"#), "{e}");
    }
}
