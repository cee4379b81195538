//! `superfe run`: extract features from a synthetic (or saved) trace with
//! one policy.

use std::fmt::Write as _;

use superfe_core::SuperFe;
use superfe_switch::record::TS_HORIZON_NS;
use superfe_trafficgen::{Trace, Workload, WorkloadPreset};

use crate::args::{err, fail, resolve_policy, CliError, Flags};

/// Options of `superfe run`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Built-in name or file path.
    pub policy: String,
    /// Workload preset.
    pub trace: WorkloadPreset,
    /// Trace size in packets.
    pub packets: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Max vectors to print.
    pub limit: usize,
    /// Save the generated trace to this path (SFET format).
    pub save_trace: Option<String>,
    /// Load the trace from this path instead of generating.
    pub load_trace: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            policy: String::new(),
            trace: WorkloadPreset::Enterprise,
            packets: 100_000,
            seed: 1,
            csv: None,
            limit: 5,
            save_trace: None,
            load_trace: None,
        }
    }
}

/// Parses the arguments after `superfe run`: the policy, then its flags.
pub(crate) fn parse(args: &[String]) -> Result<RunArgs, CliError> {
    let (policy, rest) = args
        .split_first()
        .ok_or_else(|| err("usage: superfe run <policy> [options]"))?;
    let mut a = RunArgs {
        policy: policy.clone(),
        ..RunArgs::default()
    };
    Flags::new(rest).each(|flag, f| {
        match flag {
            "--trace" => a.trace = f.trace()?,
            "--packets" => a.packets = f.parse("an integer")?,
            "--seed" => a.seed = f.parse("an integer")?,
            "--csv" => a.csv = Some(f.value()?),
            "--save-trace" => a.save_trace = Some(f.value()?),
            "--load-trace" => a.load_trace = Some(f.value()?),
            "--limit" => a.limit = f.parse("an integer")?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(a)
}

/// Runs `superfe run`.
pub(crate) fn run(a: &RunArgs) -> Result<String, CliError> {
    let (_, p) = resolve_policy(&a.policy)?;
    let mut fe = SuperFe::new(&p).map_err(fail)?;
    let t = match &a.load_trace {
        Some(path) => load(path)?,
        None => Workload::preset(a.trace)
            .packets(a.packets)
            .seed(a.seed)
            .generate(),
    };
    if let Some(path) = &a.save_trace {
        superfe_trafficgen::io::save(&t, path).map_err(|e| err(format!("saving {path}: {e}")))?;
    }
    let stats = t.stats();
    for rec in &t.records {
        fe.push(rec);
    }
    let out = fe.finish();
    let mut text = String::new();
    writeln!(
        text,
        "trace: {} ({} packets, {} flows, {:.0} B avg)",
        a.load_trace.as_deref().unwrap_or(a.trace.name()),
        stats.packets,
        stats.flows,
        stats.avg_pkt_size
    )
    .expect("write");
    writeln!(
        text,
        "switch: {} msgs out, rate ratio {:.2}%, byte ratio {:.2}%",
        out.switch_stats.msgs_out,
        100.0 * out.switch_stats.rate_aggregation_ratio(),
        100.0 * out.switch_stats.byte_aggregation_ratio()
    )
    .expect("write");
    let vectors = if out.group_vectors.is_empty() {
        &out.packet_vectors
    } else {
        &out.group_vectors
    };
    writeln!(text, "feature vectors: {}", vectors.len()).expect("write");
    for v in vectors.iter().take(a.limit) {
        let head: Vec<String> = v.values.iter().take(8).map(|x| format!("{x:.2}")).collect();
        let ellipsis = if v.values.len() > 8 { ", ..." } else { "" };
        writeln!(text, "  {:?} -> [{}{}]", v.key, head.join(", "), ellipsis).expect("write");
    }
    if let Some(path) = &a.csv {
        let mut file = String::new();
        for v in vectors {
            let row: Vec<String> = v.values.iter().map(f64::to_string).collect();
            file.push_str(&format!("{:?},{}\n", v.key, row.join(",")));
        }
        std::fs::write(path, file).map_err(|e| err(format!("writing {path}: {e}")))?;
        writeln!(text, "wrote {} vectors to {path}", vectors.len()).expect("write");
    }
    Ok(text)
}

/// Loads a saved trace, refusing one the switch cannot replay: a packet at
/// or past the MGPV timestamp horizon would wrap its 32-bit microsecond
/// tstamp.
fn load(path: &str) -> Result<Trace, CliError> {
    let t = superfe_trafficgen::io::load(path).map_err(|e| err(format!("loading {path}: {e}")))?;
    if let Some((i, p)) = t
        .records
        .iter()
        .enumerate()
        .find(|(_, p)| p.ts_ns >= TS_HORIZON_NS)
    {
        return Err(err(format!(
            "loading {path}: packet {i} at {} ns is at or past the switch's timestamp horizon \
             ({TS_HORIZON_NS} ns); rebase the trace's timestamps",
            p.ts_ns
        )));
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::argv;

    #[test]
    fn parses_run_options() {
        let a = parse(&argv(
            "kitsune --trace mawi --packets 5000 --seed 9 --limit 2",
        ))
        .unwrap();
        assert_eq!(
            a,
            RunArgs {
                policy: "kitsune".into(),
                trace: WorkloadPreset::MawiIxp,
                packets: 5000,
                seed: 9,
                limit: 2,
                ..RunArgs::default()
            }
        );
    }
}
