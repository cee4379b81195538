//! The one flag parser every subcommand reads its options with, the policy
//! lookup, and the error a command line is refused with.

use std::str::FromStr;

use superfe_apps::all_apps;
use superfe_nic::MAX_WORKERS;
use superfe_policy::{dsl, Policy, PolicyError};
use superfe_trafficgen::WorkloadPreset;

/// Errors surfaced to the user.
#[derive(Clone, Debug, PartialEq)]
pub struct CliError {
    /// The text to print.
    pub message: String,
    /// When set, `message` is machine-readable output (the `--format json`
    /// rendering of a failing report) that belongs on stdout so scripts can
    /// parse it; prose errors go to stderr.
    pub machine: bool,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// A prose (stderr) error.
pub(crate) fn err(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        machine: false,
    }
}

/// A library error surfaced to the user as its message.
pub(crate) fn fail(e: impl std::fmt::Display) -> CliError {
    err(e.to_string())
}

/// Output format of the analysis commands (`check`, `explain`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable text (the default).
    #[default]
    Text,
    /// A single JSON object for machine consumption.
    Json,
}

/// A subcommand's flags, read in order: each a `--flag` alone or followed
/// by its value.
pub(crate) struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    /// The flag being read, named by every refusal.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// Every argument in `args` is a flag or a flag's value.
    pub(crate) fn new(args: &'a [String]) -> Self {
        Flags {
            rest: args.iter(),
            flag: "",
        }
    }

    /// Splits off the policy names leading `args` (every argument before
    /// the first `--` flag); with none, the command line is refused with
    /// `usage`.
    pub(crate) fn after_policies(
        args: &'a [String],
        usage: &str,
    ) -> Result<(Vec<String>, Self), CliError> {
        let n = args.iter().take_while(|a| !a.starts_with("--")).count();
        if n == 0 {
            return Err(err(usage));
        }
        Ok((args[..n].to_vec(), Flags::new(&args[n..])))
    }

    /// Hands each flag in turn to `on`, which reads its value, if any, from
    /// the cursor it is given and returns whether it knows the flag; an
    /// unknown one refuses the command line.
    pub(crate) fn each(
        mut self,
        mut on: impl FnMut(&str, &mut Self) -> Result<bool, CliError>,
    ) -> Result<(), CliError> {
        while let Some(flag) = self.rest.next() {
            self.flag = flag;
            if !on(flag, &mut self)? {
                return Err(err(format!("unknown option '{flag}'")));
            }
        }
        Ok(())
    }

    /// The current flag's value.
    pub(crate) fn value(&mut self) -> Result<String, CliError> {
        self.rest
            .next()
            .cloned()
            .ok_or_else(|| err(format!("{} needs a value", self.flag)))
    }

    /// The current flag's value parsed, naming what the flag `expects` when
    /// it does not parse.
    pub(crate) fn parse<T: FromStr>(&mut self, expects: &str) -> Result<T, CliError> {
        self.value()?
            .parse()
            .map_err(|_| err(format!("{} expects {expects}", self.flag)))
    }

    /// `--trace`: a workload preset.
    pub(crate) fn trace(&mut self) -> Result<WorkloadPreset, CliError> {
        match self.value()?.as_str() {
            "mawi" => Ok(WorkloadPreset::MawiIxp),
            "enterprise" => Ok(WorkloadPreset::Enterprise),
            "campus" => Ok(WorkloadPreset::Campus),
            other => Err(err(format!("unknown trace '{other}'"))),
        }
    }

    /// `--workers`: a positive shard count, at most one shard per modelled
    /// NIC hardware thread.
    pub(crate) fn workers(&mut self) -> Result<usize, CliError> {
        match self.parse("an integer")? {
            0 => Err(err("--workers expects a positive count")),
            n if n > MAX_WORKERS => Err(err(format!(
                "--workers expects at most {MAX_WORKERS} (the NFP-4000's hardware threads)"
            ))),
            n => Ok(n),
        }
    }

    /// `--format`: `text` or `json`.
    pub(crate) fn format(&mut self) -> Result<OutputFormat, CliError> {
        match self.value()?.as_str() {
            "text" => Ok(OutputFormat::Text),
            "json" => Ok(OutputFormat::Json),
            other => Err(err(format!(
                "--format expects 'text' or 'json', got '{other}'"
            ))),
        }
    }

    /// A `TENANT:VALUE` pair: a tenant index and a count.
    pub(crate) fn tenant_pair(&mut self) -> Result<(usize, usize), CliError> {
        let v = self.value()?;
        let bad = || err(format!("{} expects TENANT:VALUE, got '{v}'", self.flag));
        let (idx, n) = v.split_once(':').ok_or_else(bad)?;
        Ok((
            idx.parse().map_err(|_| bad())?,
            n.parse().map_err(|_| bad())?,
        ))
    }
}

/// Resolves a policy argument — built-in app name first, then file path —
/// to its source and policy.
pub(crate) fn resolve_policy(name: &str) -> Result<(String, Policy), CliError> {
    lookup(name, dsl::parse)
}

/// Like [`resolve_policy`], but skips validation so the static analyzer can
/// report *every* structural problem with its `SF01xx` code, not just the
/// first one as a parse error.
pub(crate) fn resolve_policy_unchecked(name: &str) -> Result<Policy, CliError> {
    lookup(name, dsl::parse_unchecked).map(|(_, p)| p)
}

/// The source `name` stands for and its policy; `parse` reads a file's.
fn lookup(
    name: &str,
    parse: fn(&str) -> Result<Policy, PolicyError>,
) -> Result<(String, Policy), CliError> {
    if let Some(app) = all_apps()
        .into_iter()
        .find(|app| app.name.eq_ignore_ascii_case(name))
    {
        return Ok((app.dsl.to_string(), app.policy()));
    }
    let src = std::fs::read_to_string(name).map_err(|e| {
        err(format!(
            "'{name}' is not a built-in policy and reading it as a file failed: {e}"
        ))
    })?;
    let policy = parse(&src).map_err(|e| err(format!("{name}: {e}")))?;
    Ok((src, policy))
}

/// A command line split on whitespace, as a test writes one.
#[cfg(test)]
pub(crate) fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_builtin_policies() {
        for name in ["kitsune", "NPOD", "tf", "cumul"] {
            let (src, p) = resolve_policy(name).unwrap();
            assert!(!src.is_empty());
            assert!(!p.ops.is_empty());
        }
        assert!(resolve_policy("/no/such/file.sfe").is_err());
    }

    #[test]
    fn file_policies_load() {
        let dir = std::env::temp_dir().join("superfe_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.sfe");
        std::fs::write(
            &path,
            "pktstream\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)",
        )
        .unwrap();
        let (_, p) = resolve_policy(path.to_str().unwrap()).unwrap();
        assert_eq!(p.feature_dimension(), 1);
    }
}
