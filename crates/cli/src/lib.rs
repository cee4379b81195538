//! The `superfe` command-line tool. [`usage`] is its manual: every
//! subcommand with its options and their defaults.
//!
//! The library half exists so the argument parser and command logic are unit
//! testable; `main.rs` is a thin wrapper. Each subcommand is a module: its
//! options, their parser, and the command.

mod args;
mod check;
mod compile;
pub mod detect;
mod explain;
mod run;
mod serve;

use std::fmt::Write as _;

use superfe_apps::all_apps;

pub use args::{CliError, OutputFormat};
pub use check::CheckArgs;
pub use explain::ExplainArgs;
pub use run::RunArgs;
pub use serve::ServeArgs;

use args::{err, resolve_policy};

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// List built-in application policies.
    Apps,
    /// Print a policy's DSL source.
    Show {
        /// Built-in name or file path.
        policy: String,
    },
    /// Compile a policy and print the deployment split.
    Compile {
        /// Built-in name or file path.
        policy: String,
    },
    /// Statically analyze one or more policies: lints plus hardware
    /// feasibility; with several policies, also the SF07xx fusion and
    /// SF08xx prefix-sharing reports.
    Check(CheckArgs),
    /// Explain one or more policies: typed IR, value-range proofs, static
    /// cost model, optimizer rewrites, and a pre-placement cycle estimate;
    /// with several policies, also the sharing reports.
    Explain(ExplainArgs),
    /// Run a policy over a synthetic trace.
    Run(RunArgs),
    /// Train, calibrate, and serve a detector online over a labelled
    /// intrusion trace.
    Detect {
        /// What to train and serve.
        cfg: detect::DetectConfig,
        /// Also write the JSON document to this path.
        out: Option<String>,
    },
    /// List bundled policy names, machine-readable (one per line).
    List,
    /// Serve several policies concurrently on one shared switch/NIC pair.
    Serve(ServeArgs),
    /// Print usage.
    Help,
}

/// Parses argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "apps" => Ok(Command::Apps),
        "list" => Ok(Command::List),
        "show" | "compile" => {
            let policy = rest
                .first()
                .ok_or_else(|| err(format!("usage: superfe {cmd} <policy>")))?
                .clone();
            Ok(if cmd == "show" {
                Command::Show { policy }
            } else {
                Command::Compile { policy }
            })
        }
        "check" => check::parse(rest).map(Command::Check),
        "explain" => explain::parse(rest).map(Command::Explain),
        "run" => run::parse(rest).map(Command::Run),
        "serve" => serve::parse(rest).map(Command::Serve),
        "detect" => detect::parse_flags(rest).map(|(cfg, out)| Command::Detect { cfg, out }),
        other => Err(err(format!(
            "unknown command '{other}' (try 'superfe help')"
        ))),
    }
}

/// The help text.
pub fn usage() -> String {
    "superfe — scalable & flexible feature extraction (EuroSys '25 reproduction)\n\
     \n\
     usage:\n\
     \x20 superfe apps                       list built-in Table 3 policies\n\
     \x20 superfe list                       bundled policy names, one per line\n\
     \x20 superfe show <policy>              print a policy's DSL source\n\
     \x20 superfe check <p1> [<p2> ...]      static analysis: lints + feasibility;\n\
     \x20                                    two or more policies add the SF07xx\n\
     \x20                                    fusion and SF08xx prefix-sharing\n\
     \x20                                    reports\n\
     \x20 superfe explain <p1> [<p2> ...]    typed IR, cost model, overflow proofs,\n\
     \x20                                    optimizer rewrites, cycle estimate\n\
     \x20 superfe compile <policy>           show the switch/NIC split + resources\n\
     \x20 superfe run <policy> [options]     extract features from a synthetic trace\n\
     \x20 superfe serve <p1> [<p2> ...]      serve N policies concurrently on one\n\
     \x20                                    shared switch/NIC (multi-tenant)\n\
     \x20 superfe detect [options]           train, calibrate, and serve a detector\n\
     \x20                                    online over a labelled intrusion trace\n\
     \n\
     <policy>: built-in name (kitsune, npod, tf, cumul, ...) or a DSL file path\n\
     \n\
     check options:\n\
     \x20 --headroom PCT                     warn above this utilization [90]\n\
     \x20 --cache-slots N                    switch short-buffer slots [16384]\n\
     \x20 --groups N                         concurrent groups per level [5000]\n\
     \x20 --format text|json                 output rendering [text]\n\
     \n\
     explain options:\n\
     \x20 --groups N                         concurrent groups per level [5000]\n\
     \x20 --group-packets N                  per-group batch bound for overflow\n\
     \x20                                    proofs [10000]\n\
     \x20 --format text|json                 output rendering [text]\n\
     \n\
     run options:\n\
     \x20 --trace mawi|enterprise|campus     workload preset       [enterprise]\n\
     \x20 --packets N                        trace size            [100000]\n\
     \x20 --seed S                           RNG seed              [1]\n\
     \x20 --csv PATH                         write feature vectors as CSV\n\
     \x20 --limit N                          vectors to print      [5]\n\
     \x20 --save-trace PATH                  save the generated trace (SFET)\n\
     \x20 --load-trace PATH                  replay a saved trace instead\n\
     \n\
     serve options:\n\
     \x20 --trace mawi|enterprise|campus     workload preset       [enterprise]\n\
     \x20 --packets N                        trace size            [20000]\n\
     \x20 --seed S                           RNG seed              [1]\n\
     \x20 --workers N                        NIC shards            [2]\n\
     \x20 --attach-at T:P                    attach tenant T at packet P (hot add)\n\
     \x20 --detach-at T:P                    detach tenant T at packet P (hot remove)\n\
     \x20 --cache-slots T:N                  cache quota for tenant T: N switch\n\
     \x20                                    short-buffer slots   [16384]\n\
     \x20 --no-fuse                          disable all cross-tenant sharing:\n\
     \x20                                    SF07xx fusion and SF08xx prefix\n\
     \x20                                    sharing (default: both enabled)\n\
     \x20 --verify-solo                      fail unless every tenant's output is\n\
     \x20                                    bitwise identical to a solo run\n\
     \x20 --snapshot PATH                    write a live plane snapshot mid-stream\n\
     \x20 --snapshot-at N                    packet to snapshot at [packets/2]\n\
     \x20 --restore PATH                     resume from a snapshot: topology,\n\
     \x20                                    workers, and packet position come from\n\
     \x20                                    the file; per-tenant digests match the\n\
     \x20                                    uninterrupted run bitwise\n\
     \x20 --evict-seed S                     pin group-table eviction to seeded\n\
     \x20                                    RandomWay for reproducible runs\n\
     \n\
     detect options:\n\
     \x20 --scenario NAME                    os_scan|ssdp_flood|syn_dos|fuzzing|\n\
     \x20                                    mirai                 [mirai]\n\
     \x20 --detector NAME                    kitnet|knn|cart|centroid [kitnet]\n\
     \x20 --benign N                         training-trace benign packets [6000]\n\
     \x20 --serve-benign N                   served-trace benign packets   [3000]\n\
     \x20 --attack N                         served-trace attack packets   [1500]\n\
     \x20 --seed S                           RNG seed              [1]\n\
     \x20 --workers N                        NIC shards [2]\n\
     \x20 --quantile Q                       calibration quantile  [1.0]\n\
     \x20 --margin M                         calibration margin    [1.1]\n\
     \x20 --in-pipeline                      also serve through the SF09xx-\n\
     \x20                                    certified fixed-point model inside\n\
     \x20                                    the NIC shards\n\
     \x20 --out PATH                         also write the JSON document\n"
        .to_string()
}

/// Executes a command, returning the text to print.
pub fn execute(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(usage()),
        Command::Apps => {
            let mut out = String::new();
            writeln!(
                out,
                "{:<10} {:<26} {:>4}  {:>4}",
                "NAME", "OBJECTIVE", "DIM", "LOC"
            )
            .expect("write to string");
            for app in all_apps() {
                writeln!(
                    out,
                    "{:<10} {:<26} {:>4}  {:>4}",
                    app.name.to_lowercase(),
                    app.objective,
                    app.dim(),
                    app.loc()
                )
                .expect("write to string");
            }
            Ok(out)
        }
        Command::List => Ok(all_apps()
            .iter()
            .map(|app| app.name.to_lowercase() + "\n")
            .collect()),
        Command::Show { policy } => Ok(resolve_policy(&policy)?.0),
        Command::Compile { policy } => compile::compile(&policy),
        Command::Check(a) => check::check(&a),
        Command::Explain(a) => explain::explain(&a),
        Command::Run(a) => run::run(&a),
        Command::Serve(a) => serve::serve(&a),
        Command::Detect { cfg, out } => detect::execute(&cfg, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::argv;

    #[test]
    fn parses_help_variants() {
        for a in ["", "help", "--help", "-h"] {
            assert_eq!(parse_args(&argv(a)), Ok(Command::Help));
        }
    }

    #[test]
    fn the_cli_has_no_benchmark_command() {
        // The benchmark stack is `benchmark/run.sh`; the CLI has no face on it.
        for line in ["bench", "bench scale --flows 1000"] {
            let e = parse_args(&argv(line)).unwrap_err();
            assert!(e.message.contains("unknown command 'bench'"), "{e}");
        }
    }

    #[test]
    fn list_is_machine_readable() {
        let out = execute(Command::List).unwrap();
        let names: Vec<&str> = out.lines().collect();
        assert_eq!(names.len(), all_apps().len());
        for n in &names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "name '{n}' is not machine-friendly"
            );
        }
        assert!(names.contains(&"kitsune"));
    }

    #[test]
    fn show_prints_source() {
        let out = execute(Command::Show {
            policy: "tf".into(),
        })
        .unwrap();
        assert!(out.contains("pktstream"));
        assert!(out.contains("f_array{5000}"));
    }
}
