//! The SuperFE datapath benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload
//! benchmark [--seed N] [--seconds S] [--trace 0|1] [--smoke]   all six, one document
//! benchmark compare A.json B.json                               judge B against A
//! ```

mod compare;
mod json;
mod lockstep;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{AllArgs, RunArgs};
use stats::Clock;

/// Default seed, and the measurement window when `--seconds` is not given.
const DEFAULT_SEED: u64 = 4;
const DEFAULT_SECONDS: f64 = 10.0;

fn out_dir() -> PathBuf {
    // `run.sh` points this at `benchmark/out`; by hand, run from the root.
    std::env::var_os("BENCH_OUT_DIR").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn write_out(name: &str, content: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a name")?.clone()),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=60.0).contains(&cli.seconds) {
                    return Err("--seconds must be between 0 and 60".into());
                }
            }
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                cli.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                })
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn run(args: &[String], clock: Clock) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err("usage: benchmark compare <a.json> <b.json>".into());
        };
        let load = |path: &String| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        let report = compare::compare(&load(a)?, &load(b)?)?;
        print!("{}", report.text);
        println!("{} worse, {} unresolved", report.worse, report.unresolved);
        return Ok(if report.worse > 0 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    let cli = parse_cli(args)?;
    let Some(workload) = cli.workload else {
        let all = AllArgs {
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace.unwrap_or(true),
            smoke: cli.smoke,
        };
        let (doc, ok) = run::run_all(&all)?;
        write_out(&format!("results-seed{}.json", cli.seed), &doc)?;
        print!("{doc}");
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    };
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace.unwrap_or(false),
        smoke: cli.smoke,
    };
    let outcome = run::run_workload(&args, clock)?;
    if let Some(spans) = &outcome.spans {
        write_out(&format!("{}.trace.json", args.workload), spans)?;
    }
    println!("{}", outcome.detail_line(&args));
    println!("{}", outcome.contract_line());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let clock = Clock::start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args, clock).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::FAILURE
    })
}
