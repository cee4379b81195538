//! Regenerates the paper's evaluation artifacts.
//!
//! ```text
//! bench all        every experiment, in paper order
//! bench list       experiment names, one per line
//! bench <name>     one experiment (tab02, fig12, ablations, scale, ...)
//! ```

use std::process::ExitCode;

use superfe_bench::experiments::{self, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = match args.as_slice() {
        [name] if name == "all" => Some(experiments::run_all()),
        [name] if name == "list" => Some(EXPERIMENTS.map(|(n, _)| format!("{n}\n")).concat()),
        [name] => EXPERIMENTS
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, report)| report()),
        _ => None,
    };
    match report {
        Some(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        None => {
            let names = EXPERIMENTS.map(|(n, _)| n).join("|");
            eprintln!("usage: bench <all|list|{names}>");
            ExitCode::FAILURE
        }
    }
}
