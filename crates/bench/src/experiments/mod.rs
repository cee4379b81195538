//! One submodule per table/figure of the paper's evaluation (§8).

pub mod ablations;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod scale;
pub mod tab02;
pub mod tab03;
pub mod tab04;

use superfe_nic::{estimate, solve_placement, NfpModel, OptFlags, PerfEstimate, RecordWork};
use superfe_policy::analyze::cost::policy_cost;
use superfe_policy::{compile, dsl};

/// The four §8.3 case-study applications: `(name, policy source)`.
pub fn study_apps() -> Vec<(&'static str, &'static str)> {
    use superfe_apps::policies;
    vec![
        ("TF", policies::TF),
        ("N-BaIoT", policies::NBAIOT),
        ("NPOD", policies::NPOD),
        ("Kitsune", policies::KITSUNE),
    ]
}

/// The NIC cycle estimate of policy `src` with its state placed by the ILP:
/// the modelled side of Figs. 9, 16 and 17.
pub fn placed_estimate(src: &str, nfp: &NfpModel, flags: OptFlags) -> PerfEstimate {
    let policy = dsl::parse(src).expect("parses");
    let states = compile(&policy).expect("compiles").nic.states();
    let placement = solve_placement(&states, nfp, 1).expect("placement solves");
    let work = RecordWork::from(&policy_cost(&policy));
    estimate(work, Some(&placement), nfp, flags)
}

/// One experiment: the name the `bench` binary takes (its module's name)
/// and its report generator.
pub type Experiment = (&'static str, fn() -> String);

/// Every experiment, in paper order.
pub const EXPERIMENTS: [Experiment; 14] = [
    ("tab02", tab02::run),
    ("tab03", tab03::run),
    ("fig09", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("tab04", tab04::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("ablations", ablations::run),
    ("scale", scale::run),
];

/// Runs every experiment, in paper order, concatenating the reports.
pub fn run_all() -> String {
    let mut out = String::new();
    for (name, report) in EXPERIMENTS {
        eprintln!("[bench] {name} ...");
        out.push_str(&report());
        out.push('\n');
    }
    out
}
