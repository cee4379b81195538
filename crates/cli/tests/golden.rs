//! Pins the text and `--format json` output of the multi-policy `check` and
//! `explain` reports — the SF07xx fusion and SF08xx prefix-sharing sections
//! are reporting aliases over one analysis, and their codes, wording and
//! JSON shape are an interface. The files under `golden/` were generated at
//! the commit that still ran two analyses; they differ from its output only
//! in the 16 hex digits of the plan hash and in `f_one(_)` for `f_one(?)`.

use std::path::Path;

use superfe_cli::{execute, parse_args};

/// `(file stem, policies)`: a fused pair, a prefix-shared pair, and the
/// mixed set where both depths of the lattice report at once.
const SETS: [(&str, &str); 3] = [
    ("awf_df", "awf df"),
    (
        "flow_pair",
        "examples/flow_stats.sfe examples/flow_volume.sfe",
    ),
    ("mixed", "awf df examples/flow_stats.sfe"),
];

#[test]
fn multi_policy_reports_match_the_golden_files() {
    // Policy paths appear in the output as given, so they are resolved from
    // the workspace root. The only test in this binary: nothing races the
    // working directory.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::env::set_current_dir(&root).expect("workspace root");
    for (stem, policies) in SETS {
        for cmd in ["check", "explain"] {
            for (ext, flag) in [("txt", ""), ("json", " --format json")] {
                let line = format!("{cmd} {policies}{flag}");
                let args: Vec<String> = line.split_whitespace().map(String::from).collect();
                let out = execute(parse_args(&args).expect("valid arguments")).expect(&line);
                let golden = root.join(format!("crates/cli/tests/golden/{cmd}_{stem}.{ext}"));
                let want = std::fs::read_to_string(&golden).expect("golden file");
                assert_eq!(out, want, "`superfe {line}` vs {}", golden.display());
            }
        }
    }
}
