//! Pins the text and `--format json` output of the multi-policy `check` and
//! `explain` reports — the SF07xx fusion and SF08xx prefix-sharing sections
//! are reporting aliases over one analysis, and their codes, wording and
//! JSON shape are an interface. The files under `golden/` were generated at
//! the commit that still ran two analyses; they differ from its output only
//! in the 16 hex digits of the plan hash and in `f_one(_)` for `f_one(?)`.
//!
//! Also pins the single-policy `check` / `explain` outputs, `compile`,
//! `apps`, `help`, a `run` and a two-tenant `serve` with a hot attach and
//! detach, as the binary printed them before the CLI was split by
//! subcommand.
//!
//! Also pins `superfe detect` — document and summary lines, every byte a
//! function of the flags — as the binary printed it while the float section
//! was still scored by host-side inference workers.

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
    // the workspace root. The only test in this binary that reads the
    // working directory: nothing races it.
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

/// `(file stem, flags)` on top of [`DETECT_SIZES`]: the float section
/// alone, float beside the certified Q39.24 model, a detector with no
/// fixed-point lowering, and a second detector at another shard count whose
/// calibration is tight enough to alert.
const DETECT_RUNS: [(&str, &str); 4] = [
    ("kitnet", ""),
    ("kitnet_in_pipeline", "--in-pipeline"),
    ("knn_in_pipeline", "--detector knn --in-pipeline"),
    (
        "centroid_in_pipeline_w4",
        "--detector centroid --in-pipeline --workers 4 --quantile 0.99 --margin 1.0",
    ),
];

/// Trace sizes small enough for the debug profile.
const DETECT_SIZES: &str = "--benign 1200 --serve-benign 600 --attack 300";

#[test]
fn detect_documents_match_the_golden_files() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (stem, flags) in DETECT_RUNS {
        let line = format!("detect {DETECT_SIZES} {flags}");
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let out = execute(parse_args(&args).expect("valid arguments")).expect(&line);
        let file = golden.join(format!("detect_{stem}.txt"));
        let want = std::fs::read_to_string(&file).expect("golden file");
        assert_eq!(out, want, "`superfe {line}` vs {}", file.display());
    }
}

/// `(file, command line)` for the commands a golden file pins alone. The
/// `serve` line runs at two workers: its digests are those of two shards,
/// as the test profile computes them (a release build prints another
/// digest for the Kitsune tenant).
const SINGLE_RUNS: [(&str, &str); 9] = [
    ("check_kitsune.txt", "check kitsune"),
    ("check_kitsune.json", "check kitsune --format json"),
    ("explain_kitsune.txt", "explain kitsune"),
    ("explain_kitsune.json", "explain kitsune --format json"),
    ("compile_kitsune.txt", "compile kitsune"),
    ("apps.txt", "apps"),
    ("help.txt", "help"),
    ("run_npod.txt", "run npod --packets 2000 --limit 3"),
    (
        "serve_cumul_kitsune.txt",
        "serve cumul kitsune --packets 2000 --workers 2 --attach-at 1:100 \
         --detach-at 1:1500 --verify-solo",
    ),
];

#[test]
fn single_commands_match_the_golden_files() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (file, line) in SINGLE_RUNS {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let out = execute(parse_args(&args).expect("valid arguments")).expect(line);
        let want = std::fs::read_to_string(golden.join(file)).expect("golden file");
        assert_eq!(out, want, "`superfe {line}` vs {file}");
    }
}
