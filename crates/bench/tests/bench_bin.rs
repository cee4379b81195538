//! The `bench` binary's argument handling, driven as a process.

use std::process::Command;

use superfe_bench::experiments::EXPERIMENTS;

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench binary runs")
}

/// `list` (and so `all`, which walks the same table) names exactly the
/// modules of `src/experiments/`: a figure added there without a table row
/// would otherwise be silently missing from both.
#[test]
fn list_prints_exactly_the_experiment_modules() {
    let out = bench(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(listed.len(), EXPERIMENTS.len());
    listed.sort_unstable();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/experiments");
    let mut modules: Vec<String> = std::fs::read_dir(dir)
        .expect("source tree is present under cargo test")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter_map(|f| f.strip_suffix(".rs").map(str::to_string))
        .filter(|m| m != "mod")
        .collect();
    modules.sort();
    assert_eq!(listed, modules);
}

#[test]
fn unknown_or_missing_name_fails_with_the_list_of_names() {
    for args in [&["fig99"][..], &[], &["fig12", "fig13"]] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} must exit non-zero");
        assert!(out.stdout.is_empty(), "{args:?} must print no report");
        let stderr = String::from_utf8(out.stderr).unwrap();
        for (name, _) in EXPERIMENTS {
            assert!(stderr.contains(name), "usage for {args:?} omits {name}");
        }
    }
}
