//! Every way the `superfe` command line can be refused before anything
//! runs, with the exact message an operator reads: missing and malformed
//! values, unknown options, out-of-range tenant indices, the flag
//! combinations `serve` refuses, and the `detect` values that could not
//! calibrate or serve.

use superfe_cli::parse_args;

/// One refused command line a line: the arguments after the program name,
/// ` => `, and the message it is refused with.
const REFUSED: &str = "\
frobnicate => unknown command 'frobnicate' (try 'superfe help')
show => usage: superfe show <policy>
compile => usage: superfe compile <policy>
check => usage: superfe check <policy> [<policy>...] [options]
check kitsune --format => --format needs a value
check kitsune --format yaml => --format expects 'text' or 'json', got 'yaml'
check kitsune --headroom abc => --headroom expects a percentage
check kitsune --cache-slots x => --cache-slots expects an integer
check kitsune --groups x => --groups expects an integer
check kitsune --frob 1 => unknown option '--frob'
check kitsune --format json extra => unknown option 'extra'
explain => usage: superfe explain <policy> [<policy>...] [options]
explain kitsune --groups => --groups needs a value
explain kitsune --group-packets abc => --group-packets expects an integer
explain kitsune --groups x => --groups expects an integer
explain kitsune --format yaml => --format expects 'text' or 'json', got 'yaml'
explain kitsune --headroom 75 => unknown option '--headroom'
run => usage: superfe run <policy> [options]
run npod --trace => --trace needs a value
run npod --trace nope => unknown trace 'nope'
run npod --packets abc => --packets expects an integer
run npod --seed x => --seed expects an integer
run npod --limit x => --limit expects an integer
run npod --csv => --csv needs a value
run npod --save-trace => --save-trace needs a value
run npod --load-trace => --load-trace needs a value
run npod --unknown 1 => unknown option '--unknown'
serve => usage: superfe serve <policy> [<policy>...] [options]
serve cumul --trace => --trace needs a value
serve cumul --trace nope => unknown trace 'nope'
serve cumul --packets abc => --packets expects an integer
serve cumul --seed x => --seed expects an integer
serve cumul --workers x => --workers expects an integer
serve cumul --workers 0 => --workers expects a positive count
serve cumul --workers 481 => --workers expects at most 480 (the NFP-4000's hardware threads)
serve cumul --attach-at nope => --attach-at expects TENANT:VALUE, got 'nope'
serve cumul --detach-at 0:x => --detach-at expects TENANT:VALUE, got '0:x'
serve cumul --cache-slots 0 => --cache-slots expects TENANT:VALUE, got '0'
serve cumul --cache-slots 0:0 => --cache-slots expects a positive slot count
serve cumul --attach-at 7:0 => tenant index 7 out of range (serving 1 policies)
serve cumul npod --detach-at 2:10 => tenant index 2 out of range (serving 2 policies)
serve cumul --cache-slots 5:100 => tenant index 5 out of range (serving 1 policies)
serve cumul --snapshot => --snapshot needs a value
serve cumul --snapshot-at x => --snapshot-at expects an integer
serve cumul --evict-seed nope => --evict-seed expects an integer
serve cumul --restore => --restore needs a value
serve cumul --frob => unknown option '--frob'
serve cumul --snapshot-at 42 => --snapshot-at needs --snapshot PATH
serve cumul --restore a --snapshot b => --restore and --snapshot are mutually exclusive
serve cumul --restore a --attach-at 0:10 => --restore resumes the snapshotted topology; --attach-at/--detach-at schedules don't apply
serve cumul --restore a --detach-at 0:10 => --restore resumes the snapshotted topology; --attach-at/--detach-at schedules don't apply
serve cumul --restore a --evict-seed 1 => --restore resumes the snapshotted eviction state; --evict-seed doesn't apply
detect --scenario nope => --scenario expects one of os_scan, ssdp_flood, syn_dos, fuzzing, mirai; got 'nope'
detect --detector nope => --detector expects one of kitnet, knn, cart, centroid; got 'nope'
detect --benign x => --benign expects an integer
detect --serve-benign x => --serve-benign expects an integer
detect --attack x => --attack expects an integer
detect --seed => --seed needs a value
detect --workers x => --workers expects an integer
detect --workers 0 => --workers expects a positive count
detect --quantile x => --quantile expects a number
detect --quantile 1.5 => --quantile expects a value in [0, 1]
detect --quantile nan => --quantile expects a value in [0, 1]
detect --margin -1 => --margin expects a finite positive value
detect --margin nan => --margin expects a finite positive value
detect --margin inf => --margin expects a finite positive value
detect --out => --out needs a value
detect --frob => unknown option '--frob'
detect extra => unknown option 'extra'
detect --serve-benign 0 --attack 0 => --serve-benign and --attack are both 0: the served trace is empty
run --trace mawi => unknown option 'mawi'
serve cumul --restore a --attach-at 7:0 => tenant index 7 out of range (serving 1 policies)
check --format json kitsune => usage: superfe check <policy> [<policy>...] [options]
";

#[test]
fn every_refused_command_line_names_what_is_wrong() {
    for case in REFUSED.lines() {
        let (line, want) = case.split_once(" => ").expect("argv => message");
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let e = parse_args(&args).expect_err(line);
        assert_eq!(e.message, want, "`superfe {line}`");
        assert!(!e.machine, "`superfe {line}` is a prose error");
    }
}
