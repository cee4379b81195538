//! `superfe run --load-trace` on saved traces the pipeline cannot take: a
//! typed message and exit status 1, never a panic, and a loaded trace is
//! named by its file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use superfe_net::PacketRecord;
use superfe_switch::record::TS_HORIZON_NS;
use superfe_trafficgen::{io, Trace, Workload};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("superfe-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run_npod(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_superfe"))
        .args(["run", "npod", "--load-trace"])
        .arg(path)
        .output()
        .expect("superfe runs")
}

fn small_trace() -> Trace {
    Workload::campus().packets(3).seed(1).generate()
}

#[test]
fn a_packet_past_the_tstamp_horizon_is_an_error_not_a_panic() {
    let dir = temp_dir("horizon");
    let path = dir.join("late.sft");
    let mut t = small_trace();
    let n = t.records.len();
    for ts in [TS_HORIZON_NS, TS_HORIZON_NS + 1] {
        t.records.push(PacketRecord::tcp(ts, 100, 1, 1000, 2, 80));
    }
    io::save(&t, &path).expect("trace saved");
    let out = run_npod(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("packet {n} at {TS_HORIZON_NS} ns is at or past")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn a_body_longer_than_its_header_is_refused() {
    let dir = temp_dir("trailing");
    let path = dir.join("long.sft");
    io::save(&small_trace(), &path).expect("trace saved");
    // The header now claims one record over a body of three.
    let mut bytes = std::fs::read(&path).expect("trace read");
    bytes[6..14].copy_from_slice(&1u64.to_be_bytes());
    std::fs::write(&path, bytes).expect("trace rewritten");
    let out = run_npod(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("trace header claims 1 records but 50 bytes follow them"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn a_loaded_trace_is_named_by_its_file() {
    let dir = temp_dir("named");
    let path = dir.join("saved.sft");
    let t = Workload::campus().packets(500).seed(2).generate();
    io::save(&t, &path).expect("trace saved");
    let out = run_npod(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let first = stdout.lines().next().unwrap_or_default();
    assert!(
        first.starts_with(&format!("trace: {} (500 packets,", path.display())),
        "{first}"
    );
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
