//! `superfe check` on policies whose feature vectors would not fit: a typed
//! `SF0113` finding and exit status 1, never a panic. The test profile keeps
//! overflow checks on, so arithmetic on an unbounded `f_array` capacity
//! would panic here rather than wrap.

use std::process::Command;

#[test]
fn oversized_arrays_are_a_finding_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("superfe-check-bounds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Past u64::MAX (the parser saturates), and 2^62, whose state in 4-byte
    // words wraps a 64-bit size to zero.
    for cap in ["99999999999999999999", "4611686018427387904"] {
        let path = dir.join(format!("array_{cap}.sfe"));
        let src = format!(
            "pktstream\n.groupby(flow)\n.reduce(size, [f_array{{{cap}}}])\n.collect(flow)\n"
        );
        std::fs::write(&path, src).expect("policy file");
        let out = Command::new(env!("CARGO_BIN_EXE_superfe"))
            .arg("check")
            .arg(&path)
            .output()
            .expect("superfe runs");
        // A failing report goes to standard error.
        let report = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "f_array{{{cap}}}:\n{report}");
        assert!(
            report.contains("error[SF0113]: reduce at operator 1 emits"),
            "f_array{{{cap}}}:\n{report}"
        );
        assert!(!report.contains("panicked"), "f_array{{{cap}}}:\n{report}");
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
