//! `repro` rejects bad arguments with exit code 2 and a one-line
//! message before any figure runs.

use std::process::Command;

#[test]
fn zero_runs_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig10", "--runs", "0", "--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("repro starts");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "repro: --runs needs a positive integer\n"
    );
}
