//! The engine fingerprint keys every persistent proof-store entry, so it
//! must be a pure function of the build — NOT of process identity, ASLR, wall time, or anything
//! else that changes across a daemon restart. These tests re-exec the
//! test binary to observe the fingerprint in genuinely fresh processes.

use std::process::Command;

const PRINT_ENV: &str = "DIAFRAME_FP_PRINT";

/// Helper, not a real test: when re-exec'd with `DIAFRAME_FP_PRINT` set,
/// prints the fingerprint for the parent test to capture. A no-op under
/// a normal `cargo test` run.
#[test]
fn helper_print_fingerprint() {
    if std::env::var(PRINT_ENV).is_ok() {
        println!("FINGERPRINT={}", diaframe_core::engine_fingerprint());
    }
}

/// Re-runs this test binary filtered to the helper above and extracts
/// the fingerprint it printed.
fn fingerprint_of_fresh_process() -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["helper_print_fingerprint", "--exact", "--nocapture"])
        .env(PRINT_ENV, "1")
        .output()
        .expect("re-exec test binary");
    assert!(out.status.success(), "helper run failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("helper stdout is UTF-8");
    // The harness may interleave its own "test … ok" text around the
    // marker, so scan for the marker rather than whole lines.
    let at = stdout
        .find("FINGERPRINT=")
        .unwrap_or_else(|| panic!("helper did not print a fingerprint:\n{stdout}"));
    let hex = &stdout[at + "FINGERPRINT=".len()..];
    let end = hex
        .find(|c: char| !c.is_ascii_hexdigit())
        .unwrap_or(hex.len());
    hex[..end].to_owned()
}

#[test]
fn engine_fingerprint_is_stable_across_process_restart() {
    let first = fingerprint_of_fresh_process();
    let second = fingerprint_of_fresh_process();
    assert_eq!(
        first, second,
        "two fresh processes of the same build must agree on the fingerprint"
    );
    // The children inherit this process's environment, so the in-process
    // value must agree too (a store opened here hits entries a restarted
    // daemon wrote).
    assert_eq!(first, diaframe_core::engine_fingerprint());
    assert_eq!(first.len(), 64, "fingerprint is a SHA-256 hex digest");
}
