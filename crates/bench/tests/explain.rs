//! End-to-end coverage for `figure6 --explain`, the stuck-state
//! diagnosis mode `ci.sh` smoke-tests with a pipeline grep. These tests
//! pin the exit-code contract that grep relies on (`set -euo pipefail`
//! turns a wrong exit code into a silent CI pass or a spurious
//! failure), and the usage-error contract of every bench binary's
//! command line.

use std::process::Command;

fn figure6(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figure6"))
        .args(args)
        .output()
        .expect("figure6 runs")
}

/// The success path: the sabotaged variant fails to verify, and the
/// rendered diagnosis names the unmatched goal head — with exit code 0,
/// because *diagnosing* the failure is this mode's job.
#[test]
fn explain_renders_the_unmatched_goal_head() {
    let out = figure6(&["--explain", "spin_lock"]);
    assert!(
        out.status.success(),
        "explain spin_lock exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("unmatched goal head"),
        "diagnosis missing the goal-head line:\n{stdout}"
    );
    // The head taxonomy comes from `goal_head`, so the line carries a
    // concrete head description, not an empty placeholder.
    let line = stdout
        .lines()
        .find(|l| l.contains("unmatched goal head"))
        .expect("checked above");
    assert!(
        line.trim_end().len() > "unmatched goal head:".len(),
        "goal-head line names no head: {line:?}"
    );
}

/// An unknown example is a usage error: exit 2 and a hint listing the
/// known names.
#[test]
fn explain_unknown_example_exits_2() {
    let out = figure6(&["--explain", "no_such_example"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no example named") && stderr.contains("spin_lock"),
        "stderr should list known examples:\n{stderr}"
    );
}

/// An example without a sabotaged variant cannot be explained: also a
/// usage error, also exit 2.
#[test]
fn explain_without_broken_variant_exits_2() {
    // Client examples reuse a library's proof and carry no sabotage.
    let out = figure6(&["--explain", "cas_counter_client"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no sabotaged variant"),
        "unexpected stderr:\n{stderr}"
    );
}

/// Runs `bin` with `args` and asserts a usage error: exit 2 and the
/// usage text on stderr, before any work starts.
fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains("usage"),
        "{bin} {args:?} printed no usage:\n{stderr}"
    );
}

const FIGURE6: &str = env!("CARGO_BIN_EXE_figure6");
const ADEQUACY: &str = env!("CARGO_BIN_EXE_adequacy");
const FUZZ_DRIVER: &str = env!("CARGO_BIN_EXE_fuzz_driver");
const DIAFRAME: &str = env!("CARGO_BIN_EXE_diaframe");

#[test]
fn unknown_flags_exit_2() {
    assert_usage_error(FIGURE6, &["--jobs-sweep", "1,2"]);
    assert_usage_error(ADEQUACY, &["--seeds", "5"]);
    assert_usage_error(FUZZ_DRIVER, &["--case", "3"]);
    assert_usage_error(
        DIAFRAME,
        &[
            "client",
            "--socket",
            "x.sock",
            "verify-all",
            "--tabel-out",
            "t",
        ],
    );
}

#[test]
fn options_without_a_value_exit_2() {
    assert_usage_error(FIGURE6, &["--all", "--jobs"]);
    assert_usage_error(FIGURE6, &["--json-out", "--all"]);
    assert_usage_error(ADEQUACY, &["--json-out"]);
    assert_usage_error(FUZZ_DRIVER, &["--seed"]);
    assert_usage_error(DIAFRAME, &["serve", "--socket"]);
}

#[test]
fn unparsable_numbers_exit_2() {
    assert_usage_error(FIGURE6, &["--jobs", "abc"]);
    assert_usage_error(FIGURE6, &["--hotspots", "ten", "--explain", "spin_lock"]);
    assert_usage_error(ADEQUACY, &["--jobs", "abc"]);
    assert_usage_error(FUZZ_DRIVER, &["--cases", "abc"]);
    assert_usage_error(FUZZ_DRIVER, &["--seed", "0xZZ"]);
    assert_usage_error(DIAFRAME, &["serve", "--socket", "x.sock", "--jobs", "abc"]);
    assert_usage_error(DIAFRAME, &["serve", "--socket", "x.sock", "--budget", "1k"]);
}
