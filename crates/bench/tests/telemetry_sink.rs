//! The `DIAFRAME_TELEMETRY=file` sink must be deterministic under a
//! parallel suite run: sessions are flushed in task-submission order
//! (not completion order), and the sink carries counters only (no
//! durations), so two `--jobs 4` runs of the same binary produce
//! byte-identical JSON lines, in exactly the same file order.

use std::process::Command;

/// Runs figure6 with the file sink attached and returns the sink bytes.
fn sink_lines(path: &std::path::Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figure6"))
        .args(["--jobs", "4"])
        .env("DIAFRAME_TELEMETRY", path)
        .output()
        .expect("figure6 runs");
    assert!(
        out.status.success(),
        "figure6 --jobs 4 exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(path).expect("sink file written")
}

#[test]
fn file_sink_is_byte_identical_across_parallel_runs() {
    let dir = std::env::temp_dir();
    let a_path = dir.join(format!("diaframe-sink-a-{}.jsonl", std::process::id()));
    let b_path = dir.join(format!("diaframe-sink-b-{}.jsonl", std::process::id()));
    let a = sink_lines(&a_path);
    let b = sink_lines(&b_path);
    let _ = std::fs::remove_file(&a_path);
    let _ = std::fs::remove_file(&b_path);

    // Diagnose a mismatch by line so CI output points at the first
    // diverging event instead of dumping two whole files.
    for (n, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        assert_eq!(la, lb, "sink line {} differs between two --jobs 4 runs", n + 1);
    }
    assert_eq!(a, b, "sink files differ between two --jobs 4 runs");

    // The ordering contract is what makes the bytes line up: one
    // summary per suite task, flushed in submission order — so the
    // first summary is the suite's first example, not whichever
    // worker finished first.
    assert!(
        a.lines().all(|l| l.starts_with("{\"event\":\"summary\"")),
        "the sink carries one counter summary per run and nothing else"
    );
    let summaries: Vec<&str> = a.lines().collect();
    assert!(
        summaries.len() >= 24,
        "expected a summary per example, saw {}",
        summaries.len()
    );
    let first = summaries[0];
    assert!(
        first.contains("\"verify\":\"arc\""),
        "first summary is not the first submitted task (Figure 6 row order): {first}"
    );
}
