//! The `DIAFRAME_TELEMETRY=file` sink must be deterministic under a
//! parallel suite run: sessions are flushed in task-submission order
//! (not completion order), so two `--jobs 4` runs of the same binary
//! produce byte-identical JSON-lines once wall-clock durations are
//! masked. Durations are the *only* nondeterminism allowed — every
//! event name, counter and span structure must match exactly, in
//! exactly the same file order.

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

/// Zeroes the digits after every duration key: durations are wall-clock
/// samples, legitimately different run to run. Everything else in the
/// line — including the line's *position in the file* — must be stable.
fn mask_durations(s: &str) -> String {
    let mut out = s.to_string();
    for key in ["\"dur_ns\":", "\"total_ns\":", "\"p50_ns\":", "\"p95_ns\":", "\"max_ns\":"] {
        let mut at = 0;
        while let Some(i) = out[at..].find(key) {
            let mut j = at + i + key.len();
            while out.as_bytes().get(j) == Some(&b' ') {
                j += 1;
            }
            let start = j;
            while out.as_bytes().get(j).is_some_and(u8::is_ascii_digit) {
                j += 1;
            }
            out.replace_range(start..j, "0");
            at = start + 1;
        }
    }
    out
}

#[test]
fn file_sink_is_byte_identical_across_parallel_runs() {
    let dir = std::env::temp_dir();
    let a_path = dir.join(format!("diaframe-sink-a-{}.jsonl", std::process::id()));
    let b_path = dir.join(format!("diaframe-sink-b-{}.jsonl", std::process::id()));
    let a = mask_durations(&sink_lines(&a_path));
    let b = mask_durations(&sink_lines(&b_path));
    let _ = std::fs::remove_file(&a_path);
    let _ = std::fs::remove_file(&b_path);

    // Diagnose a mismatch by line so CI output points at the first
    // diverging event instead of dumping two whole files.
    for (n, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        assert_eq!(la, lb, "sink line {} differs between two --jobs 4 runs", n + 1);
    }
    assert_eq!(
        a.lines().count(),
        b.lines().count(),
        "sink line count differs between two --jobs 4 runs"
    );

    // The ordering contract is what makes the bytes line up: one
    // summary per suite task, flushed in submission order — so the
    // first summary is the suite's first example, not whichever
    // worker finished first.
    let summaries: Vec<&str> = a.lines().filter(|l| l.contains("\"event\":\"summary\"")).collect();
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
