//! The `DIAFRAME_TELEMETRY=file` sink must be deterministic under a
//! parallel suite run: each run's line is written in task-submission
//! order (not completion order) from the run's own `verify` subtree of
//! the one shared session, and the sink carries counters only (no
//! durations), so two `--jobs 4` runs and a `--jobs 1` run of the same
//! binary produce byte-identical JSON lines, in exactly the same file
//! order.

use diaframe_core::trace_json::{parse_json_value, JsonValue};
use std::collections::BTreeMap;
use std::process::Command;

/// Runs figure6 at `jobs` workers with the file sink attached and
/// returns the sink bytes.
fn sink_lines(path: &std::path::Path, jobs: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figure6"))
        .args(["--jobs", jobs])
        .env("DIAFRAME_TELEMETRY", path)
        .output()
        .expect("figure6 runs");
    assert!(
        out.status.success(),
        "figure6 --jobs {jobs} exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(path).expect("sink file written");
    let _ = std::fs::remove_file(path);
    text
}

/// Diagnoses a mismatch by line so CI output points at the first
/// diverging event instead of dumping two whole files.
fn assert_same(a: &str, b: &str, what: &str) {
    for (n, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        assert_eq!(la, lb, "sink line {} differs between {what}", n + 1);
    }
    assert_eq!(a, b, "sink files differ between {what}");
}

/// A counter block as `name → value`, with `steps_by_kind` flattened to
/// `steps_by_kind.<kind>`.
fn flatten(block: &JsonValue) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (key, value) in block.entries().expect("counter block is an object") {
        match value.entries() {
            Some(kinds) => {
                for (kind, n) in kinds {
                    out.insert(format!("{key}.{kind}"), n.as_u64().expect("count"));
                }
            }
            None => {
                out.insert(key.clone(), value.as_u64().expect("count"));
            }
        }
    }
    out
}

#[test]
fn file_sink_is_byte_identical_across_runs_and_worker_counts() {
    let dir = std::env::temp_dir();
    let path = |tag: &str| dir.join(format!("diaframe-sink-{tag}-{}.jsonl", std::process::id()));
    let a = sink_lines(&path("a"), "4");
    let b = sink_lines(&path("b"), "4");
    let serial = sink_lines(&path("serial"), "1");
    assert_same(&a, &b, "two --jobs 4 runs");
    assert_same(&a, &serial, "--jobs 4 and --jobs 1");

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

    // Each run's counters are its specs' counters merged (sums, and the
    // deepest abandoned branch as a max), except what the run does
    // outside its specs: the checker replay and the proof store.
    for line in summaries {
        let v = parse_json_value(line).expect("summary line is JSON");
        let run = flatten(v.get("counters").expect("counters block"));
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for (_, spec) in v.get("specs").and_then(JsonValue::entries).expect("specs block") {
            for (key, n) in flatten(spec) {
                let slot = merged.entry(key.clone()).or_insert(0);
                *slot = if key == "deepest_abandoned" { (*slot).max(n) } else { *slot + n };
            }
        }
        for (key, n) in &run {
            if key == "checker_steps" || key.starts_with("store_") {
                continue;
            }
            assert_eq!(
                merged.get(key).copied().unwrap_or(0),
                *n,
                "{key}: the specs do not add up to the run in {line}"
            );
        }
    }
}
