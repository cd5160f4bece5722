//! Edge cases of the `figure6 --diff` snapshot reporter: examples
//! missing in either direction, degenerate (empty) snapshots and
//! telemetry blocks, and the exact counter gate (any deterministic
//! drift gates, timings and store counters never do).

use diaframe_bench::diff_snapshots;
use std::fmt::Write as _;

/// Builds a v6-shaped snapshot from `(name, search_ms, telemetry-json)`
/// rows. Includes an empty `spans` histogram block per example — the
/// diff must tolerate (and ignore) it.
fn snap(rows: &[(&str, f64, &str)]) -> String {
    let mut s = String::from(
        "{\n  \"schema\": \"diaframe-bench/figure6/v6\",\n  \"spans\": { },\n  \"examples\": [\n",
    );
    for (i, (n, t, tele)) in rows.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{ \"name\": \"{n}\", \"search_ms\": {t:.3}, \"telemetry\": {tele}, \"spans\": {{ }} }}{}",
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[test]
fn example_missing_from_current_gates_but_new_example_only_notes() {
    let base = snap(&[("a", 100.0, "{ }"), ("gone", 50.0, "{ }")]);
    let cur = snap(&[("a", 100.0, "{ }"), ("brand_new", 50.0, "{ }")]);
    let r = diff_snapshots(&base, &cur).unwrap();
    // Losing an example is a regression (coverage shrank)…
    assert_eq!(r.regressions.len(), 1, "{:?}", r.regressions);
    assert!(r.regressions[0].contains("gone"));
    assert!(r.regressions[0].contains("missing from current"));
    assert!(r.markdown.contains("**MISSING**"));
    // …but gaining one is informational only.
    assert!(r
        .notes
        .iter()
        .any(|l| l.contains("brand_new") && l.contains("new")));
    assert!(!r.regressions.iter().any(|l| l.contains("brand_new")));
}

#[test]
fn empty_baseline_only_notes_the_new_examples() {
    let base = snap(&[]);
    let cur = snap(&[("a", 100.0, "{ }")]);
    let r = diff_snapshots(&base, &cur).unwrap();
    assert!(r.regressions.is_empty(), "{:?}", r.regressions);
    assert!(r.notes.iter().any(|l| l.contains("a") && l.contains("new")));
}

#[test]
fn two_empty_snapshots_diff_clean() {
    let empty = snap(&[]);
    let r = diff_snapshots(&empty, &empty).unwrap();
    assert!(r.regressions.is_empty(), "{:?}", r.regressions);
    assert!(r.markdown.contains("PASS — 0 regressions"));
}

#[test]
fn empty_telemetry_blocks_are_tolerated() {
    // No counters at all (and empty span histograms): parse, compare,
    // pass — absence of data is not drift.
    let a = snap(&[("a", 10.0, "{ }")]);
    let r = diff_snapshots(&a, &a).unwrap();
    assert!(r.regressions.is_empty(), "{:?}", r.regressions);
    assert!(
        r.markdown.contains("none"),
        "counter sections should be empty"
    );
}

#[test]
fn any_deterministic_counter_drift_gates() {
    // One count on a large counter, and one count up from zero.
    for (from, to) in [(1000, 1001), (0, 1)] {
        let base = snap(&[("a", 10.0, &format!("{{ \"probes_attempted\": {from} }}"))]);
        let cur = snap(&[("a", 10.0, &format!("{{ \"probes_attempted\": {to} }}"))]);
        let r = diff_snapshots(&base, &cur).unwrap();
        assert_eq!(
            r.regressions,
            [format!("a: probes_attempted {from} → {to}")]
        );
    }
}

#[test]
fn search_time_alone_never_gates() {
    let tele = "{ \"probes_attempted\": 1000 }";
    let base = snap(&[("a", 100.0, tele)]);
    let cur = snap(&[("a", 1000.0, tele)]);
    let r = diff_snapshots(&base, &cur).unwrap();
    assert!(r.regressions.is_empty(), "{:?}", r.regressions);
    assert!(r.notes.is_empty(), "{:?}", r.notes);
}

#[test]
fn store_counter_drift_is_only_a_note() {
    let base = snap(&[(
        "a",
        10.0,
        "{ \"probes_attempted\": 7, \"store_hits\": 0, \"store_misses\": 1 }",
    )]);
    let cur = snap(&[(
        "a",
        10.0,
        "{ \"probes_attempted\": 7, \"store_hits\": 1, \"store_misses\": 0 }",
    )]);
    let r = diff_snapshots(&base, &cur).unwrap();
    assert!(r.regressions.is_empty(), "{:?}", r.regressions);
    assert_eq!(r.notes, ["a: store_hits 0 → 1", "a: store_misses 1 → 0"]);
}

#[test]
fn zero_to_zero_counters_and_timings_are_not_drift() {
    let a = snap(&[("a", 0.0, "{ \"probes_attempted\": 0 }")]);
    let r = diff_snapshots(&a, &a).unwrap();
    assert!(r.regressions.is_empty(), "{:?}", r.regressions);
}

#[test]
fn counter_improvements_gate_too_because_determinism_cuts_both_ways() {
    // Deterministic counters gate on drift in *either* direction: a 3×
    // drop means the engine changed and the baseline is stale.
    let base = snap(&[("a", 10.0, "{ \"probes_attempted\": 3000 }")]);
    let cur = snap(&[("a", 10.0, "{ \"probes_attempted\": 1000 }")]);
    let r = diff_snapshots(&base, &cur).unwrap();
    assert_eq!(r.regressions.len(), 1, "{:?}", r.regressions);
    assert!(r.regressions[0].contains("probes_attempted"));
}
