//! The benchmark's own contract: seeded request generation, the full
//! metric set, and an oracle that counts a wrong answer as a failure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build works too, only slower).

use diaframe_core::trace_json::{parse_json_value, JsonValue};
use std::process::{Command, Output};

const WORKLOADS: [&str; 2] = ["cold_verify", "daemon_hot"];

fn perfbench(args: &[&str]) -> Output {
    // The binary keeps its scratch files under the working directory.
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench")
}

/// Runs one short measurement and returns its result object.
fn result(workload: &str, trace: &str, extra: &[&str]) -> JsonValue {
    let mut args = vec!["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--setups", "1"];
    args.extend_from_slice(extra);
    let out = perfbench(&args);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse_json_value(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"))
}

fn counts(v: &JsonValue) -> (bool, u64, u64) {
    (
        v.get("correct").and_then(JsonValue::as_bool).unwrap(),
        v.get("attempted").and_then(JsonValue::as_u64).unwrap(),
        v.get("failed").and_then(JsonValue::as_u64).unwrap(),
    )
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let v = parse_json_value(&text).unwrap();
    v.get(list)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

fn printed(v: &JsonValue) -> Vec<(String, String)> {
    let JsonValue::Obj(metrics) = v.get("metrics").unwrap() else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(JsonValue::as_f64).is_some(), "{name} has no number");
            (name.clone(), m.get("unit").and_then(JsonValue::as_str).unwrap().to_owned())
        })
        .collect()
}

#[test]
fn the_same_seed_gives_a_byte_identical_request_sequence() {
    for workload in WORKLOADS {
        let dump = |seed: &str| perfbench(&["--dump-requests", "3", "--workload", workload, "--seed", seed]).stdout;
        let a = dump("7");
        assert!(!a.is_empty(), "{workload}: empty request dump");
        assert_eq!(a, dump("7"), "{workload}: seed 7 twice differs");
        assert_ne!(a, dump("8"), "{workload}: seeds 7 and 8 agree");
    }
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let v = result("cold_verify", trace, &[]);
        assert_eq!(counts(&v), (true, counts(&v).1, 0), "trace {trace}: failures");
        assert_eq!(printed(&v), declared(list), "trace {trace}: metric set");
    }
}

#[test]
fn an_injected_wrong_expectation_counts_as_a_failure() {
    for workload in WORKLOADS {
        let (correct, attempted, failed) = counts(&result(workload, "0", &[]));
        assert!(correct && attempted > 0 && failed == 0, "{workload}: honest run failed");
        let (correct, attempted, failed) = counts(&result(workload, "0", &["--inject-wrong-expectation"]));
        assert!(!correct && failed >= 1 && failed < attempted, "{workload}: injected failure not counted");
    }
}
