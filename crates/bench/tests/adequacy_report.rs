//! Integration test of the adequacy schedule-sweep driver: the proved
//! suite sweeps clean, every negative example is flagged with an
//! actionable witness, and the JSON snapshot is byte-identical across
//! runs and worker counts.
//!
//! Runs at reduced seed counts to stay test-suite-fast; the full-scale
//! gate (1000+ seeds per proved example) lives in `ci.sh` via the
//! `adequacy` binary.

use diaframe_bench::{adequacy_json, render_adequacy, run_adequacy, AdequacyConfig};
use diaframe_examples::{all_examples, negative_examples};

fn small_cfg(jobs: usize) -> AdequacyConfig {
    AdequacyConfig {
        seeds: 25,
        fuel: 100_000,
        dfs_max_runs: 48,
        dfs_max_steps: 300_000,
        neg_seeds: 40,
        neg_fuel: 20_000,
        jobs,
        ..AdequacyConfig::default()
    }
}

#[test]
fn proved_examples_sweep_clean_and_negatives_are_flagged() {
    let report = run_adequacy(&small_cfg(diaframe_core::default_jobs()));

    assert_eq!(
        report.proved.len(),
        all_examples().len(),
        "one row per example"
    );
    for row in &report.proved {
        assert!(
            row.outcome.clean(),
            "{}: proved example swept dirty: {:?}",
            row.name,
            row.outcome.findings()
        );
        // ≥ seeds random runs + the fair DFS root schedule.
        assert!(
            row.outcome.runs > 25,
            "{}: only {} runs",
            row.name,
            row.outcome.runs
        );
        assert_eq!(row.outcome.terminated, row.outcome.runs);
    }

    assert_eq!(report.negatives.len(), negative_examples().len());
    for row in &report.negatives {
        assert!(
            row.verdict_ok,
            "{}: expected {:?} (forbidding {:?}), flagged {:?}",
            row.name, row.must, row.forbidden, row.flags
        );
        assert!(
            !row.outcome.findings().is_empty(),
            "{}: flagged without an actionable finding",
            row.name
        );
    }

    assert!(report.pass(), "gate must pass on the healthy suite");

    let rendered = render_adequacy(&report);
    assert!(rendered.contains("gate: PASS"));
    assert!(rendered.contains("rwlock_duolock"));
    assert!(rendered.contains("racy_counter"));
}

#[test]
fn adequacy_json_is_byte_stable_across_runs_and_worker_counts() {
    let a = adequacy_json(&run_adequacy(&small_cfg(1)));
    let b = adequacy_json(&run_adequacy(&small_cfg(4)));
    assert_eq!(a, b, "snapshot must not depend on run or worker count");

    assert!(a.starts_with("{\n  \"schema\": \"diaframe-bench/adequacy/v1\","));
    assert!(a.contains("\"verdict\": \"pass\""));
    assert!(a.contains("\"name\": \"lock_inversion\""));
    assert!(a.contains("\"verdict\": \"flagged\""));
    // The duolock row records its detector exemption.
    assert!(a.contains(
        "\"name\": \"rwlock_duolock\", \"sync_model\": \"infer_atomics\", \"lock_order\": false"
    ));
}
