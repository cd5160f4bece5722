//! Telemetry must be a pure side channel: enabling it cannot change a
//! single byte of any proof trace or rendered table, its counters must
//! satisfy their accounting identities on the real suite, and the
//! exported trace JSON must replay through the independent checker.

use diaframe_bench::{figure6_json, figure6_rows, prefetch_suite, render_figure6, Measured, SuiteCache};
use diaframe_core::{trace_json, TelemetrySession};
use diaframe_examples::all_examples;
use std::time::Duration;

fn zeroed(mut m: Measured) -> Measured {
    m.time = Duration::ZERO;
    m.check_time = Duration::ZERO;
    m
}

/// The tentpole guarantee: verifying with a telemetry session installed
/// (counters live, every hook firing) produces byte-identical proof
/// traces to verifying with no session at all.
#[test]
fn telemetry_on_and_off_traces_are_byte_identical() {
    let examples = all_examples();
    let mut compared = 0usize;
    for ex in examples.iter().take(4) {
        let off = ex
            .verify()
            .unwrap_or_else(|e| panic!("{} (telemetry off): {e}", ex.name()));

        let session = TelemetrySession::new(ex.name());
        let guard = session.install();
        let on = ex.verify();
        drop(guard);
        let on = on.unwrap_or_else(|e| panic!("{} (telemetry on): {e}", ex.name()));

        assert_eq!(off.proofs.len(), on.proofs.len(), "{}", ex.name());
        for (a, b) in off.proofs.iter().zip(&on.proofs) {
            assert_eq!(a.name, b.name, "{}", ex.name());
            assert_eq!(
                format!("{:?}", a.trace),
                format!("{:?}", b.trace),
                "{}: trace differs with telemetry on",
                ex.name()
            );
        }
        // …and the session really was live: the hooks counted.
        let snap = session.snapshot();
        assert!(snap.probes_attempted > 0, "{}: no probes counted", ex.name());
        assert!(snap.rule_applications() > 0, "{}: no steps counted", ex.name());
        snap.check_invariants()
            .unwrap_or_else(|e| panic!("{}: {e}", ex.name()));
        compared += 1;
    }
    assert!(compared >= 3);
}

/// An ambient session around the whole parallel suite must not change
/// the rendered Figure 6 table (timings zeroed — the only legitimate
/// nondeterminism) or the suite's counter accounting.
#[test]
fn suite_tables_unaffected_by_telemetry() {
    let plain = SuiteCache::new();
    prefetch_suite(&plain, 2, false);

    let session = TelemetrySession::new("suite");
    let guard = session.install();
    let telemetered = SuiteCache::new();
    prefetch_suite(&telemetered, 2, false);
    drop(guard);

    let a: Vec<Measured> = figure6_rows(&plain).into_iter().map(zeroed).collect();
    let b: Vec<Measured> = figure6_rows(&telemetered).into_iter().map(zeroed).collect();
    assert_eq!(a, b, "rows (counters included) must not depend on an outer session");
    assert_eq!(render_figure6(&a), render_figure6(&b), "tables must be byte-identical");

    // The v8 snapshot carries the telemetry blocks, the per-span-kind
    // duration histograms, and a non-trivial aggregate (`figure6_json`
    // re-checks every row's invariants).
    let json = figure6_json(&plain, 2, Duration::ZERO, None);
    assert!(json.contains("\"schema\": \"diaframe-bench/figure6/v8\""));
    assert!(json.contains("\"telemetry\""));
    assert!(json.contains("\"probes_attempted\""));
    assert!(json.contains("\"spans\""));
    assert!(json.contains("\"p95_ns\""));
    assert!(json.contains("\"search\": { \"count\":"));
    let aggregate: u64 = figure6_rows(&plain)
        .iter()
        .map(|m| m.counters.probes_attempted)
        .sum();
    assert!(aggregate > 0, "suite-wide probe count must be non-zero");
}

/// S3: a sabotaged spec must produce a structured stuck report that
/// names the goal head no hypothesis could key.
#[test]
fn sabotaged_spec_reports_unmatched_goal_head() {
    let examples = all_examples();
    let mut with_head = 0usize;
    for ex in &examples {
        let session = TelemetrySession::new(ex.name());
        let guard = session.install();
        let verdict = ex.verify_broken();
        drop(guard);
        let Some(Err(stuck)) = verdict else { continue };
        let explained = stuck.render_explain();
        // The plain IPM rendering is always a byte-identical prefix.
        assert!(explained.starts_with(&stuck.render()), "{}", ex.name());
        assert!(explained.contains("unmatched goal head"), "{}", ex.name());
        if let Some(head) = &stuck.unmatched_head {
            assert!(
                explained.contains(&format!("unmatched goal head: {head}")),
                "{}: head {head:?} not rendered",
                ex.name()
            );
            with_head += 1;
        }
        // The engine ran under our session, so the diagnostics are
        // attached and populated.
        let diag = stuck.diag.as_ref().unwrap_or_else(|| {
            panic!("{}: stuck report lost its diagnostics", ex.name())
        });
        diag.counters
            .check_invariants()
            .unwrap_or_else(|e| panic!("{}: {e}", ex.name()));
    }
    assert!(
        with_head >= 1,
        "at least one sabotaged example must die in hint search with a named head"
    );
}

/// A real proof trace survives the JSON codec byte-for-byte and still
/// replays through the independent checker from its JSON form.
#[test]
fn real_traces_round_trip_through_json_and_recheck() {
    let examples = all_examples();
    let outcome = examples[0]
        .verify()
        .unwrap_or_else(|e| panic!("{}: {e}", examples[0].name()));
    let mut steps = 0usize;
    for proof in &outcome.proofs {
        let json = trace_json::trace_to_json(&proof.trace);
        let back = trace_json::trace_from_json(&json).expect("exported trace decodes");
        assert_eq!(
            format!("{:?}", proof.trace),
            format!("{back:?}"),
            "{}: JSON round-trip altered the trace",
            proof.name
        );
        diaframe_core::checker::check_json(&json)
            .unwrap_or_else(|e| panic!("{}: exported trace fails replay: {e}", proof.name));
        steps += proof.trace.len();
    }
    assert!(steps > 0, "round-tripped a non-trivial amount of steps");
}
