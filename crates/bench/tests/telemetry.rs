//! Observability must be a pure side channel: installing a telemetry
//! session and a profile session together (every counter and span hook
//! firing, every lane recording) cannot change a single byte of any
//! proof trace or rendered table. On top of that, the counters must
//! satisfy their accounting identities on the real suite, the exported
//! Chrome trace must pass the structural validator (balanced begin/end,
//! monotonic timestamps per lane), and the exported trace JSON must
//! replay through the independent checker.

use diaframe_bench::{figure6_json, figure6_rows, prefetch_suite, render_figure6, Measured, SuiteCache};
use diaframe_core::{profile, trace_json, ProfileSession, SpanKind, TelemetrySession};
use diaframe_examples::all_examples;
use std::time::Duration;

fn zeroed(mut m: Measured) -> Measured {
    m.time = Duration::ZERO;
    m.check_time = Duration::ZERO;
    m
}

/// The tentpole guarantee, example by example: verifying with both
/// sessions installed produces byte-identical proof-trace JSON to
/// verifying with no session at all, across the whole suite — and the
/// sessions really were live (the test would be vacuous otherwise).
#[test]
fn observability_on_and_off_traces_are_byte_identical() {
    let examples = all_examples();
    let profile = ProfileSession::new();
    let mut compared_proofs = 0usize;
    for ex in &examples {
        let off = ex.verify().unwrap_or_else(|e| panic!("{} (off): {e}", ex.name()));
        let session = TelemetrySession::new(ex.name());
        let on = {
            let _guards = (session.install(), profile.install());
            ex.verify()
        };
        let on = on.unwrap_or_else(|e| panic!("{} (on): {e}", ex.name()));

        assert_eq!(
            off.proofs.len(),
            on.proofs.len(),
            "{}: proof count changed under observability",
            ex.name()
        );
        for (a, b) in off.proofs.iter().zip(&on.proofs) {
            assert_eq!(a.name, b.name, "{}", ex.name());
            assert_eq!(
                trace_json::trace_to_json(&a.trace),
                trace_json::trace_to_json(&b.trace),
                "{}/{}: trace JSON differs with observability on",
                ex.name(),
                a.name
            );
            compared_proofs += 1;
        }
        // The telemetry session was live: the hooks counted.
        let snap = session.snapshot();
        assert!(snap.probes_attempted > 0, "{}: no probes counted", ex.name());
        assert!(snap.rule_applications() > 0, "{}: no steps counted", ex.name());
        snap.check_invariants()
            .unwrap_or_else(|e| panic!("{}: {e}", ex.name()));
    }
    assert!(
        compared_proofs >= 24,
        "expected at least one proof per example, compared {compared_proofs}"
    );

    // The profile session was live across every run too.
    let kinds: Vec<SpanKind> = profile.spans().iter().map(|s| s.kind).collect();
    assert!(kinds.contains(&SpanKind::Search) && kinds.contains(&SpanKind::FindHint));
    profile::validate_chrome_trace(&profile.chrome_trace())
        .unwrap_or_else(|e| panic!("per-example profile trace fails validation: {e}"));
}

/// Both sessions around the whole parallel suite must not change the
/// rendered Figure 6 table (timings zeroed — the only legitimate
/// nondeterminism) or the suite's counter accounting; the suite-wide
/// profile exports must validate, and the v9 snapshot must carry the
/// span histograms taken from the profile tree.
#[test]
fn suite_tables_unaffected_by_observability() {
    let plain = SuiteCache::new();
    prefetch_suite(&plain, 2, false);

    let (session, profile) = (TelemetrySession::new("suite"), ProfileSession::new());
    let observed = SuiteCache::new();
    {
        let _guards = (session.install(), profile.install());
        prefetch_suite(&observed, 2, false);
    }

    let a: Vec<Measured> = figure6_rows(&plain).into_iter().map(zeroed).collect();
    let b: Vec<Measured> = figure6_rows(&observed).into_iter().map(zeroed).collect();
    assert_eq!(a, b, "rows (counters included) must not depend on outer sessions");
    assert_eq!(render_figure6(&a), render_figure6(&b), "tables must be byte-identical");

    // The structural validator accepts the suite-wide trace, and the
    // folded stacks cover the span kinds the suite must exercise.
    let (events, lanes) = profile::validate_chrome_trace(&profile.chrome_trace())
        .unwrap_or_else(|e| panic!("suite profile trace fails validation: {e}"));
    assert!(events > 0 && lanes >= 2, "suite trace too small: {events} events, {lanes} lanes");
    // Folded frames are `kind:label`; spans with <1µs self time are
    // dropped, so only the macroscopic kinds are guaranteed a line.
    let folded = profile.folded_stacks();
    for kind in ["verify:", "search"] {
        assert!(folded.contains(kind), "folded stacks missing {kind:?}");
    }

    // The v9 snapshot carries the telemetry blocks, the per-span-kind
    // duration histograms from the profile tree, and a non-trivial
    // aggregate (`figure6_json` re-checks every row's invariants).
    let json = figure6_json(&observed, 2, Duration::ZERO, None, Some(&profile));
    for needle in [
        "\"schema\": \"diaframe-bench/figure6/v9\"",
        "\"telemetry\"",
        "\"probes_attempted\"",
        "\"spans\"",
        "\"p95_ns\"",
        "\"find_hint\": { \"count\":",
    ] {
        assert!(json.contains(needle), "v9 snapshot lacks {needle}");
    }
    let aggregate: u64 = figure6_rows(&observed)
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
