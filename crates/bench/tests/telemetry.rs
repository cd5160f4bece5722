//! Observability must be a pure side channel: installing a telemetry
//! session (every counter and span hook firing, every lane recording)
//! cannot change a single byte of any proof trace or rendered table. On top of that, the counters must
//! satisfy their accounting identities on the real suite, the exported
//! Chrome trace must pass the structural validator (balanced begin/end,
//! monotonic timestamps per lane), and the exported trace JSON must
//! replay through the independent checker.

use diaframe_bench::{
    figure6_json, figure6_rows, prefetch_suite, render_figure6, Measured, ProofStore, SuiteCache,
    Variant,
};
use diaframe_core::{profile, trace_json, CounterSnapshot, SpanKind, TelemetrySession};
use diaframe_examples::all_examples;
use std::time::Duration;

fn zeroed(mut m: Measured) -> Measured {
    m.time = Duration::ZERO;
    m.check_time = Duration::ZERO;
    m
}

/// A row with its counters cleared as well: what a run without a session
/// and one under a session must agree on.
fn uncounted(mut m: Measured) -> Measured {
    m.counters = CounterSnapshot::default();
    zeroed(m)
}

/// The tentpole guarantee, example by example: verifying with a session
/// installed produces byte-identical proof-trace JSON to verifying with
/// no session at all, across the whole suite — and the sessions really
/// were live (the test would be vacuous otherwise).
#[test]
fn observability_on_and_off_traces_are_byte_identical() {
    let examples = all_examples();
    let mut compared_proofs = 0usize;
    for ex in &examples {
        let off = ex
            .verify()
            .unwrap_or_else(|e| panic!("{} (off): {e}", ex.name()));
        let session = TelemetrySession::new(ex.name());
        let on = {
            let _installed = session.install();
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
        // The session was live: the hooks counted and the spans
        // recorded.
        let snap = session.snapshot();
        assert!(
            snap.probes_attempted > 0,
            "{}: no probes counted",
            ex.name()
        );
        assert!(
            snap.rule_applications() > 0,
            "{}: no steps counted",
            ex.name()
        );
        snap.check_invariants()
            .unwrap_or_else(|e| panic!("{}: {e}", ex.name()));
        let kinds: Vec<SpanKind> = session.spans().iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SpanKind::Search) && kinds.contains(&SpanKind::FindHint));
        profile::validate_chrome_trace(&session.chrome_trace())
            .unwrap_or_else(|e| panic!("{}: profile trace fails validation: {e}", ex.name()));
    }
    assert!(
        compared_proofs >= 24,
        "expected at least one proof per example, compared {compared_proofs}"
    );
}

/// A session around the whole parallel suite must not change the
/// rendered Figure 6 table (timings zeroed — the only legitimate
/// nondeterminism) or any row beyond its counters, which only a session
/// records: without one they are zero, under one they come from each
/// run's `verify` subtree. The suite-wide profile exports must validate,
/// and the v9 snapshot must carry the span histograms taken from the
/// span tree.
#[test]
fn suite_tables_unaffected_by_observability() {
    let plain = SuiteCache::new();
    prefetch_suite(&plain, 2, false);

    let session = TelemetrySession::new("suite");
    let observed = SuiteCache::new();
    {
        let _installed = session.install();
        prefetch_suite(&observed, 2, false);
    }

    let plain_rows = figure6_rows(&plain);
    for m in &plain_rows {
        assert!(
            m.counters.is_zero(),
            "{}: counted without a session",
            m.name
        );
    }
    let a: Vec<Measured> = plain_rows.into_iter().map(uncounted).collect();
    let b: Vec<Measured> = figure6_rows(&observed).into_iter().map(uncounted).collect();
    assert_eq!(a, b, "rows must not depend on an outer session");
    assert_eq!(
        render_figure6(&a),
        render_figure6(&b),
        "tables must be byte-identical"
    );

    // The structural validator accepts the suite-wide trace, and the
    // folded stacks cover the span kinds the suite must exercise.
    let (events, lanes) = profile::validate_chrome_trace(&session.chrome_trace())
        .unwrap_or_else(|e| panic!("suite profile trace fails validation: {e}"));
    assert!(
        events > 0 && lanes >= 2,
        "suite trace too small: {events} events, {lanes} lanes"
    );
    // Folded frames are `kind:label`; spans with <1µs self time are
    // dropped, so only the macroscopic kinds are guaranteed a line.
    let folded = session.folded_stacks();
    for kind in ["verify:", "search"] {
        assert!(folded.contains(kind), "folded stacks missing {kind:?}");
    }

    // The v9 snapshot carries the telemetry blocks, the per-span-kind
    // duration histograms from the span tree, and a non-trivial
    // aggregate (`figure6_json` re-checks every row's invariants).
    let json = figure6_json(&observed, 2, Duration::ZERO, None, &session);
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
    let mut aggregate = diaframe_core::CounterSnapshot::default();
    for m in figure6_rows(&observed) {
        aggregate.merge(&m.counters);
    }
    assert!(
        aggregate.probes_attempted > 0,
        "suite-wide probe count must be non-zero"
    );
    // The runs' `verify` subtrees partition everything the session
    // counted.
    assert_eq!(aggregate, session.snapshot());
}

/// Without an installed session a run records nothing: a bare cache run
/// and a bare store run (miss, then hit) return zero counters and no
/// `verify` span, with the same outcome as the same runs under a session.
#[test]
fn bare_runs_count_nothing_and_verify_the_same() {
    let examples = all_examples();
    let ex = examples
        .iter()
        .find(|e| e.name() == "spin_lock")
        .expect("spin_lock example")
        .as_ref();
    let dir = |tag: &str| {
        std::env::temp_dir().join(format!("diaframe-bare-{tag}-{}", std::process::id()))
    };
    // Cache run, store miss, store hit.
    let runs = |tag: &str| {
        let _ = std::fs::remove_dir_all(dir(tag));
        let store = ProofStore::open(&dir(tag), None).expect("store opens");
        let runs = [
            SuiteCache::new().get_or_run(ex, Variant::Ok),
            store.get_or_run(ex, Variant::Ok),
            store.get_or_run(ex, Variant::Ok),
        ];
        let _ = std::fs::remove_dir_all(dir(tag));
        runs
    };
    let bare = runs("off");
    let session = TelemetrySession::new("bare");
    let counted = {
        let _installed = session.install();
        runs("on")
    };
    for (off, on) in bare.iter().zip(&counted) {
        assert_eq!(off.counters, CounterSnapshot::default());
        assert_eq!(off.verify_span, None);
        assert!(on.counters.checker_steps > 0 && on.verify_span.is_some());
        assert_eq!(off.from_store, on.from_store);
        let trace =
            |run: &diaframe_bench::CachedRun| format!("{:?}", run.expect_ok(ex.name()).proofs);
        assert_eq!(
            trace(off),
            trace(on),
            "{}: outcome depends on the session",
            ex.name()
        );
    }
    assert!(
        counted[1].counters.probes_attempted > 0,
        "the store miss searched"
    );
    assert!(counted[2].from_store, "the second store run replays");
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
        let diag = stuck
            .diag
            .as_ref()
            .unwrap_or_else(|| panic!("{}: stuck report lost its diagnostics", ex.name()));
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
