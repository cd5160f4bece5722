//! The profiler must be pure observability: installing a hierarchical
//! profile session (every span hook firing, every lane recording) cannot
//! change a single byte of any proof trace or rendered Figure 6 table.
//! On top of that, the span tree must *reconcile* with the flat
//! telemetry counters of the same run — two independent instrumentation
//! paths, one ledger — and the exported Chrome trace must pass the
//! structural validator (balanced begin/end, monotonic timestamps per
//! lane).
//!
//! The profiler switch is ambient (thread-local session, adopted by the
//! pool workers), so the tests serialize on a file-local lock.

use diaframe_bench::{
    figure6_rows, prefetch_suite, profile_identity_report, render_figure6, Measured, SuiteCache,
};
use diaframe_core::{profile, trace_json};
use diaframe_examples::all_examples;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static CONFIG_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    CONFIG_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn zeroed(mut m: Measured) -> Measured {
    m.time = Duration::ZERO;
    m.check_time = Duration::ZERO;
    m
}

/// The tentpole guarantee, example by example: verifying with a profile
/// session installed produces byte-identical proof-trace JSON to
/// verifying with no session at all, across the whole suite — and the
/// profiled runs really did record spans (the test would be vacuous
/// otherwise).
#[test]
fn profiling_on_and_off_traces_are_byte_identical() {
    let _lock = lock();
    let examples = all_examples();
    let session = profile::ProfileSession::new();
    let mut compared_proofs = 0usize;
    for ex in &examples {
        let off = ex
            .verify()
            .unwrap_or_else(|e| panic!("{} (profiling off): {e}", ex.name()));

        let guard = session.install();
        let on = ex.verify();
        drop(guard);
        let on = on.unwrap_or_else(|e| panic!("{} (profiling on): {e}", ex.name()));

        assert_eq!(
            off.proofs.len(),
            on.proofs.len(),
            "{}: proof count changed under the profiler",
            ex.name()
        );
        for (a, b) in off.proofs.iter().zip(&on.proofs) {
            assert_eq!(a.name, b.name, "{}", ex.name());
            assert_eq!(
                trace_json::trace_to_json(&a.trace),
                trace_json::trace_to_json(&b.trace),
                "{}/{}: trace JSON differs with profiling on",
                ex.name(),
                a.name
            );
            compared_proofs += 1;
        }
    }
    assert!(
        compared_proofs >= 24,
        "expected at least one proof per example, compared {compared_proofs}"
    );

    // Non-vacuity: the session was live across every profiled run.
    let rollup = session.rollup();
    assert!(
        rollup[profile::SpanKind::FindHint.index()].count > 0,
        "no hint probes were recorded — the identity test is vacuous"
    );
    assert!(rollup[profile::SpanKind::Search.index()].spans > 0);

    // The exported trace of the whole run must validate structurally.
    profile::validate_chrome_trace(&session.chrome_trace())
        .unwrap_or_else(|e| panic!("per-example profile trace fails validation: {e}"));
}

/// An ambient profile session around the whole parallel suite must not
/// change the rendered Figure 6 table (timings zeroed — the only
/// legitimate nondeterminism), and its span rollups must satisfy the
/// accounting identities against the suite's flat telemetry counters.
#[test]
fn suite_tables_unaffected_by_profiling_and_rollups_reconcile() {
    let _lock = lock();
    let plain = SuiteCache::new();
    prefetch_suite(&plain, 2, false);

    let profile = profile::ProfileSession::new();
    let guard = profile.install();
    let profiled = SuiteCache::new();
    prefetch_suite(&profiled, 2, false);
    drop(guard);

    let a: Vec<Measured> = figure6_rows(&plain).into_iter().map(zeroed).collect();
    let b: Vec<Measured> = figure6_rows(&profiled).into_iter().map(zeroed).collect();
    assert_eq!(a, b, "rows (counters included) must not depend on an ambient profiler");
    assert_eq!(render_figure6(&a), render_figure6(&b), "tables must be byte-identical");

    // The span tree and the flat counters are two instrumentation paths
    // over the same run; the asserted identities must hold exactly.
    let report = profile_identity_report(&profile, &profiled)
        .unwrap_or_else(|e| panic!("profile/telemetry accounting identity violated: {e}"));
    assert!(report.contains("profile identity ok"));

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
}
