//! Equivalence guarantees for the performance machinery: parallelism and
//! head-indexed hint search must be invisible in every observable result.
//!
//! 1. A parallel suite run (4 workers) and a serial one (1 worker)
//!    produce identical `Measured` rows and byte-identical rendered
//!    Figure 6 tables (timings zeroed — they are the only
//!    nondeterminism; the search counters, taken under a telemetry
//!    session, included), and every trace cached by the parallel run
//!    still replays through the independent checker.
//! 2. Verifying every example with the atom-head index and with the
//!    linear reference scan yields identical proof traces — skipping a
//!    structurally hopeless hypothesis probe must be observationally
//!    identical to running it and rolling it back.

use diaframe_bench::{figure6_rows, prefetch_suite, render_figure6, Measured, SuiteCache, Variant};
use diaframe_core::{with_ablation_override, Ablation, TelemetrySession};
use diaframe_examples::all_examples;
use std::time::Duration;

fn zeroed(mut m: Measured) -> Measured {
    m.time = Duration::ZERO;
    m.check_time = Duration::ZERO;
    m
}

#[test]
fn parallel_and_serial_runs_agree() {
    let n = all_examples().len();

    // Parallelism is invisible in every counter: the rows below are
    // compared with all counters included, each pass counted under its
    // own session.
    let counted = |jobs: usize| {
        let cache = SuiteCache::new();
        let session = TelemetrySession::new("driver_equivalence");
        let _installed = session.install();
        prefetch_suite(&cache, jobs, true);
        cache
    };
    let serial = counted(1);
    let parallel = counted(4);

    // Exactly one verification per (example, variant) task, regardless
    // of the worker count.
    assert_eq!(serial.misses(), 2 * n);
    assert_eq!(parallel.misses(), 2 * n);

    let s: Vec<Measured> = figure6_rows(&serial).into_iter().map(zeroed).collect();
    let p: Vec<Measured> = figure6_rows(&parallel).into_iter().map(zeroed).collect();
    for m in &s {
        assert!(
            m.counters.probes_attempted > 0,
            "{}: no probes counted",
            m.name
        );
    }
    assert_eq!(s, p, "parallel rows must match the serial rows");
    assert_eq!(
        render_figure6(&s),
        render_figure6(&p),
        "rendered tables must be byte-identical"
    );

    // Rendering the rows consumed cache hits only.
    assert_eq!(parallel.misses(), 2 * n);
    assert!(parallel.hits() >= n);

    // Every trace produced under parallel execution still replays.
    let mut checked = 0usize;
    for ((name, _, variant), run) in parallel.snapshot() {
        match (&run.outcome, variant) {
            (Some(Ok(outcome)), _) => {
                outcome
                    .check_all()
                    .unwrap_or_else(|e| panic!("{name}: cached trace fails replay: {e}"));
                checked += 1;
            }
            (Some(Err(_)) | None, Variant::Broken) => {}
            (Some(Err(e)), Variant::Ok) => panic!("{name} failed under the parallel driver:\n{e}"),
            (None, Variant::Ok) => panic!("{name}: missing Ok outcome"),
        }
    }
    assert_eq!(checked, n, "all examples' cached traces were re-checked");
}

#[test]
fn indexed_and_linear_hint_search_agree() {
    let linear_scan = Ablation {
        linear_scan: true,
        ..Ablation::none()
    };
    for ex in &all_examples() {
        let indexed = ex
            .verify()
            .unwrap_or_else(|e| panic!("{} (indexed): {e}", ex.name()));
        let linear = with_ablation_override(linear_scan, || ex.verify())
            .unwrap_or_else(|e| panic!("{} (linear): {e}", ex.name()));

        assert_eq!(indexed.proofs.len(), linear.proofs.len(), "{}", ex.name());
        assert_eq!(indexed.manual_steps, linear.manual_steps, "{}", ex.name());
        for (a, b) in indexed.proofs.iter().zip(&linear.proofs) {
            assert_eq!(a.name, b.name, "{}", ex.name());
            assert_eq!(
                format!("{:?}", a.trace),
                format!("{:?}", b.trace),
                "{}: trace differs between indexed and linear hint search",
                ex.name()
            );
        }
    }
}
