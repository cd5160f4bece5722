//! The parallel suite driver: fans `(example × variant × ablation)`
//! verification jobs over `diaframe_core`'s deterministic work pool,
//! filling a shared [`SuiteCache`].
//!
//! Examples are independent verifications (each owns its `ProofCtx`; the
//! ghost registry and spec tables are read-only), so the suite
//! parallelizes embarrassingly well. The pool claims tasks in Figure-6
//! row order and the cache memoizes each result, so the tables rendered
//! afterwards are pure (and serial) cache reads — byte-identical
//! whatever `jobs` was.

use crate::cache::{SuiteCache, Variant};
use diaframe_core::{collect_ordered, run_ordered, with_ablation_override, Ablation};
use diaframe_examples::all_examples;
use std::time::{Duration, Instant};

/// The ablation configurations tabulated by `figure6 --ablation`: each
/// named entry disables one search-order decision from DESIGN.md §5
/// (plus the all-off baseline and the everything-disabled row).
#[must_use]
pub fn ablation_configs() -> Vec<(&'static str, Ablation)> {
    vec![
        ("baseline", Ablation::none()),
        (
            "oldest-first scan",
            Ablation {
                oldest_first: true,
                ..Ablation::none()
            },
        ),
        (
            "single-pass hints",
            Ablation {
                single_pass: true,
                ..Ablation::none()
            },
        ),
        (
            "no alloc preference",
            Ablation {
                no_alloc_preference: true,
                ..Ablation::none()
            },
        ),
        (
            "all ablated",
            Ablation {
                oldest_first: true,
                single_pass: true,
                no_alloc_preference: true,
            },
        ),
    ]
}

/// Verifies the whole suite into `cache` on a pool of `jobs` workers and
/// returns the wall-clock time. With `include_broken`, each example's
/// sabotaged variant is verified alongside (needed by `failing_table`).
///
/// Idempotent: tasks already in the cache are near-free hits, so calling
/// this before any combination of tables costs one suite pass total.
pub fn prefetch_suite(cache: &SuiteCache, jobs: usize, include_broken: bool) -> Duration {
    let examples = all_examples();
    let mut tasks: Vec<(usize, Variant)> = Vec::new();
    for i in 0..examples.len() {
        tasks.push((i, Variant::Ok));
        if include_broken {
            tasks.push((i, Variant::Broken));
        }
    }
    let t0 = Instant::now();
    let results = run_ordered(&tasks, jobs, |_, &(i, variant)| {
        cache.get_or_run(examples[i].as_ref(), variant);
    });
    let wall = t0.elapsed();
    // `get_or_run` contains panics itself, so a worker-level panic here
    // is a harness bug, not a failing example. Aggregate deterministically:
    // every panicked task, in task order, payload verbatim — the report
    // is the same whatever `jobs` was and however the pool interleaved.
    collect_ordered(results, |t| {
        let (i, variant) = tasks[t];
        format!("{} ({variant:?})", examples[i].name())
    })
    .unwrap_or_else(|e| panic!("suite driver job panicked: {e}"));
    assert_counter_invariants(cache);
    wall
}

/// The counter-drift guard: every cached run's counters must satisfy the
/// accounting identities of
/// [`diaframe_core::CounterSnapshot::check_invariants`] — in particular
/// `probes_attempted == probes_skipped + probes_indexed_hit`, so an
/// instrumentation hook going missing (or double-firing) at one of the
/// `find_hint` call sites fails the suite loudly instead of silently
/// skewing the telemetry.
///
/// # Panics
///
/// Panics naming the offending `(example, variant)` entry and the
/// violated identity.
pub fn assert_counter_invariants(cache: &SuiteCache) {
    for ((name, _, variant), run) in cache.snapshot() {
        run.counters.check_invariants().unwrap_or_else(|e| {
            panic!("{name} ({variant:?}): counter invariant violated: {e}")
        });
    }
}

/// Verifies the whole suite under every [`ablation_configs`] entry into
/// `cache` on a pool of `jobs` workers and returns the wall-clock time.
/// The baseline configuration shares its entries with [`prefetch_suite`].
pub fn prefetch_ablations(cache: &SuiteCache, jobs: usize) -> Duration {
    let examples = all_examples();
    let configs = ablation_configs();
    let mut tasks: Vec<(Ablation, usize)> = Vec::new();
    for (_, ab) in &configs {
        for i in 0..examples.len() {
            tasks.push((*ab, i));
        }
    }
    let t0 = Instant::now();
    let results = run_ordered(&tasks, jobs, |_, &(ab, i)| {
        with_ablation_override(ab, || {
            cache.get_or_run(examples[i].as_ref(), Variant::Ok);
        });
    });
    let wall = t0.elapsed();
    collect_ordered(results, |t| {
        let (ab, i) = tasks[t];
        format!("{} under {ab:?}", examples[i].name())
    })
    .unwrap_or_else(|e| panic!("ablation driver job panicked: {e}"));
    assert_counter_invariants(cache);
    wall
}
