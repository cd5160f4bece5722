//! The memoized suite cache: every `(example, ablation, variant)`
//! verification runs **at most once** per cache, however many tables or
//! reports consume it.
//!
//! The harness used to re-verify examples wholesale: `figure6_table` and
//! `aggregate_table` each ran the full suite, and `failing_table` ran
//! every sabotaged example twice (once to detect the failure, once to
//! time it). A [`SuiteCache`] shared across the tables makes each
//! verification a one-time cost — the `--all` report re-verifies nothing
//! — and the hit/miss counters make that property checkable (and
//! checked, in `tests/driver_equivalence.rs`).
//!
//! Entries are keyed by [`Example::cache_key`] plus the thread's current
//! [`Ablation`] override, so the ablation experiment shares its baseline
//! rows with Figure 6 while ablated runs get their own entries. A
//! per-key `OnceLock` guarantees exactly-once execution even when
//! parallel workers race on the same key.

use diaframe_core::{
    current_ablation, profile, Ablation, CounterSnapshot, SpanKind, TelemetrySession,
};
use diaframe_examples::{Example, ExampleOutcome};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Which variant of an example a cache entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The example as published (expected to verify).
    Ok,
    /// The sabotaged variant from the §6 failing-verification
    /// experiment (expected to be rejected).
    Broken,
}

/// The memoized result of one verification run.
#[derive(Debug)]
pub struct CachedRun {
    /// `None` means the example has no such variant (only possible for
    /// [`Variant::Broken`]). `Err` renders a stuck report, a trace-replay
    /// failure, or a panic.
    pub outcome: Option<Result<ExampleOutcome, String>>,
    /// Wall-clock of the proof search itself.
    pub search_time: Duration,
    /// Wall-clock of the independent trace replay (zero when nothing
    /// verified).
    pub check_time: Duration,
    /// Search-effort counters for this run (probes, rule applications,
    /// backtracks, checker steps — see
    /// [`CounterSnapshot::check_invariants`]). Collected by a per-run
    /// [`TelemetrySession`], so runs are counted in isolation even when
    /// the pool interleaves them.
    pub counters: CounterSnapshot,
    /// The per-run session itself, kept so the suite driver can flush
    /// the run's telemetry summary line *in a deterministic order*:
    /// runs complete in whatever order the pool interleaves them, so the
    /// driver flushes cached runs in task-submission order instead.
    pub session: TelemetrySession,
    /// Whether this run was served by replaying a persistent-store
    /// entry (no search happened; `search_time` is zero).
    pub from_store: bool,
    /// Id of the run's `verify` span in the profile session that was
    /// installed while it ran (`None` when none was). The run's duration
    /// histograms are [`ProfileSession::span_stats`] over this subtree.
    ///
    /// [`ProfileSession::span_stats`]: diaframe_core::ProfileSession::span_stats
    pub verify_span: Option<u64>,
}

impl CachedRun {
    /// The successful outcome.
    ///
    /// # Panics
    ///
    /// Panics with the example name and the cached error if the run did
    /// not verify.
    #[must_use]
    pub fn expect_ok(&self, name: &str) -> &ExampleOutcome {
        match &self.outcome {
            Some(Ok(o)) => o,
            Some(Err(e)) => panic!("{name} failed to verify:\n{e}"),
            None => panic!("{name}: no such variant was run"),
        }
    }
}

type Key = (String, Ablation, Variant);

/// Memoizes `(example, ablation, variant) → outcome + timings` across a
/// whole benchmark/report run. Cheap to share by reference between the
/// driver's worker threads.
#[derive(Default)]
pub struct SuiteCache {
    entries: Mutex<HashMap<Key, Arc<OnceLock<Arc<CachedRun>>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// When present, first-time runs consult the persistent proof store
    /// (replaying a stored trace instead of searching when possible).
    store: Option<Arc<crate::ProofStore>>,
}

impl SuiteCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> SuiteCache {
        SuiteCache::default()
    }

    /// An empty cache whose first-time runs go through the persistent
    /// proof `store`: a hit replays the stored trace through the
    /// checker, a miss searches and inserts. Everything downstream
    /// (tables, telemetry flushes, counter invariants) is unchanged —
    /// the store only swaps how a [`CachedRun`] gets produced.
    #[must_use]
    pub fn with_store(store: Arc<crate::ProofStore>) -> SuiteCache {
        SuiteCache {
            store: Some(store),
            ..SuiteCache::default()
        }
    }

    /// Returns the memoized run for `ex` under the thread's current
    /// ablation override, verifying it first if this is the first
    /// request for its key. Concurrent requests for the same key block
    /// on the single in-flight run instead of duplicating it.
    pub fn get_or_run(&self, ex: &dyn Example, variant: Variant) -> Arc<CachedRun> {
        let key = (ex.cache_key(), current_ablation(), variant);
        let cell = {
            let mut map = self.entries.lock().unwrap();
            Arc::clone(map.entry(key).or_default())
        };
        let mut ran = false;
        let run = Arc::clone(cell.get_or_init(|| {
            ran = true;
            match &self.store {
                Some(store) => store.get_or_run(ex, variant),
                None => Arc::new(run_once(ex, variant)),
            }
        }));
        if ran {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        run
    }

    /// Looks up a completed entry without running anything and without
    /// touching the hit/miss counters (which several tests treat as an
    /// exact re-verification ledger). Used by the suite driver to flush
    /// telemetry in task-submission order after a pool run.
    #[must_use]
    pub fn peek(&self, cache_key: &str, ablation: Ablation, variant: Variant) -> Option<Arc<CachedRun>> {
        let key = (cache_key.to_owned(), ablation, variant);
        let cell = Arc::clone(self.entries.lock().unwrap().get(&key)?);
        let run = cell.get()?;
        Some(Arc::clone(run))
    }

    /// How many requests were served from the cache.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// How many requests actually ran a verification.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// All completed entries, for offline inspection (e.g. re-checking
    /// every cached trace).
    #[must_use]
    pub fn snapshot(&self) -> Vec<(Key, Arc<CachedRun>)> {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .filter_map(|(k, cell)| Some((k.clone(), Arc::clone(cell.get()?))))
            .collect()
    }
}

/// Runs one `(example, variant)` verification, timing search and trace
/// replay separately. Panics (ablated searches can trip engine
/// invariants) are contained and rendered as errors.
pub(crate) fn run_once(ex: &dyn Example, variant: Variant) -> CachedRun {
    // A per-run session isolates this run's counters from whatever
    // session the pool worker carries (nested installs shadow the outer
    // one and restore it on drop). Counters are a pure side channel, so
    // the verification itself — and its trace — is unaffected.
    let label = match variant {
        Variant::Ok => ex.name().to_owned(),
        Variant::Broken => format!("{}!broken", ex.name()),
    };
    let session = TelemetrySession::new(&label);
    let guard = session.install();
    let mut prof_span = profile::span(SpanKind::Verify);
    prof_span.set_label(&label);
    let (outcome, search_time, check_time) = run_serial(ex, variant);
    let verify_span = prof_span.id();
    drop(prof_span);
    drop(guard);
    CachedRun {
        outcome,
        search_time,
        check_time,
        counters: session.snapshot(),
        session,
        from_store: false,
        verify_span,
    }
}

type RunResult = (Option<Result<ExampleOutcome, String>>, Duration, Duration);

/// Searches every spec, then checks every trace.
fn run_serial(ex: &dyn Example, variant: Variant) -> RunResult {
    let t0 = Instant::now();
    let verdict = catch_unwind(AssertUnwindSafe(|| match variant {
        Variant::Ok => Some(ex.verify()),
        Variant::Broken => ex.verify_broken(),
    }));
    let search_time = t0.elapsed();
    let mut check_time = Duration::ZERO;
    let outcome = match verdict {
        Err(payload) => Some(Err(format!("panicked: {}", panic_message(payload.as_ref())))),
        Ok(None) => None,
        Ok(Some(Err(stuck))) => Some(Err(stuck.to_string())),
        Ok(Some(Ok(outcome))) => {
            let t1 = Instant::now();
            let checked = outcome.check_all();
            check_time = t1.elapsed();
            match checked {
                Ok(()) => Some(Ok(outcome)),
                Err(e) => Some(Err(format!("trace replay failed: {e}"))),
            }
        }
    };
    (outcome, search_time, check_time)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaframe_examples::all_examples;

    #[test]
    fn repeated_requests_verify_once() {
        let cache = SuiteCache::new();
        let examples = all_examples();
        let ex = examples[0].as_ref();
        let a = cache.get_or_run(ex, Variant::Ok);
        let b = cache.get_or_run(ex, Variant::Ok);
        assert!(Arc::ptr_eq(&a, &b), "second request must be a cache hit");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert!(!a.expect_ok(ex.name()).proofs.is_empty());
    }

    #[test]
    fn ablation_is_part_of_the_key() {
        use diaframe_core::{with_ablation_override, Ablation};
        let cache = SuiteCache::new();
        let examples = all_examples();
        let ex = examples[0].as_ref();
        let base = cache.get_or_run(ex, Variant::Ok);
        let ablated = with_ablation_override(
            Ablation {
                oldest_first: true,
                ..Ablation::none()
            },
            || cache.get_or_run(ex, Variant::Ok),
        );
        assert!(!Arc::ptr_eq(&base, &ablated));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn missing_broken_variant_is_memoized_too() {
        let cache = SuiteCache::new();
        let examples = all_examples();
        let no_broken = examples
            .iter()
            .find(|ex| ex.verify_broken().is_none())
            .map(|ex| {
                let run = cache.get_or_run(ex.as_ref(), Variant::Broken);
                assert!(run.outcome.is_none());
                cache.get_or_run(ex.as_ref(), Variant::Broken);
            });
        if no_broken.is_some() {
            assert_eq!(cache.misses(), 1);
            assert_eq!(cache.hits(), 1);
        }
    }
}
