//! A deterministic scoped-thread work pool for fanning verification
//! jobs out over the available cores.
//!
//! Verification jobs are embarrassingly parallel: search and check share
//! no mutable state across examples (each `verify` call owns its
//! `ProofCtx`, and the ghost registry and spec tables are read-only).
//! [`run_ordered`] exploits that: items are claimed from an atomic
//! cursor by a fixed-size pool of big-stack worker threads, each item
//! runs under panic isolation, and the results come back **in item
//! order** — callers observe exactly the serial outcome regardless of
//! the interleaving (`jobs = 1` *is* the serial path).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A job panicked; the payload rendered as a string (other jobs are
/// unaffected).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic message, or a placeholder for non-string payloads.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

/// The default worker count: [`std::thread::available_parallelism`]
/// (1 when it is unknown).
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` over every item on a pool of `jobs` verification workers,
/// returning per-item results in item order.
///
/// Each worker is a big-stack verification-session thread (so `f` can
/// call `verify` without a further thread hop) and inherits the caller's
/// ablation override. A panic in `f` is confined to its item and
/// reported as [`JobPanic`]; remaining items still run.
pub fn run_ordered<T, I, F>(items: &[I], jobs: usize, f: F) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    I: Sync,
    F: Fn(usize, &I) -> T + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, JobPanic>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let ablation = crate::tactic::current_ablation();
    // The telemetry session (like the ablation override) is thread-local
    // state that must be re-installed in every worker. Workers register
    // their own timeline lanes, and their spans — with the counters
    // riding on them — hang off the span open at the pool call site.
    let handoff = crate::telemetry::Handoff::capture();
    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(jobs);
        for w in 0..jobs {
            let (cursor, slots, f, handoff) = (&cursor, &slots, &f, &handoff);
            let worker = std::thread::Builder::new()
                .name(format!("diaframe-worker-{w}"))
                // Workers double as verification sessions — see the
                // stack-size rationale at `with_verification_session`.
                .stack_size(crate::verify::SESSION_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    crate::verify::mark_session_thread();
                    let _session = handoff.as_ref().map(crate::telemetry::Handoff::install);
                    crate::tactic::with_ablation_override(ablation, || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let outcome = catch_unwind(AssertUnwindSafe(|| f(i, item)))
                            .map_err(|payload| JobPanic {
                                message: panic_message(payload.as_ref()),
                            });
                        *slots[i].lock().unwrap() = Some(outcome);
                    });
                })
                .expect("spawn driver worker");
            workers.push(worker);
        }
        for worker in workers {
            // Workers never panic outside the per-item catch_unwind.
            worker.join().expect("driver worker died");
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .expect("worker pool exited with unprocessed item")
        })
        .collect()
}

/// Deterministically aggregates a pool run's results: all values in item
/// order, or — if any job panicked — an error message naming *every*
/// panicked item (rendered by `describe`, in item order) with its panic
/// payload verbatim.
///
/// Callers used to `expect()` each result in a loop, which reported
/// whichever panic happened to sit at the lowest index the iteration
/// reached and dropped the rest; with this helper a multi-failure run
/// reports the same complete, ordered message at any `jobs` level.
///
/// # Errors
///
/// One line per panicked item, joined with `; `.
pub fn collect_ordered<T>(
    results: Vec<Result<T, JobPanic>>,
    describe: impl Fn(usize) -> String,
) -> Result<Vec<T>, String> {
    let mut values = Vec::with_capacity(results.len());
    let mut failures: Vec<String> = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(v) => values.push(v),
            Err(p) => failures.push(format!("{}: {}", describe(i), p.message)),
        }
    }
    if failures.is_empty() {
        Ok(values)
    } else {
        Err(failures.join("; "))
    }
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

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 3, 8] {
            let out = run_ordered(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                // Skew the finish order: later items run faster.
                if x % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                x * 10
            });
            let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, (0..64).map(|x| x * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panics_are_isolated_per_item() {
        let items: Vec<usize> = (0..10).collect();
        let out = run_ordered(&items, 4, |_, &x| {
            assert!(x != 3 && x != 7, "boom {x}");
            x
        });
        for (i, r) in out.iter().enumerate() {
            if i == 3 || i == 7 {
                let err = r.as_ref().unwrap_err();
                assert!(err.message.contains("boom"), "got {err}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn ablation_override_reaches_workers() {
        use crate::{current_ablation, with_ablation_override, Ablation};
        let ab = Ablation {
            oldest_first: true,
            ..Ablation::none()
        };
        let seen = with_ablation_override(ab, || {
            run_ordered(&[(), (), ()], 2, |_, ()| current_ablation())
        });
        for s in seen {
            assert_eq!(s.unwrap(), ab);
        }
    }

    #[test]
    fn empty_and_single_item_edge_cases() {
        let out = run_ordered::<u8, u8, _>(&[], 4, |_, _| unreachable!());
        assert!(out.is_empty());
        let out = run_ordered(&[5u8], 16, |_, &x| x);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].as_ref().unwrap(), &5);
    }

    #[test]
    fn collect_ordered_reports_every_panic_in_item_order() {
        let items: Vec<usize> = (0..10).collect();
        for jobs in [1, 4] {
            let results = run_ordered(&items, jobs, |_, &x| {
                assert!(x != 2 && x != 5, "boom {x}");
                x * 10
            });
            let err = collect_ordered(results, |i| format!("item-{i}")).unwrap_err();
            // Whatever the interleaving, the aggregate message is the
            // same: every failure, in item order, payload verbatim.
            assert_eq!(err, "item-2: boom 2; item-5: boom 5");
        }
        let results = run_ordered(&items, 4, |_, &x| x * 10);
        let values = collect_ordered(results, |i| format!("item-{i}")).unwrap();
        assert_eq!(values, (0..10).map(|x| x * 10).collect::<Vec<_>>());
    }
}
