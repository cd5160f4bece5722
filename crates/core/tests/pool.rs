//! The persistent worker pool behind `with_verification_session` and
//! `run_ordered`: workers are reused, panics cross back to the caller
//! without killing the worker, nested calls run inline, concurrent
//! callers beyond the parking cap all finish, no job's thread-local
//! state reaches the next job on the same worker, and idle workers
//! leave after the keep-alive.
//!
//! The pool is process-wide, so the tests in this binary take one lock
//! to keep each other's workers out of their counts.

use diaframe_core::driver::{pool_stats, PoolStats, KEEP_ALIVE};
use diaframe_core::telemetry::{self, TelemetrySession};
use diaframe_core::{
    current_ablation, default_jobs, run_ordered, with_ablation_override, with_verification_session,
    Ablation,
};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::{current, ThreadId};
use std::time::Instant;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn me() -> ThreadId {
    current().id()
}

fn ablated() -> Ablation {
    Ablation {
        oldest_first: true,
        ..Ablation::none()
    }
}

/// Fills the pool up to its parking cap.
fn warm_up() -> PoolStats {
    let _ = run_ordered(&vec![(); default_jobs()], default_jobs(), |_, ()| ());
    let stats = pool_stats();
    assert!(
        stats.parked >= 1 && stats.parked <= default_jobs(),
        "{stats:?}"
    );
    stats
}

#[test]
fn repeated_calls_reuse_the_same_workers() {
    let _serial = serial();
    let warm = warm_up();
    let first = with_verification_session(me);
    for _ in 0..20 {
        assert_eq!(
            with_verification_session(me),
            first,
            "a lone caller gets the same worker"
        );
    }
    let mut fanned = HashSet::new();
    for _ in 0..20 {
        for id in run_ordered(&[(); 8], default_jobs(), |_, ()| me()) {
            fanned.insert(id.unwrap());
        }
        fanned.insert(with_verification_session(me));
    }
    assert_eq!(
        pool_stats(),
        warm,
        "no worker spawned or lost after warm-up"
    );
    assert!(fanned.len() <= default_jobs(), "{fanned:?}");
    assert!(
        first != me() && !fanned.contains(&me()),
        "jobs run on workers, not the caller"
    );
    let name = with_verification_session(|| current().name().map(str::to_owned));
    assert!(name.unwrap().starts_with("diaframe-worker-"));
}

#[test]
fn a_panic_reaches_the_caller_and_the_worker_survives() {
    let _serial = serial();
    let warm = warm_up();
    let mut worker = None;
    let payload = catch_unwind(AssertUnwindSafe(|| {
        with_verification_session(|| -> u8 {
            worker = Some(me());
            panic!("boom in a session");
        })
    }))
    .unwrap_err();
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in a session"));
    // The panicked worker parked last, so it takes the next job.
    assert_eq!(with_verification_session(me), worker.unwrap());
    assert_eq!(with_verification_session(|| 6 * 7), 42);
    let out = run_ordered(&[1, 2, 3], 2, |_, &x| {
        assert!(x != 2, "boom {x}");
        x
    });
    assert_eq!(out[1].as_ref().unwrap_err().message, "boom 2");
    assert_eq!(*out[2].as_ref().unwrap(), 3);
    assert_eq!(pool_stats(), warm, "panics cost no worker");
}

#[test]
fn nested_calls_run_inline() {
    let _serial = serial();
    let warm = warm_up();
    let (outer, inner, fanned) = with_verification_session(|| {
        let inner = with_verification_session(me);
        let fanned: Vec<ThreadId> = run_ordered(&[(); 4], 1, |_, ()| me())
            .into_iter()
            .map(Result::unwrap)
            .collect();
        (me(), inner, fanned)
    });
    assert_eq!(inner, outer);
    assert_eq!(fanned, vec![outer; 4]);
    assert_eq!(pool_stats().spawned, warm.spawned);
}

#[test]
fn more_callers_than_cores_all_finish() {
    let _serial = serial();
    let callers = 3 * default_jobs() + 2;
    // Every caller's job waits for every other one inside its session,
    // so this finishes only if the pool grows to `callers` workers.
    let barrier = Barrier::new(callers);
    let sums: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut sum = with_verification_session(|| {
                        barrier.wait();
                        c
                    });
                    for r in run_ordered(&[c, c + 1, c + 2], 3, |_, &x| {
                        with_verification_session(|| x)
                    }) {
                        sum += r.unwrap();
                    }
                    sum
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(sums, (0..callers).map(|c| 4 * c + 3).collect::<Vec<_>>());
    let stats = pool_stats();
    assert!(stats.spawned >= callers, "{stats:?}");
    assert!(stats.parked <= default_jobs(), "{stats:?}");
}

#[test]
fn no_thread_local_state_leaks_between_jobs() {
    let _serial = serial();
    warm_up();
    let session = TelemetrySession::new("pool");
    let (worker, seen_ablation, seen_session) = with_ablation_override(ablated(), || {
        let _guard = session.install();
        with_verification_session(|| (me(), current_ablation(), telemetry::current().is_some()))
    });
    assert_eq!((seen_ablation, seen_session), (ablated(), true));
    // The same worker takes the next job with neither installed.
    let next =
        with_verification_session(|| (me(), current_ablation(), telemetry::current().is_some()));
    assert_eq!(next, (worker, Ablation::none(), false));

    // Not even when the job unwinds.
    let _ = with_ablation_override(ablated(), || {
        let _guard = session.install();
        catch_unwind(AssertUnwindSafe(|| {
            with_verification_session(|| -> u8 { panic!("unwinding out of an ablated job") })
        }))
    });
    let next =
        with_verification_session(|| (me(), current_ablation(), telemetry::current().is_some()));
    assert_eq!(next, (worker, Ablation::none(), false));

    // Nor when a fanned-out item unwinds out of its own override: the
    // next item on the same worker runs without it.
    let out = run_ordered(&[true, false], 1, |_, &unwind| {
        if unwind {
            with_ablation_override(ablated(), || panic!("unwinding out of an override"));
        }
        current_ablation()
    });
    assert!(out[0].is_err());
    assert_eq!(*out[1].as_ref().unwrap(), Ablation::none());

    // Fan-outs too: every worker of an ablated, observed run comes back
    // clean.
    let items = vec![(); 2 * default_jobs()];
    let under = with_ablation_override(ablated(), || {
        let _guard = session.install();
        run_ordered(&items, default_jobs(), |_, ()| {
            (current_ablation(), telemetry::current().is_some())
        })
    });
    assert!(under.into_iter().all(|r| r.unwrap() == (ablated(), true)));
    let after = run_ordered(&items, default_jobs(), |_, ()| {
        (current_ablation(), telemetry::current().is_some())
    });
    assert!(after
        .into_iter()
        .all(|r| r.unwrap() == (Ablation::none(), false)));
}

#[test]
fn idle_workers_leave_after_the_keep_alive() {
    let _serial = serial();
    let warm = warm_up();
    let deadline = Instant::now() + 10 * KEEP_ALIVE;
    while pool_stats().parked > 0 {
        assert!(Instant::now() < deadline, "{:?}", pool_stats());
        std::thread::sleep(KEEP_ALIVE / 10);
    }
    // The next call spawns a fresh worker, which parks as usual.
    assert_eq!(with_verification_session(|| 6 * 7), 42);
    assert_eq!(
        pool_stats(),
        PoolStats {
            spawned: warm.spawned + 1,
            parked: 1
        }
    );
}
