//! The engine's runtime: one process-wide pool of persistent big-stack
//! worker threads, and a deterministic fan-out over it.
//!
//! Every verification runs on a thread with a
//! [`SESSION_STACK_BYTES`](crate::verify::SESSION_STACK_BYTES) stack (see
//! [`crate::verify::with_verification_session`] for why). Spawning such a
//! thread per call, and page-faulting its stack in again, cost more than a
//! daemon cache hit itself, so the workers outlive the calls. A caller
//! hands *scoped* jobs — closures that may borrow from its stack — to
//! parked workers and blocks until every job has finished and been
//! dropped:
//!
//! * a job's panic is caught on the worker and re-raised on the caller;
//!   the worker survives and parks again;
//! * a call made on a worker runs its first job inline, so nested
//!   sessions cost no hop;
//! * with no worker parked the pool spawns one, so a job that blocks on
//!   another (a `SuiteCache` single-flight cell) can never deadlock it;
//! * a worker that finishes parks only while fewer than
//!   [`default_jobs`] workers are parked, and exits otherwise, so idle
//!   workers (and the stack pages they have touched) stay bounded;
//! * a parked worker that gets no job for [`KEEP_ALIVE`] exits, so a
//!   process that stops verifying (a daemon answering from its cache)
//!   gives those pages back.
//!
//! Each job re-installs its caller's ablation override and telemetry
//! session, and the worker's thread-local state is restored when the job
//! ends, so nothing leaks from one job into the next.
//!
//! Verification jobs are embarrassingly parallel: search and check share
//! no mutable state across examples (each `verify` call owns its
//! `ProofCtx`, and the ghost registry and spec tables are read-only).
//! [`run_ordered`] exploits that: `jobs` workers claim items from an
//! atomic cursor, each item runs under panic isolation, and the results
//! come back **in item order** — callers observe exactly the serial
//! outcome regardless of the interleaving (`jobs = 1` *is* the serial
//! path).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

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
/// (1 when it is unknown), read once per process. Also the most workers
/// the pool keeps parked.
#[must_use]
pub fn default_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Runs `f` over every item on `jobs` pool workers, returning per-item
/// results in item order.
///
/// `f` runs on big-stack workers (so it can call `verify` without a
/// further hop) under the caller's ablation override and telemetry
/// session. A panic in `f` is confined to its item and reported as
/// [`JobPanic`]; remaining items still run.
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
    let claim = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let outcome = catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| JobPanic {
            message: panic_message(payload.as_ref()),
        });
        *lock(&slots[i]) = Some(outcome);
    };
    for outcome in run_scoped(vec![&claim; jobs]) {
        // The claim loop catches every item's panic itself.
        if let Err(payload) = outcome {
            resume_unwind(payload);
        }
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("worker pool exited with unprocessed item")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The worker pool

/// One job on its way to a worker. Dropping it — after the worker ran
/// it, or unrun when no worker could be spawned — drops the closure and
/// then counts down the caller's latch.
struct Task {
    run: Option<Box<dyn FnOnce() + Send>>,
    done: Arc<Latch>,
}

impl Drop for Task {
    fn drop(&mut self) {
        drop(self.run.take());
        self.done.count_down();
    }
}

/// The number of a caller's tasks not yet dropped.
#[derive(Default)]
struct Latch {
    live: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    fn add(&self) {
        *lock(&self.live) += 1;
    }

    fn count_down(&self) {
        let mut live = lock(&self.live);
        *live -= 1;
        if *live == 0 {
            self.zero.notify_all();
        }
    }
}

/// Blocks in `drop` — also while the caller unwinds — until every task
/// counted on the latch has been dropped.
struct Join(Arc<Latch>);

impl Drop for Join {
    fn drop(&mut self) {
        let mut live = lock(&self.0.live);
        while *live > 0 {
            live = self
                .0
                .zero
                .wait(live)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The parked workers, each blocked on its own channel, with its number.
static PARKED: Mutex<Vec<(usize, mpsc::Sender<Task>)>> = Mutex::new(Vec::new());

/// How long a parked worker waits for a job before it exits.
pub const KEEP_ALIVE: Duration = Duration::from_secs(2);

/// Workers ever spawned (numbers the thread names).
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// Whether this thread is a pool worker.
    static ON_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The pool's size at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers spawned since the process started.
    pub spawned: usize,
    /// Workers parked now, waiting for a job (at most [`default_jobs`]).
    pub parked: usize,
}

/// The pool's size now: a diagnostic for tests and tools.
#[must_use]
pub fn pool_stats() -> PoolStats {
    PoolStats {
        spawned: SPAWNED.load(Ordering::Relaxed),
        parked: lock(&PARKED).len(),
    }
}

/// Runs every job on its own pool worker and returns each one's outcome
/// (its value, or its panic payload) in job order. On a worker the first
/// job runs inline. Returns — or unwinds — only once every job has
/// finished and been dropped.
pub(crate) fn run_scoped<T, J>(jobs: Vec<J>) -> Vec<std::thread::Result<T>>
where
    T: Send,
    J: FnOnce() -> T + Send,
{
    let mut outcomes: Vec<Option<std::thread::Result<T>>> = jobs.iter().map(|_| None).collect();
    let ablation = crate::tactic::current_ablation();
    let handoff = crate::telemetry::Handoff::capture();
    {
        let mut pairs = jobs.into_iter().zip(outcomes.iter_mut());
        let inline = if ON_WORKER.with(std::cell::Cell::get) {
            pairs.next()
        } else {
            None
        };
        let join = Join(Arc::default());
        for (job, slot) in pairs {
            let handoff = &handoff;
            let run: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let _session = handoff.as_ref().map(crate::telemetry::Handoff::install);
                crate::tactic::with_ablation_override(ablation, || {
                    *slot = Some(catch_unwind(AssertUnwindSafe(job)));
                });
            });
            // SAFETY: only the lifetime is erased; the layout is that of
            // the same boxed trait object. `run` borrows `job`'s captures,
            // `slot` (in `outcomes`) and `handoff`, all of which outlive
            // `join`. It lives on only inside the `Task` below, and a
            // `Task` drops `run` (run or not) before it counts down `join`'s
            // latch, which was counted up first. `join` is declared after
            // `pairs`, `inline` and the captures, so its `drop` — which
            // blocks until the latch is zero, whether this block ends
            // normally or unwinds out of a failed spawn — runs before any
            // of them goes away. So the caller never returns before every
            // job and its captures are dropped.
            let run = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(run)
            };
            join.0.add();
            dispatch(Task {
                run: Some(run),
                done: Arc::clone(&join.0),
            });
        }
        if let Some((job, slot)) = inline {
            *slot = Some(catch_unwind(AssertUnwindSafe(job)));
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every pool job records its outcome"))
        .collect()
}

/// Hands `task` to a parked worker, or spawns a new one for it.
fn dispatch(mut task: Task) {
    // The worker parked last, whose stack pages are warmest, goes first.
    let parked = lock(&PARKED).pop();
    if let Some((_, worker)) = parked {
        match worker.send(task) {
            Ok(()) => return,
            Err(mpsc::SendError(back)) => task = back,
        }
    }
    let n = SPAWNED.fetch_add(1, Ordering::Relaxed);
    // The one thread spawn of the engine. A failed spawn drops `task`
    // unrun, which releases the caller's latch before this panics.
    std::thread::Builder::new()
        .name(format!("diaframe-worker-{n}"))
        .stack_size(crate::verify::SESSION_STACK_BYTES)
        .spawn(move || worker(n, task))
        .expect("spawn verification worker");
}

/// A worker's life: run a task, park (or exit when enough workers are
/// parked), then release the caller — parking first, so a caller that
/// calls again at once finds this worker parked. A worker parked for
/// [`KEEP_ALIVE`] leaves unless a caller has claimed it meanwhile.
fn worker(id: usize, mut task: Task) {
    ON_WORKER.with(|w| w.set(true));
    let (sender, inbox) = mpsc::channel();
    loop {
        // `run_scoped` wraps every job in `catch_unwind`, so a job's
        // panic never unwinds the worker.
        if let Some(run) = task.run.take() {
            run();
        }
        let parks = {
            let mut parked = lock(&PARKED);
            let parks = parked.len() < default_jobs();
            if parks {
                parked.push((id, sender.clone()));
            }
            parks
        };
        drop(task);
        if !parks {
            return;
        }
        task = match inbox.recv_timeout(KEEP_ALIVE) {
            Ok(next) => next,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let mut parked = lock(&PARKED);
                if let Some(at) = parked.iter().position(|&(w, _)| w == id) {
                    parked.remove(at);
                    return;
                }
                drop(parked);
                // A caller popped this worker before it could leave, and
                // is sending it a task.
                let Ok(next) = inbox.recv() else { return };
                next
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
