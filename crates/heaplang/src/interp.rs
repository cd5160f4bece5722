//! The thread-pool interpreter.
//!
//! Runs a main thread plus any forked children under a [`Scheduler`],
//! checking that no thread ever gets stuck. This is the executable
//! counterpart of the safety part of a weakest-precondition proof: a
//! verified program must run without getting stuck under *every* schedule.

use crate::expr::Expr;
use crate::heap::Heap;
use crate::scheduler::{RandomSched, RoundRobin, Scheduler};
use crate::step::{thread_step, MemEffect, StuckError};
use crate::value::Val;
use std::fmt;

/// What one observed thread step did, as reported by
/// [`Machine::step_thread_traced`] for the sweep detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// The memory effect of the head step, if it touched the heap.
    pub effect: Option<MemEffect>,
    /// Index of the newly forked thread, if the step was a `fork`.
    pub forked: Option<usize>,
}

/// Why a run ended unsuccessfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A thread got stuck (undefined behaviour).
    Stuck {
        /// Index of the stuck thread (0 = main).
        thread: usize,
        /// The underlying stuck error.
        error: StuckError,
    },
    /// The step budget ran out before the main thread finished.
    OutOfFuel,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Stuck { thread, error } => {
                write!(f, "thread {thread} {error}")
            }
            RunError::OutOfFuel => write!(f, "out of fuel"),
        }
    }
}

impl std::error::Error for RunError {}

/// A running machine: a heap plus a pool of threads.
#[derive(Debug, Clone)]
pub struct Machine {
    heap: Heap,
    threads: Vec<Expr>,
    steps_taken: u64,
}

impl Machine {
    /// Creates a machine with a single main thread.
    #[must_use]
    pub fn new(main: Expr) -> Machine {
        Machine {
            heap: Heap::new(),
            threads: vec![main],
            steps_taken: 0,
        }
    }

    /// The machine's heap.
    #[must_use]
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The number of threads ever spawned (including main).
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Total head steps taken so far.
    #[must_use]
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Indices of threads that are not yet values.
    #[must_use]
    pub fn runnable(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.is_val())
            .map(|(i, _)| i)
            .collect()
    }

    /// The value of thread `i`, if it has finished.
    #[must_use]
    pub fn thread_value(&self, i: usize) -> Option<&Val> {
        self.threads.get(i).and_then(Expr::as_val)
    }

    /// The main thread's value, if it has finished.
    #[must_use]
    pub fn main_value(&self) -> Option<&Val> {
        self.thread_value(0)
    }

    /// Steps the given thread once.
    ///
    /// # Errors
    ///
    /// Returns the stuck error if the thread has undefined behaviour.
    pub fn step_thread(&mut self, i: usize) -> Result<(), RunError> {
        self.step_thread_traced(i).map(|_| ())
    }

    /// Steps the given thread once and reports what the step did — the
    /// observation hook the [`crate::sweep`] detectors are threaded
    /// through.
    ///
    /// # Errors
    ///
    /// Returns the stuck error if the thread has undefined behaviour.
    pub fn step_thread_traced(&mut self, i: usize) -> Result<StepInfo, RunError> {
        match thread_step(&self.threads[i], &mut self.heap) {
            Ok(None) => Ok(StepInfo {
                effect: None,
                forked: None,
            }),
            Ok(Some(res)) => {
                self.threads[i] = res.expr;
                let forked = res.forked.map(|child| {
                    self.threads.push(child);
                    self.threads.len() - 1
                });
                self.steps_taken += 1;
                Ok(StepInfo {
                    effect: res.effect,
                    forked,
                })
            }
            Err(error) => Err(RunError::Stuck { thread: i, error }),
        }
    }

    /// Runs until the *main* thread is a value (forked threads may still be
    /// running — like HeapLang, fork is daemonic) or until every thread is
    /// a value, whichever the scheduler reaches first.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Stuck`] if any scheduled thread gets stuck and
    /// [`RunError::OutOfFuel`] after `fuel` steps.
    pub fn run(&mut self, sched: &mut dyn Scheduler, fuel: u64) -> Result<Val, RunError> {
        for _ in 0..fuel {
            if let Some(v) = self.threads[0].as_val() {
                return Ok(v.clone());
            }
            let runnable = self.runnable();
            if runnable.is_empty() {
                break;
            }
            let i = sched.pick(&runnable);
            self.step_thread(i)?;
        }
        match self.threads[0].as_val() {
            Some(v) => Ok(v.clone()),
            None => Err(RunError::OutOfFuel),
        }
    }

    /// Convenience: run under deterministic round-robin scheduling.
    ///
    /// # Errors
    ///
    /// As for [`Machine::run`].
    pub fn run_round_robin(&mut self, fuel: u64) -> Result<Val, RunError> {
        self.run(&mut RoundRobin::new(), fuel)
    }

    /// Convenience: run under seeded random scheduling.
    ///
    /// # Errors
    ///
    /// As for [`Machine::run`].
    pub fn run_random(&mut self, seed: u64, fuel: u64) -> Result<Val, RunError> {
        self.run(&mut RandomSched::new(seed), fuel)
    }
}

/// Runs `prog` under `n_seeds` random schedules and returns the observed
/// main-thread results. Panics on a stuck thread — this is the harness the
/// adequacy tests use to check that verified programs are safe in practice.
///
/// # Panics
///
/// Panics if any schedule gets stuck or runs out of fuel.
#[must_use]
pub fn run_schedules(prog: &Expr, n_seeds: u64, fuel: u64) -> Vec<Val> {
    (0..n_seeds)
        .map(|seed| {
            Machine::new(prog.clone())
                .run_random(seed, fuel)
                .unwrap_or_else(|e| panic!("schedule {seed}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    #[test]
    fn sequential_program() {
        let e = Expr::let_(
            "l",
            Expr::alloc(Expr::int(0)),
            Expr::seq(
                Expr::store(Expr::var("l"), Expr::int(7)),
                Expr::load(Expr::var("l")),
            ),
        );
        assert_eq!(Machine::new(e).run_round_robin(1000).unwrap(), Val::int(7));
    }

    #[test]
    fn forked_threads_interleave() {
        // Two forked FAAs on a shared counter; main spins until both are
        // visible. Under any schedule, the final value is 2.
        let src = Expr::let_(
            "l",
            Expr::alloc(Expr::int(0)),
            Expr::seq(
                Expr::fork(Expr::faa(Expr::var("l"), Expr::int(1))),
                Expr::seq(
                    Expr::fork(Expr::faa(Expr::var("l"), Expr::int(1))),
                    Expr::app(
                        Expr::rec(
                            "wait",
                            "u",
                            Expr::if_(
                                Expr::binop(BinOp::Eq, Expr::load(Expr::var("l")), Expr::int(2)),
                                Expr::load(Expr::var("l")),
                                Expr::app(Expr::var("wait"), Expr::unit()),
                            ),
                        ),
                        Expr::unit(),
                    ),
                ),
            ),
        );
        for v in run_schedules(&src, 20, 100_000) {
            assert_eq!(v, Val::int(2));
        }
    }

    #[test]
    fn stuck_thread_reports_index() {
        let e = Expr::seq(
            Expr::fork(Expr::app(Expr::int(0), Expr::int(0))),
            Expr::app(
                Expr::rec("loop", "u", Expr::app(Expr::var("loop"), Expr::unit())),
                Expr::unit(),
            ),
        );
        let err = Machine::new(e).run_round_robin(1000).unwrap_err();
        match err {
            RunError::Stuck { thread, .. } => assert_eq!(thread, 1),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn out_of_fuel() {
        let e = Expr::app(
            Expr::rec("loop", "u", Expr::app(Expr::var("loop"), Expr::unit())),
            Expr::unit(),
        );
        assert_eq!(
            Machine::new(e).run_round_robin(100).unwrap_err(),
            RunError::OutOfFuel
        );
    }

    #[test]
    fn daemonic_fork() {
        // Main finishes while the forked spinner is still running.
        let e = Expr::seq(
            Expr::fork(Expr::app(
                Expr::rec("loop", "u", Expr::app(Expr::var("loop"), Expr::unit())),
                Expr::unit(),
            )),
            Expr::int(1),
        );
        assert_eq!(Machine::new(e).run_round_robin(1000).unwrap(), Val::int(1));
    }
}
