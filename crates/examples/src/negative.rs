//! Intentionally-buggy negative scenarios for the schedule-sweep
//! adequacy harness.
//!
//! Each program here has a concurrency bug that no Diaframe proof
//! exists for — and could not exist, by Iris adequacy. The sweep's
//! detectors ([`diaframe_heaplang::monitor`]) must flag every one of
//! them with the expected categories, while the 24 proved examples
//! sweep clean: together the two halves make the detectors' verdicts
//! evidence rather than silence.

use crate::common::Client;
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

/// What the sweep must (and must not) report for a negative example,
/// as category names from
/// [`diaframe_heaplang::sweep::FLAG_NAMES`].
#[derive(Debug, Clone, Copy)]
pub struct ExpectedFindings {
    /// Categories the sweep MUST flag for the verdict to pass.
    pub must: &'static [&'static str],
    /// Categories the sweep must NOT flag (anything else is
    /// unconstrained — e.g. whether a deadlock-prone run also shows up
    /// as nonterminating depends on budgets).
    pub forbidden: &'static [&'static str],
}

/// One intentionally-buggy program with its expected detector verdict.
pub struct NegativeExample {
    /// Stable report name.
    pub name: &'static str,
    /// What the bug is, for the report and docs.
    pub description: &'static str,
    /// The closed program (linked against nothing) and the wishful
    /// postcondition the bug breaks, where applicable.
    pub client: Client,
    /// The expected verdict.
    pub expected: ExpectedFindings,
}

/// A non-atomic counter increment in two threads: the classic lost
/// update. The join flag `d` is FAA'd (so the final read is ordered),
/// but the increments themselves are plain read-then-write.
const RACY_COUNTER: &str = "\
let c := ref 0 in
let d := ref 0 in
fork { (let v := ! c in c <- v + 1) ;; FAA(d, 1) } ;;
(let v := ! c in c <- v + 1) ;;
(rec wait u := if ! d = 1 then ! c else wait u) ()";

/// Two spin locks acquired in opposite orders by two threads: the
/// lock-order graph gets the cycle `a → b → a`, and schedules where
/// each thread holds its first lock deadlock outright.
const LOCK_INVERSION: &str = "\
let a := ref false in
let b := ref false in
let d := ref 0 in
fork {
  (rec acq u := if CAS(a, false, true) then () else acq u) () ;;
  (rec acq u := if CAS(b, false, true) then () else acq u) () ;;
  b <- false ;; a <- false ;; FAA(d, 1)
} ;;
(rec acq u := if CAS(b, false, true) then () else acq u) () ;;
(rec acq u := if CAS(a, false, true) then () else acq u) () ;;
a <- false ;; b <- false ;;
(rec wait u := if ! d = 1 then 0 else wait u) ()";

/// A lost wakeup: the consumer publishes `waiting` with a plain store
/// and the producer's plain check-then-signal can miss it, leaving the
/// consumer spinning forever. Both cells are also racy.
const LOST_WAKEUP: &str = "\
let ready := ref false in
let waiting := ref false in
fork { if ! waiting then ready <- true else () } ;;
waiting <- true ;;
(rec spin u := if ! ready then 1 else spin u) ()";

/// A non-reentrant spin lock acquired twice by the same thread: every
/// schedule self-deadlocks, and the attempt edge `l → l` is a cycle.
const DOUBLE_ACQUIRE: &str = "\
let l := ref false in
(rec acq u := if CAS(l, false, true) then () else acq u) () ;;
(rec acq u := if CAS(l, false, true) then () else acq u) () ;;
0";

/// The negative suite, in report order.
#[must_use]
pub fn negative_examples() -> Vec<NegativeExample> {
    vec![
        NegativeExample {
            name: "racy_counter",
            description: "non-atomic read-then-write increments in two threads (lost update)",
            client: Client {
                main: RACY_COUNTER,
                expected: Val::Int(2),
                heap: None,
                sync_model: SyncModel::InferAtomics,
                lock_order: true,
            },
            expected: ExpectedFindings {
                must: &["race", "post_violation"],
                forbidden: &["deadlock", "lock_cycle", "stuck", "nonterminating"],
            },
        },
        NegativeExample {
            name: "lock_inversion",
            description: "two spin locks acquired as a;b in one thread and b;a in the other",
            client: Client {
                main: LOCK_INVERSION,
                expected: Val::Int(0),
                heap: None,
                sync_model: SyncModel::InferAtomics,
                lock_order: true,
            },
            expected: ExpectedFindings {
                must: &["deadlock", "lock_cycle"],
                forbidden: &["race", "post_violation", "stuck"],
            },
        },
        NegativeExample {
            name: "lost_wakeup",
            description: "plain-flag check-then-signal misses the waiter's announcement",
            client: Client {
                main: LOST_WAKEUP,
                expected: Val::Int(1),
                heap: None,
                sync_model: SyncModel::InferAtomics,
                lock_order: true,
            },
            expected: ExpectedFindings {
                must: &["race", "nonterminating"],
                forbidden: &["deadlock", "lock_cycle", "stuck"],
            },
        },
        NegativeExample {
            name: "double_acquire",
            description: "a non-reentrant spin lock acquired twice by the same thread",
            client: Client {
                main: DOUBLE_ACQUIRE,
                expected: Val::Int(0),
                heap: None,
                sync_model: SyncModel::InferAtomics,
                lock_order: true,
            },
            expected: ExpectedFindings {
                must: &["deadlock", "lock_cycle"],
                forbidden: &["race", "post_violation", "stuck", "nonterminating"],
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaframe_heaplang::sweep::{sweep, SweepConfig, FLAG_NAMES};

    fn small_cfg(e: &NegativeExample) -> SweepConfig {
        SweepConfig {
            seeds: 60,
            fuel: 30_000,
            dfs_max_runs: 64,
            dfs_max_steps: 400_000,
            sync_model: e.client.sync_model,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn expected_findings_name_real_categories() {
        for e in negative_examples() {
            for f in e.expected.must.iter().chain(e.expected.forbidden) {
                assert!(FLAG_NAMES.contains(f), "{}: unknown category {f}", e.name);
            }
        }
    }

    #[test]
    fn every_negative_example_is_flagged_as_expected() {
        for e in negative_examples() {
            let out = sweep(
                &e.client.program(&[]),
                &|v, h| e.client.holds(v, h),
                &small_cfg(&e),
            );
            let flags = out.flags();
            for must in e.expected.must {
                assert!(
                    flags.contains(must),
                    "{}: expected flag {must}, got {flags:?}; findings: {:?}",
                    e.name,
                    out.findings()
                );
            }
            for forbidden in e.expected.forbidden {
                assert!(
                    !flags.contains(forbidden),
                    "{}: unexpected flag {forbidden}; findings: {:?}",
                    e.name,
                    out.findings()
                );
            }
            assert!(
                !out.findings().is_empty(),
                "{}: flagged but produced no actionable findings",
                e.name
            );
        }
    }
}
