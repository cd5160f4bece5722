//! Property tests for the schedule-sweep adequacy harness
//! ([`diaframe_heaplang::sweep`]):
//!
//! 1. Race-free-by-construction programs (all shared accesses are FAA,
//!    which commutes) terminate with **schedule-independent** final
//!    values and heaps, and the race detector stays silent.
//! 2. Lock-protected programs (plain read-modify-write increments
//!    guarded by a CAS spin lock, joined through an FAA'd done counter)
//!    never flag a race, a deadlock, or a lock-order cycle — the
//!    happens-before edges induced by the lock's CAS/store pairs and
//!    the join must cover every plain access.

use diaframe_heaplang::parse_expr;
use diaframe_heaplang::sweep::{sweep, SweepConfig, SweepOutcome};
use diaframe_heaplang::{Loc, Val};
use proptest::prelude::*;
use std::fmt::Write as _;

fn cfg() -> SweepConfig {
    SweepConfig {
        seeds: 10,
        fuel: 20_000,
        dfs_max_runs: 16,
        dfs_max_steps: 80_000,
        ..SweepConfig::default()
    }
}

fn run(source: &str, expected: i64) -> SweepOutcome {
    let prog =
        parse_expr(source).unwrap_or_else(|e| panic!("generated program parses: {e}\n{source}"));
    sweep(&prog, &|v, _| *v == Val::Int(i128::from(expected)), &cfg())
}

/// One thread's FAA ops: `(cell index, addend)` pairs over two cells.
type FaaOps = Vec<(usize, i64)>;

/// Builds the FAA-only program: two shared counters, every thread —
/// main plus one fork per extra entry — bumps them with FAA, the main
/// thread joins on an FAA'd done counter and returns `c0 + c1`.
fn faa_program(threads: &[FaaOps]) -> (String, i64, i64, i64) {
    let forks = threads.len() - 1;
    let mut src = String::from("let c0 := ref 0 in\nlet c1 := ref 0 in\nlet d := ref 0 in\n");
    let ops_text = |ops: &FaaOps| {
        ops.iter()
            .map(|(cell, k)| format!("FAA(c{cell}, {k})"))
            .collect::<Vec<_>>()
            .join(" ;; ")
    };
    for ops in &threads[1..] {
        let _ = writeln!(src, "fork {{ {} ;; FAA(d, 1) }} ;;", ops_text(ops));
    }
    let _ = writeln!(src, "{} ;;", ops_text(&threads[0]));
    let _ = write!(
        src,
        "(rec wait u := if ! d = {forks} then (! c0) + (! c1) else wait u) ()"
    );
    let sum = |cell: usize| -> i64 {
        threads
            .iter()
            .flatten()
            .filter(|(c, _)| *c == cell)
            .map(|(_, k)| k)
            .sum()
    };
    let (t0, t1) = (sum(0), sum(1));
    (src, t0, t1, t0 + t1)
}

/// Builds the lock-protected program: each thread performs plain
/// `c <- !c + k` increments, each under a CAS spin lock; the main
/// thread joins on an FAA'd done counter and then reads `c` *without*
/// the lock (the join's happens-before must already order it).
fn locked_program(main_adds: &[i64], fork_adds: &[Vec<i64>]) -> (String, i64) {
    let mut src = String::from("let l := ref false in\nlet c := ref 0 in\nlet d := ref 0 in\n");
    let block = |adds: &[i64]| {
        adds.iter()
            .map(|k| {
                format!(
                    "(rec acq u := if CAS(l, false, true) then () else acq u) () ;; \
                     (let v := ! c in c <- v + {k}) ;; l <- false"
                )
            })
            .collect::<Vec<_>>()
            .join(" ;; ")
    };
    for adds in fork_adds {
        let _ = writeln!(src, "fork {{ {} ;; FAA(d, 1) }} ;;", block(adds));
    }
    let _ = writeln!(src, "{} ;;", block(main_adds));
    let _ = write!(
        src,
        "(rec wait u := if ! d = {} then ! c else wait u) ()",
        fork_adds.len()
    );
    let total = main_adds.iter().sum::<i64>() + fork_adds.iter().flatten().sum::<i64>();
    (src, total)
}

proptest! {
    #[test]
    fn faa_programs_have_schedule_independent_finals_and_no_races(
        threads in prop::collection::vec(
            prop::collection::vec((0usize..2, 1i64..=3), 1..=3),
            2..=3,
        ),
    ) {
        let (src, t0, t1, total) = faa_program(&threads);
        let out = run(&src, total);
        prop_assert!(
            out.clean(),
            "FAA program swept dirty: {:?}\n{src}",
            out.findings()
        );
        // Schedule independence: one distinct final value across every
        // seeded and DFS schedule, and the quiescent heap is fixed.
        prop_assert_eq!(out.distinct_values.len(), 1, "finals varied: {:?}", &out.distinct_values);
        let prog = parse_expr(&src).unwrap();
        let final_post = move |_: &Val, h: &diaframe_heaplang::Heap| {
            h.load(Loc::new(0)) == Some(&Val::Int(i128::from(t0)))
                && h.load(Loc::new(1)) == Some(&Val::Int(i128::from(t1)))
        };
        let heap_out = sweep(&prog, &final_post, &cfg());
        prop_assert!(heap_out.clean(), "quiescent heap varied: {:?}", heap_out.findings());
    }

    #[test]
    fn lock_protected_programs_never_flag_races_or_cycles(
        main_adds in prop::collection::vec(1i64..=3, 1..=2),
        fork_adds in prop::collection::vec(prop::collection::vec(1i64..=3, 1..=2), 1..=2),
    ) {
        let (src, total) = locked_program(&main_adds, &fork_adds);
        let out = run(&src, total);
        prop_assert_eq!(out.race_runs, 0, "lock-protected accesses raced:\n{}", src);
        prop_assert_eq!(out.deadlock_runs, 0);
        prop_assert_eq!(out.cycle_runs, 0);
        prop_assert!(
            out.clean(),
            "lock-protected program swept dirty: {:?}\n{src}",
            out.findings()
        );
        prop_assert_eq!(out.distinct_values.len(), 1, "finals varied: {:?}", &out.distinct_values);
    }
}
