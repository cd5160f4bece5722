//! The schedule-sweep adequacy harness.
//!
//! Iris adequacy says a proved Hoare triple implies the program is safe
//! and meets its postcondition under *every* interleaving. This module
//! is the executable counterpart at scale: it runs a client program
//! under N seeded [`RandomSched`] interleavings plus a bounded
//! preemption-bounded DFS enumeration (CHESS-style), runs every thread
//! to quiescence, checks an executable postcondition on each
//! terminating run, and threads the [`crate::monitor`] detectors
//! through every step.
//!
//! Determinism: given a [`SweepConfig`], the outcome is a pure function
//! of the program — seeds are fixed, the DFS explores in a fixed order,
//! and all reports are deterministic — which is what makes the bench
//! layer's JSON report byte-reproducible.

use crate::expr::Expr;
use crate::heap::Heap;
use crate::interp::{Machine, RunError};
use crate::monitor::{
    detect_races, CycleReport, Event, LockMonitor, RaceReport, StuckReport, SyncModel,
};
use crate::scheduler::{RandomSched, Scheduler};
use crate::value::Val;
use std::collections::BTreeSet;
use std::fmt;

/// Configuration of one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of seeded random interleavings.
    pub seeds: u64,
    /// First seed; run `i` uses `seed_base + i`.
    pub seed_base: u64,
    /// Per-run step budget. A run that exhausts it counts as
    /// nonterminating.
    pub fuel: u64,
    /// Maximum scheduler divergences from the fair default policy along
    /// any single DFS schedule.
    pub preemption_bound: u32,
    /// Maximum number of DFS runs.
    pub dfs_max_runs: u64,
    /// Total step budget across all DFS runs.
    pub dfs_max_steps: u64,
    /// Atomicity model for the race detector.
    pub sync_model: SyncModel,
    /// Whether lock-order cycles are reported as findings. The cycle
    /// heuristic assumes per-thread two-phase lock ownership; protocols
    /// that transfer a lock's ownership logically between threads (a
    /// group-held lock whose first acquirer locks on everyone's behalf,
    /// as in the Courtois reader-writer duolock) are its textbook false
    /// positive and may turn it off. The *manifest*-deadlock detector —
    /// which only fires on actually-blocked states and is therefore
    /// sound — stays on regardless.
    pub lock_order: bool,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            seeds: 1000,
            seed_base: 0,
            fuel: 200_000,
            preemption_bound: 2,
            dfs_max_runs: 256,
            dfs_max_steps: 1_000_000,
            sync_model: SyncModel::InferAtomics,
            lock_order: true,
        }
    }
}

/// Identifies one schedule of a sweep in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleId {
    /// The seeded random run with this seed.
    Seed(u64),
    /// The n-th schedule of the DFS enumeration (0 = the all-default
    /// fair schedule).
    Dfs(u64),
}

impl fmt::Display for ScheduleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleId::Seed(s) => write!(f, "seed {s}"),
            ScheduleId::Dfs(n) => write!(f, "dfs run {n}"),
        }
    }
}

/// A postcondition violation: a terminating run whose final value/heap
/// failed the executable predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which schedule produced it.
    pub schedule: ScheduleId,
    /// The main thread's final value, rendered.
    pub value: String,
    /// The final heap, rendered (truncated past 16 cells).
    pub heap: String,
}

/// Aggregated result of sweeping one program.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Total runs executed (random + DFS).
    pub runs: u64,
    /// Seeded random runs executed.
    pub random_runs: u64,
    /// DFS runs executed.
    pub dfs_runs: u64,
    /// Whether the DFS hit a budget cap with schedules left unexplored.
    pub dfs_truncated: bool,
    /// Runs in which every thread reached a value.
    pub terminated: u64,
    /// Runs that exhausted their fuel.
    pub nonterminating: u64,
    /// Runs in which a thread got stuck (undefined behaviour).
    pub stuck_errors: u64,
    /// Terminating runs that failed the postcondition.
    pub post_violations: u64,
    /// Runs ended early by the manifest-deadlock detector.
    pub deadlock_runs: u64,
    /// Runs whose event log contained a data race.
    pub race_runs: u64,
    /// Runs whose lock-order graph contained a cycle.
    pub cycle_runs: u64,
    /// Total machine steps across all runs.
    pub total_steps: u64,
    /// Maximum thread count observed in any run.
    pub max_threads: usize,
    /// Rendered final values observed on terminating runs (at most
    /// [`DISTINCT_VALUE_CAP`]; see `distinct_values_truncated`).
    pub distinct_values: BTreeSet<String>,
    /// Whether more distinct values were seen than recorded.
    pub distinct_values_truncated: bool,
    /// First postcondition violation, if any.
    pub first_violation: Option<Violation>,
    /// First data race, if any.
    pub first_race: Option<(ScheduleId, RaceReport)>,
    /// First manifest deadlock, if any.
    pub first_deadlock: Option<(ScheduleId, StuckReport)>,
    /// First lock-order cycle, if any.
    pub first_cycle: Option<(ScheduleId, CycleReport)>,
    /// First stuck (undefined-behaviour) error, if any.
    pub first_stuck_error: Option<(ScheduleId, String)>,
}

/// Cap on recorded distinct final values.
pub const DISTINCT_VALUE_CAP: usize = 8;

/// Stable category names a sweep can flag; used by the negative-example
/// verdicts and the JSON report.
pub const FLAG_NAMES: [&str; 6] = [
    "post_violation",
    "race",
    "deadlock",
    "lock_cycle",
    "nonterminating",
    "stuck",
];

impl SweepOutcome {
    /// Whether the sweep is fully clean: every run terminated and no
    /// detector fired — the adequacy gate for proved examples.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.terminated == self.runs
            && self.post_violations == 0
            && self.race_runs == 0
            && self.deadlock_runs == 0
            && self.cycle_runs == 0
            && self.stuck_errors == 0
            && self.nonterminating == 0
    }

    /// The categories this sweep flagged, as stable names (a subset of
    /// [`FLAG_NAMES`]).
    #[must_use]
    pub fn flags(&self) -> BTreeSet<&'static str> {
        let mut out = BTreeSet::new();
        if self.post_violations > 0 {
            out.insert("post_violation");
        }
        if self.race_runs > 0 {
            out.insert("race");
        }
        if self.deadlock_runs > 0 {
            out.insert("deadlock");
        }
        if self.cycle_runs > 0 {
            out.insert("lock_cycle");
        }
        if self.nonterminating > 0 {
            out.insert("nonterminating");
        }
        if self.stuck_errors > 0 {
            out.insert("stuck");
        }
        out
    }

    /// Actionable rendered findings: the first witness of each flagged
    /// category (cycle edge list, racing access pair, stuck thread set,
    /// violating value/heap).
    #[must_use]
    pub fn findings(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(v) = &self.first_violation {
            out.push(format!(
                "postcondition violation ({}): value {}, heap {}",
                v.schedule, v.value, v.heap
            ));
        }
        if let Some((id, r)) = &self.first_race {
            out.push(format!("{r} ({id})"));
        }
        if let Some((id, d)) = &self.first_deadlock {
            out.push(format!("{d} ({id})"));
        }
        if let Some((id, c)) = &self.first_cycle {
            out.push(format!("{c} ({id})"));
        }
        if let Some((id, e)) = &self.first_stuck_error {
            out.push(format!("stuck (undefined behaviour) ({id}): {e}"));
        }
        if self.nonterminating > 0 {
            out.push(format!(
                "{} run(s) exhausted fuel without terminating",
                self.nonterminating
            ));
        }
        out
    }
}

/// How one monitored run ended.
#[derive(Debug, Clone)]
enum RunEnd {
    /// Every thread reached a value.
    Done(Val),
    /// Fuel exhausted.
    Fuel,
    /// A thread got stuck (undefined behaviour).
    Stuck(String),
    /// The manifest-deadlock detector fired.
    Deadlock(StuckReport),
}

/// Everything observed in one run.
struct RunRecord {
    end: RunEnd,
    steps: u64,
    threads: usize,
    heap: Heap,
    race: Option<RaceReport>,
    cycle: Option<CycleReport>,
    /// New DFS branch candidates discovered during this run.
    candidates: Vec<Branch>,
}

/// A pending DFS schedule: replay `script` (slot per step), then follow
/// the fair default policy.
#[derive(Debug, Clone)]
struct Branch {
    script: Vec<u32>,
    preemptions: u32,
}

/// Per-run cap on newly discovered branch candidates.
const DFS_BRANCH_CAP_PER_RUN: usize = 64;
/// Cap on the pending DFS queue.
const DFS_QUEUE_CAP: usize = 8192;

/// The per-step thread choice driver of one run.
enum Picker<'a> {
    /// Seeded random scheduling.
    Random(RandomSched),
    /// Replay a slot script, then fall back to fair round-robin.
    Replay {
        script: &'a [u32],
        pos: usize,
        rr: usize,
    },
}

impl Picker<'_> {
    /// Picks the slot (index into `runnable`) for the next step.
    fn pick_slot(&mut self, runnable: &[usize]) -> usize {
        match self {
            Picker::Random(sched) => {
                let t = sched.pick(runnable);
                runnable
                    .iter()
                    .position(|&x| x == t)
                    .expect("picked thread is runnable")
            }
            Picker::Replay { script, pos, rr } => {
                if *pos < script.len() {
                    let slot = script[*pos] as usize % runnable.len();
                    *pos += 1;
                    slot
                } else {
                    let slot = *rr % runnable.len();
                    *rr += 1;
                    slot
                }
            }
        }
    }
}

/// Executes one monitored run to quiescence (all threads values), or
/// until fuel, undefined behaviour, or a manifest deadlock ends it.
fn run_one(
    prog: &Expr,
    picker: &mut Picker<'_>,
    cfg: &SweepConfig,
    collect_branches: Option<u32>,
) -> RunRecord {
    let mut machine = Machine::new(prog.clone());
    let mut monitor = LockMonitor::new();
    let mut events: Vec<Event> = Vec::new();
    let mut choices: Vec<u32> = Vec::new();
    let mut candidates: Vec<Branch> = Vec::new();
    let replay_prefix_len = match picker {
        Picker::Replay { script, .. } => script.len(),
        Picker::Random(_) => 0,
    };
    let mut end = RunEnd::Fuel;
    for _ in 0..cfg.fuel {
        let runnable = machine.runnable();
        if runnable.is_empty() {
            end = RunEnd::Done(machine.main_value().expect("all threads finished").clone());
            break;
        }
        let slot = picker.pick_slot(&runnable);
        let thread = runnable[slot];
        match machine.step_thread_traced(thread) {
            Ok(info) => {
                if let Some(eff) = info.effect {
                    events.push(Event::from_effect(thread, &eff));
                    monitor.observe(thread, &eff, machine.steps_taken());
                }
                if let Some(child) = info.forked {
                    events.push(Event::Fork {
                        parent: thread,
                        child,
                    });
                }
                if let Some(preemptions) = collect_branches {
                    // Branch only at visible (heap-effecting) steps past
                    // the replayed prefix: preempting at a pure step is
                    // equivalent to preempting at the thread's next
                    // visible operation.
                    if choices.len() >= replay_prefix_len
                        && info.effect.is_some()
                        && runnable.len() > 1
                        && preemptions < cfg.preemption_bound
                        && candidates.len() < DFS_BRANCH_CAP_PER_RUN
                    {
                        for alt in 0..runnable.len() {
                            if alt != slot && candidates.len() < DFS_BRANCH_CAP_PER_RUN {
                                let mut script = choices.clone();
                                script.push(alt as u32);
                                candidates.push(Branch {
                                    script,
                                    preemptions: preemptions + 1,
                                });
                            }
                        }
                    }
                }
                choices.push(slot as u32);
            }
            Err(RunError::Stuck { thread, error }) => {
                end = RunEnd::Stuck(format!("thread {thread} {error}"));
                break;
            }
            Err(other) => {
                end = RunEnd::Stuck(other.to_string());
                break;
            }
        }
        if let Some(report) = monitor.check_stuck(&machine.runnable(), machine.heap()) {
            end = RunEnd::Deadlock(report);
            break;
        }
    }
    RunRecord {
        end,
        steps: machine.steps_taken(),
        threads: machine.thread_count(),
        race: detect_races(&events, cfg.sync_model),
        cycle: if cfg.lock_order {
            monitor.find_cycle()
        } else {
            None
        },
        heap: machine.heap().clone(),
        candidates,
    }
}

/// Renders a heap for violation reports (truncated past 16 cells).
fn render_heap(heap: &Heap) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (l, v) in heap.iter().take(16) {
        parts.push(format!("{l} ↦ {v}"));
    }
    let extra = heap.len().saturating_sub(16);
    if extra > 0 {
        parts.push(format!("… (+{extra} more)"));
    }
    format!("{{{}}}", parts.join(", "))
}

/// Folds one run record into the outcome.
fn absorb(
    out: &mut SweepOutcome,
    id: ScheduleId,
    rec: RunRecord,
    post: &dyn Fn(&Val, &Heap) -> bool,
) {
    out.runs += 1;
    out.total_steps += rec.steps;
    out.max_threads = out.max_threads.max(rec.threads);
    match rec.end {
        RunEnd::Done(v) => {
            out.terminated += 1;
            if out.distinct_values.len() < DISTINCT_VALUE_CAP {
                out.distinct_values.insert(v.to_string());
            } else if !out.distinct_values.contains(&v.to_string()) {
                out.distinct_values_truncated = true;
            }
            if !post(&v, &rec.heap) {
                out.post_violations += 1;
                if out.first_violation.is_none() {
                    out.first_violation = Some(Violation {
                        schedule: id,
                        value: v.to_string(),
                        heap: render_heap(&rec.heap),
                    });
                }
            }
        }
        RunEnd::Fuel => out.nonterminating += 1,
        RunEnd::Stuck(e) => {
            out.stuck_errors += 1;
            if out.first_stuck_error.is_none() {
                out.first_stuck_error = Some((id, e));
            }
        }
        RunEnd::Deadlock(report) => {
            out.deadlock_runs += 1;
            if out.first_deadlock.is_none() {
                out.first_deadlock = Some((id, report));
            }
        }
    }
    if let Some(race) = rec.race {
        out.race_runs += 1;
        if out.first_race.is_none() {
            out.first_race = Some((id, race));
        }
    }
    if let Some(cycle) = rec.cycle {
        out.cycle_runs += 1;
        if out.first_cycle.is_none() {
            out.first_cycle = Some((id, cycle));
        }
    }
}

/// Sweeps `prog`: `cfg.seeds` seeded random interleavings plus the
/// preemption-bounded DFS enumeration, checking `post` on every
/// terminating run and running all detectors throughout.
#[must_use]
pub fn sweep(prog: &Expr, post: &dyn Fn(&Val, &Heap) -> bool, cfg: &SweepConfig) -> SweepOutcome {
    let mut out = SweepOutcome::default();
    for i in 0..cfg.seeds {
        let seed = cfg.seed_base + i;
        let mut picker = Picker::Random(RandomSched::new(seed));
        let rec = run_one(prog, &mut picker, cfg, None);
        absorb(&mut out, ScheduleId::Seed(seed), rec, post);
        out.random_runs += 1;
    }

    // Preemption-bounded DFS (CHESS-style): start from the fair default
    // schedule and branch at visible operations, depth-first.
    let mut queue: Vec<Branch> = vec![Branch {
        script: Vec::new(),
        preemptions: 0,
    }];
    let mut dfs_steps: u64 = 0;
    while let Some(branch) = queue.pop() {
        if out.dfs_runs >= cfg.dfs_max_runs || dfs_steps >= cfg.dfs_max_steps {
            out.dfs_truncated = true;
            break;
        }
        let mut picker = Picker::Replay {
            script: &branch.script,
            pos: 0,
            rr: 0,
        };
        let mut rec = run_one(prog, &mut picker, cfg, Some(branch.preemptions));
        dfs_steps += rec.steps;
        let id = ScheduleId::Dfs(out.dfs_runs);
        out.dfs_runs += 1;
        let candidates = std::mem::take(&mut rec.candidates);
        if candidates.len() >= DFS_BRANCH_CAP_PER_RUN {
            out.dfs_truncated = true;
        }
        absorb(&mut out, id, rec, post);
        // Push in reverse so earlier-step, lower-slot branches pop first.
        for cand in candidates.into_iter().rev() {
            if queue.len() >= DFS_QUEUE_CAP {
                out.dfs_truncated = true;
                break;
            }
            queue.push(cand);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn small_cfg() -> SweepConfig {
        SweepConfig {
            seeds: 30,
            fuel: 20_000,
            dfs_max_runs: 64,
            dfs_max_steps: 200_000,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn faa_counter_sweeps_clean() {
        let prog = parse_expr(
            "let c := ref 0 in
             fork { FAA(c, 1) } ;;
             FAA(c, 1) ;;
             (rec wait u := if ! c = 2 then ! c else wait u) ()",
        )
        .unwrap();
        let out = sweep(&prog, &|v, _| *v == Val::int(2), &small_cfg());
        assert!(
            out.clean(),
            "expected clean sweep, got flags {:?}",
            out.flags()
        );
        assert_eq!(out.runs, out.random_runs + out.dfs_runs);
        assert!(out.dfs_runs >= 2, "DFS should explore both orders");
        assert_eq!(out.distinct_values.len(), 1);
    }

    #[test]
    fn racy_increment_is_flagged() {
        // Two unsynchronized read-modify-write increments: the detector
        // must flag the race, and the DFS must find the lost update.
        let prog = parse_expr(
            "let c := ref 0 in
             let d := ref 0 in
             fork { (let v := ! c in c <- v + 1) ;; FAA(d, 1) } ;;
             (let v := ! c in c <- v + 1) ;;
             (rec wait u := if ! d = 1 then ! c else wait u) ()",
        )
        .unwrap();
        let out = sweep(&prog, &|v, _| *v == Val::int(2), &small_cfg());
        let flags = out.flags();
        assert!(flags.contains("race"), "expected race flag, got {flags:?}");
        assert!(
            flags.contains("post_violation"),
            "expected lost update, got {flags:?} with values {:?}",
            out.distinct_values
        );
        let (_, race) = out.first_race.as_ref().expect("race report");
        assert_ne!(race.first.thread, race.second.thread);
    }

    #[test]
    fn double_acquire_is_a_manifest_deadlock_with_self_cycle() {
        let prog = parse_expr(
            "let l := ref false in
             (rec acq u := if CAS(l, false, true) then () else acq u) () ;;
             (rec acq u := if CAS(l, false, true) then () else acq u) () ;;
             0",
        )
        .unwrap();
        let cfg = SweepConfig {
            seeds: 5,
            fuel: 5_000,
            dfs_max_runs: 4,
            ..small_cfg()
        };
        let out = sweep(&prog, &|_, _| true, &cfg);
        let flags = out.flags();
        assert!(flags.contains("deadlock"), "got {flags:?}");
        assert!(flags.contains("lock_cycle"), "got {flags:?}");
        assert_eq!(out.terminated, 0);
        let (_, stuck) = out.first_deadlock.as_ref().expect("stuck report");
        assert_eq!(stuck.waiting.len(), 1);
        assert_eq!(stuck.waiting[0].owner, stuck.waiting[0].thread);
        let (_, cycle) = out.first_cycle.as_ref().expect("cycle report");
        assert_eq!(cycle.edges.len(), 1);
    }

    #[test]
    fn sweep_is_deterministic() {
        let prog = parse_expr(
            "let c := ref 0 in fork { FAA(c, 1) } ;; FAA(c, 1) ;;
             (rec wait u := if ! c = 2 then ! c else wait u) ()",
        )
        .unwrap();
        let a = sweep(&prog, &|_, _| true, &small_cfg());
        let b = sweep(&prog, &|_, _| true, &small_cfg());
        assert_eq!(a.total_steps, b.total_steps);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.distinct_values, b.distinct_values);
    }
}
