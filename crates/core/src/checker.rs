//! The independent trace checker — the "foundational" layer.
//!
//! The search engine is heuristic and complicated; the checker is small
//! and dumb. It replays a [`ProofTrace`] and re-validates:
//!
//! * every **pure obligation**: the recorded facts must entail the
//!   recorded goal, re-proved from scratch by the pure solver (evar-free,
//!   since obligations are recorded zonked);
//! * the **mask discipline**: along every branch of the proof tree,
//!   invariants are opened at most once before being closed (no
//!   reentrancy), openings happen within an atomic step, every opened
//!   invariant is closed again before the next symbolic-execution step of
//!   a *non-atomic* expression, and — unless the branch was discharged
//!   vacuously by a [`TraceStep::Contradiction`] — every invariant opened
//!   inside a branch is closed before that branch (or the whole trace)
//!   ends;
//! * **branch structure**: case splits are well-nested and every branch
//!   terminates.
//!
//! This plays the role of the Coq kernel in the original artifact, at the
//! granularity of the paper's primitive rules (see DESIGN.md §1 for the
//! substitution argument).
//!
//! Both entry points — [`check`] on in-memory traces and [`check_json`]
//! on serialized ones — drive the *same* replay core ([`replay`] below),
//! so the fuzz harness's differential oracle (`crate::fuzz`) compares one
//! verdict path against the codec, never two drifting copies of the
//! rules. The "invariant left open at end of branch" rule exists because
//! that harness found the gap: a mutant that simply *dropped* an
//! `InvClosed` step survived the original checker (see
//! `crates/core/tests/fuzz_regressions.rs`).

use crate::trace::{ProofTrace, TraceStep};
use diaframe_logic::Namespace;
use diaframe_term::solver::egraph::EGraph;
use diaframe_term::{EVarId, PureProp, VarCtx, VarId};
use std::collections::BTreeSet;
use std::fmt;

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// Index of the offending step, or [`CheckError::DECODE_STEP`] when
    /// the trace never decoded.
    pub step: usize,
    /// What went wrong.
    pub message: String,
}

impl CheckError {
    /// The sentinel step index reported when a serialized trace fails to
    /// decode (there is no step to point at).
    pub const DECODE_STEP: usize = usize::MAX;

    /// Whether this error is a decode failure rather than a replay
    /// failure.
    #[must_use]
    pub fn is_decode(&self) -> bool {
        self.step == CheckError::DECODE_STEP
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_decode() {
            write!(f, "trace decode: {}", self.message)
        } else {
            write!(f, "trace step {}: {}", self.step, self.message)
        }
    }
}

impl std::error::Error for CheckError {}

/// A case split in progress within one frame: how many of its branches
/// are still outstanding, and which close-obligations were pending when
/// the split started (each branch must discharge them all, so once every
/// branch has ended cleanly they are discharged for the parent too —
/// the branches jointly *are* the rest of the proof).
struct Split {
    remaining: usize,
    at_split: BTreeSet<Namespace>,
}

/// The invariant-discipline state of one branch of the proof tree.
struct Frame {
    /// Namespaces currently open in this branch (including those
    /// inherited from the enclosing branch at the split).
    open: BTreeSet<Namespace>,
    /// Open namespaces this branch is still responsible for closing:
    /// everything it opened itself plus the obligations inherited from
    /// its parent at the split. Must be empty when the branch (or the
    /// trace) ends, unless the branch is vacuous.
    obligations: BTreeSet<Namespace>,
    /// Whether a [`TraceStep::Contradiction`] discharged this branch
    /// vacuously (`False ⊢ anything`, so leftover openings are moot).
    vacuous: bool,
    /// Case splits opened in this frame whose branches are still being
    /// replayed.
    splits: Vec<Split>,
    /// The incremental pure solver carried across this branch's pure
    /// obligations. Successive obligations along one branch share long
    /// fact prefixes (the search only appends to `Γ` between branch
    /// points), so instead of rebuilding `PureSolver::new(facts)` at
    /// every step, the shared prefix is kept and only the delta is
    /// pushed/rolled back. The independent `fuzz/spec.rs` oracle
    /// intentionally keeps its from-scratch rebuild.
    solver: Option<FrameSolver>,
}

/// The per-frame incremental solver with the inputs it was last aligned
/// to, for the reuse check.
struct FrameSolver {
    egraph: EGraph,
    facts: Vec<PureProp>,
    vars: VarCtx,
}

impl Frame {
    fn root() -> Frame {
        Frame {
            open: BTreeSet::new(),
            obligations: BTreeSet::new(),
            vacuous: false,
            splits: Vec::new(),
            solver: None,
        }
    }

    fn child(&self) -> Frame {
        Frame {
            // Each branch starts from the invariant state at the split
            // and takes over every pending close-obligation.
            open: self.open.clone(),
            obligations: self.obligations.clone(),
            vacuous: false,
            splits: Vec::new(),
            solver: None,
        }
    }
}

/// Whether `new` is an extension of `old` as a variable context: every
/// variable and evar of `old` still exists with the same sort and (for
/// evars) the same recorded solution. Obligations are checked in frozen
/// mode — no evar is ever instantiated — so sorts and solutions are the
/// only inputs the solver reads; levels and display names are irrelevant
/// to verdicts.
fn vars_extends(new: &VarCtx, old: &VarCtx) -> bool {
    new.num_vars() >= old.num_vars()
        && new.num_evars() >= old.num_evars()
        && (0..old.num_vars()).all(|i| {
            let v = VarId::from_index(i);
            new.var_sort(v) == old.var_sort(v)
        })
        && (0..old.num_evars()).all(|i| {
            let e = EVarId::from_index(i);
            new.evar_sort(e) == old.evar_sort(e) && new.evar_solution(e) == old.evar_solution(e)
        })
}

/// Aligns the frame's incremental solver with this obligation's recorded
/// `facts`/`vars`, reusing the shared fact prefix when the recorded
/// variable context extends the one the solver was built under, and
/// rebuilding from scratch otherwise (a mutated or reordered trace never
/// passes the reuse check — it is re-proved on a fresh solver, exactly
/// like the first obligation of a branch).
fn reuse_or_rebuild<'a>(
    slot: &'a mut Option<FrameSolver>,
    facts: &[PureProp],
    vars: &VarCtx,
) -> &'a mut FrameSolver {
    if let Some(fs) = slot {
        if fs.egraph.valid() && vars_extends(vars, &fs.vars) {
            let common = fs
                .facts
                .iter()
                .zip(facts.iter())
                .take_while(|(a, b)| a == b)
                .count();
            fs.egraph.truncate_facts(common);
            fs.facts.truncate(common);
            for f in &facts[common..] {
                fs.egraph.push_fact(f.clone());
                fs.facts.push(f.clone());
            }
            fs.vars = vars.clone();
            return slot.as_mut().expect("just matched Some");
        }
    }
    *slot = Some(FrameSolver {
        egraph: EGraph::from_facts(facts),
        facts: facts.to_vec(),
        vars: vars.clone(),
    });
    slot.as_mut().expect("just assigned Some")
}

/// The shared replay core as a state machine: feed steps one at a time,
/// then [`Replay::finish`] to validate the end-of-trace conditions.
/// Every checker entry point funnels through this type via [`replay`].
struct Replay {
    stack: Vec<Frame>,
    steps_seen: usize,
}

impl Replay {
    /// A replay at the start of a trace.
    fn new() -> Replay {
        Replay {
            stack: vec![Frame::root()],
            steps_seen: 0,
        }
    }

    /// Validates one more step of the trace.
    ///
    /// # Errors
    ///
    /// Returns the validation failure for this step; the replay should
    /// be discarded afterwards.
    fn feed(&mut self, step: &TraceStep) -> Result<(), CheckError> {
        let i = self.steps_seen;
        self.steps_seen += 1;
        let stack = &mut self.stack;
        let frame = stack.last_mut().expect("non-empty stack");
        match step {
            TraceStep::PureObligation { facts, goal, vars } => {
                // Re-prove independently. Remaining evars in recorded
                // obligations are treated as opaque constants by the
                // solver (frozen mode), which is sound.
                let fs = reuse_or_rebuild(&mut frame.solver, facts, vars);
                if !fs.egraph.prove_frozen(&mut vars.clone(), goal) {
                    return Err(CheckError {
                        step: i,
                        message: format!("pure obligation does not re-prove: {goal:?}"),
                    });
                }
            }
            TraceStep::InvOpened { ns } => {
                if !frame.open.insert(ns.clone()) {
                    return Err(CheckError {
                        step: i,
                        message: format!("invariant {ns} opened twice (reentrancy)"),
                    });
                }
                frame.obligations.insert(ns.clone());
            }
            TraceStep::InvClosed { ns } => {
                if !frame.open.remove(ns) {
                    return Err(CheckError {
                        step: i,
                        message: format!("invariant {ns} closed but not open"),
                    });
                }
                frame.obligations.remove(ns);
            }
            TraceStep::SymEx { spec, atomic } if !atomic && !frame.open.is_empty() => {
                return Err(CheckError {
                    step: i,
                    message: format!(
                        "non-atomic expression {spec} executed with open invariants"
                    ),
                });
            }
            TraceStep::Contradiction { .. } => {
                frame.vacuous = true;
            }
            TraceStep::CaseSplit { branches, .. } => {
                frame.splits.push(Split {
                    remaining: *branches,
                    at_split: frame.obligations.clone(),
                });
            }
            TraceStep::BranchStart { .. } => {
                let child = frame.child();
                stack.push(child);
            }
            TraceStep::BranchEnd { .. } => {
                if stack.len() <= 1 {
                    return Err(CheckError {
                        step: i,
                        message: "unbalanced branch end".into(),
                    });
                }
                let done = stack.pop().expect("checked above");
                if !done.vacuous {
                    if let Some(ns) = done.obligations.iter().next() {
                        return Err(CheckError {
                            step: i,
                            message: format!("invariant {ns} left open at end of branch"),
                        });
                    }
                }
                // When the split's final branch ends, its at-split
                // obligations were discharged along every future: the
                // parent is off the hook for them.
                let parent = stack.last_mut().expect("non-empty stack");
                if let Some(split) = parent.splits.last_mut() {
                    split.remaining = split.remaining.saturating_sub(1);
                    if split.remaining == 0 {
                        let split = parent.splits.pop().expect("just inspected");
                        for ns in &split.at_split {
                            parent.open.remove(ns);
                            parent.obligations.remove(ns);
                        }
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Validates the end-of-trace conditions: balanced branches and no
    /// invariant left open on the root frame.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckError`] at the one-past-the-end step index.
    fn finish(mut self) -> Result<(), CheckError> {
        if self.stack.len() != 1 {
            return Err(CheckError {
                step: self.steps_seen,
                message: "unbalanced branches at end of trace".into(),
            });
        }
        let root = self.stack.pop().expect("single frame");
        if !root.vacuous {
            if let Some(ns) = root.obligations.iter().next() {
                return Err(CheckError {
                    step: self.steps_seen,
                    message: format!("invariant {ns} left open at end of trace"),
                });
            }
        }
        Ok(())
    }
}

/// Batch replay of a finished trace: feed every step, then finish.
fn replay(steps: &[TraceStep]) -> Result<(), CheckError> {
    let mut r = Replay::new();
    for step in steps {
        r.feed(step)?;
    }
    r.finish()
}

/// Replays and validates a trace.
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered.
pub fn check(trace: &ProofTrace) -> Result<(), CheckError> {
    let _span = crate::telemetry::span("check");
    let _prof = crate::profile::span(crate::profile::SpanKind::Check);
    crate::telemetry::checker_steps(trace.len() as u64);
    crate::profile::bump(trace.len() as u64);
    // Replay gets its own interner scope (nested scopes restore the
    // outer arena on drop): one trace replays against one arena.
    let intern_scope = diaframe_term::intern::scope();
    let result = replay(trace.steps());
    crate::telemetry::intern_stats(diaframe_term::intern::stats());
    crate::telemetry::egraph_stats(diaframe_term::intern::egraph_stats());
    drop(intern_scope);
    result
}

/// Decodes a JSON-lines trace (see [`crate::trace_json`]) and replays
/// it. This is the exported-trace entry point: a trace serialized by a
/// telemetry sink or an external tool round-trips through one codec and
/// lands in the **same** replay core as in-memory traces — the only
/// behavior this function adds over [`check`] is the decode step.
///
/// # Errors
///
/// Returns a [`CheckError`] at step [`CheckError::DECODE_STEP`] when the
/// JSON is malformed, or the first replay failure otherwise.
pub fn check_json(json: &str) -> Result<(), CheckError> {
    let trace = crate::trace_json::trace_from_json(json).map_err(|e| CheckError {
        step: CheckError::DECODE_STEP,
        message: format!("trace does not decode: {e}"),
    })?;
    check(&trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaframe_term::{PureProp, Term, VarCtx};

    #[test]
    fn accepts_valid_obligations() {
        let mut t = ProofTrace::new();
        t.push(TraceStep::PureObligation {
            facts: vec![PureProp::lt(Term::int(0), Term::int(5))],
            goal: PureProp::le(Term::int(0), Term::int(5)),
            vars: VarCtx::new(),
        });
        assert!(check(&t).is_ok());
    }

    #[test]
    fn rejects_bogus_obligations() {
        let mut t = ProofTrace::new();
        t.push(TraceStep::PureObligation {
            facts: Vec::new(),
            goal: PureProp::lt(Term::int(5), Term::int(0)),
            vars: VarCtx::new(),
        });
        let err = check(&t).unwrap_err();
        assert!(err.message.contains("does not re-prove"));
    }

    #[test]
    fn rejects_reentrant_invariant_opening() {
        let mut t = ProofTrace::new();
        let ns = Namespace::new("N");
        t.push(TraceStep::InvOpened { ns: ns.clone() });
        t.push(TraceStep::InvOpened { ns });
        let err = check(&t).unwrap_err();
        assert!(err.message.contains("reentrancy"));
    }

    #[test]
    fn rejects_close_without_open() {
        let mut t = ProofTrace::new();
        t.push(TraceStep::InvClosed {
            ns: Namespace::new("N"),
        });
        assert!(check(&t).is_err());
    }

    #[test]
    fn rejects_nonatomic_with_open_invariant() {
        let mut t = ProofTrace::new();
        t.push(TraceStep::InvOpened {
            ns: Namespace::new("N"),
        });
        t.push(TraceStep::SymEx {
            spec: "call".into(),
            atomic: false,
        });
        let err = check(&t).unwrap_err();
        assert!(err.message.contains("open invariants"));
    }

    #[test]
    fn branch_isolation() {
        let mut t = ProofTrace::new();
        let ns = Namespace::new("N");
        t.push(TraceStep::CaseSplit {
            on: "x".into(),
            branches: 2,
        });
        t.push(TraceStep::BranchStart { index: 0 });
        t.push(TraceStep::InvOpened { ns: ns.clone() });
        t.push(TraceStep::InvClosed { ns: ns.clone() });
        t.push(TraceStep::BranchEnd { index: 0 });
        t.push(TraceStep::BranchStart { index: 1 });
        t.push(TraceStep::InvOpened { ns: ns.clone() });
        t.push(TraceStep::InvClosed { ns });
        t.push(TraceStep::BranchEnd { index: 1 });
        assert!(check(&t).is_ok());
    }

    #[test]
    fn unbalanced_branches_rejected() {
        let mut t = ProofTrace::new();
        t.push(TraceStep::BranchStart { index: 0 });
        assert!(check(&t).is_err());
    }

    #[test]
    fn rejects_invariant_left_open_at_end_of_trace() {
        let mut t = ProofTrace::new();
        t.push(TraceStep::InvOpened {
            ns: Namespace::new("N"),
        });
        let err = check(&t).unwrap_err();
        assert!(err.message.contains("left open at end of trace"));
    }

    #[test]
    fn rejects_invariant_left_open_at_end_of_branch() {
        let mut t = ProofTrace::new();
        t.push(TraceStep::CaseSplit {
            on: "x".into(),
            branches: 2,
        });
        t.push(TraceStep::BranchStart { index: 0 });
        t.push(TraceStep::InvOpened {
            ns: Namespace::new("N"),
        });
        t.push(TraceStep::BranchEnd { index: 0 });
        let err = check(&t).unwrap_err();
        assert!(err.message.contains("left open at end of branch"));
    }

    #[test]
    fn vacuous_branch_may_leave_invariants_open() {
        // A branch discharged by contradiction proves anything, including
        // the mask restoration — the engine stops mid-window there.
        let mut t = ProofTrace::new();
        let ns = Namespace::new("N");
        t.push(TraceStep::CaseSplit {
            on: "x".into(),
            branches: 2,
        });
        t.push(TraceStep::BranchStart { index: 0 });
        t.push(TraceStep::InvOpened { ns: ns.clone() });
        t.push(TraceStep::Contradiction {
            rule: "pure-inconsistency".into(),
        });
        t.push(TraceStep::BranchEnd { index: 0 });
        t.push(TraceStep::BranchStart { index: 1 });
        t.push(TraceStep::InvOpened { ns: ns.clone() });
        t.push(TraceStep::InvClosed { ns: ns.clone() });
        t.push(TraceStep::BranchEnd { index: 1 });
        assert!(check(&t).is_ok());
        // …but the vacuity of one branch does not excuse a sibling that
        // neither closes the inherited invariant nor is vacuous itself.
        let mut t2 = ProofTrace::new();
        t2.push(TraceStep::InvOpened { ns });
        t2.push(TraceStep::CaseSplit {
            on: "y".into(),
            branches: 2,
        });
        t2.push(TraceStep::BranchStart { index: 0 });
        t2.push(TraceStep::Contradiction {
            rule: "pure-inconsistency".into(),
        });
        t2.push(TraceStep::BranchEnd { index: 0 });
        t2.push(TraceStep::BranchStart { index: 1 });
        t2.push(TraceStep::BranchEnd { index: 1 });
        let err = check(&t2).unwrap_err();
        assert!(err.message.contains("left open at end of branch"));
    }

    #[test]
    fn branches_jointly_discharge_an_inherited_open_invariant() {
        // The engine threads the rest of the proof *into* each branch,
        // so an invariant opened before a case split is closed inside
        // every branch; once all branches end cleanly the parent is off
        // the hook for it.
        let mut t = ProofTrace::new();
        let ns = Namespace::new("N");
        t.push(TraceStep::InvOpened { ns: ns.clone() });
        t.push(TraceStep::CaseSplit {
            on: "x".into(),
            branches: 2,
        });
        t.push(TraceStep::BranchStart { index: 0 });
        t.push(TraceStep::InvClosed { ns: ns.clone() });
        t.push(TraceStep::BranchEnd { index: 0 });
        t.push(TraceStep::BranchStart { index: 1 });
        t.push(TraceStep::InvClosed { ns: ns.clone() });
        t.push(TraceStep::BranchEnd { index: 1 });
        assert!(check(&t).is_ok());

        // A branch that keeps the inherited invariant open is caught at
        // its own end — this is exactly the dropped-`InvClosed` mutant
        // that survived the original checker.
        let mut bad = ProofTrace::new();
        bad.push(TraceStep::InvOpened { ns: ns.clone() });
        bad.push(TraceStep::CaseSplit {
            on: "x".into(),
            branches: 2,
        });
        bad.push(TraceStep::BranchStart { index: 0 });
        bad.push(TraceStep::BranchEnd { index: 0 });
        bad.push(TraceStep::BranchStart { index: 1 });
        bad.push(TraceStep::InvClosed { ns });
        bad.push(TraceStep::BranchEnd { index: 1 });
        let err = check(&bad).unwrap_err();
        assert!(err.message.contains("left open at end of branch"));
    }

    #[test]
    fn decode_failures_use_the_sentinel_step() {
        let err = check_json("not json").unwrap_err();
        assert!(err.is_decode());
        assert_eq!(err.step, CheckError::DECODE_STEP);
        assert!(err.message.contains("does not decode"));
    }
}
