//! Adversarial tests of the independent trace checker: take *real* proof
//! traces produced by the engine on the benchmark examples, corrupt them
//! in targeted ways, and require the checker to reject every corruption.
//! This is the reproduction's analogue of testing that the Coq kernel
//! rejects ill-formed proof terms.

use diaframe::core::checker::check;
use diaframe::core::{ProofTrace, TraceStep};
use diaframe::examples::{spin_lock, Example};
use diaframe_term::PureProp;

/// All traces of the spin-lock example (newlock/acquire/release) — small
/// but exercising invariant allocation, opening/closing and pure
/// obligations.
fn real_traces() -> Vec<ProofTrace> {
    let outcome = spin_lock::SpinLock.verify().expect("spin lock verifies");
    outcome.proofs.into_iter().map(|p| p.trace).collect()
}

fn rebuild(steps: Vec<TraceStep>) -> ProofTrace {
    let mut t = ProofTrace::new();
    for s in steps {
        t.push(s);
    }
    t
}

#[test]
fn genuine_traces_replay() {
    for t in real_traces() {
        check(&t).expect("genuine trace must replay");
    }
}

#[test]
fn corrupted_pure_obligations_rejected() {
    // Replace each pure obligation's goal with its negation (one at a
    // time). A trace whose recorded obligation no longer re-proves must
    // be rejected.
    let mut corruptions = 0;
    for trace in real_traces() {
        for (i, step) in trace.steps().iter().enumerate() {
            let TraceStep::PureObligation { goal, .. } = step else {
                continue;
            };
            // Skip obligations whose negation is *also* provable-looking
            // (can't happen for a sound solver, but be explicit).
            let bad_goal = goal.negated();
            let mut steps = trace.steps().to_vec();
            if let TraceStep::PureObligation { goal, .. } = &mut steps[i] {
                *goal = bad_goal;
            }
            let corrupted = rebuild(steps);
            assert!(
                check(&corrupted).is_err(),
                "negated obligation at step {i} still replays"
            );
            corruptions += 1;
        }
    }
    assert!(corruptions > 0, "expected real traces to carry obligations");
}

#[test]
fn absurd_obligation_rejected() {
    // Splice an outright-false obligation into an otherwise-valid trace.
    for trace in real_traces() {
        let mut steps = trace.steps().to_vec();
        steps.insert(
            0,
            TraceStep::PureObligation {
                facts: Vec::new(),
                goal: PureProp::False,
                vars: diaframe_term::VarCtx::new(),
            },
        );
        assert!(check(&rebuild(steps)).is_err());
    }
}

#[test]
fn duplicated_invariant_openings_rejected() {
    // Duplicate each InvOpened step: the second opening of the same
    // namespace is reentrancy unless a close intervenes immediately, so
    // the checker must flag the direct duplicate.
    let mut corruptions = 0;
    for trace in real_traces() {
        for (i, step) in trace.steps().iter().enumerate() {
            let TraceStep::InvOpened { .. } = step else {
                continue;
            };
            let mut steps = trace.steps().to_vec();
            steps.insert(i, step.clone());
            assert!(
                check(&rebuild(steps)).is_err(),
                "duplicated invariant opening at step {i} accepted"
            );
            corruptions += 1;
        }
    }
    assert!(corruptions > 0, "expected real traces to open invariants");
}

#[test]
fn dropped_invariant_closes_rejected() {
    // Remove each InvClosed step. Either a later close of the same
    // namespace becomes unmatched, a later open becomes reentrant, or a
    // non-atomic step runs with the invariant open — in the traces used
    // here at least one of these must trip for at least one drop.
    let mut rejected = 0;
    let mut attempted = 0;
    for trace in real_traces() {
        for (i, step) in trace.steps().iter().enumerate() {
            let TraceStep::InvClosed { .. } = step else {
                continue;
            };
            let mut steps = trace.steps().to_vec();
            steps.remove(i);
            attempted += 1;
            if check(&rebuild(steps)).is_err() {
                rejected += 1;
            }
        }
    }
    assert!(attempted > 0, "expected real traces to close invariants");
    assert!(
        rejected > 0,
        "no dropped-close corruption was caught ({attempted} attempted)"
    );
}

#[test]
fn nonatomic_step_inside_open_invariant_rejected() {
    // Inject a non-atomic function call right after each invariant
    // opening: executing a non-atomic expression with an open invariant
    // violates the mask discipline and must be rejected.
    let mut corruptions = 0;
    for trace in real_traces() {
        for (i, step) in trace.steps().iter().enumerate() {
            let TraceStep::InvOpened { .. } = step else {
                continue;
            };
            let mut steps = trace.steps().to_vec();
            steps.insert(
                i + 1,
                TraceStep::SymEx {
                    spec: "injected-call".into(),
                    atomic: false,
                },
            );
            assert!(
                check(&rebuild(steps)).is_err(),
                "non-atomic call under an open invariant at step {i} accepted"
            );
            corruptions += 1;
        }
    }
    assert!(corruptions > 0, "expected real traces to open invariants");
}

#[test]
fn unbalanced_branch_structure_rejected() {
    // Drop each BranchEnd; the resulting tree is unbalanced.
    let mut attempted = 0;
    for trace in real_traces() {
        for (i, step) in trace.steps().iter().enumerate() {
            let TraceStep::BranchEnd { .. } = step else {
                continue;
            };
            let mut steps = trace.steps().to_vec();
            steps.remove(i);
            attempted += 1;
            assert!(
                check(&rebuild(steps)).is_err(),
                "dropped BranchEnd at step {i} accepted"
            );
        }
    }
    assert!(
        attempted > 0,
        "expected branching traces (acquire case-splits)"
    );
}
