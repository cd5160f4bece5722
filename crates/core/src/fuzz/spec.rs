//! An executable specification of the checker contract.
//!
//! This is a *second*, structurally different implementation of the
//! replay rules in [`crate::checker`]: recursive descent over the branch
//! tree instead of an explicit frame stack. The fuzz harness uses it two
//! ways:
//!
//! * as the **certifier** for the trace mutator — a mutant is only
//!   emitted when this spec rejects it, so "the checker must kill every
//!   mutant" is a meaningful assertion (the mutant is known-invalid by an
//!   independent judgment, not by asking the checker itself);
//! * as a **differential leg** on valid traces — an engine-produced or
//!   generated trace the checker accepts must be accepted here too, and
//!   disagreement in either direction is a reported divergence.
//!
//! The pure-obligation rule makes the same call as the checker: a fresh
//! reference [`PureSolver`] in frozen mode (there is no simpler decision
//! procedure to diff against), so this leg diffs the replay rules, not
//! the solver. The search's incremental e-graph is diffed against the
//! reference solver on every example obligation by the root
//! `all_examples` test. The structural rules — reentrancy,
//! close-without-open, atomicity, branch balance, obligation inheritance
//! and joint discharge — are implemented from the contract in the
//! checker's module docs, not from its code.

use crate::trace::TraceStep;
use diaframe_logic::Namespace;
use diaframe_term::solver::PureSolver;
use std::collections::BTreeSet;

/// Validates a step sequence against the checker contract.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn spec_check(steps: &[TraceStep]) -> Result<(), String> {
    let mut pos = 0usize;
    walk(steps, &mut pos, &BTreeSet::new(), &BTreeSet::new(), true)?;
    debug_assert_eq!(pos, steps.len(), "root walk must consume the trace");
    Ok(())
}

/// Replays one branch body starting at `*pos*`, with the open set and
/// close-obligations inherited from the enclosing branch. Consumes up to
/// and including the branch's `BranchEnd` (or the end of the trace for
/// the root). Returns whether the branch was vacuous.
fn walk(
    steps: &[TraceStep],
    pos: &mut usize,
    inherited_open: &BTreeSet<Namespace>,
    inherited_obligations: &BTreeSet<Namespace>,
    root: bool,
) -> Result<bool, String> {
    let mut open = inherited_open.clone();
    let mut obligations = inherited_obligations.clone();
    let mut vacuous = false;
    // Case splits awaiting branches: (branches outstanding, obligations
    // at the split). When the last branch of a split has been replayed,
    // the at-split obligations are discharged for this level too — the
    // branches jointly covered every future of the proof.
    let mut splits: Vec<(usize, BTreeSet<Namespace>)> = Vec::new();

    while *pos < steps.len() {
        let step = &steps[*pos];
        *pos += 1;
        match step {
            TraceStep::PureObligation { facts, goal, vars } => {
                let solver = PureSolver::new(facts);
                let mut vars = vars.clone();
                if !solver.prove_frozen(&mut vars, goal) {
                    return Err(format!("obligation does not re-prove: {goal:?}"));
                }
            }
            TraceStep::InvOpened { ns } => {
                if !open.insert(ns.clone()) {
                    return Err(format!("invariant {ns} reentrant"));
                }
                obligations.insert(ns.clone());
            }
            TraceStep::InvClosed { ns } => {
                if !open.remove(ns) {
                    return Err(format!("invariant {ns} closed while not open"));
                }
                obligations.remove(ns);
            }
            TraceStep::SymEx { spec, atomic } if !atomic && !open.is_empty() => {
                return Err(format!("non-atomic {spec} under an open invariant"));
            }
            TraceStep::Contradiction { .. } => vacuous = true,
            TraceStep::CaseSplit { branches, .. } => {
                splits.push((*branches, obligations.clone()));
            }
            TraceStep::BranchStart { .. } => {
                walk(steps, pos, &open, &obligations, false)?;
                if let Some(last) = splits.last_mut() {
                    last.0 = last.0.saturating_sub(1);
                    if last.0 == 0 {
                        let (_, at_split) = splits.pop().expect("just inspected");
                        for ns in &at_split {
                            open.remove(ns);
                            obligations.remove(ns);
                        }
                    }
                }
            }
            TraceStep::BranchEnd { .. } => {
                if root {
                    return Err("branch end without branch start".into());
                }
                if !vacuous {
                    if let Some(ns) = obligations.iter().next() {
                        return Err(format!("invariant {ns} open at branch end"));
                    }
                }
                return Ok(vacuous);
            }
            _ => {}
        }
    }
    if !root {
        return Err("branch never ends".into());
    }
    if !vacuous {
        if let Some(ns) = obligations.iter().next() {
            return Err(format!("invariant {ns} open at trace end"));
        }
    }
    Ok(vacuous)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker;
    use crate::trace::ProofTrace;
    use diaframe_term::{PureProp, Term, VarCtx};

    fn trace(steps: Vec<TraceStep>) -> ProofTrace {
        let mut t = ProofTrace::new();
        for s in steps {
            t.push(s);
        }
        t
    }

    /// The spec and the checker must agree on a battery of hand-picked
    /// edge traces covering every structural rule.
    #[test]
    fn agrees_with_checker_on_edge_traces() {
        let ns = Namespace::new("N");
        let cases: Vec<Vec<TraceStep>> = vec![
            vec![],
            vec![TraceStep::InvOpened { ns: ns.clone() }],
            vec![
                TraceStep::InvOpened { ns: ns.clone() },
                TraceStep::InvClosed { ns: ns.clone() },
            ],
            vec![TraceStep::InvClosed { ns: ns.clone() }],
            vec![
                TraceStep::InvOpened { ns: ns.clone() },
                TraceStep::InvOpened { ns: ns.clone() },
            ],
            vec![
                TraceStep::InvOpened { ns: ns.clone() },
                TraceStep::SymEx {
                    spec: "f".into(),
                    atomic: false,
                },
            ],
            vec![
                TraceStep::InvOpened { ns: ns.clone() },
                TraceStep::Contradiction { rule: "r".into() },
            ],
            vec![TraceStep::BranchEnd { index: 0 }],
            vec![TraceStep::BranchStart { index: 0 }],
            vec![
                TraceStep::CaseSplit {
                    on: "x".into(),
                    branches: 2,
                },
                TraceStep::BranchStart { index: 0 },
                TraceStep::BranchEnd { index: 0 },
                TraceStep::BranchStart { index: 1 },
                TraceStep::BranchEnd { index: 1 },
            ],
            // Joint discharge of an inherited window.
            vec![
                TraceStep::InvOpened { ns: ns.clone() },
                TraceStep::CaseSplit {
                    on: "x".into(),
                    branches: 2,
                },
                TraceStep::BranchStart { index: 0 },
                TraceStep::InvClosed { ns: ns.clone() },
                TraceStep::BranchEnd { index: 0 },
                TraceStep::BranchStart { index: 1 },
                TraceStep::InvClosed { ns: ns.clone() },
                TraceStep::BranchEnd { index: 1 },
            ],
            // One branch forgets the inherited window.
            vec![
                TraceStep::InvOpened { ns: ns.clone() },
                TraceStep::CaseSplit {
                    on: "x".into(),
                    branches: 2,
                },
                TraceStep::BranchStart { index: 0 },
                TraceStep::BranchEnd { index: 0 },
                TraceStep::BranchStart { index: 1 },
                TraceStep::InvClosed { ns: ns.clone() },
                TraceStep::BranchEnd { index: 1 },
            ],
            vec![TraceStep::PureObligation {
                facts: vec![PureProp::lt(Term::int(0), Term::int(5))],
                goal: PureProp::le(Term::int(0), Term::int(5)),
                vars: VarCtx::new(),
            }],
            vec![TraceStep::PureObligation {
                facts: Vec::new(),
                goal: PureProp::lt(Term::int(5), Term::int(0)),
                vars: VarCtx::new(),
            }],
        ];
        for (i, steps) in cases.into_iter().enumerate() {
            let by_checker = checker::check(&trace(steps.clone())).is_ok();
            let by_spec = spec_check(&steps).is_ok();
            assert_eq!(
                by_checker, by_spec,
                "spec and checker disagree on edge case {i}: {steps:?}"
            );
        }
    }
}
