//! Cross-crate integration tests: every Figure 6 example verifies, every
//! proof trace replays through the independent checker, every sabotaged
//! variant fails, and every adequacy client runs safely under random
//! schedules with the expected result.

use diaframe::core::{checker, CounterSnapshot, TelemetrySession, TraceStep};
use diaframe::examples::{all_examples, Example};
use diaframe::term::solver::egraph::EGraph;
use diaframe::term::solver::PureSolver;
use diaframe::term::{EVarId, PureProp, VarCtx, VarId};

#[test]
fn every_example_verifies_and_replays() {
    for ex in all_examples() {
        let outcome = ex
            .verify()
            .unwrap_or_else(|e| panic!("{} failed to verify:\n{e}", ex.name()));
        assert!(!outcome.proofs.is_empty(), "{} proved nothing", ex.name());
        outcome
            .check_all()
            .unwrap_or_else(|e| panic!("{}: trace replay failed: {e}", ex.name()));
    }
}

#[test]
fn paper_shape_seven_examples_fully_automatic() {
    // §6: "Diaframe can verify 7 of the examples without any help from
    // the user." Require at least 7 fully automatic ones here, and that
    // the paper's highlighted fully-automatic examples are among them.
    let mut automatic = Vec::new();
    for ex in all_examples() {
        let outcome = ex.verify().expect("verifies");
        if outcome.manual_steps == 0 {
            automatic.push(ex.name());
        }
    }
    assert!(
        automatic.len() >= 7,
        "only {} fully automatic examples: {automatic:?}",
        automatic.len()
    );
    for name in ["spin_lock", "cas_counter", "fork_join", "inc_dec"] {
        assert!(automatic.contains(&name), "{name} should be automatic");
    }
}

#[test]
fn paper_shape_arc_needs_exactly_one_manual_step() {
    // §2.2: drop needs exactly the `destruct (decide (z = 1))` case split.
    let arc = diaframe::examples::arc::Arc;
    let outcome = arc.verify().expect("arc verifies");
    assert_eq!(outcome.manual_steps, 1);
}

#[test]
fn sabotaged_variants_fail() {
    for ex in all_examples() {
        if let Some(result) = ex.verify_broken() {
            assert!(
                result.is_err(),
                "{}: sabotaged variant unexpectedly verified",
                ex.name()
            );
        }
    }
}

#[test]
fn ablations_are_load_bearing() {
    // Each search-order design decision documented in DESIGN.md §5 is
    // necessary: disabling any one of them breaks at least one example
    // that the baseline engine verifies.
    use diaframe::core::{with_ablation_override, Ablation};
    let ablations = [
        Ablation {
            oldest_first: true,
            ..Ablation::none()
        },
        Ablation {
            single_pass: true,
            ..Ablation::none()
        },
        Ablation {
            no_alloc_preference: true,
            ..Ablation::none()
        },
    ];
    for ab in ablations {
        let broke = all_examples().iter().any(|ex| {
            with_ablation_override(ab, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ex.verify()))
            })
            .map_or(true, |r| r.is_err())
        });
        assert!(broke, "{ab:?} should break at least one example");
    }
}

#[test]
fn adequacy_all_examples() {
    // Executable adequacy: run each example's client under random
    // schedules; safety (no stuck thread) and the expected result must
    // hold — the runtime counterpart of the proved specifications.
    for ex in all_examples() {
        if let Some((prog, expected)) = ex.adequacy_program() {
            for v in diaframe::heaplang::interp::run_schedules(&prog, 5, 3_000_000) {
                assert_eq!(v, expected, "{}: wrong client result", ex.name());
            }
        }
    }
}

/// Whether `new` extends `old`: every variable and evar of `old` is still
/// there with the same sort, and every evar with the same solution — the
/// only parts of a context a frozen entailment query reads.
fn extends(new: &VarCtx, old: &VarCtx) -> bool {
    new.num_vars() >= old.num_vars()
        && new.num_evars() >= old.num_evars()
        && (0..old.num_vars())
            .map(VarId::from_index)
            .all(|v| new.var_sort(v) == old.var_sort(v))
        && (0..old.num_evars()).map(EVarId::from_index).all(|e| {
            new.evar_sort(e) == old.evar_sort(e) && new.evar_solution(e) == old.evar_solution(e)
        })
}

/// One branch frame's incremental solver, with the facts and context it
/// was last aligned to.
struct FrameSolver {
    egraph: EGraph,
    facts: Vec<PureProp>,
    vars: VarCtx,
}

#[test]
fn egraph_agrees_with_reference_solver_on_every_obligation() {
    // The checker re-proves obligations on the plain `PureSolver`; the
    // search answers the same queries on the incremental `EGraph`. Feed
    // every obligation of every example trace through both, reusing one
    // e-graph per branch frame across the shared fact prefix
    // (`truncate_facts` + `push_fact`) the way the search backtracks, so
    // a rollback bug in the e-graph shows up as a disagreement.
    let (mut obligations, mut reused) = (0usize, 0usize);
    for ex in all_examples() {
        let outcome = ex
            .verify()
            .unwrap_or_else(|e| panic!("{} failed to verify:\n{e}", ex.name()));
        for proof in &outcome.proofs {
            let mut frames: Vec<Option<FrameSolver>> = vec![None];
            for (i, step) in proof.trace.steps().iter().enumerate() {
                match step {
                    TraceStep::BranchStart { .. } => frames.push(None),
                    TraceStep::BranchEnd { .. } => {
                        frames.pop();
                    }
                    TraceStep::PureObligation { facts, goal, vars } => {
                        let slot = frames.last_mut().expect("balanced branches");
                        match slot {
                            Some(fs) if extends(vars, &fs.vars) => {
                                let common = fs
                                    .facts
                                    .iter()
                                    .zip(facts)
                                    .take_while(|(a, b)| a == b)
                                    .count();
                                fs.egraph.truncate_facts(common);
                                fs.facts.truncate(common);
                                for f in &facts[common..] {
                                    fs.egraph.push_fact(f.clone());
                                    fs.facts.push(f.clone());
                                }
                                fs.vars = vars.clone();
                                reused += 1;
                            }
                            _ => {
                                *slot = Some(FrameSolver {
                                    egraph: EGraph::from_facts(facts),
                                    facts: facts.clone(),
                                    vars: vars.clone(),
                                });
                            }
                        }
                        let fs = slot.as_mut().expect("just aligned");
                        let incremental = fs.egraph.prove_frozen(&mut vars.clone(), goal);
                        let reference =
                            PureSolver::new(facts).prove_frozen(&mut vars.clone(), goal);
                        assert_eq!(
                            incremental,
                            reference,
                            "{}/{} step {i}: e-graph and reference solver disagree on {goal:?}",
                            ex.name(),
                            proof.name
                        );
                        obligations += 1;
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(
        reused > 0 && reused < obligations,
        "{reused} of {obligations} obligations reused a frame's e-graph"
    );
}

#[test]
fn checker_replay_moves_only_the_checker_counter() {
    // The checker runs on the reference solver, so the solver counters
    // measure the search alone.
    let proofs: Vec<_> = all_examples()
        .into_iter()
        .flat_map(|ex| ex.verify().expect("verifies").proofs)
        .collect();
    let steps: usize = proofs.iter().map(|p| p.trace.len()).sum();
    assert!(
        proofs
            .iter()
            .flat_map(|p| p.trace.steps())
            .any(|s| matches!(s, TraceStep::PureObligation { .. })),
        "no trace records an obligation"
    );
    let session = TelemetrySession::new("checker-only");
    {
        let _installed = session.install();
        for proof in &proofs {
            checker::check(&proof.trace).expect("trace replays");
        }
    }
    assert_eq!(
        session.snapshot(),
        CounterSnapshot {
            checker_steps: steps as u64,
            ..CounterSnapshot::default()
        }
    );
}
