//! Criterion benches for the pure solver on *real* obligations,
//! harvested from the rwlock_ticket_bounded search (the Figure 6 example
//! that leans hardest on linear arithmetic). Three costs are separated:
//! the rebuild-per-query baseline (legacy [`PureSolver`] and a fresh
//! [`EGraph`] per query), the incremental query path (one persistent
//! e-graph, facts asserted once), and the assert/rollback trail churn a
//! checker branch frame produces. No interner scope is opened, so every
//! number is the uncached cost — what a memo miss pays.

use criterion::{criterion_group, criterion_main, Criterion};
use diaframe_core::trace::TraceStep;
use diaframe_examples::all_examples;
use diaframe_term::solver::egraph::EGraph;
use diaframe_term::solver::PureSolver;
use diaframe_term::{PureProp, VarCtx};

/// One harvested pure obligation: hypothesis facts, goal, and the
/// variable context that sorts them.
struct Obligation {
    vars: VarCtx,
    facts: Vec<PureProp>,
    goal: PureProp,
}

/// The largest pure obligations (by rendered size, a cheap proxy for
/// term depth and fact count) the rwlock_ticket_bounded search
/// discharges.
fn harvest(limit: usize) -> Vec<Obligation> {
    let ex = all_examples()
        .into_iter()
        .find(|e| e.name() == "rwlock_ticket_bounded")
        .expect("rwlock_ticket_bounded is in the registry");
    let outcome = ex.verify().expect("rwlock_ticket_bounded verifies");
    let mut obls = Vec::new();
    for proof in &outcome.proofs {
        for step in proof.trace.steps() {
            let TraceStep::PureObligation { facts, goal, vars } = step else {
                continue;
            };
            let size: usize = facts
                .iter()
                .chain(std::iter::once(goal))
                .map(|p| format!("{p:?}").len())
                .sum();
            obls.push((size, Obligation {
                vars: vars.clone(),
                facts: facts.clone(),
                goal: goal.clone(),
            }));
        }
    }
    obls.sort_by_key(|(s, _)| std::cmp::Reverse(*s));
    obls.truncate(limit);
    obls.into_iter().map(|(_, o)| o).collect()
}

fn bench_pure_solver(c: &mut Criterion) {
    let obls = harvest(16);
    assert!(!obls.is_empty(), "search discharged pure obligations");

    // Rebuild-per-query baseline: what every query paid before the
    // persistent e-graph.
    c.bench_function("pure_solver/legacy-rebuild", |b| {
        b.iter(|| {
            for o in &obls {
                let solver = PureSolver::new(&o.facts);
                criterion::black_box(solver.prove_frozen(&mut o.vars.clone(), &o.goal));
            }
        });
    });

    c.bench_function("pure_solver/egraph-rebuild", |b| {
        b.iter(|| {
            for o in &obls {
                let mut eg = EGraph::from_facts(&o.facts);
                criterion::black_box(eg.prove_frozen(&mut o.vars.clone(), &o.goal));
            }
        });
    });

    // Incremental query: facts asserted once, the per-query cost is the
    // goal refutation alone (catch-up is a no-op).
    c.bench_function("pure_solver/egraph-incremental-query", |b| {
        let mut graphs: Vec<EGraph> = obls.iter().map(|o| EGraph::from_facts(&o.facts)).collect();
        b.iter(|| {
            for (eg, o) in graphs.iter_mut().zip(&obls) {
                criterion::black_box(eg.prove_frozen(&mut o.vars.clone(), &o.goal));
            }
        });
    });

    // Branch-frame churn: assert the obligation's facts on top of a
    // persistent e-graph and roll them back, the shape every checker
    // branch entry/exit produces. Measures the undo trail, not search.
    c.bench_function("pure_solver/egraph-assert-rollback", |b| {
        let mut graphs: Vec<EGraph> = obls.iter().map(|o| EGraph::from_facts(&o.facts)).collect();
        b.iter(|| {
            for (eg, o) in graphs.iter_mut().zip(&obls) {
                let n = o.facts.len();
                for f in &o.facts {
                    eg.push_fact(f.clone());
                }
                criterion::black_box(eg.prove_frozen(&mut o.vars.clone(), &o.goal));
                eg.truncate_facts(n);
            }
        });
    });
}

criterion_group!(benches, bench_pure_solver);
criterion_main!(benches);
