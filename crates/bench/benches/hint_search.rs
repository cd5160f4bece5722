//! Criterion microbench for `find_hint` on a wide hypothesis context:
//! the atom-head index versus the plain linear scan.
//!
//! The context holds 96 hypotheses — points-to facts, foreign abstract
//! predicates, pure facts and invariant wrappers — with the one
//! hypothesis matching the goal added *first*, i.e. scanned *last* by
//! the newest-first scan. The linear scan must probe (checkpoint,
//! descend, unify, roll back) every non-matching hypothesis on the way;
//! the indexed scan skips them all by head.

use criterion::{criterion_group, criterion_main, Criterion};
use diaframe_core::hint::find_hint;
use diaframe_core::{Ablation, ProofCtx, VerifyOptions};
use diaframe_ghost::Registry;
use diaframe_logic::{Assertion, Atom, Mask, Namespace, PredTable};
use diaframe_term::{PureProp, Term};

/// 96 hypotheses, exactly one (the oldest) matching the goal.
fn wide_ctx() -> (ProofCtx, Atom) {
    let mut preds = PredTable::new();
    let target = preds.fresh_plain("target");
    let goal = Atom::PredApp {
        pred: target,
        args: Vec::new(),
    };
    let mut foreign = Vec::new();
    for i in 0..31 {
        foreign.push(preds.fresh_plain(&format!("P{i}")));
    }
    let mut ctx = ProofCtx::new(preds);
    // The matching hypothesis, scanned last (newest-first order).
    ctx.add_hyp(Assertion::atom(goal.clone()), false);
    for i in 0..95u64 {
        let a = match i % 3 {
            0 => Assertion::atom(Atom::points_to(
                Term::Loc(i + 1),
                Term::v_int_lit(i128::from(i)),
            )),
            1 => Assertion::atom(Atom::PredApp {
                pred: foreign[usize::try_from(i).unwrap() % foreign.len()],
                args: Vec::new(),
            }),
            _ => Assertion::atom(Atom::invariant(
                Namespace::new(&format!("N{i}")),
                Assertion::sep(
                    Assertion::pure(PureProp::True),
                    Assertion::atom(Atom::points_to(Term::Loc(1000 + i), Term::v_unit())),
                ),
            )),
        };
        ctx.add_hyp(a, false);
    }
    (ctx, goal)
}

fn bench_hint_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("hint_search");
    let registry = Registry::standard();
    let opts = VerifyOptions::automatic();
    let (ctx, goal) = wide_ctx();
    // Each iteration clones the context (find_hint instantiates evars on
    // success); this baseline isolates that shared cost, so the scan-only
    // difference is (indexed|linear) − clone-baseline.
    group.bench_function("clone-baseline-96hyps", |b| {
        b.iter(|| criterion::black_box(ctx.clone().delta.len()));
    });
    for (label, linear_scan) in [("indexed-96hyps", false), ("linear-96hyps", true)] {
        let ablation = Ablation {
            linear_scan,
            ..Ablation::none()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut ctx = ctx.clone();
                let found = find_hint(&mut ctx, &registry, &opts, ablation, &goal, &Mask::top());
                assert!(found.is_some(), "the matching hypothesis must be found");
                criterion::black_box(found.is_some())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hint_search);
criterion_main!(benches);
