//! Criterion benches for the term-level hot path: unify, subst, zonk
//! and normalize on *real* deep terms, harvested from the pure
//! obligations the rwlock_ticket_bounded search discharges. These are
//! the operations the hash-consing interner memoizes; no interner scope
//! is opened here, so every number is the structural cost — what a
//! memo miss pays.

use criterion::{criterion_group, criterion_main, Criterion};
use diaframe_core::trace::TraceStep;
use diaframe_examples::all_examples;
use diaframe_term::normalize::normalize;
use diaframe_term::{unify, PureProp, Subst, Term, VarCtx};

/// Terms from the deepest pure obligation of the rwlock_ticket_bounded
/// search, with the variable context that sorts them. The obligation is
/// picked by rendered size, a cheap proxy for term depth.
fn harvest() -> (VarCtx, Vec<PureProp>, Vec<Term>) {
    let ex = all_examples()
        .into_iter()
        .find(|e| e.name() == "rwlock_ticket_bounded")
        .expect("rwlock_ticket_bounded is in the registry");
    let outcome = ex.verify().expect("rwlock_ticket_bounded verifies");
    let mut best: Option<(usize, VarCtx, Vec<PureProp>)> = None;
    for proof in &outcome.proofs {
        for step in proof.trace.steps() {
            let TraceStep::PureObligation { facts, goal, vars } = step else {
                continue;
            };
            let mut props: Vec<PureProp> = facts.clone();
            props.push(goal.clone());
            let size: usize = props.iter().map(|p| format!("{p:?}").len()).sum();
            if best.as_ref().is_none_or(|(s, _, _)| size > *s) {
                best = Some((size, vars.clone(), props));
            }
        }
    }
    let (_, ctx, props) = best.expect("search discharged at least one pure obligation");
    let mut terms = Vec::new();
    for p in &props {
        p.visit_terms(&mut |t| terms.push(t.clone()));
    }
    terms.sort_by_key(|t| std::cmp::Reverse(format!("{t:?}").len()));
    terms.truncate(16);
    (ctx, props, terms)
}

fn bench_term_ops(c: &mut Criterion) {
    let (ctx, props, terms) = harvest();

    c.bench_function("term_ops/zonk-harvested", |b| {
        b.iter(|| {
            for t in &terms {
                criterion::black_box(t.zonk(&ctx));
            }
        });
    });

    c.bench_function("term_ops/normalize-harvested", |b| {
        let numeric: Vec<&Term> = terms
            .iter()
            .filter(|t| t.sort(&ctx).is_numeric())
            .collect();
        b.iter(|| {
            for t in &numeric {
                criterion::black_box(normalize(&ctx, t));
            }
        });
    });

    c.bench_function("term_ops/unify-harvested-self", |b| {
        b.iter(|| {
            for t in &terms {
                let mut vars = ctx.clone();
                criterion::black_box(unify(&mut vars, t, t).is_ok());
            }
        });
    });

    c.bench_function("term_ops/unify-harvested-evar", |b| {
        // A bi-abduction-shaped probe: each deep term against a fresh
        // evar of its sort, the common case when a hint side condition
        // pins an output parameter.
        b.iter(|| {
            for t in &terms {
                let mut vars = ctx.clone();
                let e = vars.fresh_evar(t.sort(&vars));
                criterion::black_box(unify(&mut vars, &Term::evar(e), t).is_ok());
            }
        });
    });

    c.bench_function("term_ops/subst-harvested", |b| {
        // Substitute every free variable of the obligation set in one
        // pass, the shape `WpPost::at` and hint closure instantiation
        // produce.
        let mut free = Vec::new();
        for p in &props {
            free.extend(p.free_vars());
        }
        free.sort_unstable();
        free.dedup();
        let mut vars = ctx.clone();
        let mut subst = Subst::new();
        for v in &free {
            let sort = vars.var_sort(*v);
            let fresh = vars.fresh_var(sort, "b");
            subst.insert(*v, Term::var(fresh));
        }
        b.iter(|| {
            for t in &terms {
                criterion::black_box(subst.apply(t));
            }
        });
    });
}

criterion_group!(benches, bench_term_ops);
criterion_main!(benches);
