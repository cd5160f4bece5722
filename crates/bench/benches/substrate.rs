//! Criterion benches for the substrates: the pure solver, unification,
//! and the HeapLang interpreter (ablation-style measurements for the
//! design choices DESIGN.md calls out).

use criterion::{criterion_group, criterion_main, Criterion};
use diaframe_heaplang::interp::Machine;
use diaframe_heaplang::parse_expr;
use diaframe_term::solver::PureSolver;
use diaframe_term::{unify, PureProp, Sort, Term, VarCtx};

fn bench_solver(c: &mut Criterion) {
    c.bench_function("solver/integer-tightening", |b| {
        let mut ctx = VarCtx::new();
        let z = Term::var(ctx.fresh_var(Sort::Int, "z"));
        let facts = vec![
            PureProp::lt(Term::int(0), z.clone()),
            PureProp::ne(z.clone(), Term::int(1)),
        ];
        let solver = PureSolver::new(&facts);
        b.iter(|| {
            let mut vars = ctx.clone();
            criterion::black_box(solver.prove(&mut vars, &PureProp::lt(Term::int(1), z.clone())))
        });
    });
    c.bench_function("solver/chain-elimination", |b| {
        let mut ctx = VarCtx::new();
        let vars: Vec<Term> = (0..8)
            .map(|i| Term::var(ctx.fresh_var(Sort::Int, &format!("x{i}"))))
            .collect();
        let mut facts = Vec::new();
        for w in vars.windows(2) {
            facts.push(PureProp::le(w[0].clone(), w[1].clone()));
        }
        let solver = PureSolver::new(&facts);
        let goal = PureProp::le(vars[0].clone(), vars[7].clone());
        b.iter(|| {
            let mut v = ctx.clone();
            criterion::black_box(solver.prove(&mut v, &goal))
        });
    });
}

fn bench_unify(c: &mut Criterion) {
    c.bench_function("unify/arithmetic", |b| {
        b.iter(|| {
            let mut ctx = VarCtx::new();
            let z = Term::var(ctx.fresh_var(Sort::Int, "z"));
            let e = ctx.fresh_evar(Sort::Int);
            criterion::black_box(unify(&mut ctx, &Term::add(Term::evar(e), Term::int(1)), &z))
        });
    });
}

fn bench_interp(c: &mut Criterion) {
    let prog = parse_expr(
        "let c := ref 0 in
         (rec go n := if n = 0 then !c else (FAA(c, n) ;; go (n - 1))) 100",
    )
    .expect("parses");
    c.bench_function("interp/faa-loop-100", |b| {
        b.iter(|| {
            criterion::black_box(
                Machine::new(prog.clone())
                    .run_round_robin(1_000_000)
                    .expect("runs"),
            )
        });
    });
}

criterion_group!(benches, bench_solver, bench_unify, bench_interp);
criterion_main!(benches);
