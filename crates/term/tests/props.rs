//! Property-based tests for the term substrate: normalisation against an
//! independent evaluator, zonk and its `needs_zonk` short-cut against a
//! model of the evar solutions, unification soundness and scope
//! discipline, pure-solver soundness against random models, and the
//! rational/fraction arithmetic laws.

use diaframe_term::normalize::{arith_eq, normalize};
use diaframe_term::qp::Rat;
use diaframe_term::solver::PureSolver;
use diaframe_term::{unify, EVarId, PureProp, Qp, Sort, Subst, Sym, Term, VarCtx, VarId};
use proptest::prelude::*;

const NUM_VARS: usize = 3;

/// A fresh context with `NUM_VARS` integer variables.
fn int_ctx() -> (VarCtx, Vec<VarId>) {
    let mut ctx = VarCtx::new();
    let vars = (0..NUM_VARS)
        .map(|i| ctx.fresh_var(Sort::Int, &format!("x{i}")))
        .collect();
    (ctx, vars)
}

/// A symbolic linear integer expression paired with an independent
/// evaluator, so normalisation can be checked against direct arithmetic.
#[derive(Debug, Clone)]
enum IExpr {
    Lit(i64),
    Var(usize),
    Add(Box<IExpr>, Box<IExpr>),
    Sub(Box<IExpr>, Box<IExpr>),
    Neg(Box<IExpr>),
    /// Multiplication by a constant keeps the expression linear, which is
    /// the fragment the solver handles.
    Scale(i64, Box<IExpr>),
}

impl IExpr {
    fn to_term(&self, vars: &[VarId]) -> Term {
        match self {
            IExpr::Lit(n) => Term::int(i128::from(*n)),
            IExpr::Var(i) => Term::var(vars[*i]),
            IExpr::Add(a, b) => Term::add(a.to_term(vars), b.to_term(vars)),
            IExpr::Sub(a, b) => Term::sub(a.to_term(vars), b.to_term(vars)),
            IExpr::Neg(a) => Term::neg(a.to_term(vars)),
            IExpr::Scale(k, a) => Term::mul(Term::int(i128::from(*k)), a.to_term(vars)),
        }
    }

    fn eval(&self, env: &[i64]) -> i128 {
        match self {
            IExpr::Lit(n) => i128::from(*n),
            IExpr::Var(i) => i128::from(env[*i]),
            IExpr::Add(a, b) => a.eval(env) + b.eval(env),
            IExpr::Sub(a, b) => a.eval(env) - b.eval(env),
            IExpr::Neg(a) => -a.eval(env),
            IExpr::Scale(k, a) => i128::from(*k) * a.eval(env),
        }
    }
}

fn iexpr() -> impl Strategy<Value = IExpr> {
    let leaf = prop_oneof![
        (-20i64..=20).prop_map(IExpr::Lit),
        (0..NUM_VARS).prop_map(IExpr::Var),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| IExpr::Sub(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| IExpr::Neg(Box::new(a))),
            (-5i64..=5, inner).prop_map(|(k, a)| IExpr::Scale(k, Box::new(a))),
        ]
    })
}

fn env() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-50i64..=50, NUM_VARS)
}

/// A random linear comparison, with its truth value decidable under a model.
#[derive(Debug, Clone)]
enum IProp {
    Eq(IExpr, IExpr),
    Ne(IExpr, IExpr),
    Le(IExpr, IExpr),
    Lt(IExpr, IExpr),
}

impl IProp {
    fn to_prop(&self, vars: &[VarId]) -> PureProp {
        match self {
            IProp::Eq(a, b) => PureProp::eq(a.to_term(vars), b.to_term(vars)),
            IProp::Ne(a, b) => PureProp::ne(a.to_term(vars), b.to_term(vars)),
            IProp::Le(a, b) => PureProp::le(a.to_term(vars), b.to_term(vars)),
            IProp::Lt(a, b) => PureProp::lt(a.to_term(vars), b.to_term(vars)),
        }
    }

    fn eval(&self, env: &[i64]) -> bool {
        match self {
            IProp::Eq(a, b) => a.eval(env) == b.eval(env),
            IProp::Ne(a, b) => a.eval(env) != b.eval(env),
            IProp::Le(a, b) => a.eval(env) <= b.eval(env),
            IProp::Lt(a, b) => a.eval(env) < b.eval(env),
        }
    }
}

fn iprop() -> impl Strategy<Value = IProp> {
    (iexpr(), iexpr(), 0..4u8).prop_map(|(a, b, k)| match k {
        0 => IProp::Eq(a, b),
        1 => IProp::Ne(a, b),
        2 => IProp::Le(a, b),
        _ => IProp::Lt(a, b),
    })
}

fn ground_subst(vars: &[VarId], env: &[i64]) -> Subst {
    let mut s = Subst::new();
    for (v, n) in vars.iter().zip(env) {
        s.insert(*v, Term::int(i128::from(*n)));
    }
    s
}

const NUM_EVARS: usize = 3;

/// A linear expression whose leaves may also be evars (by index).
#[derive(Debug, Clone)]
enum OExpr {
    Closed(IExpr),
    EVar(usize),
    Add(Box<OExpr>, Box<OExpr>),
    Neg(Box<OExpr>),
}

impl OExpr {
    fn to_term(&self, vars: &[VarId], evars: &[EVarId]) -> Term {
        self.resolve(vars, evars, &[const { None }; NUM_EVARS])
    }

    /// The term with every evar the model has solved replaced by its
    /// solution: what zonk must produce, built without zonk.
    fn resolve(&self, vars: &[VarId], evars: &[EVarId], model: &[Option<Term>]) -> Term {
        match self {
            OExpr::Closed(e) => e.to_term(vars),
            OExpr::EVar(i) => model[*i].clone().unwrap_or_else(|| Term::evar(evars[*i])),
            OExpr::Add(a, b) => {
                Term::add(a.resolve(vars, evars, model), b.resolve(vars, evars, model))
            }
            OExpr::Neg(a) => Term::neg(a.resolve(vars, evars, model)),
        }
    }
}

fn oexpr() -> impl Strategy<Value = OExpr> {
    let leaf = prop_oneof![
        iexpr().prop_map(OExpr::Closed),
        (0..NUM_EVARS).prop_map(OExpr::EVar),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| OExpr::Add(Box::new(a), Box::new(b))),
            inner.prop_map(|a| OExpr::Neg(Box::new(a))),
        ]
    })
}

/// One step of a search-shaped mutation of the variable context.
#[derive(Debug, Clone)]
enum Op {
    /// Solve evar `i`, if still unsolved, with an evar-free term.
    Solve(usize, IExpr),
    Checkpoint,
    /// Roll back to the most recent checkpoint, if any.
    Rollback,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NUM_EVARS, iexpr()).prop_map(|(i, e)| Op::Solve(i, e)),
        Just(Op::Checkpoint),
        Just(Op::Rollback),
    ]
}

/// Replays `script` on `ctx` while keeping a plain model of the evar
/// solutions, calling `probe` with both after every step.
fn run_script(
    ctx: &mut VarCtx,
    vars: &[VarId],
    evars: &[EVarId],
    script: &[Op],
    mut probe: impl FnMut(&VarCtx, &[Option<Term>]),
) {
    let mut model: Vec<Option<Term>> = vec![None; NUM_EVARS];
    let mut marks = Vec::new();
    probe(ctx, &model);
    for o in script {
        match o {
            Op::Solve(i, e) => {
                if model[*i].is_none() {
                    let t = e.to_term(vars);
                    ctx.solve_evar(evars[*i], t.clone());
                    model[*i] = Some(t);
                }
            }
            Op::Checkpoint => marks.push((ctx.checkpoint(), model.clone())),
            Op::Rollback => {
                if let Some((mark, saved)) = marks.pop() {
                    ctx.rollback(&mark);
                    model = saved;
                }
            }
        }
        probe(ctx, &model);
    }
}

proptest! {
    /// Normalisation agrees with direct evaluation: substituting a ground
    /// model into a linear term and normalising yields the same constant
    /// as evaluating the expression independently.
    #[test]
    fn normalize_matches_evaluator(e in iexpr(), env in env()) {
        let (ctx, vars) = int_ctx();
        let ground = ground_subst(&vars, &env).apply(&e.to_term(&vars));
        let nf = normalize(&ctx, &ground);
        prop_assert!(nf.is_constant());
        prop_assert_eq!(nf.constant, Rat::from_int(e.eval(&env)));
    }

    /// `arith_eq` is a congruence for the commutative-group laws the
    /// normaliser is supposed to quotient by.
    #[test]
    fn arith_eq_group_laws(a in iexpr(), b in iexpr(), c in iexpr()) {
        let (ctx, vars) = int_ctx();
        let (ta, tb, tc) = (a.to_term(&vars), b.to_term(&vars), c.to_term(&vars));
        // a + b = b + a
        prop_assert!(arith_eq(
            &ctx,
            &Term::add(ta.clone(), tb.clone()),
            &Term::add(tb.clone(), ta.clone())
        ));
        // (a + b) + c = a + (b + c)
        prop_assert!(arith_eq(
            &ctx,
            &Term::add(Term::add(ta.clone(), tb.clone()), tc.clone()),
            &Term::add(ta.clone(), Term::add(tb.clone(), tc.clone()))
        ));
        // a - b = a + (-b)
        prop_assert!(arith_eq(
            &ctx,
            &Term::sub(ta.clone(), tb.clone()),
            &Term::add(ta.clone(), Term::neg(tb.clone()))
        ));
        // a - a = 0
        prop_assert!(arith_eq(&ctx, &Term::sub(ta.clone(), ta), &Term::int(0)));
    }

    /// Unifying a fresh evar against any linear term succeeds and the
    /// solution is arithmetically equal to the term (soundness of the
    /// numeric-difference solving path).
    #[test]
    fn unify_solves_fresh_evar(e in iexpr()) {
        let (mut ctx, vars) = int_ctx();
        let t = e.to_term(&vars);
        let ev = ctx.fresh_evar(Sort::Int);
        unify(&mut ctx, &Term::evar(ev), &t).expect("fresh evar unifies with anything in scope");
        let solved = Term::evar(ev).zonk(&ctx);
        prop_assert!(arith_eq(&ctx, &solved, &t));
        // And the solved equation holds under every model.
        prop_assert!(arith_eq(&ctx, &Term::evar(ev).zonk(&ctx), &t.zonk(&ctx)));
    }

    /// Unification soundness: whenever `unify` succeeds on two linear
    /// terms (each seeded with an evar offset), the zonked sides are
    /// arithmetically equal.
    #[test]
    fn unify_success_implies_equal(a in iexpr(), b in iexpr()) {
        let (mut ctx, vars) = int_ctx();
        let ev = ctx.fresh_evar(Sort::Int);
        let ta = Term::add(a.to_term(&vars), Term::evar(ev));
        let tb = b.to_term(&vars);
        if unify(&mut ctx, &ta, &tb).is_ok() {
            prop_assert!(arith_eq(&ctx, &ta.zonk(&ctx), &tb.zonk(&ctx)));
        }
    }

    /// Scope discipline (§3.2 of the paper): an evar created at an outer
    /// level can never be solved with a term mentioning a deeper variable.
    #[test]
    fn unify_respects_scope_levels(offset in -10i64..=10) {
        let mut ctx = VarCtx::new();
        let ev = ctx.fresh_evar(Sort::Int);
        ctx.push_level();
        let deep = ctx.fresh_var(Sort::Int, "deep");
        let rhs = Term::add(Term::var(deep), Term::int(i128::from(offset)));
        prop_assert!(unify(&mut ctx, &Term::evar(ev), &rhs).is_err());
        prop_assert!(ctx.evar_unsolved(ev));
    }

    /// Zonk over random solve/checkpoint/rollback scripts matches the
    /// term rebuilt from a model of the solutions; `needs_zonk` is false
    /// exactly when that leaves the term unchanged; a projection redex
    /// always needs zonking; and normalising commutes with zonking.
    #[test]
    fn zonk_short_cut_matches_model(
        t in oexpr(),
        script in prop::collection::vec(op(), 0..12),
    ) {
        let (mut ctx, vars) = int_ctx();
        let evars: Vec<EVarId> = (0..NUM_EVARS).map(|_| ctx.fresh_evar(Sort::Int)).collect();
        let term = t.to_term(&vars, &evars);
        let pair = Term::v_pair(Term::v_int(term.clone()), Term::v_unit());
        let proj = Term::app(Sym::Fst, vec![pair]);
        let mut failures = Vec::new();
        run_script(&mut ctx, &vars, &evars, &script, |ctx, model| {
            let expected = t.resolve(&vars, &evars, model);
            let zonked = term.zonk(ctx);
            if zonked != expected
                || term.needs_zonk(ctx) == (expected == term)
                || !proj.needs_zonk(ctx)
                || proj.zonk(ctx) != Term::v_int(expected.clone())
                || normalize(ctx, &term) != normalize(ctx, &zonked)
            {
                failures.push((format!("{model:?}"), zonked, expected));
            }
        });
        prop_assert!(failures.is_empty(), "zonk diverged from the model: {failures:?}");
    }

    /// Checkpoint/rollback restores evar solutions exactly.
    #[test]
    fn rollback_restores_solutions(e in iexpr()) {
        let (mut ctx, vars) = int_ctx();
        let ev = ctx.fresh_evar(Sort::Int);
        let mark = ctx.checkpoint();
        unify(&mut ctx, &Term::evar(ev), &e.to_term(&vars)).unwrap();
        prop_assert!(!ctx.evar_unsolved(ev));
        ctx.rollback(&mark);
        prop_assert!(ctx.evar_unsolved(ev));
        prop_assert_eq!(ctx.num_evars(), 1);
    }

    /// Solver soundness against random models: pick a model first, keep
    /// only generated facts that are *true* in the model; then anything
    /// the solver proves from those facts must also be true in the model.
    #[test]
    fn solver_sound_in_random_model(
        candidates in prop::collection::vec(iprop(), 0..6),
        goal in iprop(),
        env in env(),
    ) {
        let (mut ctx, vars) = int_ctx();
        let facts: Vec<PureProp> = candidates
            .iter()
            .filter(|p| p.eval(&env))
            .map(|p| p.to_prop(&vars))
            .collect();
        let solver = PureSolver::new(&facts);
        // The model satisfies all facts, so the fact set is consistent.
        prop_assert!(!solver.inconsistent(&mut ctx));
        if solver.prove(&mut ctx, &goal.to_prop(&vars)) {
            prop_assert!(
                goal.eval(&env),
                "solver proved a goal refuted by the model {env:?}: {goal:?}"
            );
        }
    }

    /// Solver refutation soundness: if the solver derives `False` from a
    /// fact set, no model can satisfy all the facts. We check the
    /// contrapositive on the generating model.
    #[test]
    fn solver_never_refutes_satisfiable(
        candidates in prop::collection::vec(iprop(), 0..8),
        env in env(),
    ) {
        let (mut ctx, vars) = int_ctx();
        let facts: Vec<PureProp> = candidates
            .iter()
            .filter(|p| p.eval(&env))
            .map(|p| p.to_prop(&vars))
            .collect();
        prop_assert!(!PureSolver::new(&facts).inconsistent(&mut ctx));
    }

    /// The solver decides ground comparisons exactly (completeness on the
    /// variable-free fragment).
    #[test]
    fn solver_decides_ground_props(goal in iprop(), env in env()) {
        let (mut ctx, vars) = int_ctx();
        let s = ground_subst(&vars, &env);
        let ground_goal = goal.to_prop(&vars).subst(&s);
        let solver = PureSolver::new(&[]);
        prop_assert_eq!(solver.prove(&mut ctx, &ground_goal), goal.eval(&env));
        // `eval_ground` agrees too.
        prop_assert_eq!(ground_goal.eval_ground(&ctx), Some(goal.eval(&env)));
    }

    /// `negated` is a semantic complement.
    #[test]
    fn negated_is_complement(goal in iprop(), env in env()) {
        let (ctx, vars) = int_ctx();
        let s = ground_subst(&vars, &env);
        let p = goal.to_prop(&vars).subst(&s);
        let n = p.negated();
        prop_assert_eq!(n.eval_ground(&ctx), Some(!goal.eval(&env)));
    }

    /// Substitution by ground terms is idempotent.
    #[test]
    fn ground_substitution_idempotent(e in iexpr(), env in env()) {
        let (_, vars) = int_ctx();
        let s = ground_subst(&vars, &env);
        let once = s.apply(&e.to_term(&vars));
        prop_assert_eq!(s.apply(&once), once.clone());
        prop_assert!(once.is_ground());
    }
}

fn rat() -> impl Strategy<Value = Rat> {
    (-40i128..=40, 1i128..=12).prop_map(|(n, d)| Rat::new(n, d))
}

proptest! {
    /// Field laws of the rational arithmetic backing fractions and the
    /// Fourier–Motzkin solver.
    #[test]
    fn rat_field_laws(a in rat(), b in rat(), c in rat()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a - b, a + (-b));
        prop_assert_eq!(a + Rat::ZERO, a);
        prop_assert_eq!(a * Rat::ONE, a);
        if !a.is_zero() {
            prop_assert_eq!(a * a.recip(), Rat::ONE);
        }
    }

    /// Floor/ceil bracket the rational, and are exact on integers.
    #[test]
    fn rat_floor_ceil(a in rat()) {
        let f = Rat::from_int(a.floor());
        let c = Rat::from_int(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(a - f < Rat::ONE);
        prop_assert!(c - a < Rat::ONE);
        if let Some(n) = a.to_integer() {
            prop_assert_eq!(a.floor(), n);
            prop_assert_eq!(a.ceil(), n);
        }
    }

    /// Ordering is total and compatible with addition.
    #[test]
    fn rat_order_compatible(a in rat(), b in rat(), c in rat()) {
        if a <= b {
            prop_assert!(a + c <= b + c);
        }
        prop_assert!(a <= b || b <= a);
    }
}

fn qp() -> impl Strategy<Value = Qp> {
    (1i128..=30, 1i128..=12).prop_map(|(n, d)| Qp::new(n, d).expect("positive"))
}

proptest! {
    /// `Qp` (positive fractions): addition laws and subtraction as partial
    /// inverse — the algebra fractional permissions rely on.
    #[test]
    fn qp_laws(a in qp(), b in qp()) {
        prop_assert_eq!(a.checked_add(b), b.checked_add(a));
        let sum = a.checked_add(b);
        // (a + b) - b = a: subtraction inverts addition where defined.
        prop_assert_eq!(sum.checked_sub(b), Some(a));
        // a - a is not a positive fraction.
        prop_assert_eq!(a.checked_sub(a), None);
        // Positivity is preserved by addition.
        prop_assert!(sum.as_rat().is_positive());
    }

    /// Splitting a fraction in half twice reassembles to the original.
    #[test]
    fn qp_half_split(a in qp()) {
        let half = Qp::from_rat(a.as_rat() * Rat::new(1, 2)).expect("halving stays positive");
        prop_assert_eq!(half.checked_add(half), a);
    }
}
