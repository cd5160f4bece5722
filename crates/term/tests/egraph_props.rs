//! Differential property tests for the incremental e-graph solver:
//! random fact/goal/checkpoint scripts are run in lockstep against the
//! rebuild-per-query [`PureSolver`], and additionally against a fresh
//! [`EGraph`] rebuilt from the same facts at every query — any rollback
//! bug shows up as a three-way verdict disagreement.
//!
//! The scripts deliberately exercise the paths the Figure 6 suite leans
//! on: evar solutions made and undone across [`VarCtx`] checkpoints (the
//! solution-fingerprint checks and the partial base resets), fact
//! truncation in lockstep with those checkpoints (the undo trail), and
//! disjunctive facts (the case-splitting fallback).

use diaframe_term::solver::egraph::EGraph;
use diaframe_term::solver::PureSolver;
use diaframe_term::{EVarId, PureProp, Sort, Term, VarCtx, VarId};
use proptest::prelude::*;

const NUM_VARS: usize = 3;
const NUM_EVARS: usize = 2;

/// A linear integer expression over the shared variable/evar pools.
#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names)] // Var/EVar mirror the Term constructors
enum E {
    Lit(i64),
    Var(usize),
    EVar(usize),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Scale(i64, Box<E>),
}

impl E {
    fn to_term(&self, vars: &[VarId], evars: &[EVarId]) -> Term {
        match self {
            E::Lit(n) => Term::int(i128::from(*n)),
            E::Var(i) => Term::var(vars[*i]),
            E::EVar(i) => Term::evar(evars[*i]),
            E::Add(a, b) => Term::add(a.to_term(vars, evars), b.to_term(vars, evars)),
            E::Sub(a, b) => Term::sub(a.to_term(vars, evars), b.to_term(vars, evars)),
            E::Scale(k, a) => Term::mul(Term::int(i128::from(*k)), a.to_term(vars, evars)),
        }
    }
}

fn expr(evars: bool) -> impl Strategy<Value = E> {
    let leaf = if evars {
        prop_oneof![
            (-10i64..=10).prop_map(E::Lit),
            (0..NUM_VARS).prop_map(E::Var),
            (0..NUM_EVARS).prop_map(E::EVar),
        ]
        .boxed()
    } else {
        prop_oneof![
            (-10i64..=10).prop_map(E::Lit),
            (0..NUM_VARS).prop_map(E::Var),
        ]
        .boxed()
    };
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (-4i64..=4, inner).prop_map(|(k, a)| E::Scale(k, Box::new(a))),
        ]
    })
}

/// A random pure proposition: comparisons over the linear fragment, plus
/// shallow `And`/`Or`/`Implies`/`Not` combinations so queries reach the
/// structural cases of `prove_inner` and facts reach the disjunctive
/// (case-splitting) dispatch.
#[derive(Debug, Clone)]
enum P {
    Eq(E, E),
    Ne(E, E),
    Le(E, E),
    Lt(E, E),
    And(Box<P>, Box<P>),
    Or(Box<P>, Box<P>),
    Implies(Box<P>, Box<P>),
    Not(Box<P>),
}

impl P {
    fn to_prop(&self, vars: &[VarId], evars: &[EVarId]) -> PureProp {
        let t = |e: &E| e.to_term(vars, evars);
        match self {
            P::Eq(a, b) => PureProp::eq(t(a), t(b)),
            P::Ne(a, b) => PureProp::ne(t(a), t(b)),
            P::Le(a, b) => PureProp::le(t(a), t(b)),
            P::Lt(a, b) => PureProp::lt(t(a), t(b)),
            P::And(a, b) => PureProp::and(a.to_prop(vars, evars), b.to_prop(vars, evars)),
            P::Or(a, b) => PureProp::or(a.to_prop(vars, evars), b.to_prop(vars, evars)),
            P::Implies(a, b) => PureProp::implies(a.to_prop(vars, evars), b.to_prop(vars, evars)),
            P::Not(a) => PureProp::negate(a.to_prop(vars, evars)),
        }
    }
}

fn prop(evars: bool) -> impl Strategy<Value = P> {
    let atom = (expr(evars), expr(evars), 0..4u8).prop_map(|(a, b, k)| match k {
        0 => P::Eq(a, b),
        1 => P::Ne(a, b),
        2 => P::Le(a, b),
        _ => P::Lt(a, b),
    });
    atom.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| P::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| P::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| P::Implies(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| P::Not(Box::new(a))),
        ]
    })
}

/// One step of a solver script.
#[derive(Debug, Clone)]
enum Op {
    /// Push a hypothesis (into the fact list and the e-graph alike).
    Push(P),
    /// Query a goal and demand three-way verdict agreement.
    Query(P),
    /// Solve evar `k` with a ground expression (if still unsolved):
    /// changes the solution fingerprint mid-script.
    Solve(usize, E),
    /// Push a checkpoint (variable state + fact count), mirroring the
    /// search engine's branch entry.
    Mark,
    /// Pop to the last checkpoint: roll the variable state back and
    /// truncate the facts and the e-graph in lockstep, mirroring branch
    /// exit.
    Back,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop(true).prop_map(Op::Push),
        prop(true).prop_map(Op::Query),
        prop(true).prop_map(Op::Query),
        (0..NUM_EVARS, expr(false)).prop_map(|(k, e)| Op::Solve(k, e)),
        Just(Op::Mark),
        Just(Op::Back),
    ]
}

fn run_script(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut ctx = VarCtx::new();
    let vars: Vec<VarId> = (0..NUM_VARS)
        .map(|i| ctx.fresh_var(Sort::Int, &format!("x{i}")))
        .collect();
    let evars: Vec<EVarId> = (0..NUM_EVARS).map(|_| ctx.fresh_evar(Sort::Int)).collect();

    let mut eg = EGraph::new();
    let mut facts: Vec<PureProp> = Vec::new();
    let mut marks = Vec::new();

    for o in ops {
        match o {
            Op::Push(p) => {
                let p = p.to_prop(&vars, &evars);
                facts.push(p.clone());
                eg.push_fact(p);
            }
            Op::Query(g) => {
                let g = g.to_prop(&vars, &evars);
                let legacy = PureSolver::new(&facts).prove_frozen(&mut ctx.clone(), &g);
                let incremental = eg.prove_frozen(&mut ctx.clone(), &g);
                prop_assert_eq!(
                    legacy,
                    incremental,
                    "incremental disagrees with legacy on {:?} from {:?}",
                    g,
                    facts
                );
                let fresh = EGraph::from_facts(&facts).prove_frozen(&mut ctx.clone(), &g);
                prop_assert_eq!(
                    incremental,
                    fresh,
                    "incremental e-graph disagrees with a fresh rebuild on {:?} from {:?}",
                    g,
                    facts
                );
                // The evar-instantiating mode must agree too (each side
                // works on its own context clone, so instantiation
                // attempts cannot leak between them).
                let legacy_u = PureSolver::new(&facts).prove(&mut ctx.clone(), &g);
                let incr_u = eg.prove(&mut ctx.clone(), &g);
                prop_assert_eq!(
                    legacy_u,
                    incr_u,
                    "prove (may-unify) disagrees on {:?} from {:?}",
                    g,
                    facts
                );
            }
            Op::Solve(k, e) => {
                if ctx.evar_unsolved(evars[*k]) {
                    let t = e.to_term(&vars, &[]);
                    ctx.solve_evar(evars[*k], t);
                }
            }
            Op::Mark => marks.push((ctx.checkpoint(), facts.len())),
            Op::Back => {
                if let Some((mark, n)) = marks.pop() {
                    ctx.rollback(&mark);
                    facts.truncate(n);
                    eg.truncate_facts(n);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    /// Random scripts of pushes, queries, evar solutions, and
    /// checkpointed rollbacks: the incremental e-graph, a fresh e-graph
    /// rebuilt per query, and the legacy rebuild solver must agree on
    /// every verdict.
    #[test]
    fn egraph_matches_legacy_on_random_scripts(ops in prop::collection::vec(op(), 1..24)) {
        run_script(&ops)?;
    }
}

/// The solution fingerprint is content-based: solving, rolling back, and
/// re-solving an evar with the same term restores the same fingerprint,
/// and the solver keeps answering correctly across the churn.
#[test]
fn solution_fp_restored_across_rollback() {
    let mut ctx = VarCtx::new();
    let z = ctx.fresh_var(Sort::Int, "z");
    let e = ctx.fresh_evar(Sort::Int);
    let mut eg = EGraph::new();
    eg.push_fact(PureProp::le(Term::evar(e), Term::var(z)));

    let fp0 = ctx.solution_fp();
    let mark = ctx.checkpoint();
    ctx.solve_evar(e, Term::int(3));
    let fp_solved = ctx.solution_fp();
    assert_ne!(fp0, fp_solved, "solving must move the fingerprint");
    assert!(eg.prove_frozen(&mut ctx, &PureProp::le(Term::int(3), Term::var(z))));

    ctx.rollback(&mark);
    assert_eq!(
        ctx.solution_fp(),
        fp0,
        "rollback must restore the fingerprint"
    );
    assert!(!eg.prove_frozen(&mut ctx, &PureProp::le(Term::int(3), Term::var(z))));

    ctx.solve_evar(e, Term::int(3));
    assert_eq!(
        ctx.solution_fp(),
        fp_solved,
        "re-solving with the same term must reproduce the fingerprint"
    );
    assert!(eg.prove_frozen(&mut ctx, &PureProp::le(Term::int(3), Term::var(z))));
}
