//! The pure solver: the `lia`/`eauto` analogue of the Coq artifact.
//!
//! [`PureSolver`] decides entailments `φ₁, …, φₙ ⊢ ψ` for the pure fragment
//! by refutation: the goal is negated and the conjunction is checked for
//! unsatisfiability with a combination of congruence closure
//! ([`congruence`]) and Fourier–Motzkin with integer tightening
//! ([`linear`]). Equality goals containing unsolved evars are first
//! attempted by unification, which is how pure hint side conditions
//! instantiate existentials (`⌜q = p + 1⌝` solves `?q`).

pub mod congruence;
pub mod egraph;
pub mod linear;

use crate::evar::VarCtx;
use crate::pure::PureProp;
use crate::unify::unify;
use congruence::{ClosureResult, Congruence};
use linear::{LinResult, Linear};

/// Maximum depth of disjunctive fact splitting.
pub(crate) const MAX_OR_DEPTH: usize = 4;

/// A solver over a fixed set of hypotheses: the plain reference, which
/// keeps nothing between queries. Every entailment rebuilds the
/// refutation state from the facts, so a verdict depends only on the
/// facts, the goal and the evar solutions — which is why the trace
/// checker and the fuzz specification re-prove obligations on it. The
/// search answers the same queries on the incremental
/// [`egraph::EGraph`], which must agree with it verdict for verdict.
#[derive(Debug, Clone, Default)]
pub struct PureSolver {
    facts: Vec<PureProp>,
}

impl PureSolver {
    /// Creates a solver from hypotheses. Conjunctions are flattened,
    /// negations and implications are normalised.
    #[must_use]
    pub fn new(facts: &[PureProp]) -> PureSolver {
        let mut s = PureSolver::default();
        for f in facts {
            s.add_fact(f.clone());
        }
        s
    }

    /// Adds a hypothesis.
    pub fn add_fact(&mut self, p: PureProp) {
        normalize_fact(p, &mut |other| self.facts.push(other));
    }

    /// The recorded literal/disjunctive facts.
    #[must_use]
    pub fn facts(&self) -> &[PureProp] {
        &self.facts
    }

    /// Proves `goal` from the hypotheses, *possibly instantiating evars*
    /// (equality goals are first attempted by unification).
    pub fn prove(&self, ctx: &mut VarCtx, goal: &PureProp) -> bool {
        self.prove_inner(ctx, goal, true)
    }

    /// Proves `goal` without ever instantiating an evar. Used for
    /// disjunction *guard* checks (§5.3), which must not commit the proof
    /// state.
    pub fn prove_frozen(&self, ctx: &mut VarCtx, goal: &PureProp) -> bool {
        self.prove_inner(ctx, goal, false)
    }

    fn prove_inner(&self, ctx: &mut VarCtx, goal: &PureProp, may_unify: bool) -> bool {
        let goal = goal.zonk(ctx);
        match &goal {
            PureProp::True => return true,
            PureProp::And(a, b) => {
                return self.prove_inner(ctx, a, may_unify) && self.prove_inner(ctx, b, may_unify)
            }
            PureProp::Implies(a, b) => {
                let mut s = self.clone();
                s.add_fact((**a).clone());
                return s.prove_inner(ctx, b, may_unify);
            }
            PureProp::Or(a, b) => {
                // Try either side without committing evars; then with.
                if self.prove_inner(ctx, a, false) || self.prove_inner(ctx, b, false) {
                    return true;
                }
                if may_unify {
                    let mark = ctx.checkpoint();
                    if self.prove_inner(ctx, a, true) {
                        return true;
                    }
                    ctx.rollback(&mark);
                    let mark = ctx.checkpoint();
                    if self.prove_inner(ctx, b, true) {
                        return true;
                    }
                    ctx.rollback(&mark);
                }
                return self.entails(ctx, &goal);
            }
            PureProp::Not(a) => return self.prove_inner(ctx, &a.negated(), may_unify),
            _ => {}
        }
        // Equality goals with evars: unification first.
        if may_unify && goal.has_evars() {
            if let PureProp::Eq(a, b) = &goal {
                let mark = ctx.checkpoint();
                if unify(ctx, a, b).is_ok() {
                    return true;
                }
                ctx.rollback(&mark);
            }
        }
        self.entails(ctx, &goal)
    }

    /// Refutation-based entailment check (never instantiates evars:
    /// remaining evars are treated as opaque constants, which is sound):
    /// the facts plus the negated goal must be unsatisfiable.
    fn entails(&self, ctx: &mut VarCtx, goal: &PureProp) -> bool {
        let mut facts = self.facts.clone();
        facts.push(goal.negated());
        unsat(ctx, &facts, MAX_OR_DEPTH)
    }

    /// Whether the hypotheses are contradictory. Equivalent to entailing
    /// `False` (the negated goal `True` flattens away).
    pub fn inconsistent(&self, ctx: &mut VarCtx) -> bool {
        self.entails(ctx, &PureProp::False)
    }
}

/// Hypothesis normalisation, shared between [`PureSolver::add_fact`] and
/// the incremental [`egraph::EGraph`] (which must store the *identical*
/// literal sequence to guarantee identical verdicts): `True` is dropped,
/// conjunctions are split, negations are pushed inward, and implications
/// become stored disjunctions. Each surviving fact is handed to `out` in
/// order.
pub(crate) fn normalize_fact(p: PureProp, out: &mut impl FnMut(PureProp)) {
    match p {
        PureProp::True => {}
        PureProp::And(a, b) => {
            normalize_fact(*a, out);
            normalize_fact(*b, out);
        }
        PureProp::Not(a) => normalize_fact(a.negated(), out),
        PureProp::Implies(a, b) => normalize_fact(PureProp::or(a.negated(), *b), out),
        other => out(other),
    }
}

/// Checks unsatisfiability of a conjunction of (possibly disjunctive) facts.
pub(crate) fn unsat(ctx: &mut VarCtx, facts: &[PureProp], or_budget: usize) -> bool {
    // Split on the first disjunctive fact, if any.
    for (i, f) in facts.iter().enumerate() {
        if let PureProp::Or(a, b) = f {
            if or_budget == 0 {
                // Sound fallback: drop the disjunction.
                let rest: Vec<PureProp> = facts
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, p)| p.clone())
                    .collect();
                return unsat(ctx, &rest, 0);
            }
            let mut left: Vec<PureProp> = facts.to_vec();
            left[i] = (**a).clone();
            let mut right: Vec<PureProp> = facts.to_vec();
            right[i] = (**b).clone();
            return unsat(ctx, &left, or_budget - 1) && unsat(ctx, &right, or_budget - 1);
        }
    }
    // Literal-only path: congruence closure + linear arithmetic.
    let mut flat = Vec::new();
    for f in facts {
        flatten_literal(f, &mut flat);
    }
    if flat.iter().any(|f| matches!(f, PureProp::False)) {
        return true;
    }
    let mut cc = Congruence::new();
    let mut lin = Linear::new();
    for f in &flat {
        add_literal(&mut cc, &mut lin, ctx, f);
    }
    if cc.saturate(ctx) == ClosureResult::Contradiction {
        return true;
    }
    for d in cc.derived_numeric().to_vec() {
        lin.add_fact(ctx, &d);
    }
    lin.refute(ctx) == LinResult::Unsat
}

/// Routes one literal fact to the congruence or linear engine — the single
/// dispatch both the scratch build ([`unsat`]) and the incremental
/// [`egraph::EGraph`] go through, so the two construct bitwise-identical
/// states.
pub(crate) fn add_literal(cc: &mut Congruence, lin: &mut Linear, ctx: &VarCtx, f: &PureProp) {
    match f {
        PureProp::Eq(a, b) => {
            if a.zonk(ctx).sort(ctx).is_numeric() {
                lin.add_fact(ctx, f);
            } else {
                cc.assert_eq(ctx, a, b);
            }
        }
        PureProp::Ne(a, b) => {
            if a.zonk(ctx).sort(ctx).is_numeric() {
                lin.add_fact(ctx, f);
            } else {
                cc.assert_ne(ctx, a, b);
            }
        }
        PureProp::Le(..) | PureProp::Lt(..) => lin.add_fact(ctx, f),
        _ => {}
    }
}

pub(crate) fn flatten_literal(p: &PureProp, out: &mut Vec<PureProp>) {
    match p {
        PureProp::True => {}
        PureProp::And(a, b) => {
            flatten_literal(a, out);
            flatten_literal(b, out);
        }
        PureProp::Not(a) => flatten_literal(&a.negated(), out),
        PureProp::Implies(a, b) => out.push(PureProp::or(a.negated(), (**b).clone())),
        other => out.push(other.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;
    use crate::term::Term;

    fn int_var(ctx: &mut VarCtx, n: &str) -> Term {
        Term::var(ctx.fresh_var(Sort::Int, n))
    }

    #[test]
    fn proves_from_bounds() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let s = PureSolver::new(&[PureProp::lt(Term::int(0), z.clone())]);
        assert!(s.prove(&mut ctx, &PureProp::le(Term::int(1), z.clone())));
        assert!(!s.prove(&mut ctx, &PureProp::le(Term::int(2), z)));
    }

    #[test]
    fn mixed_congruence_and_linear() {
        let mut ctx = VarCtx::new();
        let a = int_var(&mut ctx, "a");
        let v = Term::var(ctx.fresh_var(Sort::Val, "v"));
        // v = #a ∧ v = #7 ⊢ 5 < a.
        let s = PureSolver::new(&[
            PureProp::eq(v.clone(), Term::v_int(a.clone())),
            PureProp::eq(v, Term::v_int_lit(7)),
        ]);
        assert!(s.prove(&mut ctx, &PureProp::lt(Term::int(5), a.clone())));
        assert!(s.prove(&mut ctx, &PureProp::eq(a, Term::int(7))));
    }

    #[test]
    fn equality_goal_instantiates_evar() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let e = ctx.fresh_evar(Sort::Int);
        let s = PureSolver::new(&[]);
        // ⊢ ?e = z + 1 solves ?e.
        assert!(s.prove(
            &mut ctx,
            &PureProp::eq(Term::evar(e), Term::add(z.clone(), Term::int(1)))
        ));
        assert_eq!(Term::evar(e).zonk(&ctx), Term::add(z, Term::int(1)));
    }

    #[test]
    fn frozen_mode_never_instantiates() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        let s = PureSolver::new(&[]);
        assert!(!s.prove_frozen(&mut ctx, &PureProp::eq(Term::evar(e), Term::int(3))));
        assert!(ctx.evar_unsolved(e));
    }

    #[test]
    fn disjunctive_facts_split() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let s = PureSolver::new(&[PureProp::or(
            PureProp::eq(z.clone(), Term::int(1)),
            PureProp::eq(z.clone(), Term::int(2)),
        )]);
        assert!(s.prove(&mut ctx, &PureProp::lt(Term::int(0), z.clone())));
        assert!(!s.prove(&mut ctx, &PureProp::eq(z, Term::int(1))));
    }

    #[test]
    fn implication_goals() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let s = PureSolver::new(&[]);
        assert!(s.prove(
            &mut ctx,
            &PureProp::implies(
                PureProp::lt(Term::int(0), z.clone()),
                PureProp::le(Term::int(0), z)
            )
        ));
    }

    #[test]
    fn inconsistency_detection() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let s = PureSolver::new(&[
            PureProp::eq(z.clone(), Term::int(0)),
            PureProp::lt(Term::int(0), z),
        ]);
        assert!(s.inconsistent(&mut ctx));
        // Anything follows from an inconsistent context.
        assert!(s.prove(&mut ctx, &PureProp::False));
    }

    #[test]
    fn boolean_reasoning() {
        let mut ctx = VarCtx::new();
        let b = Term::var(ctx.fresh_var(Sort::Bool, "b"));
        let s = PureSolver::new(&[PureProp::ne(b.clone(), Term::bool(true))]);
        assert!(s.prove(&mut ctx, &PureProp::eq(b, Term::bool(false))));
    }

    #[test]
    fn value_constructor_reasoning() {
        let mut ctx = VarCtx::new();
        let v = Term::var(ctx.fresh_var(Sort::Val, "v"));
        let s = PureSolver::new(&[PureProp::eq(v.clone(), Term::v_bool_lit(true))]);
        assert!(s.prove(&mut ctx, &PureProp::ne(v, Term::v_bool_lit(false))));
    }

    #[test]
    fn arc_drop_branches() {
        // §2.2: after the manual case distinction the two disjunct guards
        // become decidable.
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let zm1 = Term::add(z.clone(), Term::int(-1));
        // Branch z = 1: guard 0 < z - 1 is refuted.
        let s1 = PureSolver::new(&[
            PureProp::lt(Term::int(0), z.clone()),
            PureProp::eq(z.clone(), Term::int(1)),
        ]);
        assert!(s1.prove(&mut ctx, &PureProp::lt(Term::int(0), zm1.clone()).negated()));
        assert!(s1.prove(&mut ctx, &PureProp::eq(zm1.clone(), Term::int(0))));
        // Branch z ≠ 1: guard z - 1 = 0 is refuted.
        let s2 = PureSolver::new(&[
            PureProp::lt(Term::int(0), z.clone()),
            PureProp::ne(z, Term::int(1)),
        ]);
        assert!(s2.prove(&mut ctx, &PureProp::eq(zm1.clone(), Term::int(0)).negated()));
        assert!(s2.prove(&mut ctx, &PureProp::lt(Term::int(0), zm1)));
    }
}
