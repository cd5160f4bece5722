//! Pure propositions — the `⌜φ⌝` fragment of the logic.

use crate::evar::{VarCtx, VarId};
use crate::normalize::normalize;
use crate::subst::Subst;
use crate::term::Term;

/// A pure (heap-independent) proposition.
///
/// These are the propositions that appear embedded in separation-logic
/// assertions as `⌜φ⌝`, and the side conditions of bi-abduction hints. The
/// pure solver ([`crate::solver::PureSolver`]) decides a useful fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PureProp {
    /// The trivially true proposition.
    True,
    /// The absurd proposition.
    False,
    /// Term equality (at any sort).
    Eq(Term, Term),
    /// Term disequality.
    Ne(Term, Term),
    /// `≤` on a numeric sort.
    Le(Term, Term),
    /// `<` on a numeric sort.
    Lt(Term, Term),
    /// Conjunction.
    And(Box<PureProp>, Box<PureProp>),
    /// Disjunction.
    Or(Box<PureProp>, Box<PureProp>),
    /// Negation.
    Not(Box<PureProp>),
    /// Implication.
    Implies(Box<PureProp>, Box<PureProp>),
}

impl PureProp {
    #[must_use]
    /// `a = b`.
    pub fn eq(a: Term, b: Term) -> PureProp {
        PureProp::Eq(a, b)
    }

    #[must_use]
    /// `a ≠ b`.
    pub fn ne(a: Term, b: Term) -> PureProp {
        PureProp::Ne(a, b)
    }

    #[must_use]
    /// `a ≤ b`.
    pub fn le(a: Term, b: Term) -> PureProp {
        PureProp::Le(a, b)
    }

    #[must_use]
    /// `a < b`.
    pub fn lt(a: Term, b: Term) -> PureProp {
        PureProp::Lt(a, b)
    }

    /// `a ≥ b`, normalised to `b ≤ a`.
    #[must_use]
    pub fn ge(a: Term, b: Term) -> PureProp {
        PureProp::Le(b, a)
    }

    /// `a > b`, normalised to `b < a`.
    #[must_use]
    pub fn gt(a: Term, b: Term) -> PureProp {
        PureProp::Lt(b, a)
    }

    #[must_use]
    /// Conjunction (simplifying `True` operands away).
    pub fn and(a: PureProp, b: PureProp) -> PureProp {
        match (a, b) {
            (PureProp::True, b) => b,
            (a, PureProp::True) => a,
            (a, b) => PureProp::And(Box::new(a), Box::new(b)),
        }
    }

    #[must_use]
    /// Disjunction.
    pub fn or(a: PureProp, b: PureProp) -> PureProp {
        PureProp::Or(Box::new(a), Box::new(b))
    }

    #[must_use]
    /// Negation.
    pub fn negate(a: PureProp) -> PureProp {
        PureProp::Not(Box::new(a))
    }

    #[must_use]
    /// Implication.
    pub fn implies(a: PureProp, b: PureProp) -> PureProp {
        PureProp::Implies(Box::new(a), Box::new(b))
    }

    /// Conjunction of a list of propositions.
    #[must_use]
    pub fn conj<I: IntoIterator<Item = PureProp>>(props: I) -> PureProp {
        props.into_iter().fold(PureProp::True, PureProp::and)
    }

    /// Pushes a negation one constructor inwards, producing the classical
    /// dual. Used by the solver's refutation step and by the disjunction
    /// guard check (§5.3).
    #[must_use]
    pub fn negated(&self) -> PureProp {
        match self {
            PureProp::True => PureProp::False,
            PureProp::False => PureProp::True,
            PureProp::Eq(a, b) => PureProp::Ne(a.clone(), b.clone()),
            PureProp::Ne(a, b) => PureProp::Eq(a.clone(), b.clone()),
            PureProp::Le(a, b) => PureProp::Lt(b.clone(), a.clone()),
            PureProp::Lt(a, b) => PureProp::Le(b.clone(), a.clone()),
            PureProp::And(a, b) => PureProp::or(a.negated(), b.negated()),
            PureProp::Or(a, b) => PureProp::and(a.negated(), b.negated()),
            PureProp::Not(a) => (**a).clone(),
            PureProp::Implies(a, b) => PureProp::and((**a).clone(), b.negated()),
        }
    }

    /// Applies a substitution to all embedded terms, sharing every term
    /// it does not touch (see [`Subst::apply`]).
    #[must_use]
    pub fn subst(&self, s: &Subst) -> PureProp {
        let mut out = self.clone();
        out.subst_in_place(s);
        out
    }

    /// [`PureProp::subst`] in place: only the touched term leaves are
    /// rewritten.
    pub fn subst_in_place(&mut self, s: &Subst) {
        self.visit_terms_mut(&mut |t| s.apply_in_place(t));
    }

    /// Resolves solved evars in all embedded terms.
    #[must_use]
    pub fn zonk(&self, ctx: &VarCtx) -> PureProp {
        let mut out = self.clone();
        out.zonk_in_place(ctx);
        out
    }

    /// [`PureProp::zonk`] in place: only the term leaves that
    /// [`Term::needs_zonk`] are rewritten.
    pub fn zonk_in_place(&mut self, ctx: &VarCtx) {
        self.visit_terms_mut(&mut |t| t.zonk_in_place(ctx));
    }

    /// Whether [`PureProp::zonk`] would change anything (see
    /// [`Term::needs_zonk`]). Early-exits on the first affected term.
    #[must_use]
    pub fn needs_zonk(&self, ctx: &VarCtx) -> bool {
        self.any_term(&|t| t.needs_zonk(ctx))
    }

    /// Whether `p` holds of some term leaf; stops at the first that does.
    pub fn any_term(&self, p: &impl Fn(&Term) -> bool) -> bool {
        match self {
            PureProp::True | PureProp::False => false,
            PureProp::Eq(a, b) | PureProp::Ne(a, b) | PureProp::Le(a, b) | PureProp::Lt(a, b) => {
                p(a) || p(b)
            }
            PureProp::And(a, b) | PureProp::Or(a, b) | PureProp::Implies(a, b) => {
                a.any_term(p) || b.any_term(p)
            }
            PureProp::Not(a) => a.any_term(p),
        }
    }

    /// Calls `f` on every term leaf, mutably.
    pub fn visit_terms_mut(&mut self, f: &mut impl FnMut(&mut Term)) {
        match self {
            PureProp::True | PureProp::False => {}
            PureProp::Eq(a, b) | PureProp::Ne(a, b) | PureProp::Le(a, b) | PureProp::Lt(a, b) => {
                f(a);
                f(b);
            }
            PureProp::And(a, b) | PureProp::Or(a, b) | PureProp::Implies(a, b) => {
                a.visit_terms_mut(f);
                b.visit_terms_mut(f);
            }
            PureProp::Not(a) => a.visit_terms_mut(f),
        }
    }

    /// Visits every term leaf.
    pub fn visit_terms(&self, f: &mut impl FnMut(&Term)) {
        match self {
            PureProp::True | PureProp::False => {}
            PureProp::Eq(a, b) | PureProp::Ne(a, b) | PureProp::Le(a, b) | PureProp::Lt(a, b) => {
                f(a);
                f(b);
            }
            PureProp::And(a, b) | PureProp::Or(a, b) | PureProp::Implies(a, b) => {
                a.visit_terms(f);
                b.visit_terms(f);
            }
            PureProp::Not(a) => a.visit_terms(f),
        }
    }

    /// Free variables of the proposition.
    #[must_use]
    pub fn free_vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.visit_terms(&mut |t| t.collect_vars(&mut out));
        out
    }

    /// Whether any embedded term mentions an evar.
    #[must_use]
    pub fn has_evars(&self) -> bool {
        let mut found = false;
        self.visit_terms(&mut |t| found |= t.has_evars());
        found
    }

    /// Ground evaluation, used by property tests to validate the solver:
    /// returns `None` when a term is not ground or not decidable by
    /// constant folding.
    #[must_use]
    pub fn eval_ground(&self, ctx: &VarCtx) -> Option<bool> {
        match self {
            PureProp::True => Some(true),
            PureProp::False => Some(false),
            PureProp::Eq(a, b) => ground_cmp(ctx, a, b).map(|o| o == std::cmp::Ordering::Equal),
            PureProp::Ne(a, b) => ground_cmp(ctx, a, b).map(|o| o != std::cmp::Ordering::Equal),
            PureProp::Le(a, b) => ground_cmp(ctx, a, b).map(|o| o != std::cmp::Ordering::Greater),
            PureProp::Lt(a, b) => ground_cmp(ctx, a, b).map(|o| o == std::cmp::Ordering::Less),
            PureProp::And(a, b) => Some(a.eval_ground(ctx)? && b.eval_ground(ctx)?),
            PureProp::Or(a, b) => Some(a.eval_ground(ctx)? || b.eval_ground(ctx)?),
            PureProp::Not(a) => a.eval_ground(ctx).map(|b| !b),
            PureProp::Implies(a, b) => Some(!a.eval_ground(ctx)? || b.eval_ground(ctx)?),
        }
    }
}

fn ground_cmp(ctx: &VarCtx, a: &Term, b: &Term) -> Option<std::cmp::Ordering> {
    let a = a.zonk(ctx);
    let b = b.zonk(ctx);
    if !(a.is_ground() && b.is_ground()) {
        return None;
    }
    if a.sort(ctx).is_numeric() {
        let na = normalize(ctx, &a);
        let nb = normalize(ctx, &b);
        if na.is_constant() && nb.is_constant() {
            return Some(na.constant.cmp(&nb.constant));
        }
        return None;
    }
    // Structural comparison for value-like sorts; only equality and
    // disequality are meaningful, but Ord gives us a consistent answer.
    Some(a.cmp(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    #[test]
    fn negation_duals() {
        let a = Term::int(1);
        let b = Term::int(2);
        assert_eq!(
            PureProp::le(a.clone(), b.clone()).negated(),
            PureProp::lt(b.clone(), a.clone())
        );
        assert_eq!(
            PureProp::eq(a.clone(), b.clone()).negated(),
            PureProp::ne(a, b)
        );
    }

    #[test]
    fn conj_flattens_true() {
        let p = PureProp::conj(vec![
            PureProp::True,
            PureProp::eq(Term::int(1), Term::int(1)),
        ]);
        assert_eq!(p, PureProp::eq(Term::int(1), Term::int(1)));
        assert_eq!(PureProp::conj(Vec::new()), PureProp::True);
    }

    #[test]
    fn ground_evaluation() {
        let ctx = VarCtx::new();
        assert_eq!(
            PureProp::lt(Term::int(1), Term::int(2)).eval_ground(&ctx),
            Some(true)
        );
        assert_eq!(
            PureProp::eq(Term::v_bool_lit(true), Term::v_bool_lit(false)).eval_ground(&ctx),
            Some(false)
        );
        assert_eq!(
            PureProp::eq(Term::add(Term::int(1), Term::int(1)), Term::int(2)).eval_ground(&ctx),
            Some(true)
        );
    }

    #[test]
    fn non_ground_is_none() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Int, "x");
        assert_eq!(
            PureProp::lt(Term::var(x), Term::int(2)).eval_ground(&ctx),
            None
        );
    }

    #[test]
    fn free_vars_and_evars() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Int, "x");
        let e = ctx.fresh_evar(Sort::Int);
        let p = PureProp::eq(Term::var(x), Term::evar(e));
        assert_eq!(p.free_vars(), vec![x]);
        assert!(p.has_evars());
    }

    #[test]
    fn subst_and_zonk() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Int, "x");
        let e = ctx.fresh_evar(Sort::Int);
        ctx.solve_evar(e, Term::int(3));
        let p = PureProp::eq(Term::var(x), Term::evar(e));
        let s = Subst::single(x, Term::int(3));
        assert_eq!(
            p.subst(&s).zonk(&ctx),
            PureProp::eq(Term::int(3), Term::int(3))
        );
    }
}
