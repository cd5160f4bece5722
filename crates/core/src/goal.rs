//! The goal grammar `G` of §5.1.

use diaframe_heaplang::Expr;
use diaframe_logic::{Assertion, Binder, MaskT, WpPost};
use diaframe_term::{Subst, VarCtx};

/// A proof search goal (the grammar `G` of §5.1):
///
/// ```text
/// G ::= ∀x. G | U −∗ G | wp e {v. L} | |⇛E₁ E₂ L | ∥|⇛E₁ E₂∥ ∃x⃗. L ∗ G
/// ```
///
/// plus [`Goal::MaskSync`], an administrative node that reconciles two
/// masks by closing invariants (the engine's rendering of case 4a), and
/// [`Goal::Done`], the solved goal.
#[derive(Debug, Clone)]
pub enum Goal {
    /// `∀x. G`.
    Forall(Binder, Box<Goal>),
    /// `U −∗ G`.
    WandIntro(Assertion, Box<Goal>),
    /// `wp_E e {v. L}`, followed by a continuation goal.
    ///
    /// The continuation is how a forked thread's weakest precondition
    /// composes with the rest of the proof: branching inside the child
    /// proof then correctly covers the parent's remaining obligations.
    /// The main thread's `wp` carries [`Goal::Done`].
    Wp {
        /// The expression under execution.
        expr: Expr,
        /// The wp mask.
        mask: MaskT,
        /// The postcondition.
        post: WpPost,
        /// Goal to prove after the postcondition.
        then: Box<Goal>,
    },
    /// Strip one later from every hypothesis — performed when a program
    /// step is taken (the `▷` bookkeeping the paper glosses over in §3.2).
    StripLaters(Box<Goal>),
    /// `|⇛E₁ E₂ L`.
    Fupd {
        /// The source mask.
        from: MaskT,
        /// The target mask.
        to: MaskT,
        /// The body (a left-goal, possibly a `wp` atom).
        inner: Assertion,
    },
    /// The synthetic `∥|⇛E₁ E₂∥ ∃x⃗. L ∗ G`.
    SynFupd {
        /// The source mask.
        from: MaskT,
        /// The target mask.
        to: MaskT,
        /// The existential binders (placeholders; converted to evars when
        /// the atom containing them is selected — the *delayed
        /// instantiation* of §3.2).
        exists: Vec<Binder>,
        /// The left-goal to prove.
        lhs: Assertion,
        /// The continuation.
        cont: Box<Goal>,
    },
    /// Reconcile `from` with `to` (unify masks, or close the invariants in
    /// `from ∖ to` via `χ` obligations), then continue.
    MaskSync {
        /// The current mask.
        from: MaskT,
        /// The required mask.
        to: MaskT,
        /// The continuation.
        cont: Box<Goal>,
    },
    /// The solved goal.
    Done,
}

impl Goal {
    /// `∀x. G`.
    #[must_use]
    pub fn forall(b: Binder, g: Goal) -> Goal {
        Goal::Forall(b, Box::new(g))
    }

    /// `U −∗ G`.
    #[must_use]
    pub fn wand_intro(u: Assertion, g: Goal) -> Goal {
        Goal::WandIntro(u, Box::new(g))
    }

    /// Applies a substitution to every embedded assertion.
    #[must_use]
    pub fn subst(&self, s: &Subst) -> Goal {
        match self {
            Goal::Forall(b, g) => Goal::Forall(*b, Box::new(g.subst(s))),
            Goal::WandIntro(u, g) => Goal::WandIntro(u.subst(s), Box::new(g.subst(s))),
            Goal::Wp {
                expr,
                mask,
                post,
                then,
            } => Goal::Wp {
                expr: expr.clone(),
                mask: mask.clone(),
                post: WpPost {
                    ret: post.ret,
                    body: Box::new(post.body.subst(s)),
                },
                then: Box::new(then.subst(s)),
            },
            Goal::StripLaters(g) => Goal::StripLaters(Box::new(g.subst(s))),
            Goal::Fupd { from, to, inner } => Goal::Fupd {
                from: from.clone(),
                to: to.clone(),
                inner: inner.subst(s),
            },
            Goal::SynFupd {
                from,
                to,
                exists,
                lhs,
                cont,
            } => Goal::SynFupd {
                from: from.clone(),
                to: to.clone(),
                exists: exists.clone(),
                lhs: lhs.subst(s),
                cont: Box::new(cont.subst(s)),
            },
            Goal::MaskSync { from, to, cont } => Goal::MaskSync {
                from: from.clone(),
                to: to.clone(),
                cont: Box::new(cont.subst(s)),
            },
            Goal::Done => Goal::Done,
        }
    }

    /// Zonks every embedded assertion.
    #[must_use]
    pub fn zonk(&self, ctx: &VarCtx) -> Goal {
        match self {
            Goal::Forall(b, g) => Goal::Forall(*b, Box::new(g.zonk(ctx))),
            Goal::WandIntro(u, g) => Goal::WandIntro(u.zonk(ctx), Box::new(g.zonk(ctx))),
            Goal::Wp {
                expr,
                mask,
                post,
                then,
            } => Goal::Wp {
                expr: expr.clone(),
                mask: mask.clone(),
                post: WpPost {
                    ret: post.ret,
                    body: Box::new(post.body.zonk(ctx)),
                },
                then: Box::new(then.zonk(ctx)),
            },
            Goal::StripLaters(g) => Goal::StripLaters(Box::new(g.zonk(ctx))),
            Goal::Fupd { from, to, inner } => Goal::Fupd {
                from: from.clone(),
                to: to.clone(),
                inner: inner.zonk(ctx),
            },
            Goal::SynFupd {
                from,
                to,
                exists,
                lhs,
                cont,
            } => Goal::SynFupd {
                from: from.clone(),
                to: to.clone(),
                exists: exists.clone(),
                lhs: lhs.zonk(ctx),
                cont: Box::new(cont.zonk(ctx)),
            },
            Goal::MaskSync { from, to, cont } => Goal::MaskSync {
                from: from.clone(),
                to: to.clone(),
                cont: Box::new(cont.zonk(ctx)),
            },
            Goal::Done => Goal::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaframe_logic::Atom;
    use diaframe_term::{PureProp, Sort, Term};

    #[test]
    fn subst_reaches_nested_goals() {
        let mut vars = VarCtx::new();
        let x = vars.fresh_var(Sort::Val, "x");
        let g = Goal::wand_intro(
            Assertion::pure(PureProp::eq(Term::var(x), Term::v_unit())),
            Goal::Done,
        );
        let s = Subst::single(x, Term::v_int_lit(1));
        match g.subst(&s) {
            Goal::WandIntro(u, _) => assert_eq!(
                u,
                Assertion::pure(PureProp::eq(Term::v_int_lit(1), Term::v_unit()))
            ),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn zonk_reaches_syn_fupd() {
        let mut vars = VarCtx::new();
        let e = vars.fresh_evar(Sort::Loc);
        vars.solve_evar(e, Term::Loc(7));
        let g = Goal::SynFupd {
            from: MaskT::top(),
            to: MaskT::top(),
            exists: Vec::new(),
            lhs: Assertion::atom(Atom::points_to(Term::evar(e), Term::v_unit())),
            cont: Box::new(Goal::Done),
        };
        match g.zonk(&vars) {
            Goal::SynFupd { lhs, .. } => assert_eq!(
                lhs,
                Assertion::atom(Atom::points_to(Term::Loc(7), Term::v_unit()))
            ),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
