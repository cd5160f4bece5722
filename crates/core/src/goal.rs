//! The goal grammar `G` of §5.1.

use diaframe_heaplang::Expr;
use diaframe_logic::assertion::rewrite_shared;
use diaframe_logic::{Assertion, Binder, MaskT, WpPost};
use diaframe_term::{Subst, Term, VarCtx};

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

    /// Applies a substitution to every embedded assertion, in place:
    /// only the touched leaves are rewritten (see
    /// [`Assertion::subst_in_place`]).
    pub fn subst_in_place(&mut self, s: &Subst) {
        self.rewrite_terms(&|t| s.touches(t), &|t| s.apply_in_place(t));
    }

    /// Zonks every embedded assertion, in place.
    pub fn zonk_in_place(&mut self, ctx: &VarCtx) {
        self.rewrite_terms(&|t| t.needs_zonk(ctx), &|t| t.zonk_in_place(ctx));
    }

    /// See [`Assertion::rewrite_terms`].
    fn rewrite_terms(&mut self, hit: &impl Fn(&Term) -> bool, f: &impl Fn(&mut Term)) {
        let mut g = self;
        loop {
            g = match g {
                Goal::Forall(_, g) | Goal::StripLaters(g) => g,
                Goal::WandIntro(u, g) => {
                    u.rewrite_terms(hit, f);
                    g
                }
                Goal::Wp { post, then, .. } => {
                    rewrite_shared(&mut post.body, hit, f);
                    then
                }
                Goal::Fupd { inner, .. } => {
                    inner.rewrite_terms(hit, f);
                    return;
                }
                Goal::SynFupd { lhs, cont, .. } => {
                    lhs.rewrite_terms(hit, f);
                    cont
                }
                Goal::MaskSync { cont, .. } => cont,
                Goal::Done => return,
            };
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
        let mut g = Goal::wand_intro(
            Assertion::pure(PureProp::eq(Term::var(x), Term::v_unit())),
            Goal::Done,
        );
        let s = Subst::single(x, Term::v_int_lit(1));
        g.subst_in_place(&s);
        match g {
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
        let mut g = Goal::SynFupd {
            from: MaskT::top(),
            to: MaskT::top(),
            exists: Vec::new(),
            lhs: Assertion::atom(Atom::points_to(Term::evar(e), Term::v_unit())),
            cont: Box::new(Goal::Done),
        };
        g.zonk_in_place(&vars);
        match g {
            Goal::SynFupd { lhs, .. } => assert_eq!(
                lhs,
                Assertion::atom(Atom::points_to(Term::Loc(7), Term::v_unit()))
            ),
            other => panic!("unexpected: {other:?}"),
        }
    }
}
