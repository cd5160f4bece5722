//! The syntactic categories of the Diaframe grammar (§5.1).
//!
//! ```text
//! atoms          A    ::= wp e {v. L} | χ | ⌜L⌝^N | ℓ ↦{q} v | ghost | P t⃗
//! left-goals     L    ::= ⌜φ⌝ | A | L ∗ L | ∃x. L          (+ L ∨ L, §5.3)
//! unstructureds  U    ::= ⌜φ⌝ | A | U ∗ U | ∃x. L | ∀x. U
//!                       | L −∗ U | |⇛ U                    (+ U ∨ U, ▷ U)
//! clean hyps     H_C  ::= A | ∀x. U | L −∗ U | |⇛ U | ▷ H_C
//! ```

use crate::assertion::Assertion;

/// Which grammar categories an assertion belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    /// An atom `A`.
    pub is_atom: bool,
    /// A left-goal `L` (what may appear left of `∗` in the synthetic
    /// `∥|⇛∥ ∃x⃗. L ∗ G` goal, in invariants, and in wand premises).
    pub is_left_goal: bool,
    /// An unstructured hypothesis `U` (what may be introduced by `−∗`).
    pub is_unstructured: bool,
    /// A clean hypothesis `H_C` (fully decomposed, ready for the context).
    pub is_clean_hyp: bool,
}

/// Classifies an assertion.
#[must_use]
pub fn classify(a: &Assertion) -> Class {
    let is_atom = matches!(a, Assertion::Atom(_));
    Class {
        is_atom,
        is_left_goal: is_left_goal(a),
        is_unstructured: is_unstructured(a),
        is_clean_hyp: is_clean_hyp(a),
    }
}

/// Whether the assertion is a left-goal `L`.
#[must_use]
pub fn is_left_goal(a: &Assertion) -> bool {
    match a {
        Assertion::Pure(_) | Assertion::Atom(_) => true,
        Assertion::Sep(l, r) | Assertion::Or(l, r) => is_left_goal(l) && is_left_goal(r),
        Assertion::Exists(_, body) => is_left_goal(body),
        // Invariant bodies carry laters after opening; allow ▷L as L.
        Assertion::Later(body) => is_left_goal(body),
        Assertion::Forall(..) | Assertion::Wand(..) | Assertion::BUpd(_) | Assertion::FUpd(..) => {
            false
        }
    }
}

/// Whether the assertion is an unstructured hypothesis `U`.
#[must_use]
pub fn is_unstructured(a: &Assertion) -> bool {
    match a {
        Assertion::Pure(_) | Assertion::Atom(_) => true,
        Assertion::Sep(l, r) | Assertion::Or(l, r) => is_unstructured(l) && is_unstructured(r),
        Assertion::Exists(_, body) => is_left_goal(body),
        Assertion::Forall(_, body) => is_unstructured(body),
        Assertion::Wand(p, c) => is_left_goal(p) && is_unstructured(c),
        Assertion::Later(body) => is_unstructured(body),
        Assertion::BUpd(body) | Assertion::FUpd(_, _, body) => is_unstructured(body),
    }
}

/// Whether the assertion is a clean hypothesis `H_C` (nothing left for the
/// introduction rules to decompose).
#[must_use]
pub fn is_clean_hyp(a: &Assertion) -> bool {
    match a {
        Assertion::Atom(_) => true,
        Assertion::Forall(_, body) => is_unstructured(body),
        Assertion::Wand(p, c) => is_left_goal(p) && is_unstructured(c),
        Assertion::BUpd(body) | Assertion::FUpd(_, _, body) => is_unstructured(body),
        // A later that could not be stripped stays as a (less useful)
        // hypothesis.
        Assertion::Later(body) => is_clean_hyp(body),
        Assertion::Pure(_) | Assertion::Sep(..) | Assertion::Or(..) | Assertion::Exists(..) => {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Binder;
    use crate::atom::Atom;
    use diaframe_term::{PureProp, Sort, Term, VarCtx};

    fn pt() -> Assertion {
        Assertion::atom(Atom::points_to(Term::Loc(0), Term::v_unit()))
    }

    #[test]
    fn atoms_are_everything() {
        let c = classify(&pt());
        assert!(c.is_atom && c.is_left_goal && c.is_unstructured && c.is_clean_hyp);
    }

    #[test]
    fn pure_is_not_clean() {
        let c = classify(&Assertion::pure(PureProp::True));
        assert!(!c.is_atom);
        assert!(c.is_left_goal && c.is_unstructured);
        assert!(!c.is_clean_hyp); // pure facts move into Γ instead
    }

    #[test]
    fn exists_sep_or_are_left_goals() {
        let mut ctx = VarCtx::new();
        let z = ctx.fresh_var(Sort::Int, "z");
        let a = Assertion::exists(
            Binder::new(z),
            Assertion::sep(pt(), Assertion::or(Assertion::pure(PureProp::True), pt())),
        );
        assert!(is_left_goal(&a));
        assert!(is_unstructured(&a));
        assert!(!is_clean_hyp(&a));
    }

    #[test]
    fn wands_are_clean_but_not_left_goals() {
        let w = Assertion::wand(pt(), pt());
        assert!(!is_left_goal(&w));
        assert!(is_unstructured(&w));
        assert!(is_clean_hyp(&w));
    }

    #[test]
    fn wand_premise_must_be_left_goal() {
        // (L −∗ U) −∗ U is not unstructured: the premise is not a left-goal.
        let inner = Assertion::wand(pt(), pt());
        let w = Assertion::wand(inner, pt());
        assert!(!is_unstructured(&w));
    }

    #[test]
    fn foralls_are_clean() {
        let mut ctx = VarCtx::new();
        let z = ctx.fresh_var(Sort::Int, "z");
        let f = Assertion::forall(Binder::new(z), pt());
        assert!(is_clean_hyp(&f));
        assert!(!is_left_goal(&f));
    }
}
