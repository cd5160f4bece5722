//! Substitution of universal variables.
//!
//! Substitutions instantiate the quantified variables of specification
//! schemas and hint schemas when they are applied: the schema's binders are
//! mapped either to fresh variables, to evars, or to concrete terms.
//!
//! Sharing contract: [`Subst::apply`] never copies what it does not
//! change. A term in which no variable of the domain occurs
//! ([`Subst::touches`] is false) comes back as a clone of itself (an
//! `Arc` bump), and in a touched term only the `App` spine above a
//! replaced variable is rebuilt; every untouched argument keeps its
//! argument list. Containers (pure propositions, atoms, assertions)
//! use [`Subst::touches`] to leave untouched subtrees alone.

use crate::evar::VarId;
use crate::term::Term;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A finite map from universal variables to terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subst {
    map: BTreeMap<VarId, Term>,
}

impl Subst {
    #[must_use]
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// A singleton substitution `[v := t]`.
    #[must_use]
    pub fn single(v: VarId, t: Term) -> Subst {
        let mut s = Subst::new();
        s.insert(v, t);
        s
    }

    /// Adds a binding, replacing any previous binding of `v`.
    pub fn insert(&mut self, v: VarId, t: Term) {
        self.map.insert(v, t);
    }

    #[must_use]
    /// The term substituted for `v`, if any.
    pub fn get(&self, v: VarId) -> Option<&Term> {
        self.map.get(&v)
    }

    #[must_use]
    /// Whether the substitution is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    #[must_use]
    /// Number of mapped variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Iterates over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &Term)> {
        self.map.iter().map(|(v, t)| (*v, t))
    }

    /// Whether some variable of the domain occurs in `t`, i.e. whether
    /// [`Subst::apply`] changes it. A read-only, allocation-free scan.
    #[must_use]
    pub fn touches(&self, t: &Term) -> bool {
        match t {
            Term::Var(v) => self.map.contains_key(v),
            Term::App(_, args) => args.iter().any(|a| self.touches(a)),
            _ => false,
        }
    }

    /// Applies the substitution to a term. Unbound variables are left
    /// alone, and so is every subterm the substitution does not touch:
    /// it is shared with `t`, not copied.
    #[must_use]
    pub fn apply(&self, t: &Term) -> Term {
        let mut out = t.clone();
        self.apply_in_place(&mut out);
        out
    }

    /// [`Subst::apply`] in place: rewrites only the touched leaves, and
    /// copies an argument list (`Arc::make_mut`) only on the way to one.
    pub fn apply_in_place(&self, t: &mut Term) {
        match t {
            Term::Var(v) => {
                if let Some(u) = self.map.get(v) {
                    *t = u.clone();
                }
            }
            Term::App(_, args) if args.iter().any(|a| self.touches(a)) => {
                for a in Arc::make_mut(args) {
                    self.apply_in_place(a);
                }
            }
            _ => {}
        }
    }
}

impl FromIterator<(VarId, Term)> for Subst {
    fn from_iter<I: IntoIterator<Item = (VarId, Term)>>(iter: I) -> Subst {
        Subst {
            map: iter.into_iter().collect(),
        }
    }
}

impl Extend<(VarId, Term)> for Subst {
    fn extend<I: IntoIterator<Item = (VarId, Term)>>(&mut self, iter: I) {
        self.map.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evar::VarCtx;
    use crate::sort::Sort;

    #[test]
    fn apply_substitutes_vars() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Int, "x");
        let y = ctx.fresh_var(Sort::Int, "y");
        let s = Subst::single(x, Term::int(5));
        let t = Term::add(Term::var(x), Term::var(y));
        assert_eq!(s.apply(&t), Term::add(Term::int(5), Term::var(y)));
    }

    #[test]
    fn apply_is_simultaneous() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Int, "x");
        let y = ctx.fresh_var(Sort::Int, "y");
        // [x := y, y := 1] applied to x + y gives y + 1, not 1 + 1.
        let s: Subst = [(x, Term::var(y)), (y, Term::int(1))].into_iter().collect();
        let t = Term::add(Term::var(x), Term::var(y));
        assert_eq!(s.apply(&t), Term::add(Term::var(y), Term::int(1)));
    }

    #[test]
    fn apply_shares_untouched_subterms() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Int, "x");
        let y = ctx.fresh_var(Sort::Int, "y");
        let s = Subst::single(x, Term::int(5));
        let untouched = Term::add(Term::var(y), Term::int(1));
        let t = Term::add(untouched.clone(), Term::neg(Term::var(x)));
        assert!(s.touches(&t) && !s.touches(&untouched));
        let out = s.apply(&t);
        assert_eq!(out, Term::add(untouched.clone(), Term::neg(Term::int(5))));
        let (Term::App(_, new), Term::App(_, old)) = (&out, &t) else {
            unreachable!()
        };
        // The spine above `x` is rebuilt; the `y + 1` argument is shared.
        assert!(!Arc::ptr_eq(new, old));
        let (Term::App(_, a), Term::App(_, b)) = (&new[0], &old[0]) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b));
        // Nothing touched: the very same argument list comes back.
        let Term::App(_, same) = s.apply(&untouched) else {
            unreachable!()
        };
        let Term::App(_, orig) = &untouched else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&same, orig));
    }

    #[test]
    fn collects_and_iterates() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Int, "x");
        let mut s = Subst::new();
        assert!(s.is_empty());
        s.insert(x, Term::int(2));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(x), Some(&Term::int(2)));
        assert_eq!(s.iter().count(), 1);
    }
}
