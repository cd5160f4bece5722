//! Substitution of universal variables.
//!
//! Substitutions instantiate the quantified variables of specification
//! schemas and hint schemas when they are applied: the schema's binders are
//! mapped either to fresh variables, to evars, or to concrete terms.

use crate::evar::VarId;
use crate::term::Term;
use std::collections::BTreeMap;

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

    /// Applies the substitution to a term. Unbound variables are left alone.
    #[must_use]
    pub fn apply(&self, t: &Term) -> Term {
        if self.map.is_empty() {
            return t.clone();
        }
        match t {
            Term::Var(v) => match self.map.get(v) {
                Some(u) => u.clone(),
                None => t.clone(),
            },
            Term::App(sym, args) => Term::App(*sym, args.iter().map(|a| self.apply(a)).collect()),
            _ => t.clone(),
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
