//! Linear normal forms for numeric terms.
//!
//! Terms of the numeric sorts are normalised into a linear combination
//! `c + Σᵢ qᵢ·tᵢ` where the `tᵢ` are non-arithmetic *atoms* (variables,
//! evars, or opaque applications such as `min`/`max`). The normal form backs
//! both unification-modulo-arithmetic (`z + (-1)` matches `-1 + z`) and the
//! Fourier–Motzkin pure solver. Normalising is one structural walk over
//! the zonked term; nothing is memoized.

use crate::evar::{EVarId, VarCtx};
use crate::qp::Rat;
use crate::term::{Sym, Term};
use std::collections::BTreeMap;

/// A linear combination over term atoms with rational coefficients.
///
/// Invariant: no stored coefficient is zero, and no stored atom is itself an
/// arithmetic application.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinComb {
    /// The constant summand.
    pub constant: Rat,
    /// Coefficients of the non-constant atoms.
    pub coeffs: BTreeMap<Term, Rat>,
}

impl LinComb {
    /// The zero combination.
    #[must_use]
    pub fn zero() -> LinComb {
        LinComb::default()
    }

    /// A constant combination.
    #[must_use]
    pub fn constant(c: Rat) -> LinComb {
        LinComb {
            constant: c,
            coeffs: BTreeMap::new(),
        }
    }

    /// A single atom with coefficient 1.
    #[must_use]
    pub fn atom(t: Term) -> LinComb {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(t, Rat::ONE);
        LinComb {
            constant: Rat::ZERO,
            coeffs,
        }
    }

    /// Adds `q · t` to the combination.
    pub fn add_term(&mut self, t: Term, q: Rat) {
        if q.is_zero() {
            return;
        }
        let entry = self.coeffs.entry(t).or_insert(Rat::ZERO);
        *entry = *entry + q;
        if entry.is_zero() {
            // Re-borrowing to remove; find the key we just zeroed.
            self.coeffs.retain(|_, v| !v.is_zero());
        }
    }

    /// Pointwise addition.
    #[must_use]
    pub fn plus(&self, other: &LinComb) -> LinComb {
        let mut out = self.clone();
        out.constant = out.constant + other.constant;
        for (t, q) in &other.coeffs {
            out.add_term(t.clone(), *q);
        }
        out
    }

    /// Pointwise subtraction.
    #[must_use]
    pub fn minus(&self, other: &LinComb) -> LinComb {
        self.plus(&other.scale(-Rat::ONE))
    }

    /// Scales every coefficient (and the constant).
    #[must_use]
    pub fn scale(&self, q: Rat) -> LinComb {
        if q.is_zero() {
            return LinComb::zero();
        }
        LinComb {
            constant: self.constant * q,
            coeffs: self
                .coeffs
                .iter()
                .map(|(t, c)| (t.clone(), *c * q))
                .collect(),
        }
    }

    /// Whether the combination is a constant.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// If the combination is `c + q·?e` for a single unsolved evar `?e`,
    /// returns `(e, q, c)`.
    #[must_use]
    pub fn as_single_evar(&self, ctx: &VarCtx) -> Option<(EVarId, Rat, Rat)> {
        if self.coeffs.len() != 1 {
            return None;
        }
        let (t, q) = self.coeffs.iter().next()?;
        match t {
            Term::EVar(e) if ctx.evar_unsolved(*e) => Some((*e, *q, self.constant)),
            _ => None,
        }
    }

    /// Renders the combination back into a canonical term of the given
    /// integral-ness (`true` → integer literals where possible).
    #[must_use]
    pub fn to_term(&self, integral: bool) -> Term {
        let lit = |r: Rat| -> Term {
            if integral {
                Term::Int(
                    r.to_integer()
                        .expect("non-integral constant in integer term"),
                )
            } else {
                match crate::qp::Qp::from_rat(r) {
                    Some(q) => Term::QpLit(q),
                    // Negative/zero rationals cannot be Qp literals; fall back
                    // to a subtraction from zero-ish encoding via Neg.
                    None => Term::neg(Term::QpLit(
                        crate::qp::Qp::from_rat(-r).expect("nonzero rational"),
                    )),
                }
            }
        };
        let mut acc: Option<Term> = if self.constant.is_zero() && !self.coeffs.is_empty() {
            None
        } else {
            Some(lit(self.constant))
        };
        for (t, q) in &self.coeffs {
            let part = if *q == Rat::ONE {
                t.clone()
            } else {
                Term::mul(lit(*q), t.clone())
            };
            acc = Some(match acc {
                None => part,
                Some(a) => Term::add(a, part),
            });
        }
        acc.unwrap_or_else(|| lit(Rat::ZERO))
    }
}

/// Normalises a numeric term into a [`LinComb`]. The term is zonked first,
/// so solved evars are transparent.
#[must_use]
pub fn normalize(ctx: &VarCtx, t: &Term) -> LinComb {
    normalize_zonked(&t.zonk(ctx))
}

fn normalize_zonked(t: &Term) -> LinComb {
    match t {
        Term::Int(n) => LinComb::constant(Rat::from_int(*n)),
        Term::QpLit(q) => LinComb::constant(q.as_rat()),
        Term::App(Sym::Add, args) => normalize_zonked(&args[0]).plus(&normalize_zonked(&args[1])),
        Term::App(Sym::Sub, args) => normalize_zonked(&args[0]).minus(&normalize_zonked(&args[1])),
        Term::App(Sym::Neg, args) => normalize_zonked(&args[0]).scale(-Rat::ONE),
        Term::App(Sym::Mul, args) => {
            let a = normalize_zonked(&args[0]);
            let b = normalize_zonked(&args[1]);
            if a.is_constant() {
                b.scale(a.constant)
            } else if b.is_constant() {
                a.scale(b.constant)
            } else {
                // Nonlinear: keep the whole product as an opaque atom.
                LinComb::atom(t.clone())
            }
        }
        _ => LinComb::atom(t.clone()),
    }
}

/// Whether two numeric terms are equal modulo linear-arithmetic
/// normalisation.
#[must_use]
pub fn arith_eq(ctx: &VarCtx, a: &Term, b: &Term) -> bool {
    normalize(ctx, a) == normalize(ctx, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    #[test]
    fn commutativity_and_constants() {
        let mut ctx = VarCtx::new();
        let z = ctx.fresh_var(Sort::Int, "z");
        let zt = Term::var(z);
        let a = Term::add(zt.clone(), Term::int(-1));
        let b = Term::add(Term::int(-1), zt.clone());
        assert!(arith_eq(&ctx, &a, &b));
        let c = Term::sub(zt, Term::int(1));
        assert!(arith_eq(&ctx, &a, &c));
    }

    #[test]
    fn cancellation() {
        let mut ctx = VarCtx::new();
        let z = ctx.fresh_var(Sort::Int, "z");
        let zt = Term::var(z);
        let t = Term::sub(Term::add(zt.clone(), Term::int(3)), zt);
        assert_eq!(normalize(&ctx, &t), LinComb::constant(Rat::from_int(3)));
    }

    #[test]
    fn scaling_through_mul() {
        let mut ctx = VarCtx::new();
        let z = ctx.fresh_var(Sort::Int, "z");
        let t = Term::mul(Term::int(2), Term::add(Term::var(z), Term::int(1)));
        let n = normalize(&ctx, &t);
        assert_eq!(n.constant, Rat::from_int(2));
        assert_eq!(n.coeffs.get(&Term::var(z)), Some(&Rat::from_int(2)));
    }

    #[test]
    fn nonlinear_is_opaque() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Int, "x");
        let y = ctx.fresh_var(Sort::Int, "y");
        let t = Term::mul(Term::var(x), Term::var(y));
        let n = normalize(&ctx, &t);
        assert_eq!(n.coeffs.len(), 1);
        assert!(n.coeffs.contains_key(&t));
    }

    #[test]
    fn zonks_before_normalising() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        ctx.solve_evar(e, Term::int(4));
        let t = Term::add(Term::evar(e), Term::int(1));
        assert_eq!(normalize(&ctx, &t), LinComb::constant(Rat::from_int(5)));
    }

    #[test]
    fn single_evar_detection() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        let t = Term::add(Term::evar(e), Term::int(2));
        let n = normalize(&ctx, &t);
        let (found, q, c) = n.as_single_evar(&ctx).unwrap();
        assert_eq!(found, e);
        assert_eq!(q, Rat::ONE);
        assert_eq!(c, Rat::from_int(2));
    }

    #[test]
    fn to_term_round_trips() {
        let mut ctx = VarCtx::new();
        let z = ctx.fresh_var(Sort::Int, "z");
        let t = Term::add(Term::int(2), Term::mul(Term::int(3), Term::var(z)));
        let n = normalize(&ctx, &t);
        let back = n.to_term(true);
        assert!(arith_eq(&ctx, &t, &back));
    }
}
