//! Syntactic unification with scope-checked evar instantiation.
//!
//! Unification is syntactic-first (as in the paper, §8: "we use syntactic
//! unification to drive automation"), with a linear-arithmetic fallback for
//! the numeric sorts so that, e.g., `z + (-1)` unifies with `-1 + z`, and
//! `?p + 1` against `z` solves `?p := z − 1`.
//!
//! Evar instantiation enforces the §3.2 scope discipline (see
//! [`crate::evar`]): solving an evar with a term that mentions variables
//! introduced later fails with [`UnifyError::Scope`] instead of producing an
//! unsound proof.

use crate::evar::VarCtx;
use crate::normalize::normalize;
use crate::sort::Sort;
use crate::term::Term;
use std::fmt;

/// Why unification failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnifyError {
    /// Head symbols or literals differ.
    Mismatch,
    /// The occurs check failed (`?e` inside its own candidate solution).
    Occurs,
    /// The candidate solution mentions a variable newer than the evar
    /// (the delayed-instantiation discipline of §3.2).
    Scope,
    /// The sorts of the two sides differ.
    SortMismatch,
    /// An integer evar would need a non-integral solution.
    NonIntegral,
}

impl fmt::Display for UnifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnifyError::Mismatch => "terms do not match",
            UnifyError::Occurs => "occurs check failed",
            UnifyError::Scope => "evar scope violation (variable introduced after the evar)",
            UnifyError::SortMismatch => "sort mismatch",
            UnifyError::NonIntegral => "integer evar requires non-integral solution",
        };
        f.write_str(s)
    }
}

impl std::error::Error for UnifyError {}

/// Unifies two terms, solving evars in the process.
///
/// On failure the context may contain partial solutions; callers that probe
/// speculatively must bracket the call with [`VarCtx::checkpoint`] /
/// [`VarCtx::rollback`].
///
/// # Errors
///
/// See [`UnifyError`].
pub fn unify(ctx: &mut VarCtx, a: &Term, b: &Term) -> Result<(), UnifyError> {
    let a = a.zonk(ctx);
    let b = b.zonk(ctx);
    unify_resolved(ctx, &a, &b)
}

fn unify_resolved(ctx: &mut VarCtx, a: &Term, b: &Term) -> Result<(), UnifyError> {
    if a == b {
        return Ok(());
    }
    match (a, b) {
        (Term::EVar(e), t) | (t, Term::EVar(e)) => assign(ctx, *e, t),
        // Arithmetic applications are compared via normal forms (below), not
        // structurally, so that `x + 1` unifies with `1 + x`.
        (Term::App(f, xs), Term::App(g, ys)) if f == g && !f.is_arith() => {
            for (x, y) in xs.iter().zip(ys.iter()) {
                unify(ctx, x, y)?;
            }
            Ok(())
        }
        _ => {
            // Arithmetic fallback for numeric sorts.
            let sa = a.sort(ctx);
            let sb = b.sort(ctx);
            if sa != sb {
                return Err(UnifyError::SortMismatch);
            }
            if sa.is_numeric() {
                return unify_numeric(ctx, a, b, sa);
            }
            Err(UnifyError::Mismatch)
        }
    }
}

fn assign(ctx: &mut VarCtx, e: crate::evar::EVarId, t: &Term) -> Result<(), UnifyError> {
    let t = t.zonk(ctx);
    if let Term::EVar(f) = t {
        if f == e {
            return Ok(());
        }
    }
    if t.mentions_evar(e) {
        return Err(UnifyError::Occurs);
    }
    if t.sort(ctx) != ctx.evar_sort(e) {
        return Err(UnifyError::SortMismatch);
    }
    let level = ctx.evar_level(e);
    if !ctx.scope_check(level, &t) {
        return Err(UnifyError::Scope);
    }
    // Level pruning: evars inside the solution are lowered to our level so
    // that the scope discipline remains transitive.
    let mut inner = Vec::new();
    t.collect_evars(&mut inner);
    for f in inner {
        ctx.lower_evar_level(f, level);
    }
    ctx.solve_evar(e, t);
    Ok(())
}

/// Numeric fallback: compare linear normal forms; if the difference is
/// `c + q·?e` for a single unsolved evar, solve for it.
fn unify_numeric(ctx: &mut VarCtx, a: &Term, b: &Term, sort: Sort) -> Result<(), UnifyError> {
    let na = normalize(ctx, a);
    let nb = normalize(ctx, b);
    let diff = na.minus(&nb);
    if diff.is_constant() {
        return if diff.constant.is_zero() {
            Ok(())
        } else {
            Err(UnifyError::Mismatch)
        };
    }
    // Find an unsolved-evar atom to solve for; try each candidate in turn
    // (a later candidate may succeed where an earlier one fails the scope
    // or integrality check).
    let candidates: Vec<(crate::evar::EVarId, crate::qp::Rat)> = diff
        .coeffs
        .iter()
        .filter_map(|(t, q)| match t {
            Term::EVar(e) if ctx.evar_unsolved(*e) => Some((*e, *q)),
            _ => None,
        })
        .collect();
    let mut last_err = UnifyError::Mismatch;
    for (e, q) in candidates {
        // diff = rest + q·?e = 0  ⇒  ?e = -rest / q.
        let mut rest = diff.clone();
        rest.coeffs
            .retain(|t, _| !matches!(t, Term::EVar(f) if *f == e));
        let sol = rest.scale(-q.recip());
        if sort.is_integral() {
            // All coefficients must be integral for an integer solution term.
            let integral = sol.constant.to_integer().is_some()
                && sol.coeffs.values().all(|c| c.to_integer().is_some());
            if !integral {
                last_err = UnifyError::NonIntegral;
                continue;
            }
        }
        let sol_term = sol.to_term(sort.is_integral());
        match assign(ctx, e, &sol_term) {
            Ok(()) => return Ok(()),
            Err(err) => last_err = err,
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::Qp;

    #[test]
    fn unifies_identical_and_literals() {
        let mut ctx = VarCtx::new();
        assert!(unify(&mut ctx, &Term::int(3), &Term::int(3)).is_ok());
        assert_eq!(
            unify(&mut ctx, &Term::int(3), &Term::int(4)),
            Err(UnifyError::Mismatch)
        );
        assert!(unify(&mut ctx, &Term::v_unit(), &Term::v_unit()).is_ok());
    }

    #[test]
    fn solves_evars() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Val);
        let t = Term::v_int_lit(5);
        unify(&mut ctx, &Term::evar(e), &t).unwrap();
        assert_eq!(Term::evar(e).zonk(&ctx), t);
    }

    #[test]
    fn decomposes_constructors() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        unify(&mut ctx, &Term::v_int(Term::evar(e)), &Term::v_int_lit(9)).unwrap();
        assert_eq!(Term::evar(e).zonk(&ctx), Term::int(9));
        assert_eq!(
            unify(&mut ctx, &Term::v_int_lit(1), &Term::v_bool_lit(true)),
            Err(UnifyError::Mismatch)
        );
    }

    #[test]
    fn occurs_check() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Val);
        let t = Term::v_pair(Term::evar(e), Term::v_unit());
        assert_eq!(unify(&mut ctx, &Term::evar(e), &t), Err(UnifyError::Occurs));
    }

    #[test]
    fn scope_discipline_from_the_paper() {
        // The failing FAA derivation of §3.2: an evar created before the
        // invariant was opened cannot capture the body's existential.
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        ctx.push_level();
        let z = ctx.fresh_var(Sort::Int, "z");
        assert_eq!(
            unify(&mut ctx, &Term::evar(e), &Term::var(z)),
            Err(UnifyError::Scope)
        );
        // The correct order: evar created after the variable is fine.
        let e2 = ctx.fresh_evar(Sort::Int);
        assert!(unify(&mut ctx, &Term::evar(e2), &Term::var(z)).is_ok());
    }

    #[test]
    fn level_pruning_is_transitive() {
        let mut ctx = VarCtx::new();
        let e_old = ctx.fresh_evar(Sort::Int);
        ctx.push_level();
        let z = ctx.fresh_var(Sort::Int, "z");
        let e_new = ctx.fresh_evar(Sort::Int);
        // Solving the old evar with the new one lowers the new evar's level…
        unify(&mut ctx, &Term::evar(e_old), &Term::evar(e_new)).unwrap();
        // …so the new evar can no longer capture z either.
        assert_eq!(
            unify(&mut ctx, &Term::evar(e_new), &Term::var(z)),
            Err(UnifyError::Scope)
        );
    }

    #[test]
    fn arithmetic_matching() {
        let mut ctx = VarCtx::new();
        let z = ctx.fresh_var(Sort::Int, "z");
        let zt = Term::var(z);
        let a = Term::add(zt.clone(), Term::int(-1));
        let b = Term::sub(zt.clone(), Term::int(1));
        assert!(unify(&mut ctx, &a, &b).is_ok());
        // ?p + 1 ≐ z  solves  ?p := z - 1.
        let p = ctx.fresh_evar(Sort::Int);
        unify(&mut ctx, &Term::add(Term::evar(p), Term::int(1)), &zt).unwrap();
        assert!(crate::normalize::arith_eq(
            &ctx,
            &Term::evar(p),
            &Term::sub(zt, Term::int(1))
        ));
    }

    #[test]
    fn fraction_matching() {
        let mut ctx = VarCtx::new();
        let q = ctx.fresh_evar(Sort::Qp);
        // ?q + 1/2 ≐ 1  solves  ?q := 1/2.
        unify(
            &mut ctx,
            &Term::add(Term::evar(q), Term::qp(Qp::half())),
            &Term::qp_one(),
        )
        .unwrap();
        assert_eq!(Term::evar(q).zonk(&ctx), Term::qp(Qp::half()));
    }

    #[test]
    fn integer_evars_need_integral_solutions() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        // 2·?e ≐ 3 has no integer solution.
        assert_eq!(
            unify(
                &mut ctx,
                &Term::mul(Term::int(2), Term::evar(e)),
                &Term::int(3)
            ),
            Err(UnifyError::NonIntegral)
        );
        // 2·?e ≐ 6 does.
        assert!(unify(
            &mut ctx,
            &Term::mul(Term::int(2), Term::evar(e)),
            &Term::int(6)
        )
        .is_ok());
        assert_eq!(Term::evar(e).zonk(&ctx), Term::int(3));
    }

    #[test]
    fn sort_mismatch_rejected() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        assert_eq!(
            unify(&mut ctx, &Term::evar(e), &Term::bool(true)),
            Err(UnifyError::SortMismatch)
        );
    }
}
