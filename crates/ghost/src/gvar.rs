//! Fractional ghost variables.
//!
//! `gvar γ q v` is fractional ownership `q` of a ghost cell holding `v`.
//! Two fractions agree on the value; the full fraction may update it.
//! Backed by fractions + agreement ([`diaframe_ra::frac`],
//! [`diaframe_ra::agree`]); used by the barrier, `inc_dec`, Peterson and
//! the reader-writer locks.

use crate::library::{GhostLibrary, HintCandidate, MergeOutcome};
use diaframe_logic::{Assertion, Atom, GhostAtom, GhostKind};
use diaframe_term::{PureProp, Qp, Sort, Term, VarCtx};

/// `gvar γ q v`.
pub const GVAR: GhostKind = GhostKind {
    id: 40,
    name: "gvar",
};

/// Builds `gvar γ q v`.
#[must_use]
pub fn gvar(gname: Term, frac: Term, v: Term) -> Atom {
    Atom::Ghost(GhostAtom {
        kind: GVAR,
        gname,
        pred: None,
        args: vec![frac, v],
    })
}

/// Builds the full-fraction `gvar γ 1 v`.
#[must_use]
pub fn gvar_full(gname: Term, v: Term) -> Atom {
    gvar(gname, Term::qp_one(), v)
}

/// Builds the half-fraction `gvar γ ½ v`.
#[must_use]
pub fn gvar_half(gname: Term, v: Term) -> Atom {
    gvar(gname, Term::qp(Qp::half()), v)
}

/// The fractional-ghost-variable library.
#[derive(Debug, Default)]
pub struct GVarLib;

impl GhostLibrary for GVarLib {
    fn name(&self) -> &'static str {
        "gvar"
    }

    fn kinds(&self) -> Vec<GhostKind> {
        vec![GVAR]
    }

    fn implied_facts(&self, atom: &GhostAtom) -> Vec<PureProp> {
        if atom.kind == GVAR {
            // Validity: the fraction is at most 1.
            vec![PureProp::le(atom.args[0].clone(), Term::qp_one())]
        } else {
            Vec::new()
        }
    }

    fn merge(&self, ctx: &mut VarCtx, a: &GhostAtom, b: &GhostAtom) -> Option<MergeOutcome> {
        if a.kind != GVAR || b.kind != GVAR {
            return None;
        }
        // gvar γ q₁ v ∗ gvar γ q₂ w ⊣⊢ gvar γ (q₁+q₂) v ∗ ⌜v = w⌝,
        // invalid when q₁ + q₂ > 1.
        let q1 = diaframe_term::normalize::normalize(ctx, &a.args[0]);
        let q2 = diaframe_term::normalize::normalize(ctx, &b.args[0]);
        let sum = q1.plus(&q2);
        if sum.is_constant() && sum.constant > diaframe_term::qp::Rat::ONE {
            return Some(MergeOutcome::Contradiction {
                rule: "gvar-frac-overflow",
            });
        }
        let merged = GhostAtom {
            kind: GVAR,
            gname: a.gname.clone(),
            pred: None,
            args: vec![
                Term::add(a.args[0].clone(), b.args[0].clone()),
                a.args[1].clone(),
            ],
        };
        Some(MergeOutcome::Merged {
            rule: "gvar-agree",
            atom: merged,
            facts: vec![PureProp::eq(a.args[1].clone(), b.args[1].clone())],
        })
    }

    fn hints(&self, _ctx: &mut VarCtx, hyp: &GhostAtom, goal: &Atom) -> Vec<HintCandidate> {
        let Atom::Ghost(g) = goal else {
            return Vec::new();
        };
        if hyp.kind != GVAR || g.kind != GVAR {
            return Vec::new();
        }
        let (q, v) = (hyp.args[0].clone(), hyp.args[1].clone());
        let (q2, v2) = (g.args[0].clone(), g.args[1].clone());
        // gvar-update: full ownership may change the value arbitrarily.
        let mut out = vec![HintCandidate::new("gvar-update")
            .unify(g.gname.clone(), hyp.gname.clone())
            .guard(PureProp::eq(q.clone(), Term::qp_one()))
            .guard(PureProp::eq(q2.clone(), Term::qp_one()))];
        // gvar-update-split: full ownership updates the value and gives
        // out a fraction, keeping the rest at the new value.
        out.push(
            HintCandidate::new("gvar-update-split")
                .unify(g.gname.clone(), hyp.gname.clone())
                .guard(PureProp::eq(q.clone(), Term::qp_one()))
                .guard(PureProp::lt(q2.clone(), Term::qp_one()))
                .residue(Assertion::atom(gvar(
                    hyp.gname.clone(),
                    Term::sub(Term::qp_one(), q2.clone()),
                    v2.clone(),
                ))),
        );
        // gvar-split: give away a smaller fraction, keep the rest.
        out.push(
            HintCandidate::new("gvar-split")
                .unify(g.gname.clone(), hyp.gname.clone())
                .unify(v2.clone(), v.clone())
                .guard(PureProp::lt(q2.clone(), q.clone()))
                .residue(Assertion::atom(gvar(
                    hyp.gname.clone(),
                    Term::sub(q.clone(), q2.clone()),
                    v.clone(),
                ))),
        );
        // gvar-join: the goal wants a bigger fraction; demand the missing
        // part as a side condition (agreement forces the same value).
        out.push(
            HintCandidate::new("gvar-join")
                .unify(g.gname.clone(), hyp.gname.clone())
                .unify(v2, v.clone())
                .guard(PureProp::lt(q.clone(), q2.clone()))
                .side(Assertion::atom(gvar(
                    hyp.gname.clone(),
                    Term::sub(q2, q),
                    v,
                ))),
        );
        out
    }

    fn allocations(&self, ctx: &mut VarCtx, goal: &GhostAtom) -> Vec<HintCandidate> {
        if goal.kind != GVAR {
            return Vec::new();
        }
        let fresh = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        // gvar-allocate: ⊢ ¤|⇛ ∃γ. gvar γ 1 v (for any v); when the goal
        // wants only a fraction, keep the rest as residue.
        vec![
            HintCandidate::new("gvar-allocate")
                .unify(goal.gname.clone(), fresh.clone())
                .guard(PureProp::eq(goal.args[0].clone(), Term::qp_one())),
            HintCandidate::new("gvar-allocate-split")
                .unify(goal.gname.clone(), fresh.clone())
                .guard(PureProp::lt(goal.args[0].clone(), Term::qp_one()))
                .residue(Assertion::atom(gvar(
                    fresh,
                    Term::sub(Term::qp_one(), goal.args[0].clone()),
                    goal.args[1].clone(),
                ))),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghost(a: Atom) -> GhostAtom {
        match a {
            Atom::Ghost(g) => g,
            other => panic!("not a ghost atom: {other:?}"),
        }
    }

    #[test]
    fn agreement_on_merge() {
        let mut ctx = VarCtx::new();
        let g = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        let v = Term::var(ctx.fresh_var(Sort::Val, "v"));
        let w = Term::var(ctx.fresh_var(Sort::Val, "w"));
        let lib = GVarLib;
        let a = ghost(gvar_half(g.clone(), v.clone()));
        let b = ghost(gvar_half(g, w.clone()));
        match lib.merge(&mut ctx, &a, &b) {
            Some(MergeOutcome::Merged { facts, atom, .. }) => {
                assert_eq!(facts, vec![PureProp::eq(v, w)]);
                // Halves merge to a full fraction (syntactically ½ + ½).
                assert_eq!(
                    atom.args[0],
                    Term::add(a.args[0].clone(), a.args[0].clone())
                );
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn fraction_overflow_contradicts() {
        let mut ctx = VarCtx::new();
        let g = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        let v = Term::v_unit();
        let lib = GVarLib;
        let full = ghost(gvar_full(g.clone(), v.clone()));
        let half = ghost(gvar_half(g, v));
        assert!(matches!(
            lib.merge(&mut ctx, &full, &half),
            Some(MergeOutcome::Contradiction { .. })
        ));
    }

    #[test]
    fn update_needs_full_ownership() {
        let mut ctx = VarCtx::new();
        let g = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        let lib = GVarLib;
        let hyp = ghost(gvar_full(g.clone(), Term::v_int_lit(1)));
        let goal = gvar_full(g, Term::v_int_lit(2));
        let names: Vec<_> = lib
            .hints(&mut ctx, &hyp, &goal)
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert!(names.iter().any(|n| n == "gvar-update"));
    }
}
