//! Monotone counters — authoritative naturals under `max`.
//!
//! `mono γ n` is the exclusive authority over a monotonically growing
//! natural; `mono_lb γ k` is a *persistent* lower bound `k ≤ n`. Backed by
//! `Auth(NatMax)` ([`diaframe_ra::nat::NatMax`]); used by the
//! ticket-based reader-writer locks and the bounded counter.

use crate::library::{GhostLibrary, HintCandidate, MergeOutcome};
use diaframe_logic::{Assertion, Atom, GhostAtom, GhostKind};
use diaframe_term::{PureProp, Sort, Term, VarCtx};

/// `mono γ n` — the authority.
pub const MONO_AUTH: GhostKind = GhostKind {
    id: 50,
    name: "mono",
};

/// `mono_lb γ k` — a persistent lower bound.
pub const MONO_LB: GhostKind = GhostKind {
    id: 51,
    name: "mono_lb",
};

/// Builds `mono γ n`.
#[must_use]
pub fn mono(gname: Term, n: Term) -> Atom {
    Atom::Ghost(GhostAtom {
        kind: MONO_AUTH,
        gname,
        pred: None,
        args: vec![n],
    })
}

/// Builds `mono_lb γ k`.
#[must_use]
pub fn mono_lb(gname: Term, k: Term) -> Atom {
    Atom::Ghost(GhostAtom {
        kind: MONO_LB,
        gname,
        pred: None,
        args: vec![k],
    })
}

/// The monotone-counter library.
#[derive(Debug, Default)]
pub struct MonotoneLib;

impl GhostLibrary for MonotoneLib {
    fn name(&self) -> &'static str {
        "monotone"
    }

    fn kinds(&self) -> Vec<GhostKind> {
        vec![MONO_AUTH, MONO_LB]
    }

    fn is_persistent(&self, atom: &GhostAtom) -> bool {
        atom.kind == MONO_LB
    }

    fn derived(&self, atom: &GhostAtom) -> Vec<GhostAtom> {
        if atom.kind == MONO_AUTH {
            // Snapshot: the authority derives its own lower bound.
            match mono_lb(atom.gname.clone(), atom.args[0].clone()) {
                Atom::Ghost(g) => vec![g],
                _ => unreachable!("mono_lb builds a ghost atom"),
            }
        } else {
            Vec::new()
        }
    }

    fn implied_facts(&self, atom: &GhostAtom) -> Vec<PureProp> {
        vec![PureProp::le(Term::int(0), atom.args[0].clone())]
    }

    fn merge(&self, _ctx: &mut VarCtx, a: &GhostAtom, b: &GhostAtom) -> Option<MergeOutcome> {
        let pair = (a.kind, b.kind);
        if pair == (MONO_AUTH, MONO_AUTH) {
            return Some(MergeOutcome::Contradiction {
                rule: "mono-auth-exclusive",
            });
        }
        if pair == (MONO_AUTH, MONO_LB) {
            return Some(MergeOutcome::Facts {
                rule: "mono-lb-bound",
                facts: vec![PureProp::le(b.args[0].clone(), a.args[0].clone())],
            });
        }
        if pair == (MONO_LB, MONO_AUTH) {
            return Some(MergeOutcome::Facts {
                rule: "mono-lb-bound",
                facts: vec![PureProp::le(a.args[0].clone(), b.args[0].clone())],
            });
        }
        None
    }

    fn hints(&self, _ctx: &mut VarCtx, hyp: &GhostAtom, goal: &Atom) -> Vec<HintCandidate> {
        let Atom::Ghost(g) = goal else {
            return Vec::new();
        };
        let mut out = Vec::new();
        if hyp.kind == MONO_AUTH && g.kind == MONO_AUTH {
            // mono-update: the authority may only grow; minting the lower
            // bound of the new value as a residue (it is persistent).
            out.push(
                HintCandidate::new("mono-update")
                    .unify(g.gname.clone(), hyp.gname.clone())
                    .guard(PureProp::le(hyp.args[0].clone(), g.args[0].clone()))
                    .residue(Assertion::atom(mono_lb(
                        hyp.gname.clone(),
                        g.args[0].clone(),
                    ))),
            );
        }
        if hyp.kind == MONO_AUTH && g.kind == MONO_LB {
            // mono-snapshot: take a lower bound, keep the authority.
            out.push(
                HintCandidate::new("mono-snapshot")
                    .unify(g.gname.clone(), hyp.gname.clone())
                    .guard(PureProp::le(g.args[0].clone(), hyp.args[0].clone()))
                    .residue(Assertion::atom(mono(
                        hyp.gname.clone(),
                        hyp.args[0].clone(),
                    ))),
            );
        }
        out
    }

    fn allocations(&self, ctx: &mut VarCtx, goal: &GhostAtom) -> Vec<HintCandidate> {
        if goal.kind != MONO_AUTH {
            return Vec::new();
        }
        let fresh = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        vec![HintCandidate::new("mono-allocate")
            .unify(goal.gname.clone(), fresh.clone())
            .guard(PureProp::le(Term::int(0), goal.args[0].clone()))
            .residue(Assertion::atom(mono_lb(fresh, goal.args[0].clone())))]
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
    fn lower_bound_fact() {
        let mut ctx = VarCtx::new();
        let g = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        let n = Term::var(ctx.fresh_var(Sort::Int, "n"));
        let k = Term::var(ctx.fresh_var(Sort::Int, "k"));
        let lib = MonotoneLib;
        let auth = ghost(mono(g.clone(), n.clone()));
        let lb = ghost(mono_lb(g, k.clone()));
        match lib.merge(&mut ctx, &auth, &lb) {
            Some(MergeOutcome::Facts { facts, .. }) => {
                assert_eq!(facts, vec![PureProp::le(k, n)]);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(lib.is_persistent(&lb));
    }

    #[test]
    fn update_only_grows() {
        let mut ctx = VarCtx::new();
        let g = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        let lib = MonotoneLib;
        let hyp = ghost(mono(g.clone(), Term::int(3)));
        let goal = mono(g, Term::int(5));
        let cands = lib.hints(&mut ctx, &hyp, &goal);
        assert_eq!(cands.len(), 1);
        assert_eq!(
            cands[0].guards,
            vec![PureProp::le(Term::int(3), Term::int(5))]
        );
    }

    #[test]
    fn snapshot_keeps_authority() {
        let mut ctx = VarCtx::new();
        let g = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        let n = Term::var(ctx.fresh_var(Sort::Int, "n"));
        let lib = MonotoneLib;
        let hyp = ghost(mono(g.clone(), n.clone()));
        let goal = mono_lb(g.clone(), n.clone());
        let cands = lib.hints(&mut ctx, &hyp, &goal);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].residue, Assertion::atom(mono(g, n)));
    }
}
