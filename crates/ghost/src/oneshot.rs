//! The one-shot protocol — fork/join ghost state.
//!
//! `pending γ` is the exclusive right to fire the protocol; `shot γ v`
//! is the persistent fact that it was fired with value `v`. Backed by
//! [`diaframe_ra::oneshot::OneShot`].

use crate::library::{GhostLibrary, HintCandidate, MergeOutcome};
use diaframe_logic::{Atom, GhostAtom, GhostKind};
use diaframe_term::{PureProp, Sort, Term, VarCtx};

/// `pending γ`.
pub const PENDING: GhostKind = GhostKind {
    id: 30,
    name: "pending",
};

/// `shot γ v` (persistent).
pub const SHOT: GhostKind = GhostKind {
    id: 31,
    name: "shot",
};

/// Builds `pending γ`.
#[must_use]
pub fn pending(gname: Term) -> Atom {
    Atom::Ghost(GhostAtom {
        kind: PENDING,
        gname,
        pred: None,
        args: Vec::new(),
    })
}

/// Builds `shot γ v`.
#[must_use]
pub fn shot(gname: Term, v: Term) -> Atom {
    Atom::Ghost(GhostAtom {
        kind: SHOT,
        gname,
        pred: None,
        args: vec![v],
    })
}

/// The one-shot library.
#[derive(Debug, Default)]
pub struct OneShotLib;

impl GhostLibrary for OneShotLib {
    fn name(&self) -> &'static str {
        "oneshot"
    }

    fn kinds(&self) -> Vec<GhostKind> {
        vec![PENDING, SHOT]
    }

    fn is_persistent(&self, atom: &GhostAtom) -> bool {
        atom.kind == SHOT
    }

    fn merge(&self, _ctx: &mut VarCtx, a: &GhostAtom, b: &GhostAtom) -> Option<MergeOutcome> {
        let pair = (a.kind, b.kind);
        if pair == (PENDING, PENDING) {
            return Some(MergeOutcome::Contradiction {
                rule: "pending-exclusive",
            });
        }
        if pair == (PENDING, SHOT) || pair == (SHOT, PENDING) {
            return Some(MergeOutcome::Contradiction {
                rule: "pending-shot-exclusive",
            });
        }
        if pair == (SHOT, SHOT) {
            return Some(MergeOutcome::Merged {
                rule: "shot-agree",
                atom: a.clone(),
                facts: vec![PureProp::eq(a.args[0].clone(), b.args[0].clone())],
            });
        }
        None
    }

    fn hints(&self, _ctx: &mut VarCtx, hyp: &GhostAtom, goal: &Atom) -> Vec<HintCandidate> {
        let Atom::Ghost(g) = goal else {
            return Vec::new();
        };
        let mut out = Vec::new();
        if hyp.kind == PENDING && g.kind == SHOT {
            // oneshot-fire: pending γ ⤳ shot γ v (for any v; the goal's
            // value is taken as-is).
            out.push(HintCandidate::new("oneshot-fire").unify(g.gname.clone(), hyp.gname.clone()));
        }
        out
    }

    fn allocations(&self, ctx: &mut VarCtx, goal: &GhostAtom) -> Vec<HintCandidate> {
        if goal.kind != PENDING {
            return Vec::new();
        }
        let fresh = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        vec![HintCandidate::new("pending-allocate").unify(goal.gname.clone(), fresh)]
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
    fn shot_agreement() {
        let mut ctx = VarCtx::new();
        let g = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        let v = Term::var(ctx.fresh_var(Sort::Val, "v"));
        let w = Term::var(ctx.fresh_var(Sort::Val, "w"));
        let lib = OneShotLib;
        let a = ghost(shot(g.clone(), v.clone()));
        let b = ghost(shot(g.clone(), w.clone()));
        match lib.merge(&mut ctx, &a, &b) {
            Some(MergeOutcome::Merged { facts, .. }) => {
                assert_eq!(facts, vec![PureProp::eq(v, w)]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn pending_is_exclusive_and_shot_persistent() {
        let mut ctx = VarCtx::new();
        let g = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        let lib = OneShotLib;
        let p = ghost(pending(g.clone()));
        assert!(matches!(
            lib.merge(&mut ctx, &p, &p.clone()),
            Some(MergeOutcome::Contradiction { .. })
        ));
        assert!(lib.is_persistent(&ghost(shot(g, Term::v_unit()))));
        assert!(!lib.is_persistent(&p));
    }

    #[test]
    fn fire_hint() {
        let mut ctx = VarCtx::new();
        let g = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        let lib = OneShotLib;
        let hyp = ghost(pending(g.clone()));
        let goal = shot(g, Term::v_int_lit(3));
        let cands = lib.hints(&mut ctx, &hyp, &goal);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].name, "oneshot-fire");
    }
}
