//! Exclusive tokens — the spin lock's `locked γ`.
//!
//! Backed by `Excl(())` (see [`diaframe_ra::excl`]); footnote 1 of the
//! paper. Rules:
//!
//! * `locked-allocate`: `⊢ ¤|⇛ ∃γ. locked γ` — a last-resort hint;
//! * `locked-unique`: `locked γ ∗ locked γ ⊢ False` — an interaction rule.

use crate::library::{GhostLibrary, HintCandidate, MergeOutcome};
use diaframe_logic::{Atom, GhostAtom, GhostKind};
use diaframe_term::{Sort, Term, VarCtx};

/// The `locked γ` kind.
pub const LOCKED: GhostKind = GhostKind {
    id: 1,
    name: "locked",
};

/// Builds `locked γ`.
#[must_use]
pub fn locked(gname: Term) -> Atom {
    Atom::Ghost(GhostAtom {
        kind: LOCKED,
        gname,
        pred: None,
        args: Vec::new(),
    })
}

/// The exclusive-token library.
#[derive(Debug, Default)]
pub struct ExclTokenLib;

impl GhostLibrary for ExclTokenLib {
    fn name(&self) -> &'static str {
        "excl_token"
    }

    fn kinds(&self) -> Vec<GhostKind> {
        vec![LOCKED]
    }

    fn merge(&self, _ctx: &mut VarCtx, a: &GhostAtom, b: &GhostAtom) -> Option<MergeOutcome> {
        (a.kind == LOCKED && b.kind == LOCKED).then_some(MergeOutcome::Contradiction {
            rule: "locked-unique",
        })
    }

    fn allocations(&self, ctx: &mut VarCtx, goal: &GhostAtom) -> Vec<HintCandidate> {
        if goal.kind != LOCKED {
            return Vec::new();
        }
        let fresh = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        vec![HintCandidate::new("locked-allocate").unify(goal.gname.clone(), fresh)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_contradiction() {
        let mut ctx = VarCtx::new();
        let g = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        let Atom::Ghost(a) = locked(g) else {
            unreachable!()
        };
        let lib = ExclTokenLib;
        assert!(matches!(
            lib.merge(&mut ctx, &a, &a.clone()),
            Some(MergeOutcome::Contradiction { .. })
        ));
    }

    #[test]
    fn allocation_binds_fresh_name() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::GhostName);
        let Atom::Ghost(goal) = locked(Term::evar(e)) else {
            unreachable!()
        };
        let lib = ExclTokenLib;
        let cands = lib.allocations(&mut ctx, &goal);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].name, "locked-allocate");
        assert_eq!(cands[0].unifications.len(), 1);
    }
}
