//! A failed `ε₁` allocation candidate leaves no trace: the unifications
//! it made before its guard failed are rolled back, so the hypothesis
//! scan that follows still sees the goal's ghost name as a fresh evar.

use diaframe_core::hint::find_hint;
use diaframe_core::{Ablation, ProofCtx, VerifyOptions};
use diaframe_ghost::{GhostLibrary, HintCandidate, Registry};
use diaframe_logic::{Assertion, Atom, GhostAtom, GhostKind, Mask, PredTable};
use diaframe_term::{PureProp, Sort, Term, VarCtx};

const CELL: GhostKind = GhostKind {
    id: 9001,
    name: "cell",
};

/// `cell γ n`, allocatable only at `n = 1`: its allocation candidate
/// names the fresh ghost before the guard on `n` is checked.
struct CellLib;

impl GhostLibrary for CellLib {
    fn name(&self) -> &'static str {
        "cell"
    }

    fn kinds(&self) -> Vec<GhostKind> {
        vec![CELL]
    }

    fn allocations(&self, vars: &mut VarCtx, goal: &GhostAtom) -> Vec<HintCandidate> {
        let fresh = Term::var(vars.fresh_var_base(Sort::GhostName, "γ"));
        vec![HintCandidate::new("cell-allocate")
            .unify(goal.gname.clone(), fresh)
            .guard(PureProp::eq(goal.args[0].clone(), Term::int(1)))]
    }
}

fn cell(gname: Term, n: i128) -> Atom {
    Atom::Ghost(GhostAtom {
        kind: CELL,
        gname,
        pred: None,
        args: vec![Term::int(n)],
    })
}

#[test]
fn a_failed_allocation_does_not_keep_its_ghost_name() {
    let mut registry = Registry::new();
    registry.register(Box::new(CellLib));
    let mut ctx = ProofCtx::new(PredTable::new());
    let owned = Term::var(ctx.vars.fresh_var_base(Sort::GhostName, "γ0"));
    let hyp = ctx.add_hyp(Assertion::atom(cell(owned, 2)), false);
    // The goal's name is an unsolved evar, so allocation is tried first;
    // its guard `2 = 1` fails, and the owned `cell γ0 2` must key it.
    let goal = cell(Term::evar(ctx.vars.fresh_evar(Sort::GhostName)), 2);
    let found = find_hint(
        &mut ctx,
        &registry,
        &VerifyOptions::automatic(),
        Ablation::none(),
        &goal,
        &Mask::top(),
    )
    .expect("the owned cell matches the goal");
    assert_eq!(found.hyp_idx, Some(hyp));
    assert_eq!(found.rules, ["ghost-frame"]);
}
