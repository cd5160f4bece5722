//! The Treiber bag stack \[18] — elements carry a resource `Φ(v)`.
//!
//! The first example with a *recursive* representation predicate
//! (`chain`), which Diaframe has no native support for: exactly as the
//! paper reports for `bag_stack` (34 lines of proof-search customization,
//! 3 custom hints), the proof is driven by user-provided bi-abduction
//! hints — a fold hint, a duplicate-and-extract-skeleton hint, and an
//! unfold hint for the recursive occurrence.

use crate::common::{eq, papp, program, Example, ExampleOutcome, PaperRow, ToolStat, Ws};
use diaframe_core::{Stuck, VerifyOptions};
use diaframe_ghost::HintCandidate;
use diaframe_heaplang::{parse_expr, Expr, Val};
use diaframe_logic::{Assertion, Atom, PredId};
use diaframe_term::{PureProp, Sort, Term};
use diaframe_logic::Binder;

/// The implementation. The bag handle is `(#head_cell, #null)` where
/// `null` is a dummy sentinel location.
pub const SOURCE: &str = "\
def make _ := let null := ref 0 in (ref null, null)
def push a :=
  let b := fst a in
  let v := snd a in
  let s := fst b in
  let h := !s in
  let n := ref (v, h) in
  if CAS(s, h, n) then () else push a
def pop b :=
  let s := fst b in
  let null := snd b in
  let h := !s in
  if h = null
  then inl ()
  else (let p := !h in
        if CAS(s, h, snd p) then inr (fst p) else pop b)
";

/// Specifications and the recursive chain predicate (axiomatised through
/// the custom hints below).
pub const ANNOTATION: &str = "\
// Φ: the resource each element carries.
Context (Φ : val → iProp)
chain h nl := ⌜h = nl⌝ ∨ ∃ l v nx q. ⌜h = #l⌝ ∗ l ↦{q} (v, nx) ∗ Φ v ∗ chain nx nl
is_bag b := ∃ s (null : loc). ⌜b = (#s, #null)⌝ ∗ inv bag (∃ h. s ↦ h ∗ chain h #null)
SPEC {{ True }} make () {{ w, RET w; is_bag w }}
SPEC b v, {{ ⌜a = (b, v)⌝ ∗ is_bag b ∗ Φ v }} push a {{ RET #(); True }}
SPEC {{ is_bag b }} pop b {{ w, RET w; ⌜w = inl #()⌝ ∨ ∃ v. ⌜w = inr v⌝ ∗ Φ v }}
HINT chain-dup: chain h nl ⊫ chain h nl ∗ [skeleton h nl]
HINT chain-fold: ε₁ ∗ [⌜h = nl⌝ ∨ l ↦{q} (v,nx) ∗ Φ v ∗ chain nx nl] ⊫ chain h nl
HINT chain-unfold: replace chain #l nl by Φ v ∗ chain nx nl (head agreement)
";

/// The *skeleton* of a chain: the persistently extractable part — the
/// head shape plus a fraction of the head node.
fn skeleton(ctx: &mut diaframe_term::VarCtx, chain: PredId, phi: PredId, h: Term, nl: Term) -> Assertion {
    let _ = (chain, phi);
    let l = ctx.fresh_var(Sort::Loc, "l");
    let v = ctx.fresh_var(Sort::Val, "v");
    let nx = ctx.fresh_var(Sort::Val, "nx");
    let q = ctx.fresh_var(Sort::Qp, "q");
    Assertion::or(
        Assertion::pure(PureProp::eq(h.clone(), nl)),
        Assertion::exists(
            Binder::new(l),
            Assertion::exists(
                Binder::new(v),
                Assertion::exists(
                    Binder::new(nx),
                    Assertion::exists(
                        Binder::new(q),
                        Assertion::sep_list([
                            eq(h, Term::v_loc(Term::var(l))),
                            pt_frac_pair(l, q, v, nx),
                        ]),
                    ),
                ),
            ),
        ),
    )
}

fn pt_frac_pair(
    l: diaframe_term::VarId,
    q: diaframe_term::VarId,
    v: diaframe_term::VarId,
    nx: diaframe_term::VarId,
) -> Assertion {
    Assertion::atom(Atom::points_to_frac(
        Term::var(l),
        Term::var(q),
        Term::v_pair(Term::var(v), Term::var(nx)),
    ))
}

/// The proof-search customization: the three chain hints. Counted as
/// manual proof work, as in the paper.
fn chain_options(chain: PredId, phi: PredId) -> VerifyOptions {
    VerifyOptions::automatic()
        .with_backtracking()
        // chain-dup: re-prove the chain while extracting its skeleton.
        .with_custom_hint("chain-dup", move |vars, hyp, goal| {
            let (Atom::PredApp { pred: p1, args: a1 }, Atom::PredApp { pred: p2, args: a2 }) =
                (hyp, goal)
            else {
                return Vec::new();
            };
            if *p1 != chain || *p2 != chain {
                return Vec::new();
            }
            let sk = skeleton(vars, chain, phi, a1[0].clone(), a1[1].clone());
            vec![HintCandidate::new("chain-dup")
                .unify(a2[0].clone(), a1[0].clone())
                .unify(a2[1].clone(), a1[1].clone())
                .residue(sk)]
        })
        // chain-fold: establish a chain, either empty or by consing a node.
        .with_custom_alloc("chain-fold", move |vars, goal| {
            let Atom::PredApp { pred, args } = goal else {
                return Vec::new();
            };
            if *pred != chain {
                return Vec::new();
            }
            let (h, nl) = (args[0].clone(), args[1].clone());
            let nil = HintCandidate::new("chain-fold-nil").guard(PureProp::eq(h.clone(), nl.clone()));
            let l = vars.fresh_evar(Sort::Loc);
            let v = vars.fresh_evar(Sort::Val);
            let nx = vars.fresh_evar(Sort::Val);
            let cons = HintCandidate::new("chain-fold-cons")
                .unify(h, Term::v_loc(Term::evar(l)))
                .side(Assertion::sep_list([
                    Assertion::atom(Atom::points_to_frac(
                        Term::evar(l),
                        Term::qp(diaframe_term::Qp::half()),
                        Term::v_pair(Term::evar(v), Term::evar(nx)),
                    )),
                    papp(phi, vec![Term::evar(v)]),
                    Assertion::atom(Atom::PredApp {
                        pred: chain,
                        args: vec![Term::evar(nx), nl],
                    }),
                ]));
            vec![nil, cons]
        })
        // chain-unfold: when stuck, open the cons case of a chain whose
        // head shape is known, using the skeleton's node fraction to pin
        // the contents (points-to agreement).
        .with_unfold("chain-unfold", move |ctx| {
            for (idx, hyp) in ctx.delta.iter().enumerate() {
                let Assertion::Atom(Atom::PredApp { pred, args }) = &hyp.assertion else {
                    continue;
                };
                if *pred != chain {
                    continue;
                }
                let h = args[0].zonk(&ctx.vars);
                let nl = args[1].clone();
                // Known head shape: h = #l with a node fraction in scope.
                if let Term::App(diaframe_term::Sym::VLoc, largs) = &h {
                    let lt = &largs[0];
                    for other in &ctx.delta {
                        let Assertion::Atom(Atom::PointsTo { loc, val, .. }) = &other.assertion
                        else {
                            continue;
                        };
                        if loc.zonk(&ctx.vars) != *lt {
                            continue;
                        }
                        let Term::App(diaframe_term::Sym::VPair, parts) = val.zonk(&ctx.vars)
                        else {
                            continue;
                        };
                        let (v, nx) = (parts[0].clone(), parts[1].clone());
                        return Some((
                            idx,
                            Assertion::sep_list([
                                papp(phi, vec![v]),
                                Assertion::atom(Atom::PredApp {
                                    pred: chain,
                                    args: vec![nx, nl],
                                }),
                            ]),
                        ));
                    }
                }
            }
            None
        })
}

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct BagStack;

impl Example for BagStack {
    fn name(&self) -> &'static str {
        "bag_stack"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 29,
            annot: (45, 2),
            custom: 34,
            hints: (7, 3),
            time: "0:17",
            dia_total: (117, 36),
            iris: Some(ToolStat::new(170, 92)),
            starling: None,
            caper: Some(ToolStat::new(70, 0)),
            voila: Some(ToolStat::new(205, 36)),
        }
    }

    fn verify(&self) -> Result<ExampleOutcome, Box<Stuck>> {
        let ws = Ws::new(SOURCE, ANNOTATION);
        let opts = chain_options(ws.pred("chain"), ws.pred("Φ"));
        ws.verify_declared(|_| opts.clone())
    }

    fn verify_broken(&self) -> Option<Result<ExampleOutcome, Box<Stuck>>> {
        // Sabotage: pop returns the element without having CASed it out —
        // the resource would be duplicated.
        let broken = "\
def make _ := let null := ref 0 in (ref null, null)
def push a :=
  let b := fst a in
  let v := snd a in
  let s := fst b in
  let h := !s in
  let n := ref (v, h) in
  if CAS(s, h, n) then () else push a
def pop b :=
  let s := fst b in
  let null := snd b in
  let h := !s in
  if h = null
  then inl ()
  else (let p := !h in inr (fst p))
";
        let ws = Ws::new(broken, ANNOTATION);
        let opts = chain_options(ws.pred("chain"), ws.pred("Φ"));
        Some(ws.verify_named(&["pop"], |_| opts.clone()))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let b := make () in
             push (b, 11) ;;
             push (b, 22) ;;
             match pop b with
               inl u => 0
             | inr v => v
             end",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(22),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_with_custom_hints() {
        let outcome = BagStack
            .verify()
            .unwrap_or_else(|e| panic!("bag_stack stuck:\n{e}"));
        // Three custom hints per spec run (the paper: 3 custom of 7 hints).
        assert!(outcome.manual_steps > 0);
        outcome.check_all().expect("traces replay");
        let custom = outcome.custom_hints_used();
        assert!(custom.iter().any(|h| h.contains("chain")));
    }


    #[test]
    fn adequacy() {
        let (prog, expected) = BagStack.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 10, 1_000_000) {
            assert_eq!(v, expected);
        }
    }
}
