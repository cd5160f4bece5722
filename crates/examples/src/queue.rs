//! A lock-protected FIFO queue with per-element resources (the paper's
//! `queue` row).
//!
//! A spin lock protects a singly linked list with head insertion at the
//! back via traversal (`append_to`) and removal at the front. Elements
//! carry the resource `Φ(v)`, transferred to the dequeuer. The recursive
//! `qchain` predicate is handled by the same custom-hint recipe as
//! [`crate::bag_stack`]. (Caper's queue is CAS-based; this reproduction
//! verifies the coarse-grained variant, see EXPERIMENTS.md.)

use crate::common::{eq, papp, program, pt, Example, ExampleOutcome, PaperRow, ToolStat, Ws};
use diaframe_core::{Stuck, VerifyOptions};
use diaframe_ghost::HintCandidate;
use diaframe_heaplang::{parse_expr, Expr, Val};
use diaframe_logic::{Assertion, Atom, PredId};
use diaframe_term::{PureProp, Sort, Term};

/// The implementation.
pub const SOURCE: &str = "\
def newlock u := ref false
def acquire l := if CAS(l, false, true) then () else acquire l
def release l := l <- false
def newq _ :=
  let null := ref 0 in
  let hd := ref null in
  (newlock (), (hd, null))
def append_to a :=
  let h := fst a in
  let n := fst (snd a) in
  let null := snd (snd a) in
  let p := !h in
  if snd p = null
  then h <- (fst p, n)
  else append_to (snd p, (n, null))
def enq a :=
  let w := fst (fst a) in
  let v := snd (fst a) in
  let k := snd a in
  acquire (fst w) ;;
  let hd := fst (snd w) in
  let null := snd (snd w) in
  let h := !hd in
  let n := ref (v, null) in
  (if h = null then hd <- n else append_to (h, (n, null))) ;;
  release (fst w) ;;
  k
def deq w :=
  acquire (fst w) ;;
  let hd := fst (snd w) in
  let null := snd (snd w) in
  let h := !hd in
  let r :=
    (if h = null
     then inl ()
     else (let p := !h in hd <- snd p ;; inr (fst p))) in
  release (fst w) ;;
  r
";

/// Specifications and the recursive queue predicate; the lock is the
/// spin lock's annotation at `R := R_q hd null`.
pub const ANNOTATION: &str = "\
// Φ: the resource each element carries.
Context (Φ : val → iProp)
qchain h nl := ⌜h = nl⌝ ∨ ∃ l v nx. ⌜h = #l⌝ ∗ l ↦ (v, nx) ∗ Φ v ∗ qchain nx nl
R_q hd (null : loc) := ∃ h. hd ↦ h ∗ qchain h #null
Context (hd null : loc)
Instance spin_lock hd null with N := q, R := R_q hd null
is_q γ w := ∃ lk hd null. ⌜w = (lk, (#hd, #null))⌝ ∗ is_lock q γ lk (R_q hd null)
SPEC {{ True }} newq () {{ w γ, RET w; is_q γ w }}
SPEC h (n : loc) v (null : loc), {{ ⌜a = (h, (#n, #null))⌝ ∗ ⌜h ≠ #null⌝ ∗ qchain h #null ∗
        n ↦ (v, #null) ∗ Φ v }} append_to a {{ RET #(); qchain h #null }}
SPEC wv v kv γ, {{ ⌜a = ((wv, v), kv)⌝ ∗ is_q γ wv ∗ Φ v }} enq a {{ RET kv; True }}
SPEC γ, {{ is_q γ wv }} deq wv {{ w, RET w; ⌜w = inl #()⌝ ∨ ∃ v. ⌜w = inr v⌝ ∗ Φ v }}
HINT qchain-fold: ε₁ ∗ [⌜h = nl⌝ ∨ l ↦ (v, nx) ∗ Φ v ∗ qchain nx nl] ⊫ qchain h nl
HINT qchain-unfold: replace the newest qchain h nl by its one-level unfolding
";

/// The chain hints for Φ-carrying fully-owned chains.
pub fn qchain_options(chain: PredId, phi: PredId) -> VerifyOptions {
    VerifyOptions::automatic()
        .with_backtracking()
        .with_custom_alloc("qchain-fold", move |vars, goal| {
            let Atom::PredApp { pred, args } = goal else {
                return Vec::new();
            };
            if *pred != chain {
                return Vec::new();
            }
            let (h, nl) = (args[0].clone(), args[1].clone());
            let nil =
                HintCandidate::new("qchain-fold-nil").guard(PureProp::eq(h.clone(), nl.clone()));
            let l = vars.fresh_evar(Sort::Loc);
            let v = vars.fresh_evar(Sort::Val);
            let nx = vars.fresh_evar(Sort::Val);
            let cons = HintCandidate::new("qchain-fold-cons")
                .unify(h, Term::v_loc(Term::evar(l)))
                .side(Assertion::sep_list([
                    Assertion::atom(Atom::points_to(
                        Term::evar(l),
                        Term::v_pair(Term::evar(v), Term::evar(nx)),
                    )),
                    papp(phi, vec![Term::evar(v)]),
                    papp(chain, vec![Term::evar(nx), nl]),
                ]));
            vec![nil, cons]
        })
        .with_unfold("qchain-unfold", move |ctx| {
            let l = ctx.vars.fresh_var(Sort::Loc, "l");
            let v = ctx.vars.fresh_var(Sort::Val, "v");
            let nx = ctx.vars.fresh_var(Sort::Val, "nx");
            for (idx, hyp) in ctx.delta.iter().enumerate().rev() {
                let Assertion::Atom(Atom::PredApp { pred, args }) = &hyp.assertion else {
                    continue;
                };
                if *pred != chain {
                    continue;
                }
                let (h, nl) = (args[0].clone(), args[1].clone());
                let cons = Assertion::exists(
                    diaframe_logic::Binder::new(l),
                    Assertion::exists(
                        diaframe_logic::Binder::new(v),
                        Assertion::exists(
                            diaframe_logic::Binder::new(nx),
                            Assertion::sep_list([
                                eq(h.clone(), Term::v_loc(Term::var(l))),
                                pt(Term::var(l), Term::v_pair(Term::var(v), Term::var(nx))),
                                papp(phi, vec![Term::var(v)]),
                                papp(chain, vec![Term::var(nx), nl.clone()]),
                            ]),
                        ),
                    ),
                );
                return Some((idx, Assertion::or(eq(h, nl), cons)));
            }
            None
        })
}

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct Queue;

impl Example for Queue {
    fn name(&self) -> &'static str {
        "queue"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 42,
            annot: (58, 5),
            custom: 41,
            hints: (12, 3),
            time: "1:17",
            dia_total: (170, 46),
            iris: None,
            starling: None,
            caper: Some(ToolStat::new(99, 0)),
            voila: None,
        }
    }

    fn verify(&self) -> Result<ExampleOutcome, Box<Stuck>> {
        let ws = Ws::new(SOURCE, ANNOTATION);
        let opts = qchain_options(ws.pred("qchain"), ws.pred("Φ"));
        ws.verify_declared(|_| opts.clone())
    }

    fn verify_broken(&self) -> Option<Result<ExampleOutcome, Box<Stuck>>> {
        // Sabotage: deq returns the element but leaves it in the queue —
        // Φ would be duplicated.
        let broken = SOURCE.replace(
            "else (let p := !h in hd <- snd p ;; inr (fst p))) in",
            "else (let p := !h in inr (fst p))) in",
        );
        let ws = Ws::new(&broken, ANNOTATION);
        let opts = qchain_options(ws.pred("qchain"), ws.pred("Φ"));
        Some(ws.verify_named(&["deq"], |_| opts.clone()))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let w := newq () in
             enq ((w, 11), 0) ;;
             enq ((w, 22), 0) ;;
             match deq w with inl u => 0 | inr v => v end",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(11),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_with_custom_hints() {
        let outcome = Queue
            .verify()
            .unwrap_or_else(|e| panic!("queue stuck:\n{e}"));
        outcome.check_all().expect("traces replay");
        assert!(outcome
            .custom_hints_used()
            .iter()
            .any(|h| h.contains("qchain")));
    }

    #[test]
    fn adequacy() {
        let (prog, expected) = Queue.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 8, 2_000_000) {
            assert_eq!(v, expected);
        }
    }
}
