//! A lock-protected linked list of integers (`lclist` [16, 87]).
//!
//! A spin lock protects a singly linked list; `add` prepends, `contains`
//! traverses. The list is described by the recursive `llchain` predicate,
//! axiomatised — as the paper does for recursive definitions — through
//! a fold hint and an unfold hint in the annotation. (The original benchmark uses
//! hand-over-hand locking; this reproduction verifies the coarse-grained
//! variant, see EXPERIMENTS.md.)

use crate::common::{program, Example, PaperRow, ToolStat};
use diaframe_heaplang::{parse_expr, Expr, Val};

/// The implementation. The list handle is `(lk, (head_cell, null))`.
pub const SOURCE: &str = "\
def newlock u := ref false
def acquire l := if CAS(l, false, true) then () else acquire l
def release l := l <- false
def newlist _ :=
  let null := ref 0 in
  let hd := ref null in
  (newlock (), (hd, null))
def find a :=
  let h := fst a in
  let k := fst (snd a) in
  let null := snd (snd a) in
  if h = null
  then false
  else (let p := !h in
        if fst p = k then true else find (snd p, (k, null)))
def contains a :=
  let w := fst a in
  let k := snd a in
  acquire (fst w) ;;
  let r := find (!(fst (snd w)), (k, snd (snd w))) in
  release (fst w) ;;
  r
def add a :=
  let w := fst a in
  let k := snd a in
  acquire (fst w) ;;
  let hd := fst (snd w) in
  let n := ref (k, !hd) in
  hd <- n ;;
  release (fst w)
";

/// Specifications and the recursive list predicate; the lock is the
/// spin lock's annotation at `R := R_list hd null`.
pub const ANNOTATION: &str = "\
llchain h nl := ⌜h = nl⌝ ∨ ∃ l k nx. ⌜h = #l⌝ ∗ l ↦ (#k, nx) ∗ llchain nx nl
R_list hd (null : loc) := ∃ h. hd ↦ h ∗ llchain h #null
Context (hd null : loc)
Instance spin_lock hd null with N := list, R := R_list hd null
is_list γ w := ∃ lk hd null. ⌜w = (lk, (#hd, #null))⌝ ∗ is_lock list γ lk (R_list hd null)
SPEC {{ True }} newlist () {{ w γ, RET w; is_list γ w }}
SPEC h k (null : loc), {{ ⌜a = (h, (#k, #null))⌝ ∗ llchain h #null }} find a
     {{ (bb : bool), RET #bb; llchain h #null }}
// `contains` allocates its result binder after the precondition.
some_bool w := ∃ (bb : bool). ⌜w = #bb⌝
SPEC wv k γ, {{ ⌜a = (wv, #k)⌝ ∗ is_list γ wv }} contains a {{ w, RET w; some_bool w }}
SPEC wv k γ, {{ ⌜a = (wv, #k)⌝ ∗ is_list γ wv }} add a {{ RET #(); True }}
HINT llchain-fold: ε₁ ∗ [⌜h = nl⌝ ∨ ∃ l k nx. ⌜h = #l⌝ ∗ l ↦ (#k, nx) ∗ llchain nx nl] ⊫ llchain h nl
HINT llchain-unfold: llchain h nl ⊫ [⌜h = nl⌝ ∨ ∃ l k nx. ⌜h = #l⌝ ∗ l ↦ (#k, nx) ∗ llchain nx nl]
";

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct Lclist;

impl Example for Lclist {
    fn name(&self) -> &'static str {
        "lclist"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 28,
            annot: (34, 5),
            custom: 13,
            hints: (2, 2),
            time: "0:27",
            dia_total: (86, 18),
            iris: None,
            starling: None,
            caper: Some(ToolStat::new(197, 134)),
            voila: None,
        }
    }

    fn sabotage(&self) -> Option<(&'static str, &'static str, &'static str)> {
        // Sabotage: add stores the raw key into the head pointer — the
        // chain predicate cannot be re-established for a non-location.
        Some(("add", "hd <- n ;;", "hd <- k ;;"))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let w := newlist () in
             add (w, 5) ;;
             add (w, 7) ;;
             fork { add (w, 9) } ;;
             (if contains (w, 5) then 1 else 0) + (if contains (w, 6) then 10 else 0)",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(1),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_with_annotation_hints() {
        let outcome = Lclist
            .verify()
            .unwrap_or_else(|e| panic!("lclist stuck:\n{e}"));
        assert!(outcome.manual_steps > 0);
        outcome.check_all().expect("traces replay");
        assert!(outcome
            .custom_hints_used()
            .iter()
            .any(|h| h.contains("llchain")));
    }

    #[test]
    fn adequacy() {
        let (prog, expected) = Lclist.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 8, 2_000_000) {
            assert_eq!(v, expected);
        }
    }
}
