//! Extra operations on the lock-protected list: `length`, `sum`,
//! `push_back` (traversal with mutation at the end) — the paper's
//! `lclist_extra` row (its largest implementation).

use crate::common::{program, Example, PaperRow};
use diaframe_heaplang::{parse_expr, Expr, Val};

/// The implementation: the lclist plus traversal operations.
pub const SOURCE: &str = "\
def newlock u := ref false
def acquire l := if CAS(l, false, true) then () else acquire l
def release l := l <- false
def newlist _ :=
  let null := ref 0 in
  let hd := ref null in
  (newlock (), (hd, null))
def add a :=
  let w := fst a in
  let k := snd a in
  acquire (fst w) ;;
  let hd := fst (snd w) in
  let n := ref (k, !hd) in
  hd <- n ;;
  release (fst w)
def len_from a :=
  let h := fst a in
  let null := snd a in
  if h = null then 0 else (let p := !h in 1 + len_from (snd p, null))
def length w :=
  acquire (fst w) ;;
  let r := len_from (!(fst (snd w)), snd (snd w)) in
  release (fst w) ;;
  r
def sum_from a :=
  let h := fst a in
  let null := snd a in
  if h = null then 0 else (let p := !h in fst p + sum_from (snd p, null))
def sum w :=
  acquire (fst w) ;;
  let r := sum_from (!(fst (snd w)), snd (snd w)) in
  release (fst w) ;;
  r
def append_to a :=
  let h := fst a in
  let n := fst (snd a) in
  let null := snd (snd a) in
  let p := !h in
  if snd p = null
  then h <- (fst p, n)
  else append_to (snd p, (n, null))
def push_back a :=
  let w := fst a in
  let k := snd a in
  acquire (fst w) ;;
  let hd := fst (snd w) in
  let h := !hd in
  let n := ref (k, snd (snd w)) in
  (if h = snd (snd w) then hd <- n else append_to (h, (n, snd (snd w)))) ;;
  release (fst w)
";

/// Specifications: the list of [`crate::lclist`] with more traversals.
pub const ANNOTATION: &str = "\
llchain h nl := ⌜h = nl⌝ ∨ ∃ l k nx. ⌜h = #l⌝ ∗ l ↦ (#k, nx) ∗ llchain nx nl
R_list hd (null : loc) := ∃ h. hd ↦ h ∗ llchain h #null
Context (hd null : loc)
Instance spin_lock hd null with N := list, R := R_list hd null
is_list γ w := ∃ lk hd null. ⌜w = (lk, (#hd, #null))⌝ ∗ is_lock list γ lk (R_list hd null)
SPEC {{ True }} newlist () {{ w γ, RET w; is_list γ w }}
SPEC wv k γ, {{ ⌜a = (wv, #k)⌝ ∗ is_list γ wv }} add a {{ RET #(); True }}
SPEC h (null : loc), {{ ⌜a = (h, #null)⌝ ∗ llchain h #null }} len_from a
     {{ n, RET #n; ⌜0 ≤ n⌝ ∗ llchain h #null }}
SPEC h (null : loc), {{ ⌜a = (h, #null)⌝ ∗ llchain h #null }} sum_from a
     {{ n, RET #n; llchain h #null }}
SPEC γ, {{ is_list γ wv }} length wv {{ n, RET #n; ⌜0 ≤ n⌝ }}
SPEC γ, {{ is_list γ wv }} sum wv {{ n, RET #n; True }}
SPEC h (n : loc) k (null : loc), {{ ⌜a = (h, (#n, #null))⌝ ∗ ⌜h ≠ #null⌝ ∗ llchain h #null ∗
        n ↦ (#k, #null) }} append_to a {{ RET #(); llchain h #null }}
SPEC wv k γ, {{ ⌜a = (wv, #k)⌝ ∗ is_list γ wv }} push_back a {{ RET #(); True }}
HINT llchain-fold: ε₁ ∗ [⌜h = nl⌝ ∨ ∃ l k nx. ⌜h = #l⌝ ∗ l ↦ (#k, nx) ∗ llchain nx nl] ⊫ llchain h nl
HINT llchain-unfold: llchain h nl ⊫ [⌜h = nl⌝ ∨ ∃ l k nx. ⌜h = #l⌝ ∗ l ↦ (#k, nx) ∗ llchain nx nl]
";

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct LclistExtra;

impl Example for LclistExtra {
    fn name(&self) -> &'static str {
        "lclist_extra"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 119,
            annot: (53, 0),
            custom: 2,
            hints: (3, 2),
            time: "1:31",
            dia_total: (182, 2),
            iris: None,
            starling: None,
            caper: None,
            voila: None,
        }
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let w := newlist () in
             add (w, 5) ;;
             push_back (w, 7) ;;
             add (w, 2) ;;
             length w * 100 + sum w",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(314),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_with_annotation_hints() {
        let outcome = LclistExtra
            .verify()
            .unwrap_or_else(|e| panic!("lclist_extra stuck:\n{e}"));
        outcome.check_all().expect("traces replay");
    }

    #[test]
    fn adequacy() {
        let (prog, expected) = LclistExtra.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 5, 2_000_000) {
            assert_eq!(v, expected);
        }
    }
}
