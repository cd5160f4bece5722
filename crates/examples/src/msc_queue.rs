//! The Michael–Scott *two-lock* queue \[63] (`msc_queue`).
//!
//! Two spin locks: the head lock protects the front list (dequeue side),
//! the tail lock protects the back list (enqueue side). A dequeuer that
//! finds the front empty briefly takes the tail lock and migrates the
//! back list wholesale. Elements carry the resource `Φ(v)`.
//! (The paper's row verifies the non-blocking variant of \[63]; this
//! reproduction verifies the *blocking* two-lock queue from the same
//! paper, see EXPERIMENTS.md.)

use crate::common::{program, Example, PaperRow};
use diaframe_heaplang::{parse_expr, Expr, Val};

/// The implementation. The queue handle is
/// `(hlk, (tlk, (front, (back, null))))`.
pub const SOURCE: &str = "\
def newhlock u := ref false
def acquireh l := if CAS(l, false, true) then () else acquireh l
def releaseh l := l <- false
def newtlock v := ref false
def acquiret l := if CAS(l, false, true) then () else acquiret l
def releaset l := l <- false
def newq _ :=
  let null := ref 0 in
  let front := ref null in
  let back := ref null in
  (newhlock (), (newtlock (), (front, (back, null))))
def enq a :=
  let w := fst a in
  let v := snd a in
  let tlk := fst (snd w) in
  let back := fst (snd (snd (snd w))) in
  acquiret tlk ;;
  let n := ref (v, !back) in
  back <- n ;;
  releaset tlk
def deq w :=
  let hlk := fst w in
  let tlk := fst (snd w) in
  let front := fst (snd (snd w)) in
  let back := fst (snd (snd (snd w))) in
  let null := snd (snd (snd (snd w))) in
  acquireh hlk ;;
  let f := !front in
  (if f = null
   then (acquiret tlk ;;
         front <- !back ;;
         back <- null ;;
         releaset tlk)
   else ()) ;;
  let f2 := !front in
  let r :=
    (if f2 = null
     then inl ()
     else (let p := !f2 in front <- snd p ;; inr (fst p))) in
  releaseh hlk ;;
  r
";

/// Specifications: two spin-lock instances, one per list.
pub const ANNOTATION: &str = "\
// Φ: the resource each element carries.
Context (Φ : val → iProp)
qchain h nl := ⌜h = nl⌝ ∨ ∃ l v nx. ⌜h = #l⌝ ∗ l ↦ (v, nx) ∗ Φ v ∗ qchain nx nl
R_cell cell (null : loc) := ∃ h. cell ↦ h ∗ qchain h #null
Context (front back null : loc)
Instance spin_lock front null with N := msq.h, R := R_cell front null,
  newlock := newhlock, acquire := acquireh, release := releaseh
Instance spin_lock back null with N := msq.t, R := R_cell back null,
  newlock := newtlock, acquire := acquiret, release := releaset
// Both lock resources are elaborated before either lock.
two_locks γh hlk γt tlk RH RT := is_lock msq.h γh hlk RH ∗ is_lock msq.t γt tlk RT
is_msq γh γt w := ∃ hlk tlk front back null.
  ⌜w = (hlk, (tlk, (#front, (#back, #null))))⌝ ∗
  two_locks γh hlk γt tlk (R_cell front null) (R_cell back null)
SPEC {{ True }} newq () {{ w γh γt, RET w; is_msq γh γt w }}
SPEC wv v γh γt, {{ ⌜a = (wv, v)⌝ ∗ is_msq γh γt wv ∗ Φ v }} enq a {{ RET #(); True }}
SPEC γh γt, {{ is_msq γh γt wv }} deq wv {{ w, RET w; ⌜w = inl #()⌝ ∨ ∃ v. ⌜w = inr v⌝ ∗ Φ v }}
HINT qchain-fold: ε₁ ∗ [⌜h = nl⌝ ∨ ∃ l v nx. ⌜h = #l⌝ ∗ l ↦ (v, nx) ∗ Φ v ∗ qchain nx nl] ⊫ qchain h nl
HINT qchain-unfold: qchain h nl ⊫ [⌜h = nl⌝ ∨ ∃ l v nx. ⌜h = #l⌝ ∗ l ↦ (v, nx) ∗ Φ v ∗ qchain nx nl]
";

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct MscQueue;

impl Example for MscQueue {
    fn name(&self) -> &'static str {
        "msc_queue"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 37,
            annot: (56, 5),
            custom: 41,
            hints: (13, 3),
            time: "1:42",
            dia_total: (168, 46),
            iris: None,
            starling: None,
            caper: None,
            voila: None,
        }
    }

    fn sabotage(&self) -> Option<(&'static str, &'static str, &'static str)> {
        // Sabotage: the migration forgets to clear the back list — Φ for
        // every element would be duplicated.
        Some((
            "deq",
            "back <- null ;;\n         releaset tlk",
            "releaset tlk",
        ))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let w := newq () in
             enq (w, 11) ;;
             enq (w, 22) ;;
             let r := match deq w with inl u => 0 | inr v => v end in
             fork { enq (w, 33) } ;;
             r",
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
    fn verifies_with_annotation_hints() {
        let outcome = MscQueue
            .verify()
            .unwrap_or_else(|e| panic!("msc_queue stuck:\n{e}"));
        outcome.check_all().expect("traces replay");
    }

    #[test]
    fn adequacy() {
        let (prog, expected) = MscQueue.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 8, 2_000_000) {
            assert_eq!(v, expected);
        }
    }
}
