//! A lock-protected FIFO queue with per-element resources (the paper's
//! `queue` row).
//!
//! A spin lock protects a singly linked list with head insertion at the
//! back via traversal (`append_to`) and removal at the front. Elements
//! carry the resource `Φ(v)`, transferred to the dequeuer. The recursive
//! `qchain` predicate is handled by the same custom-hint recipe as
//! [`crate::bag_stack`]. (Caper's queue is CAS-based; this reproduction
//! verifies the coarse-grained variant, see EXPERIMENTS.md.)

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

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
HINT qchain-fold: ε₁ ∗ [⌜h = nl⌝ ∨ ∃ l v nx. ⌜h = #l⌝ ∗ l ↦ (v, nx) ∗ Φ v ∗ qchain nx nl] ⊫ qchain h nl
HINT qchain-unfold: qchain h nl ⊫ [⌜h = nl⌝ ∨ ∃ l v nx. ⌜h = #l⌝ ∗ l ↦ (v, nx) ∗ Φ v ∗ qchain nx nl]
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "queue",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
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
    },
    spec_order: &[],
    // Sabotage: deq returns the element but leaves it in the queue —
    // Φ would be duplicated.
    sabotage: Some((
        "deq",
        "else (let p := !h in hd <- snd p ;; inr (fst p))) in",
        "else (let p := !h in inr (fst p))) in",
    )),
    client: Client {
        main: "let w := newq () in
               enq ((w, 11), 0) ;;
               enq ((w, 22), 0) ;;
               match deq w with inl u => 0 | inr v => v end",
        expected: Val::Int(11),
        heap: None,
        sync_model: SyncModel::InferAtomics,
        lock_order: true,
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Example;

    #[test]
    fn verifies_with_annotation_hints() {
        let outcome = EXAMPLE
            .verify()
            .unwrap_or_else(|e| panic!("queue stuck:\n{e}"));
        outcome.check_all().expect("traces replay");
        assert!(outcome
            .custom_hints_used()
            .iter()
            .any(|h| h.contains("qchain")));
    }
}
