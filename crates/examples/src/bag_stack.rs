//! The Treiber bag stack \[18] — elements carry a resource `Φ(v)`.
//!
//! The first example with a *recursive* representation predicate
//! (`chain`), which Diaframe has no native support for: exactly as the
//! paper reports for `bag_stack` (34 lines of proof-search customization,
//! 3 custom hints), the proof is driven by the annotation's bi-abduction
//! hints — a fold hint, a duplicate-and-extract-skeleton hint, and an
//! unfold hint for the recursive occurrence.

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

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

/// Specifications, the recursive chain predicate, and the `HINT`s that
/// axiomatise it: `chain-dup` re-proves a chain while extracting its
/// skeleton (the head shape and a fraction of the head node),
/// `chain-fold` builds a chain from half of a node, and `chain-unfold`
/// opens a chain whose head node's contents the skeleton pins.
pub const ANNOTATION: &str = "\
// Φ: the resource each element carries.
Context (Φ : val → iProp)
chain h nl := ⌜h = nl⌝ ∨ ∃ l v nx q. ⌜h = #l⌝ ∗ l ↦{q} (v, nx) ∗ Φ v ∗ chain nx nl
is_bag b := ∃ s (null : loc). ⌜b = (#s, #null)⌝ ∗ inv bag (∃ h. s ↦ h ∗ chain h #null)
SPEC {{ True }} make () {{ w, RET w; is_bag w }}
SPEC b v, {{ ⌜a = (b, v)⌝ ∗ is_bag b ∗ Φ v }} push a {{ RET #(); True }}
SPEC {{ is_bag b }} pop b {{ w, RET w; ⌜w = inl #()⌝ ∨ ∃ v. ⌜w = inr v⌝ ∗ Φ v }}
HINT chain-dup: chain h nl ⊫ chain h nl ∗ [⌜h = nl⌝ ∨ ∃ l v nx q. ⌜h = #l⌝ ∗ l ↦{q} (v, nx)]
HINT chain-fold: ε₁ ∗ [⌜h = nl⌝ ∨ ∃ l v nx. ⌜h = #l⌝ ∗ l ↦{½} (v, nx) ∗ Φ v ∗ chain nx nl] ⊫ chain h nl
HINT chain-unfold: chain #l nl ∗ [l ↦{q} (v, nx)] ⊫ [Φ v ∗ chain nx nl]
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "bag_stack",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
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
    },
    spec_order: &[],
    // Sabotage: pop returns the element without having CASed it out —
    // the resource would be duplicated.
    sabotage: Some((
        "pop",
        "  else (let p := !h in\n        if CAS(s, h, snd p) then inr (fst p) else pop b)",
        "  else (let p := !h in inr (fst p))",
    )),
    client: Client {
        main: "let b := make () in
               push (b, 11) ;;
               push (b, 22) ;;
               match pop b with
                 inl u => 0
               | inr v => v
               end",
        expected: Val::Int(22),
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
            .unwrap_or_else(|e| panic!("bag_stack stuck:\n{e}"));
        // Three custom hints per spec run (the paper: 3 custom of 7 hints).
        assert!(outcome.manual_steps > 0);
        outcome.check_all().expect("traces replay");
        let custom = outcome.custom_hints_used();
        assert!(custom.iter().any(|h| h.contains("chain")));
    }
}
