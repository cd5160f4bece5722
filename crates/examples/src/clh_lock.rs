//! The CLH queue lock \[58].
//!
//! Each acquirer allocates a node (initially `true` = busy), atomically
//! swaps it into the tail, and spins on its *predecessor's* node until the
//! predecessor releases by setting its own node to `false`. The handoff is
//! a one-shot protocol per node: the node invariant's three states are
//! "busy", "released with `R` deposited", and "`R` claimed" — the claim
//! being guarded by a ghost boolean whose other half the unique successor
//! received through the tail swap.

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

/// The implementation.
pub const SOURCE: &str = "\
def swaptail a :=
  let t := fst a in
  let n := snd a in
  let p := !t in
  if CAS(t, p, n) then p else swaptail a
def spin p := if !p then spin p else ()
def newclh _ :=
  let n0 := ref false in
  ref n0
def acquire lk :=
  let n := ref true in
  let p := swaptail (lk, n) in
  spin p ;;
  n
def release n := n <- false
";

/// Specifications and the node/tail invariants.
pub const ANNOTATION: &str = "\
// R: the resource handed from each holder to its successor.
Context (R : iProp)
node_inv l γ := ∃ b t. l ↦{½} #b ∗
  (⌜#b = #true⌝ ∗ ⌜#t = #false⌝
   ∨ ⌜#b = #false⌝ ∗ ⌜#t = #false⌝ ∗ R
   ∨ ⌜#b = #false⌝ ∗ ⌜#t = #true⌝) ∗ gvar γ ½ #t
claim l γ := inv clh.node (node_inv l γ) ∗ gvar γ ½ #false
clh_inv tl := ∃ tv l γ. tl ↦ tv ∗ ⌜tv = #l⌝ ∗ claim l γ
is_clh lk := ∃ tl. ⌜lk = #tl⌝ ∗ inv clh.tail (clh_inv tl)
clh_locked v := ∃ l γ. ⌜v = #l⌝ ∗ l ↦{½} #true ∗ inv clh.node (node_inv l γ)
// The swap elaborates the caller's claim before the lock.
swap_pre a lk (n : loc) C := ⌜a = (lk, #n)⌝ ∗ is_clh lk ∗ C
SPEC {{ R }} newclh () {{ w, RET w; is_clh w }}
SPEC lk n γn, {{ swap_pre a lk n (claim n γn) }} swaptail a {{ lp γp, RET #lp; claim lp γp }}
SPEC lp γp, {{ ⌜p = #lp⌝ ∗ claim lp γp }} spin p {{ RET #(); R }}
SPEC {{ is_clh lk }} acquire lk {{ w, RET w; clh_locked w ∗ R }}
SPEC {{ clh_locked n ∗ R }} release n {{ RET #(); True }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "clh_lock",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
        impl_lines: 30,
        annot: (48, 0),
        custom: 3,
        hints: (7, 0),
        time: "0:22",
        dia_total: (94, 3),
        iris: None,
        starling: Some(ToolStat::new(134, 15)),
        caper: None,
        voila: None,
    },
    spec_order: &[],
    // Sabotage: spin proceeds immediately without checking the
    // predecessor.
    sabotage: Some((
        "spin",
        "def spin p := if !p then spin p else ()",
        "def spin p := !p ;; ()",
    )),
    client: Client {
        main: "let lk := newclh () in
               let c := ref 0 in
               fork { let n := acquire lk in c <- !c + 1 ;; release n } ;;
               let n := acquire lk in
               c <- !c + 1 ;;
               release n ;;
               (rec wait u :=
                  let m := acquire lk in
                  let v := !c in
                  release m ;;
                  if v = 2 then v else wait u) ()",
        expected: Val::Int(2),
        heap: None,
        // The tail swap is a CAS, but each queue node is spun on by
        // plain loads and released by a plain store across threads — SC
        // atomics in a C11 port, so AllAtomic.
        sync_model: SyncModel::AllAtomic,
        lock_order: true,
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Example;

    #[test]
    fn verifies_by_backtracking() {
        let outcome = EXAMPLE
            .verify()
            .unwrap_or_else(|e| panic!("clh_lock stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
    }
}
