//! An MCS-style queue lock \[61] — the grant-box variant.
//!
//! Structurally the dual of the CLH lock: the tail holds the *grant box*
//! the next acquirer must watch; a releaser grants by setting its box to
//! `true` (so threads spin until `true`, where CLH spins until `false`).
//! The verification reuses the CLH node-handoff invariants with inverted
//! polarity. (The original MCS lock spins on a flag in the thread's own
//! node found via `next` pointers; this reproduction verifies the
//! grant-box formulation, see EXPERIMENTS.md.)

use crate::common::{Client, PaperRow, Record};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

/// The implementation.
pub const SOURCE: &str = "\
def mswap a :=
  let t := fst a in
  let n := snd a in
  let p := !t in
  if CAS(t, p, n) then p else mswap a
def mspin p := if !p then () else mspin p
def newmcs _ :=
  let n0 := ref true in
  ref n0
def macquire lk :=
  let n := ref false in
  let p := mswap (lk, n) in
  mspin p ;;
  n
def mrelease n := n <- true
";

/// Specifications: the CLH ones with inverted polarity.
pub const ANNOTATION: &str = "\
// R: the resource handed from each holder to its successor.
Context (R : iProp)
node_inv l γ := ∃ b t. l ↦{½} #b ∗
  (⌜#b = #false⌝ ∗ ⌜#t = #false⌝
   ∨ ⌜#b = #true⌝ ∗ ⌜#t = #false⌝ ∗ R
   ∨ ⌜#b = #true⌝ ∗ ⌜#t = #true⌝) ∗ gvar γ ½ #t
claim l γ := inv mcs.node (node_inv l γ) ∗ gvar γ ½ #false
mcs_inv tl := ∃ tv l γ. tl ↦ tv ∗ ⌜tv = #l⌝ ∗ claim l γ
is_mcs lk := ∃ tl. ⌜lk = #tl⌝ ∗ inv mcs.tail (mcs_inv tl)
mcs_locked v := ∃ l γ. ⌜v = #l⌝ ∗ l ↦{½} #false ∗ inv mcs.node (node_inv l γ)
// The swap elaborates the caller's claim before the lock.
swap_pre a lk (n : loc) C := ⌜a = (lk, #n)⌝ ∗ is_mcs lk ∗ C
SPEC {{ R }} newmcs () {{ w, RET w; is_mcs w }}
SPEC lk n γn, {{ swap_pre a lk n (claim n γn) }} mswap a {{ lp γp, RET #lp; claim lp γp }}
SPEC lp γp, {{ ⌜p = #lp⌝ ∗ claim lp γp }} mspin p {{ RET #(); R }}
SPEC {{ is_mcs lk }} macquire lk {{ w, RET w; mcs_locked w ∗ R }}
SPEC {{ mcs_locked n ∗ R }} mrelease n {{ RET #(); True }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "mcs_lock",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
        impl_lines: 54,
        annot: (73, 7),
        custom: 0,
        hints: (4, 0),
        time: "1:11",
        dia_total: (147, 11),
        iris: None,
        starling: None,
        caper: None,
        voila: None,
    },
    spec_order: &[],
    // Sabotage: acquire skips the spin — it "holds the lock" without
    // the resource having been handed over.
    sabotage: Some(("macquire", "mspin p ;;\n  n", "n")),
    client: Client {
        main: "let lk := newmcs () in
               let c := ref 0 in
               fork { let n := macquire lk in c <- !c + 1 ;; mrelease n } ;;
               let n := macquire lk in
               c <- !c + 1 ;;
               mrelease n ;;
               (rec wait u :=
                  let m := macquire lk in
                  let v := !c in
                  mrelease m ;;
                  if v = 2 then v else wait u) ()",
        expected: Val::Int(2),
        heap: None,
        // As with CLH: the tail swap is a CAS, but hand-off between
        // queue nodes is by plain cross-thread loads and stores — SC
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
            .unwrap_or_else(|e| panic!("mcs_lock stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
    }
}
