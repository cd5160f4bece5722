//! A one-shot broadcast barrier (gate) for two waiters.
//!
//! `signal` opens the gate, depositing the fractional resource `P 1`; each
//! of the two waiters spins until the gate opens and takes `P ½`. The
//! waiters' claims are the two halves of a ghost variable; the invariant
//! tracks how much of `P` is still unclaimed. The disjunct choice when a
//! waiter re-establishes the invariant is resolved by the disjunction
//! backtracking of §5.3 — this is the example family the paper reports as
//! its hardest (barrier is its slowest benchmark).

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

/// The implementation.
pub const SOURCE: &str = "\
def new_barrier _ := ref false
def signal b := b <- true
def wait b := if !b then () else wait b
";

/// Specifications and the invariant.
pub const ANNOTATION: &str = "\
// P: the fractional resource broadcast to the two waiters.
Context (P : Qp → iProp) (Fractional P)
bar_inv γw l := ∃ s. l ↦ #s ∗
  (⌜#s = #false⌝
   ∨ ⌜#s = #true⌝ ∗ (P 1 ∨ gvar γw ½ () ∗ P ½ ∨ gvar γw 1 ()))
is_bar γw b := ∃ l. ⌜b = #l⌝ ∗ inv bar (bar_inv γw l)
SPEC {{ True }} new_barrier () {{ w γw, RET w; is_bar γw w ∗ gvar γw ½ () ∗ gvar γw ½ () }}
SPEC γw, {{ is_bar γw b ∗ P 1 }} signal b {{ RET #(); True }}
SPEC γw, {{ is_bar γw b ∗ gvar γw ½ () }} wait b {{ RET #(); P ½ }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "barrier",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
        impl_lines: 58,
        annot: (100, 31),
        custom: 0,
        hints: (5, 0),
        time: "13:22",
        dia_total: (200, 38),
        iris: None,
        starling: None,
        caper: Some(ToolStat::new(102, 0)),
        voila: None,
    },
    spec_order: &[],
    // Sabotage: wait proceeds without the gate being open.
    sabotage: Some((
        "wait",
        "def wait b := if !b then",
        "def wait b := if ~(!b) then",
    )),
    client: Client {
        main: "let b := new_barrier () in
               fork { wait b ;; () } ;;
               fork { wait b ;; () } ;;
               signal b ;; 9",
        expected: Val::Int(9),
        heap: None,
        // The barrier flag is signalled by a plain store and spun on by
        // plain loads — an SC atomic in a C11 port, so AllAtomic.
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
            .unwrap_or_else(|e| panic!("barrier stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
    }
}
