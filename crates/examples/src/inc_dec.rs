//! `inc_dec` (Caper's `IncDec`): a counter that can be concurrently
//! incremented and decremented by CAS retry loops.
//!
//! The specification proves safety and the return-value shape (the
//! operation returns the value it replaced), with the invariant merely
//! owning the location — the Caper-style "no functional spec" benchmark.

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::{Loc, Val};

/// The implementation.
pub const SOURCE: &str = "\
def make _ := ref 0
def incr c := let v := !c in if CAS(c, v, v + 1) then v else incr c
def decr c := let v := !c in if CAS(c, v, v - 1) then v else decr c
def get c := !c
";

/// Specifications and the invariant.
pub const ANNOTATION: &str = "\
incdec_inv l := ∃ n. l ↦ #n
is_incdec c := ∃ l. ⌜c = #l⌝ ∗ inv incdec (incdec_inv l)
SPEC {{ True }} make () {{ w, RET w; is_incdec w }}
SPEC {{ is_incdec c }} incr c {{ n, RET #n; True }}
SPEC {{ is_incdec c }} decr c {{ n, RET #n; True }}
SPEC {{ is_incdec c }} get c {{ n, RET #n; True }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "inc_dec",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
        impl_lines: 23,
        annot: (44, 0),
        custom: 0,
        hints: (6, 0),
        time: "0:31",
        dia_total: (78, 0),
        iris: None,
        starling: None,
        caper: Some(ToolStat::new(54, 0)),
        voila: Some(ToolStat::new(99, 12)),
    },
    spec_order: &[],
    // Sabotage: get dereferences the wrong thing (not a counter).
    sabotage: Some(("get", "def get c := !c", "def get c := ! !c")),
    client: Client {
        main: "let c := make () in
               fork { incr c ;; () } ;;
               fork { decr c ;; () } ;;
               incr c ;;
               get c ;; 0",
        expected: Val::Int(0),
        // At quiescence all three operations have landed: two
        // increments and one decrement leave the counter (ℓ0) at 1,
        // whatever `get` observed mid-run.
        heap: Some(("heap = {ℓ0 ↦ 1}", |_, h| {
            h.len() == 1 && h.load(Loc::new(0)) == Some(&Val::Int(1))
        })),
        sync_model: SyncModel::InferAtomics,
        lock_order: true,
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Example;

    #[test]
    fn verifies_fully_automatically() {
        let outcome = EXAMPLE
            .verify()
            .unwrap_or_else(|e| panic!("inc_dec stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        assert_eq!(outcome.proofs.len(), 4);
        outcome.check_all().expect("traces replay");
    }
}
