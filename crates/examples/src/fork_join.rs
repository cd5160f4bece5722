//! Fork/join — a join handle transferring a resource `Q` from the worker
//! to the joiner.
//!
//! The handle is a three-state cell (`0` pending, `1` done with `Q`
//! deposited, `2` taken); `join` *takes* the resource by a 1→2 CAS, so
//! every disjunct of the invariant is guarded by the heap value and the
//! automation needs no help. Double-`finish` is excluded by the one-shot
//! ghost (`pending γ` / `shot γ`).

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::{Loc, Val};

/// The implementation.
pub const SOURCE: &str = "\
def make _ := ref 0
def finish j := j <- 1
def join j := if CAS(j, 1, 2) then () else join j
";

/// Specifications and the invariant.
pub const ANNOTATION: &str = "\
// Q: the resource the worker hands to the joiner.
Context (Q : iProp)
join_inv γ l := ∃ s. l ↦ #s ∗
  (⌜#s = #0⌝ ∨ ⌜#s = #1⌝ ∗ shot γ #() ∗ Q ∨ ⌜#s = #2⌝ ∗ shot γ #())
is_join γ j := ∃ l. ⌜j = #l⌝ ∗ inv join (join_inv γ l)
SPEC {{ True }} make () {{ w γ, RET w; is_join γ w ∗ pending γ }}
SPEC γ, {{ is_join γ j ∗ pending γ ∗ Q }} finish j {{ RET #(); True }}
SPEC γ, {{ is_join γ j }} join j {{ RET #(); Q }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "fork_join",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
        impl_lines: 14,
        annot: (29, 0),
        custom: 0,
        hints: (2, 0),
        time: "0:08",
        dia_total: (57, 0),
        iris: None,
        starling: None,
        caper: Some(ToolStat::new(38, 0)),
        voila: Some(ToolStat::new(51, 7)),
    },
    spec_order: &[],
    // Sabotage: join spins on state 1 and "takes" from state 0 — the
    // resource is not there yet.
    sabotage: Some(("join", "CAS(j, 1, 2)", "CAS(j, 0, 2)")),
    client: Client {
        main: "let r := ref 0 in
               let j := make () in
               fork { r <- 6 * 7 ;; finish j } ;;
               join j ;;
               !r",
        expected: Val::Int(42),
        // Quiescent heap: the result cell (ℓ0) holds the child's write
        // and the join flag (ℓ1) is in its joined state.
        heap: Some(("heap = {ℓ0 ↦ 42, ℓ1 ↦ 2}", |_, h| {
            h.len() == 2
                && h.load(Loc::new(0)) == Some(&Val::Int(42))
                && h.load(Loc::new(1)) == Some(&Val::Int(2))
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
            .unwrap_or_else(|e| panic!("fork_join stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
        assert!(outcome.hints_used().contains("oneshot-fire"));
    }
}
