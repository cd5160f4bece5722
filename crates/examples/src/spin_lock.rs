//! The spin lock — §2.1 of the paper (Fig. 2).
//!
//! The canonical first example: a boolean lock acquired by `CAS`, with the
//! impredicative `is_lock γ lk R` representation predicate backed by an
//! invariant and the exclusive `locked γ` ghost token. Verifies fully
//! automatically (0 lines of manual proof in Figure 6).

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::{Loc, Val};

/// The implementation (Fig. 2, lines 1–8).
pub const SOURCE: &str = "\
def newlock _ := ref false
def acquire l := if CAS(l, false, true) then () else acquire l
def release l := l <- false
";

/// The annotation: specifications and the lock invariant (Fig. 2,
/// lines 9–26). Other examples instantiate it at a concrete `R`.
pub const ANNOTATION: &str = "\
// R: the protected resource; N: the lock invariant's namespace.
Context (R : iProp) (N := lock)
lock_inv γ l R := ∃ b. l ↦ #b ∗ (⌜#b = #true⌝ ∨ ⌜#b = #false⌝ ∗ locked γ ∗ R)
is_lock N γ lk R := ∃ l. ⌜lk = #l⌝ ∗ inv N (lock_inv γ l R)
SPEC {{ R }} newlock () {{ w γ, RET w; is_lock N γ w R }}
SPEC γ, {{ is_lock N γ lk R }} acquire lk {{ RET #(); locked γ ∗ R }}
SPEC γ, {{ is_lock N γ lk R ∗ locked γ ∗ R }} release lk {{ RET #(); True }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "spin_lock",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
        impl_lines: 13,
        annot: (28, 0),
        custom: 0,
        hints: (3, 0),
        time: "0:06",
        dia_total: (59, 0),
        iris: Some(ToolStat::new(93, 30)),
        starling: Some(ToolStat::new(76, 22)),
        caper: Some(ToolStat::new(39, 0)),
        voila: Some(ToolStat::new(65, 7)),
    },
    spec_order: &[],
    // Sabotage: `acquire` "succeeds" without actually taking the lock
    // (CAS from true to true) — the specification must fail.
    sabotage: Some(("acquire", "CAS(l, false, true)", "CAS(l, true, true)")),
    client: Client {
        main: "let lk := newlock () in
               let c := ref 0 in
               fork { acquire lk ;; c <- !c + 1 ;; release lk } ;;
               acquire lk ;; c <- !c + 1 ;; release lk ;;
               (rec wait u :=
                  acquire lk ;;
                  let n := !c in
                  release lk ;;
                  if n = 2 then n else wait u) ()",
        expected: Val::Int(2),
        // The quiescent heap is deterministic: the lock (ℓ0) is
        // released and the counter (ℓ1) holds both increments.
        heap: Some(("heap = {ℓ0 ↦ false, ℓ1 ↦ 2}", |_, h| {
            h.len() == 2
                && h.load(Loc::new(0)) == Some(&Val::Bool(false))
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
            .unwrap_or_else(|e| panic!("spin lock stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0, "paper: zero manual proof work");
        assert_eq!(outcome.proofs.len(), 3);
        outcome.check_all().expect("traces replay");
        let hints = outcome.hints_used();
        assert!(hints.contains("locked-allocate"));
        assert!(hints.iter().any(|h| h == "inv-open"));
    }
}
