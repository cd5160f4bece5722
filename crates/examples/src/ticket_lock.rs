//! The ticket lock.
//!
//! A fair lock: `acquire` draws a ticket by `FAA` on the `next` counter
//! and spins until the `owner` counter reaches it; `release` bumps
//! `owner`. Ghost state: the ticket dispenser (`tickets γ n` issues the
//! exclusive `ticket γ k` fragments) and an exclusive `locked γ₂` token.
//! The invariant's resource disjunct (`R` available ∨ holder's ticket
//! deposited) has no pure guards, so — exactly like Caper (§6) — the
//! proof search uses the disjunction *backtracking* of §5.3. The `wait`
//! loop needs one manual case split, on whether the ticket being served
//! is the caller's.

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::{Loc, Val};

/// The implementation. The lock value is the pair `(owner, next)`;
/// `wait` takes `(owner_location, my_ticket)`.
pub const SOURCE: &str = "\
def make _ := (ref 0, ref 0)
def wait a := if !(fst a) = snd a then () else wait a
def acquire lk := let n := FAA(snd lk, 1) in wait (fst lk, n)
def release lk := fst lk <- !(fst lk) + 1
";

/// Specifications and the invariant. Other examples instantiate it at
/// a concrete `R`.
pub const ANNOTATION: &str = "\
// R: the protected resource; N: the lock invariant's namespace.
Context (R : iProp) (N := tl)
// The resource disjunct comes first so that, when the invariant is
// re-established, the choice is made while the counters are in context.
tl_inv γ γ2 lo ln R := ∃ o n. (ticket γ o ∨ locked γ2 ∗ R) ∗ lo ↦ #o ∗
  ln ↦ #n ∗ tickets γ n
is_tl N γ γ2 lk R := ∃ lo ln. ⌜lk = (#lo, #ln)⌝ ∗ inv N (tl_inv γ γ2 lo ln R)
SPEC {{ R }} make () {{ w γ γ2, RET w; is_tl N γ γ2 w R }}
SPEC lo ln m γ γ2, {{ ⌜a = (#lo, #m)⌝ ∗ inv N (tl_inv γ γ2 lo ln R) ∗ ticket γ m }}
     wait a {{ RET #(); locked γ2 ∗ R }}
Next Obligation. destruct (decide (o = m)); iStepsS. Qed.
SPEC γ γ2, {{ is_tl N γ γ2 lk R }} acquire lk {{ RET #(); locked γ2 ∗ R }}
SPEC γ γ2, {{ is_tl N γ γ2 lk R ∗ locked γ2 ∗ R }} release lk {{ RET #(); True }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "ticket_lock",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
        impl_lines: 23,
        annot: (49, 6),
        custom: 0,
        hints: (5, 0),
        time: "0:23",
        dia_total: (90, 6),
        iris: Some(ToolStat::new(168, 78)),
        starling: Some(ToolStat::new(66, 11)),
        caper: Some(ToolStat::new(59, 0)),
        voila: Some(ToolStat::new(90, 12)),
    },
    spec_order: &[],
    // Sabotage: wait compares against the *next* counter instead of
    // the caller's ticket — mutual exclusion is gone.
    sabotage: Some(("acquire", "wait (fst lk, n)", "wait (fst lk, n + 1)")),
    client: Client {
        main: "let lk := make () in
               let c := ref 0 in
               fork { acquire lk ;; c <- !c + 1 ;; release lk } ;;
               acquire lk ;; c <- !c + 1 ;; release lk ;;
               (rec spin u :=
                  acquire lk ;;
                  let v := !c in
                  release lk ;;
                  if v = 2 then v else spin u) ()",
        expected: Val::Int(2),
        // The quiescent heap is deterministic: `make ()` allocates the
        // owner/next pair (ℓ0, ℓ1) and the client the counter (ℓ2); at
        // least two tickets were served (the spin loop re-acquires, so
        // owner = next ≥ 2) and the counter holds both increments.
        heap: Some(("owner = next ∧ counter = 2", |_, h| {
            h.len() == 3
                && h.load(Loc::new(0)) == h.load(Loc::new(1))
                && h.load(Loc::new(2)) == Some(&Val::Int(2))
        })),
        // The owner cell is spun on with plain loads and bumped by a
        // plain store.
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
            .unwrap_or_else(|e| panic!("ticket_lock stuck:\n{e}"));
        // One manual case split (in wait), mirroring the paper's 6 lines
        // of proof work on this example.
        assert_eq!(outcome.manual_steps, 1);
        outcome.check_all().expect("traces replay");
        let hints = outcome.hints_used();
        assert!(hints.contains("ticket-issue"));
        assert!(hints.contains("tickets-allocate"));
    }
}
