//! The Atomic Reference Counter — §2.2 of the paper (Fig. 3).
//!
//! The headline example: an ARC protecting a *fractional* resource
//! `P : Qp → iProp`, verified with the counting-permissions ghost library
//! (Fig. 4). As in the paper, `drop` needs exactly one manual step — the
//! case distinction between "this was the last token" (`z = 1`) and
//! "other tokens remain" (`z > 1`); everything else is automatic.

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::{Loc, Val};

/// The implementation (Fig. 3, lines 2–13).
pub const SOURCE: &str = "\
def mk_arc _ := ref 1
def count a := !a
def clone a := FAA(a, 1) ;; ()
def drop a := FAA(a, -1) = 1
def unwrap a := if CAS(a, 1, 0) then () else unwrap a
";

/// The annotation (Fig. 3, lines 14–43).
pub const ANNOTATION: &str = "\
// P: the fractional resource the counter shares out.
Context (P : Qp → iProp) (Fractional P)
arc_inv γ l := ∃ z. l ↦ #z ∗ (⌜0 < z⌝ ∗ counter P γ z ∨ ⌜#z = #0⌝ ∗ no_tokens P γ ½)
is_arc γ v := ∃ l. ⌜v = #l⌝ ∗ inv arc (arc_inv γ l)
SPEC {{ P 1 }} mk_arc () {{ w γ, RET w; is_arc γ w ∗ token P γ }}
SPEC γ, {{ is_arc γ v ∗ token P γ }} count v {{ p, RET #p; ⌜0 < p⌝ ∗ token P γ }}
SPEC γ, {{ is_arc γ v ∗ token P γ }} clone v {{ RET #(); token P γ ∗ token P γ }}
SPEC γ, {{ is_arc γ v ∗ token P γ }} drop v
     {{ w, RET w; ⌜w = #false⌝ ∨ ⌜w = #true⌝ ∗ P 1 ∗ no_tokens P γ ½ }}
Next Obligation. destruct (decide (z = 1)); iStepsS. Qed.
SPEC γ, {{ is_arc γ v ∗ token P γ }} unwrap v {{ RET #(); P 1 ∗ no_tokens P γ ½ }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "arc",
    source: SOURCE,
    annotation: ANNOTATION,
    // Comparison columns read off the Figure 6 row labelled `arc`;
    // where the table's typesetting makes the tool assignment
    // ambiguous we follow the row labels verbatim (see EXPERIMENTS.md,
    // deviation 7).
    paper: PaperRow {
        impl_lines: 18,
        annot: (28, 4),
        custom: 3,
        hints: (5, 0),
        time: "0:10",
        dia_total: (62, 7),
        iris: None,
        starling: Some(ToolStat::new(72, 16)),
        caper: Some(ToolStat::new(70, 1)),
        voila: None,
    },
    spec_order: &[],
    // Sabotage: clone forgets to increment (adds 0): the second token
    // in the postcondition cannot be minted.
    sabotage: Some((
        "clone",
        "def clone a := FAA(a, 1)",
        "def clone a := FAA(a, 0)",
    )),
    client: Client {
        main: "let a := mk_arc () in
               clone a ;;
               let c1 := count a in
               assert (c1 = 2) ;;
               let d1 := drop a in
               assert (d1 = false) ;;
               let d2 := drop a in
               assert (d2 = true) ;;
               count a",
        expected: Val::Int(0),
        // Quiescent heap: after one clone and two drops the refcount
        // cell (ℓ0) is back to 0.
        heap: Some(("heap = {ℓ0 ↦ 0}", |_, h| {
            h.len() == 1 && h.load(Loc::new(0)) == Some(&Val::Int(0))
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
    fn verifies_with_one_manual_step() {
        let outcome = EXAMPLE
            .verify()
            .unwrap_or_else(|e| panic!("arc stuck:\n{e}"));
        // The paper's §2.2: drop needs exactly one case distinction;
        // everything else is automatic.
        assert_eq!(outcome.manual_steps, 1);
        assert_eq!(outcome.proofs.len(), 5);
        outcome.check_all().expect("traces replay");
        let hints = outcome.hints_used();
        assert!(hints.contains("token-allocate"));
        assert!(hints.contains("token-mutate-incr"));
        assert!(hints.contains("token-mutate-decr"));
        assert!(hints.contains("token-mutate-delete-last"));
    }

    #[test]
    fn drop_fails_without_the_case_split() {
        // Reproduces the §2.2 stuck state: without the manual case
        // distinction the automation cannot decide the invariant-closing
        // disjunction; backtracking tries both disjuncts, neither of
        // whose pure goals (`0 < z - 1`, `#(z - 1) = #0`) anything
        // proves, and the report stands at the disjunction.
        let ws = crate::common::Ws::new(SOURCE, ANNOTATION);
        let registry = diaframe_ghost::Registry::standard();
        let opts = diaframe_core::VerifyOptions::automatic();
        let r = ws.verify_all(&registry, &[(ws.named("drop"), opts)]);
        let stuck = r.expect_err("drop must get stuck without the case split");
        assert_eq!(
            stuck.reason,
            "neither disjunct holds; left: cannot prove pure goal 0 < z31 + (-1); \
             right: cannot prove pure goal #(z31 + (-1)) = #0"
        );
        assert!(
            stuck.goal.contains(
                "(⌜0 < z31 + (-1)⌝ ∗ counter P γ27 z31 + (-1)) ∨ \
                 (⌜#(z31 + (-1)) = #0⌝ ∗ no_tokens P γ27 1/2)"
            ),
            "{}",
            stuck.goal
        );
    }
}
