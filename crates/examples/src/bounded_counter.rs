//! The bounded counter (Caper/Voila's `BoundedCounter`).
//!
//! A counter cycling through `0 … b-1`; incrementing at the bound wraps to
//! zero. The paper verifies it "for a parametric bound, whereas Caper and
//! Voila fix the bound to 3" (§6) — so does this reproduction: the bound
//! `b` is a specification variable constrained only by `0 < b`.

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

/// The implementation. `incr` takes the pair `(b, c)` of bound and counter
/// (recursive functions take a single argument; see DESIGN.md).
pub const SOURCE: &str = "\
def make _ := ref 0
def incr a :=
  let b := fst a in
  let c := snd a in
  let v := !c in
  if v = b - 1
  then (if CAS(c, v, 0) then v else incr a)
  else (if CAS(c, v, v + 1) then v else incr a)
def read c := !c
";

/// Specifications and the invariant (parametric bound `b`).
pub const ANNOTATION: &str = "\
bc_inv l b := ∃ n. l ↦ #n ∗ ⌜0 ≤ n⌝ ∗ ⌜n < b⌝
is_bc c b := ∃ l. ⌜c = #l⌝ ∗ inv bc (bc_inv l b)
SPEC b, {{ ⌜0 < b⌝ }} make () {{ w, RET w; is_bc w b }}
SPEC b c, {{ ⌜a = (#b, c)⌝ ∗ ⌜0 < b⌝ ∗ is_bc c b }} incr a {{ n, RET #n; ⌜0 ≤ n⌝ ∗ ⌜n < b⌝ }}
SPEC b, {{ is_bc c b }} read c {{ n, RET #n; ⌜0 ≤ n⌝ ∗ ⌜n < b⌝ }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "bounded_counter",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
        impl_lines: 20,
        annot: (41, 7),
        custom: 0,
        hints: (4, 0),
        time: "0:11",
        dia_total: (73, 7),
        iris: None,
        starling: None,
        caper: Some(ToolStat::new(50, 2)),
        voila: Some(ToolStat::new(79, 9)),
    },
    spec_order: &[],
    // Sabotage: the wraparound is off by one (CAS to b instead of 0),
    // breaking the `n < b` invariant.
    sabotage: Some(("incr", "then (if CAS(c, v, 0)", "then (if CAS(c, v, b)")),
    client: Client {
        // Bound 3: four increments wrap to 1.
        main: "let c := make () in
               incr (3, c) ;; incr (3, c) ;; incr (3, c) ;; incr (3, c) ;;
               read c",
        expected: Val::Int(1),
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
    fn verifies_fully_automatically() {
        let outcome = EXAMPLE
            .verify()
            .unwrap_or_else(|e| panic!("bounded_counter stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
    }
}
