//! The bounded counter (Caper/Voila's `BoundedCounter`).
//!
//! A counter cycling through `0 … b-1`; incrementing at the bound wraps to
//! zero. The paper verifies it "for a parametric bound, whereas Caper and
//! Voila fix the bound to 3" (§6) — so does this reproduction: the bound
//! `b` is a specification variable constrained only by `0 < b`.

use crate::common::{program, Example, ExampleOutcome, PaperRow, ToolStat, Ws};
use diaframe_core::{Stuck, VerifyOptions};
use diaframe_heaplang::{parse_expr, Expr, Val};

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
#[derive(Debug, Default)]
pub struct BoundedCounter;

impl Example for BoundedCounter {
    fn name(&self) -> &'static str {
        "bounded_counter"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
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
        }
    }

    fn verify(&self) -> Result<ExampleOutcome, Box<Stuck>> {
        Ws::new(SOURCE, ANNOTATION).verify_declared(|_| VerifyOptions::automatic())
    }

    fn verify_broken(&self) -> Option<Result<ExampleOutcome, Box<Stuck>>> {
        // Sabotage: the wraparound is off by one (CAS to b instead of 0),
        // breaking the `n < b` invariant.
        let broken = "\
def make _ := ref 0
def incr a :=
  let b := fst a in
  let c := snd a in
  let v := !c in
  if v = b - 1
  then (if CAS(c, v, b) then v else incr a)
  else (if CAS(c, v, v + 1) then v else incr a)
def read c := !c
";
        Some(Ws::new(broken, ANNOTATION).verify_named(&["incr"], |_| VerifyOptions::automatic()))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        // Bound 3: four increments wrap to 1.
        let main = parse_expr(
            "let c := make () in
             incr (3, c) ;; incr (3, c) ;; incr (3, c) ;; incr (3, c) ;;
             read c",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(1),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_fully_automatically() {
        let outcome = BoundedCounter
            .verify()
            .unwrap_or_else(|e| panic!("bounded_counter stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
    }


    #[test]
    fn adequacy() {
        let (prog, expected) = BoundedCounter.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 5, 1_000_000) {
            assert_eq!(v, expected);
        }
    }
}
