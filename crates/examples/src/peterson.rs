//! Peterson's mutual-exclusion algorithm \[71] (heap-allocated, as in the
//! paper: "Starling verifies a static version … whereas we verify a
//! heap-allocated version").
//!
//! The paper reports this as one of its hardest examples (28 lines of
//! manual proof, 7:51 verification time): the full mutual-exclusion
//! argument needs program-counter ghost states for both threads. This
//! reproduction verifies the heap-allocated algorithm against a safety
//! specification with flag-shadow ghosts (each thread owns half of its
//! flag's shadow, so the invariant tracks who has announced intent); the
//! full resource-transfer specification is *not* reproduced — see
//! EXPERIMENTS.md for this documented deviation.

use crate::common::{program, Example, PaperRow, ToolStat};
use diaframe_heaplang::{parse_expr, Expr, Val};

/// The implementation. The lock is `(#fa, (#fb, #turn))`.
pub const SOURCE: &str = "\
def newpet _ := (ref false, (ref false, ref 0))
def waita w :=
  if !(fst (snd w)) = false then () else
  (if !(snd (snd w)) = 0 then () else waita w)
def lock_a w :=
  fst w <- true ;;
  snd (snd w) <- 1 ;;
  waita w
def unlock_a w := fst w <- false
def waitb w :=
  if !(fst w) = false then () else
  (if !(snd (snd w)) = 1 then () else waitb w)
def lock_b w :=
  fst (snd w) <- true ;;
  snd (snd w) <- 0 ;;
  waitb w
def unlock_b w := fst w ;; fst (snd w) <- false
";

/// Specifications.
pub const ANNOTATION: &str = "\
pet_inv γa γb fa fb t := ∃ (ba bb : bool) n. fa ↦ #ba ∗ fb ↦ #bb ∗ t ↦ #n ∗
  ⌜0 ≤ n⌝ ∗ ⌜n ≤ 1⌝ ∗ gvar γa ½ #ba ∗ gvar γb ½ #bb
is_pet γa γb w := ∃ fa fb t. ⌜w = (#fa, (#fb, #t))⌝ ∗ inv pet (pet_inv γa γb fa fb t)
SPEC {{ True }} newpet () {{ w γa γb, RET w; is_pet γa γb w ∗ gvar γa ½ #false ∗ gvar γb ½ #false }}
SPEC γa γb, {{ is_pet γa γb w }} waita w {{ ret, RET ret; ⌜ret = #()⌝ }}
SPEC γa γb, {{ is_pet γa γb w }} waitb w {{ ret, RET ret; ⌜ret = #()⌝ }}
SPEC γa γb, {{ is_pet γa γb w ∗ gvar γa ½ #false }} lock_a w
     {{ ret, RET ret; ⌜ret = #()⌝ ∗ gvar γa ½ #true }}
SPEC γa γb, {{ is_pet γa γb w ∗ gvar γa ½ #true }} unlock_a w
     {{ ret, RET ret; ⌜ret = #()⌝ ∗ gvar γa ½ #false }}
SPEC γa γb, {{ is_pet γa γb w ∗ gvar γb ½ #false }} lock_b w
     {{ ret, RET ret; ⌜ret = #()⌝ ∗ gvar γb ½ #true }}
SPEC γa γb, {{ is_pet γa γb w ∗ gvar γb ½ #true }} unlock_b w
     {{ ret, RET ret; ⌜ret = #()⌝ ∗ gvar γb ½ #false }}
";

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct Peterson;

impl Example for Peterson {
    fn name(&self) -> &'static str {
        "peterson"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 46,
            annot: (102, 28),
            custom: 0,
            hints: (7, 0),
            time: "7:51",
            dia_total: (166, 28),
            iris: None,
            starling: Some(ToolStat::new(94, 5)),
            caper: None,
            voila: None,
        }
    }

    fn sabotage(&self) -> Option<(&'static str, &'static str, &'static str)> {
        // Sabotage: lock_a writes an out-of-range turn value, violating
        // the invariant's 0 ≤ n ≤ 1.
        Some((
            "lock_a",
            "snd (snd w) <- 1 ;;\n  waita w",
            "snd (snd w) <- 2 ;;\n  waita w",
        ))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let w := newpet () in
             let c := ref 0 in
             fork { lock_b w ;; c <- !c + 1 ;; unlock_b w } ;;
             lock_a w ;;
             c <- !c + 1 ;;
             unlock_a w ;;
             (rec wait u := if !c = 2 then !c else wait u) ()",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(2),
        ))
    }

    fn sweep_spec(&self) -> Option<crate::common::SweepSpec> {
        // Peterson synchronizes entirely through plain loads and stores
        // of the flag and turn cells — a C11 port would declare them SC
        // atomics, so the race detector runs in AllAtomic mode.
        self.adequacy_program().map(|(prog, expected)| {
            crate::common::value_spec(
                prog,
                expected,
                diaframe_heaplang::monitor::SyncModel::AllAtomic,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_safety_spec() {
        let outcome = Peterson
            .verify()
            .unwrap_or_else(|e| panic!("peterson stuck:\n{e}"));
        outcome.check_all().expect("traces replay");
    }

    #[test]
    fn adequacy() {
        let (prog, expected) = Peterson.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 10, 2_000_000) {
            assert_eq!(v, expected);
        }
    }
}
