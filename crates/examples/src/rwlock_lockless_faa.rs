//! The lock-free reader-writer lock (Caper's `ReadWriteLock` via `FAA`).
//!
//! The cell holds `-1` while a writer is active, `0` when idle, and the
//! reader count otherwise. Readers share the protected fractional `P`
//! through counting permissions; the writer recovers `P 1`. The `-1`
//! state keeps half a `no_tokens` witness so a stray reader release is
//! provably impossible.

use crate::common::{program, Example, PaperRow, ToolStat};
use diaframe_heaplang::{parse_expr, Expr, Val};

/// The implementation.
pub const SOURCE: &str = "\
def make _ := ref 0
def read_acq l :=
  let v := !l in
  if 0 <= v
  then (if CAS(l, v, v + 1) then () else read_acq l)
  else read_acq l
def read_rel l := FAA(l, -1) ;; ()
def write_acq l := if CAS(l, 0, -1) then () else write_acq l
def write_rel l := l <- 0
";

/// Specifications and the invariant.
pub const ANNOTATION: &str = "\
// P: the fractional resource readers share and the writer owns.
Context (P : Qp → iProp) (Fractional P)
rw_inv γ l := ∃ z. l ↦ #z ∗
  (⌜#z = #-1⌝ ∗ no_tokens P γ ½
   ∨ ⌜#z = #0⌝ ∗ no_tokens P γ 1 ∗ P 1
   ∨ ⌜0 < z⌝ ∗ counter P γ z)
is_rw γ v := ∃ l. ⌜v = #l⌝ ∗ inv rw (rw_inv γ l)
SPEC {{ P 1 }} make () {{ w γ, RET w; is_rw γ w }}
SPEC γ, {{ is_rw γ v }} read_acq v {{ RET #(); token P γ }}
SPEC γ, {{ is_rw γ v ∗ token P γ }} read_rel v {{ RET #(); True }}
Next Obligation. destruct (decide (z = 1)); iStepsS. Qed.
SPEC γ, {{ is_rw γ v }} write_acq v {{ RET #(); P 1 ∗ no_tokens P γ ½ }}
SPEC γ, {{ is_rw γ v ∗ P 1 ∗ no_tokens P γ ½ }} write_rel v {{ RET #(); True }}
";

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct RwLockLocklessFaa;

impl Example for RwLockLocklessFaa {
    fn name(&self) -> &'static str {
        "rwlock_lockless_faa"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 27,
            annot: (36, 1),
            custom: 0,
            hints: (8, 0),
            time: "0:20",
            dia_total: (74, 1),
            iris: None,
            starling: None,
            caper: Some(ToolStat::new(68, 1)),
            voila: None,
        }
    }

    fn sabotage(&self) -> Option<(&'static str, &'static str, &'static str)> {
        // Sabotage: the writer CASes from 1 (a reader present!) — shared
        // and exclusive access would coexist.
        Some(("write_acq", "CAS(l, 0, -1)", "CAS(l, 1, -1)"))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let l := make () in
             fork { read_acq l ;; read_rel l } ;;
             write_acq l ;;
             write_rel l ;;
             read_acq l ;; read_rel l ;; 1",
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
        let outcome = RwLockLocklessFaa
            .verify()
            .unwrap_or_else(|e| panic!("rwlock_lockless_faa stuck:\n{e}"));
        // One manual case split (paper: 1 line of proof work).
        assert_eq!(outcome.manual_steps, 1);
        outcome.check_all().expect("traces replay");
        let hints = outcome.hints_used();
        assert!(hints.contains("token-revive"));
        assert!(hints.contains("token-mutate-delete-last"));
    }

    #[test]
    fn adequacy() {
        let (prog, expected) = RwLockLocklessFaa.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 10, 2_000_000) {
            assert_eq!(v, expected);
        }
    }
}
