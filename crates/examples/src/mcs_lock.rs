//! An MCS-style queue lock \[61] — the grant-box variant.
//!
//! Structurally the dual of the CLH lock: the tail holds the *grant box*
//! the next acquirer must watch; a releaser grants by setting its box to
//! `true` (so threads spin until `true`, where CLH spins until `false`).
//! The verification reuses the CLH node-handoff invariants with inverted
//! polarity. (The original MCS lock spins on a flag in the thread's own
//! node found via `next` pointers; this reproduction verifies the
//! grant-box formulation, see EXPERIMENTS.md.)

use crate::common::{program, Example, ExampleOutcome, PaperRow, Ws};
use diaframe_core::{Stuck, VerifyOptions};
use diaframe_heaplang::{parse_expr, Expr, Val};

/// The implementation.
pub const SOURCE: &str = "\
def mswap a :=
  let t := fst a in
  let n := snd a in
  let p := !t in
  if CAS(t, p, n) then p else mswap a
def mspin p := if !p then () else mspin p
def newmcs _ :=
  let n0 := ref true in
  ref n0
def macquire lk :=
  let n := ref false in
  let p := mswap (lk, n) in
  mspin p ;;
  n
def mrelease n := n <- true
";

/// Specifications: the CLH ones with inverted polarity.
pub const ANNOTATION: &str = "\
// R: the resource handed from each holder to its successor.
Context (R : iProp)
node_inv l γ := ∃ b t. l ↦{½} #b ∗
  (⌜#b = #false⌝ ∗ ⌜#t = #false⌝
   ∨ ⌜#b = #true⌝ ∗ ⌜#t = #false⌝ ∗ R
   ∨ ⌜#b = #true⌝ ∗ ⌜#t = #true⌝) ∗ gvar γ ½ #t
claim l γ := inv mcs.node (node_inv l γ) ∗ gvar γ ½ #false
mcs_inv tl := ∃ tv l γ. tl ↦ tv ∗ ⌜tv = #l⌝ ∗ claim l γ
is_mcs lk := ∃ tl. ⌜lk = #tl⌝ ∗ inv mcs.tail (mcs_inv tl)
mcs_locked v := ∃ l γ. ⌜v = #l⌝ ∗ l ↦{½} #false ∗ inv mcs.node (node_inv l γ)
// The swap elaborates the caller's claim before the lock.
swap_pre a lk (n : loc) C := ⌜a = (lk, #n)⌝ ∗ is_mcs lk ∗ C
SPEC {{ R }} newmcs () {{ w, RET w; is_mcs w }}
SPEC lk n γn, {{ swap_pre a lk n (claim n γn) }} mswap a {{ lp γp, RET #lp; claim lp γp }}
SPEC lp γp, {{ ⌜p = #lp⌝ ∗ claim lp γp }} mspin p {{ RET #(); R }}
SPEC {{ is_mcs lk }} macquire lk {{ w, RET w; mcs_locked w ∗ R }}
SPEC {{ mcs_locked n ∗ R }} mrelease n {{ RET #(); True }}
";

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct McsLock;

impl Example for McsLock {
    fn name(&self) -> &'static str {
        "mcs_lock"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 54,
            annot: (73, 7),
            custom: 0,
            hints: (4, 0),
            time: "1:11",
            dia_total: (147, 11),
            iris: None,
            starling: None,
            caper: None,
            voila: None,
        }
    }

    fn verify(&self) -> Result<ExampleOutcome, Box<Stuck>> {
        Ws::new(SOURCE, ANNOTATION).verify_declared(|_| VerifyOptions::automatic().with_backtracking())
    }

    fn verify_broken(&self) -> Option<Result<ExampleOutcome, Box<Stuck>>> {
        // Sabotage: acquire skips the spin — it "holds the lock" without
        // the resource having been handed over.
        let broken = SOURCE.replace("mspin p ;;
  n", "n");
        Some(Ws::new(&broken, ANNOTATION).verify_named(&["macquire"], |_| VerifyOptions::automatic().with_backtracking()))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let lk := newmcs () in
             let c := ref 0 in
             fork { let n := macquire lk in c <- !c + 1 ;; mrelease n } ;;
             let n := macquire lk in
             c <- !c + 1 ;;
             mrelease n ;;
             (rec wait u :=
                let m := macquire lk in
                let v := !c in
                mrelease m ;;
                if v = 2 then v else wait u) ()",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(2),
        ))
    }

    fn sweep_spec(&self) -> Option<crate::common::SweepSpec> {
        // As with CLH: the tail swap is a CAS, but hand-off between
        // queue nodes is by plain cross-thread loads and stores — SC
        // atomics in a C11 port, so AllAtomic.
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
    fn verifies_with_backtracking() {
        let outcome = McsLock
            .verify()
            .unwrap_or_else(|e| panic!("mcs_lock stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
    }


    #[test]
    fn adequacy() {
        let (prog, expected) = McsLock.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 10, 3_000_000) {
            assert_eq!(v, expected);
        }
    }
}
