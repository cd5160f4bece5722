//! `inc_dec` (Caper's `IncDec`): a counter that can be concurrently
//! incremented and decremented by CAS retry loops.
//!
//! The specification proves safety and the return-value shape (the
//! operation returns the value it replaced), with the invariant merely
//! owning the location — the Caper-style "no functional spec" benchmark.

use crate::common::{program, Example, ExampleOutcome, PaperRow, ToolStat, Ws};
use diaframe_core::{Stuck, VerifyOptions};
use diaframe_heaplang::{parse_expr, Expr, Val};

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
#[derive(Debug, Default)]
pub struct IncDec;

impl Example for IncDec {
    fn name(&self) -> &'static str {
        "inc_dec"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
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
        }
    }

    fn verify(&self) -> Result<ExampleOutcome, Box<Stuck>> {
        Ws::new(SOURCE, ANNOTATION).verify_declared(|_| VerifyOptions::automatic())
    }

    fn verify_broken(&self) -> Option<Result<ExampleOutcome, Box<Stuck>>> {
        // Sabotage: get dereferences the wrong thing (not a counter).
        let broken = "\
def make _ := ref 0
def incr c := let v := !c in if CAS(c, v, v + 1) then v else incr c
def decr c := let v := !c in if CAS(c, v, v - 1) then v else decr c
def get c := ! !c
";
        Some(Ws::new(broken, ANNOTATION).verify_named(&["get"], |_| VerifyOptions::automatic()))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let c := make () in
             fork { incr c ;; () } ;;
             fork { decr c ;; () } ;;
             incr c ;;
             get c ;; 0",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(0),
        ))
    }

    fn sweep_spec(&self) -> Option<crate::common::SweepSpec> {
        // At quiescence all three operations have landed: two
        // increments and one decrement leave the counter (ℓ0) at 1,
        // whatever `get` observed mid-run.
        use diaframe_heaplang::Loc;
        self.adequacy_program().map(|(prog, _)| crate::common::SweepSpec {
            post_desc: "result = 0 ∧ heap = {ℓ0 ↦ 1}".to_owned(),
            post: Box::new(|v, h| {
                *v == Val::Int(0) && h.len() == 1 && h.load(Loc::new(0)) == Some(&Val::Int(1))
            }),
            prog,
            sync_model: diaframe_heaplang::monitor::SyncModel::InferAtomics,
            lock_order: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_fully_automatically() {
        let outcome = IncDec
            .verify()
            .unwrap_or_else(|e| panic!("inc_dec stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        assert_eq!(outcome.proofs.len(), 4);
        outcome.check_all().expect("traces replay");
    }


    #[test]
    fn adequacy() {
        let (prog, expected) = IncDec.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 10, 1_000_000) {
            assert_eq!(v, expected);
        }
    }
}
