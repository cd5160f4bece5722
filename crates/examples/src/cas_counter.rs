//! The CAS counter (Caper's `CASCounter`).
//!
//! A counter incremented by a CAS retry loop. The specification uses
//! monotone ghost state: `mono_lb γ k` is a persistent lower bound on the
//! counter value, so `read` returns at least any previously observed
//! value and `incr` certifies the counter passed `n + 1`. Verifies fully
//! automatically (0 manual lines in Figure 6).

use crate::common::{program, Example, PaperRow, ToolStat};
use diaframe_heaplang::{parse_expr, Expr, Val};

/// The implementation.
pub const SOURCE: &str = "\
def make_counter _ := ref 0
def incr c := let v := !c in if CAS(c, v, v + 1) then v else incr c
def read c := !c
";

/// Specifications and the counter invariant.
pub const ANNOTATION: &str = "\
counter_inv γ l := ∃ n. l ↦ #n ∗ ⌜0 ≤ n⌝ ∗ mono γ n
is_counter γ c := ∃ l. ⌜c = #l⌝ ∗ inv counter (counter_inv γ l)
SPEC {{ True }} make_counter () {{ w γ, RET w; is_counter γ w ∗ mono_lb γ 0 }}
SPEC γ k, {{ is_counter γ c ∗ mono_lb γ k }} incr c {{ n, RET #n; ⌜k ≤ n⌝ ∗ mono_lb γ (n+1) }}
SPEC γ k, {{ is_counter γ c ∗ mono_lb γ k }} read c {{ n, RET #n; ⌜k ≤ n⌝ ∗ mono_lb γ n }}
";

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct CasCounter;

impl Example for CasCounter {
    fn name(&self) -> &'static str {
        "cas_counter"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 14,
            annot: (31, 0),
            custom: 0,
            hints: (2, 0),
            time: "0:08",
            dia_total: (56, 0),
            iris: Some(ToolStat::new(95, 39)),
            starling: None,
            caper: Some(ToolStat::new(40, 0)),
            voila: Some(ToolStat::new(68, 9)),
        }
    }

    fn sabotage(&self) -> Option<(&'static str, &'static str, &'static str)> {
        // Sabotage: incr *decrements* — the monotone lower bound in the
        // postcondition must become unprovable.
        Some(("incr", "CAS(c, v, v + 1)", "CAS(c, v, v - 1)"))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let c := make_counter () in
             fork { incr c ;; () } ;;
             incr c ;;
             (rec wait u := if read c = 2 then read c else wait u) ()",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(2),
        ))
    }

    fn sweep_spec(&self) -> Option<crate::common::SweepSpec> {
        // Quiescent heap: the single counter cell (ℓ0) holds exactly
        // the two increments.
        use diaframe_heaplang::Loc;
        self.adequacy_program()
            .map(|(prog, _)| crate::common::SweepSpec {
                post_desc: "result = 2 ∧ heap = {ℓ0 ↦ 2}".to_owned(),
                post: Box::new(|v, h| {
                    *v == Val::Int(2) && h.len() == 1 && h.load(Loc::new(0)) == Some(&Val::Int(2))
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
        let outcome = CasCounter
            .verify()
            .unwrap_or_else(|e| panic!("cas_counter stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        assert_eq!(outcome.proofs.len(), 3);
        outcome.check_all().expect("traces replay");
        assert!(outcome.hints_used().iter().any(|h| h.contains("mono")));
    }

    #[test]
    fn adequacy() {
        let (prog, expected) = CasCounter.adequacy_program().expect("has a client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 15, 2_000_000) {
            assert_eq!(v, expected);
        }
    }
}
