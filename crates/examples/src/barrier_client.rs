//! A client of the barrier: forks two waiters and signals — resources flow
//! from the signaller through the barrier to both forked threads.

use crate::common::{program, Example, PaperRow, ToolStat};
use diaframe_heaplang::{parse_expr, Expr, Val};

/// The client.
pub const SOURCE: &str = "\
def broadcast b := fork { wait b ;; () } ;; fork { wait b ;; () } ;; signal b
";

/// The client's specification, against the barrier library's.
pub const ANNOTATION: &str = "\
Require barrier
SPEC γw, {{ is_bar γw b ∗ gvar γw ½ () ∗ gvar γw ½ () ∗ P 1 }}
     broadcast b {{ RET #(); True }}
";

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct BarrierClient;

impl Example for BarrierClient {
    fn name(&self) -> &'static str {
        "barrier_client"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 58,
            annot: (98, 38),
            custom: 0,
            hints: (6, 0),
            time: "0:50",
            dia_total: (175, 44),
            iris: None,
            starling: None,
            caper: Some(ToolStat::new(189, 0)),
            voila: None,
        }
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let combined = format!("{}{}", crate::barrier::SOURCE, SOURCE);
        let main =
            parse_expr("let b := new_barrier () in broadcast b ;; !b").expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(&combined), &main),
            Val::Bool(true),
        ))
    }

    fn sweep_spec(&self) -> Option<crate::common::SweepSpec> {
        // Inherits the barrier's plain-load/store signalling: AllAtomic.
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
    fn verifies_modularly() {
        let outcome = BarrierClient
            .verify()
            .unwrap_or_else(|e| panic!("barrier_client stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
    }

    #[test]
    fn adequacy() {
        let (prog, expected) = BarrierClient.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 10, 1_000_000) {
            assert_eq!(v, expected);
        }
    }
}
