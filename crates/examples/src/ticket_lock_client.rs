//! A client of the ticket lock, verified modularly against the lock's
//! specifications (acquire/release as black boxes).

use crate::common::{program, Example, PaperRow, ToolStat};
use diaframe_heaplang::{parse_expr, Expr, Val};

/// The client: a critical section that acquires, uses `R`, and releases.
pub const SOURCE: &str = "\
def with_lock lk := acquire lk ;; release lk ;; ()
";

/// The client's specification, against the ticket lock's.
pub const ANNOTATION: &str = "\
Require ticket_lock
SPEC γ γ2, {{ is_tl N γ γ2 lk R }} with_lock lk {{ RET #(); True }}
";

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct TicketLockClient;

impl Example for TicketLockClient {
    fn name(&self) -> &'static str {
        "ticket_lock_client"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 18,
            annot: (11, 0),
            custom: 0,
            hints: (1, 0),
            time: "0:06",
            dia_total: (39, 0),
            iris: None,
            starling: None,
            caper: Some(ToolStat::new(79, 0)),
            voila: Some(ToolStat::new(87, 11)),
        }
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let combined = format!("{}{}", crate::ticket_lock::SOURCE, SOURCE);
        let main =
            parse_expr("let lk := make () in with_lock lk ;; with_lock lk ;; 7").expect("parses");
        Some((
            diaframe_heaplang::parser::link(&program(&combined), &main),
            Val::Int(7),
        ))
    }

    fn sweep_spec(&self) -> Option<crate::common::SweepSpec> {
        // Inherits the ticket lock's plain-load owner spin and
        // plain-store release: AllAtomic.
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
        let outcome = TicketLockClient
            .verify()
            .unwrap_or_else(|e| panic!("ticket_lock_client stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
    }

    #[test]
    fn adequacy() {
        let (prog, expected) = TicketLockClient.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 10, 2_000_000) {
            assert_eq!(v, expected);
        }
    }
}
