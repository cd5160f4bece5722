//! A client of the ticket lock, verified modularly against the lock's
//! specifications (acquire/release as black boxes).

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

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
pub static EXAMPLE: Record = Record {
    name: "ticket_lock_client",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
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
    },
    spec_order: &[],
    sabotage: None,
    client: Client {
        main: "let lk := make () in with_lock lk ;; with_lock lk ;; 7",
        expected: Val::Int(7),
        heap: None,
        // Inherits the ticket lock's plain-load owner spin and
        // plain-store release: AllAtomic.
        sync_model: SyncModel::AllAtomic,
        lock_order: true,
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Example;

    #[test]
    fn verifies_modularly() {
        let outcome = EXAMPLE
            .verify()
            .unwrap_or_else(|e| panic!("ticket_lock_client stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
    }
}
