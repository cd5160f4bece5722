//! A client of the barrier: forks two waiters and signals — resources flow
//! from the signaller through the barrier to both forked threads.

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

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
pub static EXAMPLE: Record = Record {
    name: "barrier_client",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
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
    },
    spec_order: &[],
    sabotage: None,
    client: Client {
        main: "let b := new_barrier () in broadcast b ;; !b",
        expected: Val::Bool(true),
        heap: None,
        // Inherits the barrier's plain-load/store signalling: AllAtomic.
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
            .unwrap_or_else(|e| panic!("barrier_client stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
    }
}
