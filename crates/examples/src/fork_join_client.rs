//! A client of the fork/join library: fork a worker that deposits `Q`,
//! then join and hand `Q` back — verified modularly against the library
//! specifications, with a real `fork` in the client code.

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

/// The client: the worker finishes the handle, the main thread joins.
pub const SOURCE: &str = "\
def roundtrip j := fork { finish j } ;; join j ;; ()
";

/// The client's specification, against the fork/join library's.
pub const ANNOTATION: &str = "\
Require fork_join
SPEC γ, {{ is_join γ j ∗ pending γ ∗ Q }} roundtrip j {{ RET #(); Q }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "fork_join_client",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
        impl_lines: 13,
        annot: (9, 0),
        custom: 0,
        hints: (0, 0),
        time: "0:04",
        dia_total: (30, 0),
        iris: None,
        starling: None,
        caper: Some(ToolStat::new(70, 0)),
        voila: Some(ToolStat::new(124, 20)),
    },
    spec_order: &[],
    sabotage: None,
    client: Client {
        main: "let j := make () in roundtrip j ;; !j",
        expected: Val::Int(2),
        heap: None,
        sync_model: SyncModel::InferAtomics,
        lock_order: true,
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Example;

    #[test]
    fn verifies_modularly_with_a_real_fork() {
        let outcome = EXAMPLE
            .verify()
            .unwrap_or_else(|e| panic!("fork_join_client stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
        // The proof must contain a fork symbolic-execution step.
        let has_fork = outcome.proofs.iter().any(|p| {
            p.trace.steps().iter().any(
                |s| matches!(s, diaframe_core::TraceStep::SymEx { spec, .. } if spec == "fork"),
            )
        });
        assert!(has_fork, "client proof threads resources through fork");
    }
}
