//! A client of the CAS counter, verified *modularly* against the counter's
//! specifications (the library is not re-verified — the §6 comparison
//! point against Caper, which must restate libraries).

use crate::common::{Client, PaperRow, Record, ToolStat};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

/// The client: bump the counter twice.
pub const SOURCE: &str = "\
def incr_twice c := incr c ;; incr c ;; ()
";

/// The client's specification, against the counter library's. Its
/// precondition is `read`'s at `k = 0` — `is_counter γ c ∗ mono_lb γ 0`.
pub const ANNOTATION: &str = "\
Require cas_counter
SPEC γ, {{ PRE read c γ 0 }} incr_twice c {{ m, RET #(); ⌜2 ≤ m⌝ ∗ mono_lb γ m }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "cas_counter_client",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
        impl_lines: 16,
        annot: (9, 0),
        custom: 0,
        hints: (4, 0),
        time: "0:06",
        dia_total: (36, 0),
        iris: None,
        starling: None,
        caper: Some(ToolStat::new(94, 0)),
        voila: Some(ToolStat::new(267, 36)),
    },
    spec_order: &[],
    sabotage: None,
    client: Client {
        main: "let c := make_counter () in incr_twice c ;; read c",
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
    fn verifies_modularly() {
        let outcome = EXAMPLE
            .verify()
            .unwrap_or_else(|e| panic!("cas_counter_client stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
        // Modularity: the client proof performs no CAS symbolic execution —
        // it only cuts through `incr`'s specification.
        for p in &outcome.proofs {
            for step in p.trace.steps() {
                if let diaframe_core::TraceStep::SymEx { spec, .. } = step {
                    assert_ne!(spec, "cas", "client must not inline the library");
                }
            }
        }
    }
}
