//! A client of the CAS counter, verified *modularly* against the counter's
//! specifications (the library is not re-verified — the §6 comparison
//! point against Caper, which must restate libraries).

use crate::common::{program, Example, ExampleOutcome, PaperRow, ToolStat, Ws};
use diaframe_core::{Stuck, VerifyOptions};
use diaframe_heaplang::{parse_expr, Expr, Val};

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
#[derive(Debug, Default)]
pub struct CasCounterClient;

impl Example for CasCounterClient {
    fn name(&self) -> &'static str {
        "cas_counter_client"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
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
        }
    }

    fn verify(&self) -> Result<ExampleOutcome, Box<Stuck>> {
        Ws::new(SOURCE, ANNOTATION).verify_declared(|_| VerifyOptions::automatic())
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let combined = format!("{}{}", crate::cas_counter::SOURCE, SOURCE);
        let main = parse_expr(
            "let c := make_counter () in incr_twice c ;; read c",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(&combined), &main),
            Val::Int(2),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_modularly() {
        let outcome = CasCounterClient
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

    #[test]
    fn adequacy() {
        let (prog, expected) = CasCounterClient.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 5, 1_000_000) {
            assert_eq!(v, expected);
        }
    }
}
