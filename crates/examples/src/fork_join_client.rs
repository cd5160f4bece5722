//! A client of the fork/join library: fork a worker that deposits `Q`,
//! then join and hand `Q` back — verified modularly against the library
//! specifications, with a real `fork` in the client code.

use crate::common::{program, Example, ExampleOutcome, PaperRow, ToolStat, Ws};
use diaframe_core::{Stuck, VerifyOptions};
use diaframe_heaplang::{parse_expr, Expr, Val};

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
#[derive(Debug, Default)]
pub struct ForkJoinClient;

impl Example for ForkJoinClient {
    fn name(&self) -> &'static str {
        "fork_join_client"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
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
        }
    }

    fn verify(&self) -> Result<ExampleOutcome, Box<Stuck>> {
        Ws::new(SOURCE, ANNOTATION).verify_declared(|_| VerifyOptions::automatic())
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let combined = format!("{}{}", crate::fork_join::SOURCE, SOURCE);
        let main = parse_expr("let j := make () in roundtrip j ;; !j").expect("parses");
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
    fn verifies_modularly_with_a_real_fork() {
        let outcome = ForkJoinClient
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

    #[test]
    fn adequacy() {
        let (prog, expected) = ForkJoinClient.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 15, 2_000_000) {
            assert_eq!(v, expected);
        }
    }
}
