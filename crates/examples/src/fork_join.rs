//! Fork/join — a join handle transferring a resource `Q` from the worker
//! to the joiner.
//!
//! The handle is a three-state cell (`0` pending, `1` done with `Q`
//! deposited, `2` taken); `join` *takes* the resource by a 1→2 CAS, so
//! every disjunct of the invariant is guarded by the heap value and the
//! automation needs no help. Double-`finish` is excluded by the one-shot
//! ghost (`pending γ` / `shot γ`).

use crate::common::{program, Example, PaperRow, ToolStat};
use diaframe_heaplang::{parse_expr, Expr, Val};

/// The implementation.
pub const SOURCE: &str = "\
def make _ := ref 0
def finish j := j <- 1
def join j := if CAS(j, 1, 2) then () else join j
";

/// Specifications and the invariant.
pub const ANNOTATION: &str = "\
// Q: the resource the worker hands to the joiner.
Context (Q : iProp)
join_inv γ l := ∃ s. l ↦ #s ∗
  (⌜#s = #0⌝ ∨ ⌜#s = #1⌝ ∗ shot γ #() ∗ Q ∨ ⌜#s = #2⌝ ∗ shot γ #())
is_join γ j := ∃ l. ⌜j = #l⌝ ∗ inv join (join_inv γ l)
SPEC {{ True }} make () {{ w γ, RET w; is_join γ w ∗ pending γ }}
SPEC γ, {{ is_join γ j ∗ pending γ ∗ Q }} finish j {{ RET #(); True }}
SPEC γ, {{ is_join γ j }} join j {{ RET #(); Q }}
";

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct ForkJoin;

impl Example for ForkJoin {
    fn name(&self) -> &'static str {
        "fork_join"
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
            annot: (29, 0),
            custom: 0,
            hints: (2, 0),
            time: "0:08",
            dia_total: (57, 0),
            iris: None,
            starling: None,
            caper: Some(ToolStat::new(38, 0)),
            voila: Some(ToolStat::new(51, 7)),
        }
    }

    fn sabotage(&self) -> Option<(&'static str, &'static str, &'static str)> {
        // Sabotage: join spins on state 1 and "takes" from state 0 — the
        // resource is not there yet.
        Some(("join", "CAS(j, 1, 2)", "CAS(j, 0, 2)"))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let r := ref 0 in
             let j := make () in
             fork { r <- 6 * 7 ;; finish j } ;;
             join j ;;
             !r",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(42),
        ))
    }

    fn sweep_spec(&self) -> Option<crate::common::SweepSpec> {
        // Quiescent heap: the result cell (ℓ0) holds the child's write
        // and the join flag (ℓ1) is in its joined state.
        use diaframe_heaplang::Loc;
        self.adequacy_program()
            .map(|(prog, _)| crate::common::SweepSpec {
                post_desc: "result = 42 ∧ heap = {ℓ0 ↦ 42, ℓ1 ↦ 2}".to_owned(),
                post: Box::new(|v, h| {
                    *v == Val::Int(42)
                        && h.len() == 2
                        && h.load(Loc::new(0)) == Some(&Val::Int(42))
                        && h.load(Loc::new(1)) == Some(&Val::Int(2))
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
        let outcome = ForkJoin
            .verify()
            .unwrap_or_else(|e| panic!("fork_join stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
        assert!(outcome.hints_used().contains("oneshot-fire"));
    }

    #[test]
    fn adequacy() {
        let (prog, expected) = ForkJoin.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 15, 2_000_000) {
            assert_eq!(v, expected);
        }
    }
}
