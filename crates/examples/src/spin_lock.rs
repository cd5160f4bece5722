//! The spin lock — §2.1 of the paper (Fig. 2).
//!
//! The canonical first example: a boolean lock acquired by `CAS`, with the
//! impredicative `is_lock γ lk R` representation predicate backed by an
//! invariant and the exclusive `locked γ` ghost token. Verifies fully
//! automatically (0 lines of manual proof in Figure 6).

use crate::common::{program, Example, ExampleOutcome, PaperRow, ToolStat, Ws};
use diaframe_core::{Stuck, VerifyOptions};
use diaframe_heaplang::{parse_expr, Expr, Val};

/// The implementation (Fig. 2, lines 1–8).
pub const SOURCE: &str = "\
def newlock _ := ref false
def acquire l := if CAS(l, false, true) then () else acquire l
def release l := l <- false
";

/// The annotation: specifications and the lock invariant (Fig. 2,
/// lines 9–26). Other examples instantiate it at a concrete `R`.
pub const ANNOTATION: &str = "\
// R: the protected resource; N: the lock invariant's namespace.
Context (R : iProp) (N := lock)
lock_inv γ l R := ∃ b. l ↦ #b ∗ (⌜#b = #true⌝ ∨ ⌜#b = #false⌝ ∗ locked γ ∗ R)
is_lock N γ lk R := ∃ l. ⌜lk = #l⌝ ∗ inv N (lock_inv γ l R)
SPEC {{ R }} newlock () {{ w γ, RET w; is_lock N γ w R }}
SPEC γ, {{ is_lock N γ lk R }} acquire lk {{ RET #(); locked γ ∗ R }}
SPEC γ, {{ is_lock N γ lk R ∗ locked γ ∗ R }} release lk {{ RET #(); True }}
";

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct SpinLock;

impl Example for SpinLock {
    fn name(&self) -> &'static str {
        "spin_lock"
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
            annot: (28, 0),
            custom: 0,
            hints: (3, 0),
            time: "0:06",
            dia_total: (59, 0),
            iris: Some(ToolStat::new(93, 30)),
            starling: Some(ToolStat::new(76, 22)),
            caper: Some(ToolStat::new(39, 0)),
            voila: Some(ToolStat::new(65, 7)),
        }
    }

    fn verify(&self) -> Result<ExampleOutcome, Box<Stuck>> {
        Ws::new(SOURCE, ANNOTATION).verify_declared(|_| VerifyOptions::automatic())
    }

    fn verify_broken(&self) -> Option<Result<ExampleOutcome, Box<Stuck>>> {
        // Sabotage: `acquire` "succeeds" without actually taking the lock
        // (CAS from true to true) — the specification must fail.
        let broken = SOURCE.replace("CAS(l, false, true)", "CAS(l, true, true)");
        Some(Ws::new(&broken, ANNOTATION).verify_named(&["acquire"], |_| VerifyOptions::automatic()))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let lk := newlock () in
             let c := ref 0 in
             fork { acquire lk ;; c <- !c + 1 ;; release lk } ;;
             acquire lk ;; c <- !c + 1 ;; release lk ;;
             (rec wait u :=
                acquire lk ;;
                let n := !c in
                release lk ;;
                if n = 2 then n else wait u) ()",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(2),
        ))
    }

    fn sweep_spec(&self) -> Option<crate::common::SweepSpec> {
        // The quiescent heap is deterministic: the lock (ℓ0) is
        // released and the counter (ℓ1) holds both increments.
        use diaframe_heaplang::Loc;
        self.adequacy_program().map(|(prog, _)| crate::common::SweepSpec {
            post_desc: "result = 2 ∧ heap = {ℓ0 ↦ false, ℓ1 ↦ 2}".to_owned(),
            post: Box::new(|v, h| {
                *v == Val::Int(2)
                    && h.len() == 2
                    && h.load(Loc::new(0)) == Some(&Val::Bool(false))
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
        let outcome = SpinLock.verify().unwrap_or_else(|e| panic!("spin lock stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0, "paper: zero manual proof work");
        assert_eq!(outcome.proofs.len(), 3);
        outcome.check_all().expect("traces replay");
        let hints = outcome.hints_used();
        assert!(hints.contains("locked-allocate"));
        assert!(hints.iter().any(|h| h == "inv-open"));
    }


    #[test]
    fn adequacy() {
        let (prog, expected) = SpinLock.adequacy_program().expect("has a client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 15, 2_000_000) {
            assert_eq!(v, expected);
        }
    }
}
