//! The ticket lock.
//!
//! A fair lock: `acquire` draws a ticket by `FAA` on the `next` counter
//! and spins until the `owner` counter reaches it; `release` bumps
//! `owner`. Ghost state: the ticket dispenser (`tickets γ n` issues the
//! exclusive `ticket γ k` fragments) and an exclusive `locked γ₂` token.
//! The invariant's resource disjunct (`R` available ∨ holder's ticket
//! deposited) has no pure guards, so — exactly like Caper (§6) — the
//! proof search uses the opt-in disjunction *backtracking* of §5.3.

use crate::common::{program, Example, ExampleOutcome, PaperRow, ToolStat, Ws};
use diaframe_core::{Stuck, VerifyOptions};
use diaframe_heaplang::{parse_expr, Expr, Val};
use diaframe_logic::Assertion;
use diaframe_term::Term;

/// The implementation. The lock value is the pair `(owner, next)`;
/// `wait` takes `(owner_location, my_ticket)`.
pub const SOURCE: &str = "\
def make _ := (ref 0, ref 0)
def wait a := if !(fst a) = snd a then () else wait a
def acquire lk := let n := FAA(snd lk, 1) in wait (fst lk, n)
def release lk := fst lk <- !(fst lk) + 1
";

/// Specifications and the invariant. Other examples instantiate it at
/// a concrete `R`.
pub const ANNOTATION: &str = "\
// R: the protected resource; N: the lock invariant's namespace.
Context (R : iProp) (N := tl)
// The resource disjunct comes first so that, when the invariant is
// re-established, the choice is made while the counters are in context.
tl_inv γ γ2 lo ln R := ∃ o n. (ticket γ o ∨ locked γ2 ∗ R) ∗ lo ↦ #o ∗
  ln ↦ #n ∗ tickets γ n
is_tl N γ γ2 lk R := ∃ lo ln. ⌜lk = (#lo, #ln)⌝ ∗ inv N (tl_inv γ γ2 lo ln R)
SPEC {{ R }} make () {{ w γ γ2, RET w; is_tl N γ γ2 w R }}
SPEC lo ln m γ γ2, {{ ⌜a = (#lo, #m)⌝ ∗ inv N (tl_inv γ γ2 lo ln R) ∗ ticket γ m }}
     wait a {{ RET #(); locked γ2 ∗ R }}
Next Obligation. destruct (decide (o = m)); iStepsS. Qed.
SPEC γ γ2, {{ is_tl N γ γ2 lk R }} acquire lk {{ RET #(); locked γ2 ∗ R }}
SPEC γ γ2, {{ is_tl N γ γ2 lk R ∗ locked γ2 ∗ R }} release lk {{ RET #(); True }}
";

/// The options of a ticket-lock spec: backtracking everywhere, plus the
/// manual case split for the `wait` loop (named `wait` in the library
/// and `waitr`/`waitg` in the reader-writer locks' instances).
#[must_use]
pub fn options(spec: &str) -> VerifyOptions {
    if spec.starts_with("wait") {
        wait_case_split().with_backtracking()
    } else {
        VerifyOptions::automatic().with_backtracking()
    }
}

/// The manual step of the `wait` proof: case split on "is the currently
/// served ticket mine?" — `decide (o = m)` where `m` is the caller's
/// ticket and `o` an observed counter value the solver cannot decide.
fn wait_case_split() -> VerifyOptions {
    use diaframe_logic::Atom;
    use diaframe_term::{PureProp, Sym};
    VerifyOptions::automatic().with_case_split("decide (o = m)", |ctx| {
        let mut probe = ctx.clone();
        let mut tickets = Vec::new();
        let mut pt_vals = Vec::new();
        for h in &ctx.delta {
            match &h.assertion {
                Assertion::Atom(Atom::Ghost(g))
                    if g.kind == diaframe_ghost::tickets::TICKET =>
                {
                    tickets.push(g.args[0].clone());
                }
                Assertion::Atom(Atom::PointsTo { val, .. }) => {
                    if let Term::App(Sym::VInt, args) = val.zonk(&ctx.vars) {
                        pt_vals.push(args[0].clone());
                    }
                }
                _ => {}
            }
        }
        for m in &tickets {
            for v in &pt_vals {
                let eqp = PureProp::eq(v.clone(), m.clone());
                if !probe.prove_pure_frozen(&eqp) && !probe.prove_pure_frozen(&eqp.negated())
                {
                    return Some(eqp);
                }
            }
        }
        None
    })
}

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct TicketLock;

impl Example for TicketLock {
    fn name(&self) -> &'static str {
        "ticket_lock"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 23,
            annot: (49, 6),
            custom: 0,
            hints: (5, 0),
            time: "0:23",
            dia_total: (90, 6),
            iris: Some(ToolStat::new(168, 78)),
            starling: Some(ToolStat::new(66, 11)),
            caper: Some(ToolStat::new(59, 0)),
            voila: Some(ToolStat::new(90, 12)),
        }
    }

    fn verify(&self) -> Result<ExampleOutcome, Box<Stuck>> {
        Ws::new(SOURCE, ANNOTATION).verify_declared(options)
    }

    fn verify_broken(&self) -> Option<Result<ExampleOutcome, Box<Stuck>>> {
        // Sabotage: wait compares against the *next* counter instead of
        // the caller's ticket — mutual exclusion is gone.
        let broken = "\
def make _ := (ref 0, ref 0)
def wait a := if !(fst a) = snd a then () else wait a
def acquire lk := let n := FAA(snd lk, 1) in wait (fst lk, n + 1)
def release lk := fst lk <- !(fst lk) + 1
";
        Some(Ws::new(broken, ANNOTATION).verify_named(&["acquire"], |_| VerifyOptions::automatic().with_backtracking()))
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let lk := make () in
             let c := ref 0 in
             fork { acquire lk ;; c <- !c + 1 ;; release lk } ;;
             acquire lk ;; c <- !c + 1 ;; release lk ;;
             (rec spin u :=
                acquire lk ;;
                let v := !c in
                release lk ;;
                if v = 2 then v else spin u) ()",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(2),
        ))
    }

    fn sweep_spec(&self) -> Option<crate::common::SweepSpec> {
        // The owner cell is spun on with plain loads and bumped by a
        // plain store (AllAtomic), and the quiescent heap is
        // deterministic: at least two tickets were served (the spin
        // loop re-acquires, so owner = next ≥ 2) and the counter holds
        // both increments. All three cells are integers with
        // owner = next.
        use diaframe_heaplang::Loc;
        self.adequacy_program().map(|(prog, _)| crate::common::SweepSpec {
            post_desc: "result = 2 ∧ owner = next ∧ counter = 2".to_owned(),
            post: Box::new(|v, h| {
                // make () allocates the owner/next pair (ℓ0, ℓ1), the
                // client then allocates the counter (ℓ2).
                *v == Val::Int(2)
                    && h.len() == 3
                    && h.load(Loc::new(0)) == h.load(Loc::new(1))
                    && h.load(Loc::new(2)) == Some(&Val::Int(2))
            }),
            prog,
            sync_model: diaframe_heaplang::monitor::SyncModel::AllAtomic,
            lock_order: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verifies_with_backtracking() {
        let outcome = TicketLock
            .verify()
            .unwrap_or_else(|e| panic!("ticket_lock stuck:\n{e}"));
        // One manual case split (in wait), mirroring the paper's 6 lines
        // of proof work on this example.
        assert_eq!(outcome.manual_steps, 1);
        outcome.check_all().expect("traces replay");
        let hints = outcome.hints_used();
        assert!(hints.contains("ticket-issue"));
        assert!(hints.contains("tickets-allocate"));
    }


    #[test]
    fn adequacy() {
        let (prog, expected) = TicketLock.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 10, 3_000_000) {
            assert_eq!(v, expected);
        }
    }
}
