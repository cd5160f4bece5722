//! The ticket-based reader-writer lock with a *bounded* reader count.
//!
//! Like [`crate::rwlock_ticket_unbounded`], but at most `b` readers may
//! hold the lock simultaneously; `read_acq` backs off and retries when the
//! bound is reached. As with the bounded counter, the bound is
//! *parametric* (the paper: "Starling verifies … a bounded reader-writers
//! lock, whereas we verify a heap-allocated version"; Caper and Voila fix
//! such bounds).

use crate::common::{program, Example, PaperRow, ToolStat};
use diaframe_heaplang::{parse_expr, Expr, Val};

/// The implementation. `read_acq` takes the pair `(b, w)` of bound and
/// lock and retries when `b` readers are already in.
pub const SOURCE: &str = "\
def makeg u := (ref 0, ref 0)
def waitg a := if !(fst a) = snd a then () else waitg a
def acquireg lk := let n := FAA(snd lk, 1) in waitg (fst lk, n)
def releaseg lk := fst lk <- !(fst lk) + 1
def maker v := (ref 0, ref 0)
def waitr a := if !(fst a) = snd a then () else waitr a
def acquirer lk := let n := FAA(snd lk, 1) in waitr (fst lk, n)
def releaser lk := fst lk <- !(fst lk) + 1
def make _ :=
  let c := ref 0 in
  let g := makeg () in
  let r := maker () in
  (r, (c, g))
def read_acq a :=
  let b := fst a in
  let w := snd a in
  acquirer (fst w) ;;
  let c := fst (snd w) in
  let n := !c in
  if n < b
  then (c <- n + 1 ;;
        (if n = 0 then acquireg (snd (snd w)) else ()) ;;
        releaser (fst w))
  else (releaser (fst w) ;; read_acq a)
def read_rel w :=
  acquirer (fst w) ;;
  let c := fst (snd w) in
  let n := !c in
  c <- n - 1 ;;
  (if n = 1 then releaseg (snd (snd w)) else ()) ;;
  releaser (fst w)
def write_acq w := acquireg (snd (snd w))
def write_rel w := releaseg (snd (snd w))
";

/// Specifications: as for the unbounded variant plus the parametric bound.
pub const ANNOTATION: &str = "\
// P: the fractional resource readers share and the writer owns.
Context (P : Qp → iProp) (Fractional P)
R_r c γp γg2 b := ∃ n. c ↦ #n ∗ ⌜n ≤ b⌝ ∗
  (⌜#n = #0⌝ ∗ no_tokens P γp 1 ∨ ⌜0 < n⌝ ∗ counter P γp n ∗ locked γg2)
Context (c : loc) (γp γg2 : gname) (b : Z)
Instance ticket_lock c γp γg2 b with N := rwb.r, R := R_r c γp γg2 b,
  make := maker, wait := waitr, acquire := acquirer, release := releaser
Instance ticket_lock with N := rwb.g, R := P 1,
  make := makeg, wait := waitg, acquire := acquireg, release := releaseg
is_rwb γr γr2 γg γg2 γp b w := ∃ rlk glk c. ⌜w = (rlk, (#c, glk))⌝ ∗
  is_tl rwb.r γr γr2 rlk (R_r c γp γg2 b) ∗ is_tl rwb.g γg γg2 glk (P 1)
// `make` allocates its return binder before the bound.
SPEC (w : ret) b, {{ ⌜0 < b⌝ ∗ P 1 }} make ()
     {{ γr γr2 γg γg2 γp, RET w; is_rwb γr γr2 γg γg2 γp b w }}
SPEC b w0 γr γr2 γg γg2 γp, {{ ⌜a = (#b, w0)⌝ ∗ ⌜0 < b⌝ ∗ is_rwb γr γr2 γg γg2 γp b w0 }}
     read_acq a {{ ret, RET ret; ⌜ret = #()⌝ ∗ token P γp }}
SPEC b γr γr2 γg γg2 γp, {{ is_rwb γr γr2 γg γg2 γp b w0 ∗ token P γp }} read_rel w0
     {{ ret, RET ret; ⌜ret = #()⌝ }}
SPEC b γr γr2 γg γg2 γp, {{ is_rwb γr γr2 γg γg2 γp b w0 }} write_acq w0
     {{ ret, RET ret; ⌜ret = #()⌝ ∗ locked γg2 ∗ P 1 }}
SPEC b γr γr2 γg γg2 γp, {{ is_rwb γr γr2 γg γg2 γp b w0 ∗ locked γg2 ∗ P 1 }} write_rel w0
     {{ ret, RET ret; ⌜ret = #()⌝ }}
";

/// The Figure 6 example.
#[derive(Debug, Default)]
pub struct RwLockTicketBounded;

impl Example for RwLockTicketBounded {
    fn name(&self) -> &'static str {
        "rwlock_ticket_bounded"
    }

    fn source(&self) -> &'static str {
        SOURCE
    }

    fn annotation(&self) -> &'static str {
        ANNOTATION
    }

    fn paper(&self) -> PaperRow {
        PaperRow {
            impl_lines: 40,
            annot: (68, 10),
            custom: 2,
            hints: (13, 0),
            time: "0:54",
            dia_total: (124, 12),
            iris: None,
            starling: None,
            caper: Some(ToolStat::new(109, 14)),
            voila: None,
        }
    }

    fn spec_order(&self) -> &'static [&'static str] {
        // The libraries' instances first (global lock, then reader lock),
        // then the lock's own operations.
        &[
            "makeg",
            "waitg",
            "acquireg",
            "releaseg",
            "maker",
            "waitr",
            "acquirer",
            "releaser",
            "make",
            "read_acq",
            "read_rel",
            "write_acq",
            "write_rel",
        ]
    }

    fn adequacy_program(&self) -> Option<(Expr, Val)> {
        let main = parse_expr(
            "let w := make () in
             fork { read_acq (1, w) ;; read_rel w } ;;
             read_acq (1, w) ;; read_rel w ;;
             write_acq w ;; write_rel w ;; 5",
        )
        .expect("client parses");
        Some((
            diaframe_heaplang::parser::link(&program(SOURCE), &main),
            Val::Int(5),
        ))
    }

    fn sweep_spec(&self) -> Option<crate::common::SweepSpec> {
        // Ticket-style hand-off: readers/writers spin on plain loads of
        // the owner cell and release with plain stores — SC atomics in
        // a C11 port, so AllAtomic.
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
    fn verifies_with_two_wait_case_splits() {
        let outcome = RwLockTicketBounded
            .verify()
            .unwrap_or_else(|e| panic!("rwlock_ticket_bounded stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 1);
        outcome.check_all().expect("traces replay");
    }

    #[test]
    fn adequacy() {
        let (prog, expected) = RwLockTicketBounded.adequacy_program().expect("client");
        for v in diaframe_heaplang::interp::run_schedules(&prog, 8, 3_000_000) {
            assert_eq!(v, expected);
        }
    }
}
