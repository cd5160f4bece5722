//! The ticket-based reader-writer lock (unbounded readers).
//!
//! Like the duolock, but both constituent locks are *ticket locks* —
//! readers enter fairly. The reader count is unbounded; compare
//! [`crate::rwlock_ticket_bounded`].

use crate::common::{Client, PaperRow, Record};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

/// The implementation: two textually separate ticket locks plus the
/// reader-count protocol.
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
def read_acq w :=
  acquirer (fst w) ;;
  let c := fst (snd w) in
  let n := !c in
  c <- n + 1 ;;
  (if n = 0 then acquireg (snd (snd w)) else ()) ;;
  releaser (fst w)
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

/// Specifications: two ticket-lock instances, duolock-shaped.
pub const ANNOTATION: &str = "\
// P: the fractional resource readers share and the writer owns.
Context (P : Qp → iProp) (Fractional P)
R_r c γp γg2 := ∃ n. c ↦ #n ∗
  (⌜#n = #0⌝ ∗ no_tokens P γp 1 ∨ ⌜0 < n⌝ ∗ counter P γp n ∗ locked γg2)
Context (c : loc) (γp γg2 : gname)
Instance ticket_lock c γp γg2 with N := rwt.r, R := R_r c γp γg2,
  make := maker, wait := waitr, acquire := acquirer, release := releaser
Instance ticket_lock with N := rwt.g, R := P 1,
  make := makeg, wait := waitg, acquire := acquireg, release := releaseg
is_rwt γr γr2 γg γg2 γp w := ∃ rlk glk c. ⌜w = (rlk, (#c, glk))⌝ ∗
  is_tl rwt.r γr γr2 rlk (R_r c γp γg2) ∗ is_tl rwt.g γg γg2 glk (P 1)
SPEC {{ P 1 }} make () {{ w γr γr2 γg γg2 γp, RET w; is_rwt γr γr2 γg γg2 γp w }}
SPEC γr γr2 γg γg2 γp, {{ is_rwt γr γr2 γg γg2 γp w0 }} read_acq w0
     {{ ret, RET ret; ⌜ret = #()⌝ ∗ token P γp }}
SPEC γr γr2 γg γg2 γp, {{ is_rwt γr γr2 γg γg2 γp w0 ∗ token P γp }} read_rel w0
     {{ ret, RET ret; ⌜ret = #()⌝ }}
SPEC γr γr2 γg γg2 γp, {{ is_rwt γr γr2 γg γg2 γp w0 }} write_acq w0
     {{ ret, RET ret; ⌜ret = #()⌝ ∗ locked γg2 ∗ P 1 }}
SPEC γr γr2 γg γg2 γp, {{ is_rwt γr γr2 γg γg2 γp w0 ∗ locked γg2 ∗ P 1 }} write_rel w0
     {{ ret, RET ret; ⌜ret = #()⌝ }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "rwlock_ticket_unbounded",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
        impl_lines: 38,
        annot: (62, 5),
        custom: 0,
        hints: (8, 0),
        time: "0:21",
        dia_total: (116, 5),
        iris: None,
        starling: None,
        caper: None,
        voila: None,
    },
    // The libraries' instances first (global lock, then reader lock),
    // then the lock's own operations.
    spec_order: &[
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
    ],
    sabotage: None,
    client: Client {
        main: "let w := make () in
               fork { read_acq w ;; read_rel w } ;;
               read_acq w ;; read_rel w ;;
               write_acq w ;; write_rel w ;; 4",
        expected: Val::Int(4),
        heap: None,
        // Ticket-style hand-off on plain loads/stores of the owner
        // cell — SC atomics in a C11 port, so AllAtomic.
        sync_model: SyncModel::AllAtomic,
        lock_order: true,
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Example;

    #[test]
    fn verifies_with_two_wait_case_splits() {
        let outcome = EXAMPLE
            .verify()
            .unwrap_or_else(|e| panic!("rwlock_ticket_unbounded stuck:\n{e}"));
        // One case split per ticket-lock wait loop.
        assert_eq!(outcome.manual_steps, 1);
        outcome.check_all().expect("traces replay");
    }
}
