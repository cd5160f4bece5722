//! The Courtois-et-al. reader-writer lock built from *two spin locks* —
//! the paper's `rwlock duolock` (citing \[24]).
//!
//! A reader lock protects the reader count; the global lock protects the
//! resource. The first reader acquires the global lock on behalf of all
//! readers, the last reader releases it. This example exercises the
//! impredicativity of `is_lock` (§2.1): the reader lock's resource
//! *contains the global lock's `locked` token*.

use crate::common::{Client, PaperRow, Record};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::Val;

/// The implementation. The two lock instances are separate definitions so
/// each gets its own specification (see DESIGN.md on spec lookup by
/// function value).
pub const SOURCE: &str = "\
def newglock u := ref false
def acquireg l := if CAS(l, false, true) then () else acquireg l
def releaseg l := l <- false
def newrlock v := ref false
def acquirer l := if CAS(l, false, true) then () else acquirer l
def releaser l := l <- false
def make _ :=
  let c := ref 0 in
  let g := newglock () in
  let r := newrlock () in
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

/// Specifications: two spin-lock instances, the reader lock's resource
/// holding the global lock's token.
pub const ANNOTATION: &str = "\
// P: the fractional resource readers share and the writer owns.
Context (P : Qp → iProp) (Fractional P)
R_g := P 1
R_r c γp γg := ∃ n. c ↦ #n ∗
  (⌜#n = #0⌝ ∗ no_tokens P γp 1 ∨ ⌜0 < n⌝ ∗ counter P γp n ∗ locked γg)
Context (c : loc) (γp γg : gname)
Instance spin_lock c γp γg with N := rlock, R := R_r c γp γg,
  newlock := newrlock, acquire := acquirer, release := releaser
Instance spin_lock with N := glock, R := R_g,
  newlock := newglock, acquire := acquireg, release := releaseg
is_duo γr γg γp w := ∃ rlk glk c. ⌜w = (rlk, (#c, glk))⌝ ∗
  is_lock rlock γr rlk (R_r c γp γg) ∗ is_lock glock γg glk R_g
SPEC {{ P 1 }} make () {{ w γr γg γp, RET w; is_duo γr γg γp w }}
SPEC γr γg γp, {{ is_duo γr γg γp w0 }} read_acq w0 {{ ret, RET ret; ⌜ret = #()⌝ ∗ token P γp }}
SPEC γr γg γp, {{ is_duo γr γg γp w0 ∗ token P γp }} read_rel w0 {{ ret, RET ret; ⌜ret = #()⌝ }}
SPEC γr γg γp, {{ is_duo γr γg γp w0 }} write_acq w0
     {{ ret, RET ret; ⌜ret = #()⌝ ∗ locked γg ∗ P 1 }}
SPEC γr γg γp, {{ is_duo γr γg γp w0 ∗ locked γg ∗ P 1 }} write_rel w0
     {{ ret, RET ret; ⌜ret = #()⌝ }}
";

/// The Figure 6 example.
pub static EXAMPLE: Record = Record {
    name: "rwlock_duolock",
    source: SOURCE,
    annotation: ANNOTATION,
    paper: PaperRow {
        impl_lines: 45,
        annot: (50, 10),
        custom: 0,
        hints: (7, 0),
        time: "0:21",
        dia_total: (109, 10),
        iris: None,
        starling: None,
        caper: None,
        voila: None,
    },
    // The libraries' instances first (global lock, then reader lock),
    // then the lock's own operations.
    spec_order: &[
        "newglock",
        "acquireg",
        "releaseg",
        "newrlock",
        "acquirer",
        "releaser",
        "make",
        "read_acq",
        "read_rel",
        "write_acq",
        "write_rel",
    ],
    // Sabotage: the first reader forgets to take the global lock.
    sabotage: Some((
        "read_acq",
        "(if n = 0 then acquireg (snd (snd w)) else ()) ;;\n  releaser (fst w)\ndef read_rel",
        "releaser (fst w)\ndef read_rel",
    )),
    client: Client {
        main: "let w := make () in
               fork { read_acq w ;; read_rel w } ;;
               read_acq w ;;
               read_rel w ;;
               write_acq w ;;
               write_rel w ;; 3",
        expected: Val::Int(3),
        heap: None,
        sync_model: SyncModel::InferAtomics,
        // The global lock is held *by the reader group*: the first
        // reader acquires it on everyone's behalf and each reader
        // re-enters the reader lock while the group still owns it, so a
        // per-thread lock-order heuristic sees both r→g (first
        // acquisition) and g→r (re-entry) and reports a cycle. That
        // logical ownership transfer is exactly the impredicativity
        // this example exercises, and the proofs above show the
        // protocol deadlock-free — so the order heuristic is off here;
        // the sound manifest-deadlock detector stays on.
        lock_order: false,
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Example;

    #[test]
    fn verifies_fully_automatically() {
        let outcome = EXAMPLE
            .verify()
            .unwrap_or_else(|e| panic!("rwlock_duolock stuck:\n{e}"));
        assert_eq!(outcome.manual_steps, 0);
        outcome.check_all().expect("traces replay");
    }
}
