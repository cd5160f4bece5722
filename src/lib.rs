#![warn(missing_docs)]
//! `diaframe` — a Rust reproduction of *Diaframe: Automated Verification
//! of Fine-Grained Concurrent Programs in Iris* (Mulder, Krebbers,
//! Geuvers; PLDI 2022).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`term`] — terms, evars with scope levels, unification, the pure
//!   solver (the `lia` analogue);
//! * [`heaplang`] — the ML-like concurrent language, parser, operational
//!   semantics and reference interpreter;
//! * [`ra`] — resource algebras backing the ghost-state rules;
//! * [`logic`] — the assertion language of §5.1 (atoms, masks, grammar
//!   classes);
//! * [`ghost`] — the ghost-state libraries with bi-abduction hints;
//! * [`core`] — the proof search strategy, hint search, proof traces and
//!   the replay checker;
//! * [`examples`] — the 24 Figure-6 benchmarks.
//!
//! # Quickstart
//!
//! ```
//! use diaframe::examples::{spin_lock::SpinLock, Example};
//!
//! let outcome = SpinLock.verify().expect("the spin lock verifies");
//! assert_eq!(outcome.manual_steps, 0); // fully automatic, as in the paper
//! outcome.check_all().expect("every proof trace replays");
//! ```

pub use diaframe_core as core;
pub use diaframe_examples as examples;
pub use diaframe_ghost as ghost;
pub use diaframe_heaplang as heaplang;
pub use diaframe_logic as logic;
pub use diaframe_ra as ra;
pub use diaframe_term as term;

/// The names most verifications need, for a single glob import.
///
/// ```
/// use diaframe::prelude::*;
///
/// let ws = Ws::new(
///     "def incr c := FAA(c, 1)",
///     "SPEC l, {{ ⌜c = #l⌝ ∗ l ↦ #0 }} incr c {{ RET #0; l ↦ #1 }}",
/// );
/// let outcome = ws.verify_declared().expect("the increment verifies");
/// assert_eq!(outcome.manual_steps, 0);
/// outcome.check_all().expect("traces replay");
/// ```
pub mod prelude {
    pub use diaframe_core::{verify, Spec, SpecTable, Stuck, VerifiedProof, VerifyOptions};
    pub use diaframe_examples::common::{Example, ExampleOutcome, Ws};
    pub use diaframe_ghost::Registry;
    pub use diaframe_heaplang::{parse_expr, Expr, Val};
    pub use diaframe_logic::{Assertion, Atom, MaskT, PredTable};
    pub use diaframe_term::{PureProp, Sort, Term, VarCtx};
}
