#![warn(missing_docs)]
//! Terms, sorts, evars and the pure solver for `diaframe-rs`.
//!
//! This crate is the logical substrate of the Diaframe reproduction. It
//! provides:
//!
//! * a first-order, multi-sorted **term language** ([`Term`]) into which
//!   HeapLang values, integers, fractions and ghost names embed;
//! * **existential variables** (evars) with *scope levels*, implementing the
//!   delayed-instantiation discipline of §3.2 of the paper: an evar created
//!   before an invariant was opened must never capture variables introduced
//!   by opening it;
//! * **syntactic unification** modulo arithmetic normalisation
//!   ([`unify::unify`]);
//! * **pure propositions** ([`PureProp`]) — the `⌜φ⌝` fragment — together
//!   with a small **pure solver** ([`solver::PureSolver`]) combining
//!   congruence closure with Fourier–Motzkin elimination (with integer
//!   tightening), playing the role of Coq's `lia` in the original artifact.
//!
//! # Example
//!
//! ```
//! use diaframe_term::{Term, Sort, VarCtx, PureProp, solver::PureSolver};
//!
//! let mut ctx = VarCtx::new();
//! let z = ctx.fresh_var(Sort::Int, "z");
//! let zt = Term::var(z);
//! // From 0 < z and z ≠ 1 conclude 1 < z  (an integer-tightening fact).
//! let facts = vec![
//!     PureProp::lt(Term::int(0), zt.clone()),
//!     PureProp::ne(zt.clone(), Term::int(1)),
//! ];
//! let mut solver = PureSolver::new(&facts);
//! assert!(solver.prove(&mut ctx, &PureProp::lt(Term::int(1), zt)));
//! ```

pub mod display;
pub mod evar;
pub mod normalize;
pub mod pure;
pub mod qp;
pub mod solver;
pub mod sort;
pub mod subst;
pub mod term;
pub mod unify;

pub use evar::{EVarId, EVarInfo, Level, VarCtx, VarId, VarInfo};
pub use pure::PureProp;
pub use qp::{Qp, Rat};
pub use sort::Sort;
pub use subst::Subst;
pub use term::{Sym, Term};
pub use unify::{unify, UnifyError};
