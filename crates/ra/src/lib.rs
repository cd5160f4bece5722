#![warn(missing_docs)]
//! Resource algebras — the semantic backing of the ghost-state libraries.
//!
//! In the Coq artifact, every ghost-state rule (allocation, interaction,
//! mutation — Fig. 4 of the paper) is proved sound against Iris's resource
//! algebras. This crate is the executable analogue: the [`Ra`] trait models
//! (discrete) resource algebras — commutative monoids with a validity
//! predicate and a persistent core — and [`laws`] provides checkers for the
//! RA laws and for *frame-preserving updates*, which the test suite runs
//! exhaustively on small domains and randomly via property tests.
//!
//! The instances mirror the algebras the benchmark's ghost libraries need:
//!
//! * [`excl::Excl`] — exclusive ownership (the spin lock's `locked γ`);
//! * [`frac::FracRa`] — fractional permissions;
//! * [`agree::Agree`] — agreement (ghost variables that never change);
//! * [`nat::NatSum`], [`nat::NatMax`] — sum and max naturals;
//! * [`auth::Auth`] — the authoritative construction over a unital RA
//!   (ticket locks, bounded counters);
//! * [`counting::CountRa`] — counting permissions (the ARC's
//!   `counter`/`token`/`no_tokens`, Fig. 4);
//! * [`oneshot::OneShot`] — the one-shot protocol (fork/join results).

pub mod agree;
pub mod auth;
pub mod counting;
pub mod excl;
pub mod frac;
pub mod laws;
pub mod nat;
pub mod oneshot;

use std::fmt::Debug;

/// A (discrete) resource algebra.
///
/// Composition is total; partiality is expressed through [`Ra::valid`]
/// (compose first, then check validity), exactly as in Iris.
pub trait Ra: Sized + Clone + PartialEq + Debug {
    /// The composition `a ⋅ b`.
    #[must_use]
    fn op(&self, other: &Self) -> Self;

    /// Validity `✓ a`.
    #[must_use]
    fn valid(&self) -> bool;

    /// The persistent core `|a|`, if any. Must be idempotent and absorbed
    /// by `a` (`|a| ⋅ a = a`).
    #[must_use]
    fn core(&self) -> Option<Self>;
}

/// A unital resource algebra: an RA with a unit element and a decidable
/// inclusion order (needed by the authoritative construction).
pub trait Ucmra: Ra {
    /// The unit `ε` (valid, neutral for `op`).
    #[must_use]
    fn unit() -> Self;

    /// The extension order `a ≼ b` (∃c. b = a ⋅ c).
    #[must_use]
    fn included(&self, other: &Self) -> bool;
}

/// A frame-preserving update `a ⤳ b`: for every frame `c`, if `a ⋅ c` is
/// valid then `b ⋅ c` is valid. This is the soundness condition for ghost
/// mutation rules (`P ∗ Q ⊢ ¤|⇛ R ∗ S` in the paper's classification).
///
/// The check here is necessarily w.r.t. a supplied set of candidate frames;
/// [`laws::check_fpu`] drives it with exhaustive small-domain enumerations.
pub fn frame_preserving_update<A: Ra>(a: &A, b: &A, frames: &[A]) -> bool {
    if a.valid() && !b.valid() {
        return false;
    }
    frames.iter().all(|c| !a.op(c).valid() || b.op(c).valid())
}
