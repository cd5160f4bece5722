#![warn(missing_docs)]
//! Ghost-state libraries with bi-abduction hints.
//!
//! The paper ships "5 ghost-state libraries with bi-abduction hints" (§6);
//! this crate is their counterpart. Each library implements
//! [`GhostLibrary`]: it owns a set of [`diaframe_logic::GhostKind`]s and
//! provides
//!
//! * **allocation rules** (last-resort `ε₁` hints, like `locked-allocate`),
//! * **interaction rules** (merging two owned atoms yields pure facts or a
//!   contradiction, like `locked-unique` / `token-interact`), and
//! * **mutation rules** (bi-abduction hint candidates from a hypothesis
//!   atom to a goal atom, like `token-mutate-incr`),
//!
//! following exactly the three-way classification at the end of §2.1 of the
//! paper. Every rule is backed by a resource algebra from [`diaframe_ra`];
//! the correspondence is checked by that crate's frame-preserving-update
//! tests.
//!
//! Libraries:
//!
//! * [`excl_token`] — exclusive tokens (`locked γ`);
//! * [`counting`] — counting permissions (`counter P γ p`, `token P γ`,
//!   `no_tokens P γ`; Fig. 4);
//! * [`tickets`] — authoritative ticket dispensers (ticket locks);
//! * [`oneshot`] — the one-shot protocol (fork/join);
//! * [`gvar`] — fractional ghost variables (agreement + update);
//! * [`monotone`] — monotonically growing counters with persistent lower
//!   bounds.

pub mod counting;
pub mod excl_token;
pub mod gvar;
pub mod library;
pub mod monotone;
pub mod oneshot;
pub mod tickets;

pub use library::{AtomSig, GhostLibrary, HintCandidate, MergeOutcome, Registry};
