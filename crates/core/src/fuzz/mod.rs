//! Soundness fuzzing for the trace checker and the search engine.
//!
//! The replay checker is this reproduction's trusted computing base: it
//! stands in for the Coq kernel (DESIGN §1), so its ability to *reject
//! wrong certificates* deserves adversarial evidence, not just the 24
//! traces the example suite happens to produce. This module supplies
//! that evidence with three deterministic, seedable pillars:
//!
//! 1. **Generation** ([`gen`]): random entailments over the embedded
//!    grammar — terms with sorts and evars, pure props, points-to atoms,
//!    invariants, laters, existentials, update modalities — with a
//!    tunable fraction provable *by construction* (the goal is derived
//!    from the generated hypothesis context by sound weakening), and
//!    random checker traces valid by construction.
//! 2. **Differential oracle** ([`oracle`]): engine-proved goals must
//!    replay identically through `checker::check` and
//!    `checker::check_json`, telemetry and profiling on/off must not
//!    change the trace, indexed vs linear hint search must agree, and
//!    the independent executable spec ([`spec`]) must agree with the
//!    checker.
//! 3. **Adversarial mutation** ([`mutate`]): structured edits — swap a
//!    rule kind, drop/duplicate/reorder a step, retarget an obligation's
//!    facts, corrupt an evar solution, widen a mask, flip atomicity,
//!    unbalance the branch tree, truncate mid-window — each certified
//!    invalid by the spec before the checker sees it. The checker must
//!    kill every mutant; a survivor is a soundness hole, shrunk by
//!    [`shrink`] to a minimal witness and reported as a build failure.
//!
//! Everything is reproducible from a `u64` seed: no wall-clock, no
//! global RNG, no platform-dependent hashing. The `fuzz_driver` binary
//! in `crates/bench` runs the campaign in parallel (`run_ordered`) and
//! emits a byte-stable JSON report; `ci.sh` pins a fixed-seed smoke run.

pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod rng;
pub mod shrink;
pub mod spec;

pub use gen::{gen_entailment, gen_trace, EntailmentCase, GenConfig};
pub use mutate::{mutate, mutate_trace, Mutant, MutationKind};
pub use oracle::{
    fuzz_options, mutation_round, run_case, search_once, trace_of_steps, CaseReport,
    MutationOutcome, SearchResult,
};
pub use rng::FuzzRng;
pub use shrink::shrink_steps;
pub use spec::spec_check;
