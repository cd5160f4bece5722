#![warn(missing_docs)]
//! `diaframe-core` — the Diaframe proof search strategy.
//!
//! This crate is the paper's primary contribution, transplanted from Coq to
//! Rust: an automated, goal-directed proof search for Iris-style separation
//! logic entailments arising from weakest-precondition goals over HeapLang
//! programs.
//!
//! Architecture (mirroring Fig. 1 of the paper):
//!
//! * a program plus a Hoare-style specification ([`spec::Spec`]) is turned
//!   into an entailment goal ([`goal::Goal`], the grammar of §5.1);
//! * the strategy ([`strategy`]) repeatedly introduces hypotheses, performs
//!   symbolic execution steps (`sym-ex-fupd-exist`, §3.2) and discharges
//!   atoms through *bi-abduction hints* (§4) — base hints from the ghost
//!   libraries and the points-to assertion, closed recursively under wands
//!   and invariants, with `ε₁` last-resort hints for allocation;
//! * every rule application is recorded in a [`trace::ProofTrace`] which an
//!   independent [`checker`] replays, re-validating pure obligations, the
//!   mask discipline and the evar scope discipline;
//! * when no rule applies the engine stops with a [`report::Stuck`]
//!   rendering the proof state in the Iris-Proof-Mode style of §2.2, and
//!   the user may resume with tactics ([`tactic`]): manual case splits,
//!   custom hints, or opt-in disjunction backtracking;
//! * an opt-in instrumentation session ([`telemetry`]) records a
//!   hierarchical span tree ([`profile`]) across pool workers and
//!   verification sessions, with counters of hint probes, rule
//!   applications, backtracks and checker replays riding on the spans as
//!   payloads; it exports Chrome trace-event timelines, folded flamegraph
//!   stacks, per-hint hotspot attribution and per-kind duration
//!   histograms, and feeds the structured stuck diagnostics of
//!   [`report::Stuck::render_explain`] — at zero cost when no session is
//!   installed;
//! * a deterministic [`fuzz`] harness stress-tests the checker (the
//!   trusted computing base) with generated entailments, a differential
//!   oracle across every verdict path, and an adversarial trace mutator
//!   whose certified-invalid mutants the checker must all reject.

pub mod annot;
pub mod checker;
pub mod ctx;
pub mod driver;
pub mod fingerprint;
pub mod fuzz;
pub mod goal;
pub mod hint;
pub mod index;
pub mod profile;
pub mod report;
pub mod spec;
pub mod strategy;
pub mod symval;
pub mod tactic;
pub mod telemetry;
pub mod trace;
pub mod trace_json;
pub mod verify;

pub use ctx::{Hyp, ProofCtx};
pub use driver::{collect_ordered, default_jobs, run_ordered, JobPanic};
pub use fingerprint::{engine_fingerprint, sha256_hex, Fingerprinter, Sha256};
pub use profile::{SpanKind, SpanStats};
pub use goal::Goal;
pub use index::{hint_index_enabled, set_hint_index_enabled, HeadSet};
pub use report::Stuck;
pub use spec::{Spec, SpecTable};
pub use tactic::{current_ablation, with_ablation_override, Ablation, Tactic, VerifyOptions};
pub use telemetry::{CounterSnapshot, DiagSnapshot, TelemetrySession};
pub use trace::{ProofTrace, TraceKind, TraceStep};
pub use verify::{verify, with_verification_session, VerifiedProof};
