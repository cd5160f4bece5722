//! The differential oracle.
//!
//! For every generated case the engine proves, the oracle cross-checks
//! all the verdict paths the repo exposes:
//!
//! * telemetry **on vs off** must produce byte-identical trace JSON
//!   (telemetry is observability, never behavior);
//! * [`checker::check`] must accept the engine's trace, and
//!   [`checker::check_json`] must return the *same* verdict through the
//!   codec;
//! * the codec must be byte-stable (decode ∘ encode is the identity on
//!   encoder output);
//! * the executable spec ([`spec_check`]) must agree with the checker.
//!
//! Disagreement anywhere is a *divergence* — the driver shrinks and
//! reports it, and the CI gate requires zero. The engine failing an
//! expected-provable case is counted separately (`missed_provable`): a
//! completeness gap, interesting but not a soundness alarm. The engine
//! *proving* an expected-unprovable case is `proved_unexpected` — that
//! is an alarm, because unprovable cases carry a construction witness.

use crate::checker;
use crate::fuzz::gen::{gen_entailment, GenConfig};
use crate::fuzz::mutate::{mutate_trace, MutationKind};
use crate::fuzz::shrink::shrink_steps;
use crate::fuzz::spec::spec_check;
use crate::spec::SpecTable;
use crate::strategy::Engine;
use crate::tactic::VerifyOptions;
use crate::telemetry::TelemetrySession;
use crate::trace::{ProofTrace, TraceStep};
use crate::trace_json::{trace_from_json, trace_to_json};
use diaframe_ghost::Registry;

/// Search options for fuzz cases: fully automatic, with a small fuel so
/// a pathological case cannot stall the run.
#[must_use]
pub fn fuzz_options() -> VerifyOptions {
    let mut opts = VerifyOptions::automatic();
    opts.fuel = 4096;
    opts
}

/// A `ProofTrace` from a step slice (the trace type is append-only).
#[must_use]
pub fn trace_of_steps(steps: &[TraceStep]) -> ProofTrace {
    let mut t = ProofTrace::new();
    for s in steps {
        t.push(s.clone());
    }
    t
}

/// One engine run on a freshly built copy of case `(seed, index)`.
pub struct SearchResult {
    /// The generator's ground truth for the case.
    pub expect_provable: bool,
    /// The generator's construction recipe.
    pub flavor: &'static str,
    /// Whether the engine proved it.
    pub proved: bool,
    /// The proof trace, when proved.
    pub trace: Option<ProofTrace>,
}

/// Rebuilds the case and runs the search engine once.
#[must_use]
pub fn search_once(seed: u64, index: usize, cfg: &GenConfig) -> SearchResult {
    let case = gen_entailment(seed, index, cfg);
    let registry = Registry::standard();
    let specs = SpecTable::new();
    let opts = fuzz_options();
    let mut engine = Engine::new(&registry, &specs, &opts);
    match engine.solve(case.ctx, case.goal) {
        Ok(_) => SearchResult {
            expect_provable: case.expect_provable,
            flavor: case.flavor,
            proved: true,
            trace: Some(engine.trace),
        },
        Err(_) => SearchResult {
            expect_provable: case.expect_provable,
            flavor: case.flavor,
            proved: false,
            trace: None,
        },
    }
}

/// The oracle's verdict on one case.
pub struct CaseReport {
    /// The case index.
    pub index: usize,
    /// The generator's construction recipe.
    pub flavor: &'static str,
    /// The generator's ground truth.
    pub expect_provable: bool,
    /// Whether the engine proved the case.
    pub proved: bool,
    /// Every differential disagreement observed (empty in a sound run).
    pub divergences: Vec<String>,
    /// The engine trace as JSON, when proved — the index-off pass
    /// compares against this.
    pub trace_json: Option<String>,
}

/// Runs case `(seed, index)` through the full differential battery.
#[must_use]
pub fn run_case(seed: u64, index: usize, cfg: &GenConfig) -> CaseReport {
    let first = search_once(seed, index, cfg);
    let mut divergences = Vec::new();
    let mut trace_json = None;
    if let Some(trace) = &first.trace {
        let json = trace_to_json(trace);

        // Telemetry leg: counters may differ, the trace must not.
        let session = TelemetrySession::new(&format!("fuzz-{index}"));
        let second = {
            let _guard = session.install();
            search_once(seed, index, cfg)
        };
        match &second.trace {
            Some(t2) if trace_to_json(t2) == json => {}
            Some(_) => divergences.push(format!(
                "case {index}: telemetry-on run produced a different trace"
            )),
            None => divergences.push(format!(
                "case {index}: proved without telemetry but stuck with it"
            )),
        }

        // Profile leg: the hierarchical profiler is observability too —
        // the trace must be byte-identical under it, and its span
        // rollups must reconcile *exactly* with the flat counters of
        // the same run (the accounting identities of the profile
        // layer: probe-batch span counts vs probes, checker span
        // counts vs replayed steps).
        let p_session = TelemetrySession::new(&format!("fuzz-{index}-profiled"));
        let profile = crate::profile::ProfileSession::new();
        let third = {
            let _t = p_session.install();
            let _p = profile.install();
            let r = search_once(seed, index, cfg);
            if let Some(t) = &r.trace {
                // Replay under the profiler so the checker-side
                // identity is exercised as well.
                let _ = checker::check(t);
            }
            r
        };
        match &third.trace {
            Some(t3) if trace_to_json(t3) == json => {}
            Some(_) => divergences.push(format!(
                "case {index}: profiled run produced a different trace"
            )),
            None => divergences.push(format!(
                "case {index}: proved without the profiler but stuck with it"
            )),
        }
        let snap = p_session.snapshot();
        let rollup = profile.rollup();
        let find_hint = rollup[crate::profile::SpanKind::FindHint.index()].count;
        if find_hint != snap.probes_attempted {
            divergences.push(format!(
                "case {index}: find_hint span count {find_hint} != probes_attempted {}",
                snap.probes_attempted
            ));
        }
        let check_spans = rollup[crate::profile::SpanKind::Check.index()].count;
        if check_spans != snap.checker_steps {
            divergences.push(format!(
                "case {index}: check span count {check_spans} != checker_steps {}",
                snap.checker_steps
            ));
        }

        // Verdict leg: in-memory replay vs replay through the codec.
        let v_mem = checker::check(trace);
        let v_json = checker::check_json(&json);
        if let Err(e) = &v_mem {
            divergences.push(format!("case {index}: checker rejects engine trace: {e}"));
        }
        if v_mem != v_json {
            divergences.push(format!(
                "case {index}: check vs check_json disagree: {v_mem:?} vs {v_json:?}"
            ));
        }

        // Codec leg: byte-stable round-trip.
        match trace_from_json(&json) {
            Ok(decoded) => {
                if trace_to_json(&decoded) != json {
                    divergences
                        .push(format!("case {index}: JSON round-trip is not byte-stable"));
                }
            }
            Err(e) => divergences.push(format!("case {index}: engine trace fails to decode: {e}")),
        }

        // Spec leg: the independent contract implementation must agree.
        if v_mem.is_ok() != spec_check(trace.steps()).is_ok() {
            divergences.push(format!(
                "case {index}: executable spec and checker disagree on the engine trace"
            ));
        }

        trace_json = Some(json);
    }
    CaseReport {
        index,
        flavor: first.flavor,
        expect_provable: first.expect_provable,
        proved: first.proved,
        divergences,
        trace_json,
    }
}

/// The outcome of one mutant against the checker.
pub struct MutationOutcome {
    /// The mutation family.
    pub kind: MutationKind,
    /// Where the edit landed.
    pub description: String,
    /// Whether the checker rejected the mutant (it must).
    pub killed: bool,
    /// For a survivor: the shrunken step sequence that the checker still
    /// accepts while the spec rejects it.
    pub minimized: Option<Vec<TraceStep>>,
}

/// Mutates a trace `count` times and replays every certified mutant
/// through the checker; survivors are shrunk to a minimal witness.
#[must_use]
pub fn mutation_round(steps: &[TraceStep], seed: u64, count: usize) -> Vec<MutationOutcome> {
    mutate_trace(steps, seed, count)
        .into_iter()
        .map(|m| {
            let killed = checker::check(&trace_of_steps(&m.steps)).is_err();
            let minimized = if killed {
                None
            } else {
                let mut pred = |s: &[TraceStep]| {
                    checker::check(&trace_of_steps(s)).is_ok() && spec_check(s).is_err()
                };
                Some(shrink_steps(&m.steps, &mut pred))
            };
            MutationOutcome {
                kind: m.kind,
                description: m.description,
                killed,
                minimized,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provable_cases_mostly_prove_and_never_diverge() {
        let cfg = GenConfig::default();
        let mut proved = 0usize;
        let mut expected = 0usize;
        let mut proved_unexpected = 0usize;
        for i in 0..24 {
            let r = run_case(0xD1AF, i, &cfg);
            assert!(
                r.divergences.is_empty(),
                "case {i} diverged: {:?}",
                r.divergences
            );
            if r.expect_provable {
                expected += 1;
                if r.proved {
                    proved += 1;
                }
            } else {
                assert_ne!(r.flavor, "weakening");
                if r.proved {
                    proved_unexpected += 1;
                }
            }
        }
        assert_eq!(
            proved_unexpected, 0,
            "engine proved a case built to be unprovable"
        );
        // Sound weakening should be well within the engine's reach.
        assert!(
            proved * 10 >= expected * 9,
            "engine proved only {proved}/{expected} provable-by-construction cases"
        );
        assert!(expected > 0);
    }

    #[test]
    fn mutants_of_engine_traces_are_killed() {
        let cfg = GenConfig::default();
        let mut tested = 0usize;
        for i in 0..16 {
            let r = search_once(0xD1AF, i, &cfg);
            let Some(trace) = r.trace else { continue };
            if trace.is_empty() {
                continue;
            }
            for out in mutation_round(trace.steps(), 0xD1AF ^ i as u64, 11) {
                assert!(
                    out.killed,
                    "SURVIVOR on engine trace {i}: {} — minimized: {:?}",
                    out.description, out.minimized
                );
                tested += 1;
            }
        }
        assert!(tested > 0, "no mutants were produced at all");
    }
}
