//! The differential oracle.
//!
//! For every generated case the engine proves, the oracle cross-checks
//! all the verdict paths the repo exposes:
//!
//! * telemetry and profiling **on vs off** must produce byte-identical
//!   trace JSON (observability, never behavior);
//! * the linear hint scan must produce the same trace JSON as the
//!   head-indexed one (skipping a hopeless probe is unobservable);
//! * [`checker::check`] must accept the engine's trace, and
//!   [`checker::check_json`] must return the *same* verdict through the
//!   codec;
//! * the codec must be byte-stable (decode ∘ encode is the identity on
//!   encoder output);
//! * the proof store's compact bundle must be byte-stable too (encode,
//!   parse, decode, re-encode), and the checker must reach the in-memory
//!   verdict on the trace decoded from it;
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
use crate::tactic::{current_ablation, with_ablation_override, Ablation, VerifyOptions};
use crate::telemetry::TelemetrySession;
use crate::trace::{ProofTrace, TraceStep};
use crate::trace_json::{
    parse_json_value, trace_from_json, trace_to_json, traces_from_compact_value,
    traces_to_compact_json,
};
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
    /// The engine trace as JSON, when proved.
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

        // Observability leg: with a telemetry session installed (every
        // counter and span hook firing), counters may differ, the trace
        // must not.
        let session = TelemetrySession::new(&format!("fuzz-{index}"));
        let second = {
            let _installed = session.install();
            search_once(seed, index, cfg)
        };
        match &second.trace {
            Some(t2) if trace_to_json(t2) == json => {}
            Some(_) => divergences.push(format!(
                "case {index}: telemetry/profile-on run produced a different trace"
            )),
            None => divergences.push(format!(
                "case {index}: proved without telemetry/profiling but stuck with it"
            )),
        }

        // Index leg: the linear reference scan probes every hypothesis
        // the head index skips; the trace must not move.
        let linear = Ablation {
            linear_scan: true,
            ..current_ablation()
        };
        match with_ablation_override(linear, || search_once(seed, index, cfg)).trace {
            Some(t) if trace_to_json(&t) == json => {}
            Some(_) => divergences.push(format!(
                "case {index}: linear hint search produced a different trace than indexed"
            )),
            None => divergences.push(format!(
                "case {index}: proved with the hint index but stuck without it"
            )),
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
                    divergences.push(format!("case {index}: JSON round-trip is not byte-stable"));
                }
            }
            Err(e) => divergences.push(format!("case {index}: engine trace fails to decode: {e}")),
        }

        // Bundle leg: the proof store's compact encoding, which
        // delta-shares the variable-context snapshots, must round-trip
        // byte-stable and hand the checker a trace with the same verdict.
        let bundle = traces_to_compact_json(&[("case", trace)]);
        match parse_json_value(&bundle).and_then(|v| traces_from_compact_value(&v)) {
            Ok(decoded) => {
                let specs: Vec<(&str, &ProofTrace)> =
                    decoded.iter().map(|(n, t)| (n.as_str(), t)).collect();
                if traces_to_compact_json(&specs) != bundle {
                    divergences.push(format!(
                        "case {index}: bundle round-trip is not byte-stable"
                    ));
                }
                match decoded.as_slice() {
                    [(_, t)] => {
                        let v_bundle = checker::check(t);
                        if v_bundle != v_mem {
                            divergences.push(format!(
                                "case {index}: check vs check of the bundle-decoded trace disagree: {v_mem:?} vs {v_bundle:?}"
                            ));
                        }
                    }
                    other => divergences.push(format!(
                        "case {index}: a one-trace bundle decoded to {} traces",
                        other.len()
                    )),
                }
            }
            Err(e) => divergences.push(format!("case {index}: engine bundle fails to decode: {e}")),
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
