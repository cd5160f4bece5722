//! The adversarial trace mutator.
//!
//! Takes a valid trace (from the engine, the example suite, or
//! [`crate::fuzz::gen::gen_trace`]) and applies a structured mutation
//! meant to forge a proof: swapping a rule kind, dropping or duplicating
//! or reordering a step, retargeting the facts of a pure obligation,
//! corrupting a recorded evar solution, widening the namespace an
//! invariant opening claims, flipping an atomic step to non-atomic,
//! unbalancing the branch tree, corrupting an obligation goal, or
//! truncating the trace mid-window.
//!
//! Every emitted mutant is **certified invalid** by the independent
//! executable spec ([`crate::fuzz::spec::spec_check`]) before it is
//! handed to the checker; a candidate edit that happens to leave the
//! trace valid (dropping a step of a vacuous branch, renaming a window
//! nobody closes, …) is discarded and the next candidate site is tried.
//! The checker accepting a certified mutant is therefore a genuine
//! soundness hole, not a disagreement about what "invalid" means.

use crate::fuzz::rng::FuzzRng;
use crate::fuzz::spec::spec_check;
use crate::trace::TraceStep;
use diaframe_logic::Namespace;
use diaframe_term::{EVarId, PureProp, Sort, Term, VarCtx, VarId};

/// The mutation families. `ALL` has 11 entries — comfortably past the
/// "≥ 8 mutation kinds" acceptance bar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the names say it; `describe` elaborates
pub enum MutationKind {
    SwapRuleKind,
    DropStep,
    DuplicateStep,
    ReorderSteps,
    RetargetHyp,
    CorruptEvar,
    WidenMask,
    FlipAtomic,
    UnbalanceBranch,
    CorruptObligation,
    TruncateAfterOpen,
}

impl MutationKind {
    /// Every kind, in a stable order.
    pub const ALL: [MutationKind; 11] = [
        MutationKind::SwapRuleKind,
        MutationKind::DropStep,
        MutationKind::DuplicateStep,
        MutationKind::ReorderSteps,
        MutationKind::RetargetHyp,
        MutationKind::CorruptEvar,
        MutationKind::WidenMask,
        MutationKind::FlipAtomic,
        MutationKind::UnbalanceBranch,
        MutationKind::CorruptObligation,
        MutationKind::TruncateAfterOpen,
    ];

    /// A stable kebab-case name (JSON report key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::SwapRuleKind => "swap-rule-kind",
            MutationKind::DropStep => "drop-step",
            MutationKind::DuplicateStep => "duplicate-step",
            MutationKind::ReorderSteps => "reorder-steps",
            MutationKind::RetargetHyp => "retarget-hyp",
            MutationKind::CorruptEvar => "corrupt-evar",
            MutationKind::WidenMask => "widen-mask",
            MutationKind::FlipAtomic => "flip-atomic",
            MutationKind::UnbalanceBranch => "unbalance-branch",
            MutationKind::CorruptObligation => "corrupt-obligation",
            MutationKind::TruncateAfterOpen => "truncate-after-open",
        }
    }
}

/// A certified-invalid mutated trace.
pub struct Mutant {
    /// The family that produced it.
    pub kind: MutationKind,
    /// Where and what was edited (human-readable).
    pub description: String,
    /// The mutated step sequence.
    pub steps: Vec<TraceStep>,
}

/// Whether the obligation's goal mentions evar `e` (corrupting an
/// unmentioned evar's solution cannot invalidate anything).
fn goal_mentions_evar(goal: &PureProp, e: EVarId) -> bool {
    let mut found = false;
    goal.visit_terms(&mut |t| found |= t.mentions_evar(e));
    found
}

/// Rebuilds `vars` with the solution of the `nth` solved Int evar
/// shifted by one — the recorded obligation then zonks to a different
/// (false) proposition.
fn corrupt_solution(vars: &VarCtx, nth: usize) -> VarCtx {
    let mut out = VarCtx::new();
    for i in 0..vars.num_vars() {
        let v = VarId::from_index(i);
        out.push_raw_var(vars.var_sort(v), vars.var_level(v), vars.var_name(v));
    }
    let mut seen = 0usize;
    for i in 0..vars.num_evars() {
        let e = EVarId::from_index(i);
        let mut sol = vars.evar_solution(e).cloned();
        if let Some(t) = &sol {
            if vars.evar_sort(e) == Sort::Int {
                if seen == nth {
                    sol = Some(Term::add(t.clone(), Term::int(1)));
                }
                seen += 1;
            }
        }
        out.push_raw_evar(vars.evar_sort(e), vars.evar_level(e), sol);
    }
    out.set_level(vars.level());
    out
}

/// Candidate edit sites for a kind: `(step index, sub-site)`. The
/// sub-site selects a fact or evar within the step where relevant.
fn candidate_sites(kind: MutationKind, steps: &[TraceStep]) -> Vec<(usize, usize)> {
    let mut sites = Vec::new();
    match kind {
        MutationKind::SwapRuleKind | MutationKind::DropStep | MutationKind::DuplicateStep => {
            for (i, s) in steps.iter().enumerate() {
                let eligible = match kind {
                    MutationKind::SwapRuleKind => {
                        matches!(s, TraceStep::InvOpened { .. } | TraceStep::InvClosed { .. })
                    }
                    MutationKind::DropStep => matches!(
                        s,
                        TraceStep::InvOpened { .. }
                            | TraceStep::InvClosed { .. }
                            | TraceStep::BranchStart { .. }
                            | TraceStep::BranchEnd { .. }
                            | TraceStep::Contradiction { .. }
                    ),
                    _ => matches!(
                        s,
                        TraceStep::InvOpened { .. }
                            | TraceStep::InvClosed { .. }
                            | TraceStep::BranchStart { .. }
                            | TraceStep::BranchEnd { .. }
                    ),
                };
                if eligible {
                    sites.push((i, 0));
                }
            }
        }
        MutationKind::ReorderSteps | MutationKind::WidenMask | MutationKind::TruncateAfterOpen => {
            for (i, s) in steps.iter().enumerate() {
                if matches!(s, TraceStep::InvOpened { .. }) {
                    sites.push((i, 0));
                }
            }
        }
        MutationKind::RetargetHyp => {
            for (i, s) in steps.iter().enumerate() {
                if let TraceStep::PureObligation { facts, .. } = s {
                    for f in 0..facts.len() {
                        sites.push((i, f));
                    }
                }
            }
        }
        MutationKind::CorruptEvar => {
            for (i, s) in steps.iter().enumerate() {
                if let TraceStep::PureObligation { goal, vars, .. } = s {
                    let mut nth = 0usize;
                    for j in 0..vars.num_evars() {
                        let e = EVarId::from_index(j);
                        if vars.evar_solution(e).is_some() && vars.evar_sort(e) == Sort::Int {
                            if goal_mentions_evar(goal, e) {
                                sites.push((i, nth));
                            }
                            nth += 1;
                        }
                    }
                }
            }
        }
        MutationKind::FlipAtomic => {
            for (i, s) in steps.iter().enumerate() {
                if matches!(s, TraceStep::SymEx { atomic: true, .. }) {
                    sites.push((i, 0));
                }
            }
        }
        MutationKind::UnbalanceBranch => {
            // Insertion positions; a handful is enough, certification
            // rejects the ones that happen to re-balance.
            sites.push((0, 0));
            sites.push((steps.len() / 2, 0));
            sites.push((steps.len(), 0));
            sites.dedup();
        }
        MutationKind::CorruptObligation => {
            for (i, s) in steps.iter().enumerate() {
                if matches!(s, TraceStep::PureObligation { .. }) {
                    sites.push((i, 0));
                }
            }
        }
    }
    sites
}

/// Applies the edit at one site; `None` when the site turns out not to
/// support the edit (e.g. no matching close for a reorder).
fn apply_at(
    kind: MutationKind,
    steps: &[TraceStep],
    site: (usize, usize),
) -> Option<Vec<TraceStep>> {
    let (i, sub) = site;
    let mut out = steps.to_vec();
    match kind {
        MutationKind::SwapRuleKind => {
            out[i] = match &steps[i] {
                TraceStep::InvOpened { ns } => TraceStep::InvClosed { ns: ns.clone() },
                TraceStep::InvClosed { ns } => TraceStep::InvOpened { ns: ns.clone() },
                _ => return None,
            };
        }
        MutationKind::DropStep => {
            out.remove(i);
        }
        MutationKind::DuplicateStep => {
            let copy = steps[i].clone();
            out.insert(i + 1, copy);
        }
        MutationKind::ReorderSteps => {
            // Swap an opening with its matching close: the window then
            // closes before it opens.
            let TraceStep::InvOpened { ns } = &steps[i] else {
                return None;
            };
            let j = steps[i + 1..]
                .iter()
                .position(|s| matches!(s, TraceStep::InvClosed { ns: n } if n == ns))?
                + i
                + 1;
            out.swap(i, j);
        }
        MutationKind::RetargetHyp => {
            let TraceStep::PureObligation { facts, goal, vars } = &steps[i] else {
                return None;
            };
            let mut facts = facts.clone();
            if sub >= facts.len() {
                return None;
            }
            facts.remove(sub);
            out[i] = TraceStep::PureObligation {
                facts,
                goal: goal.clone(),
                vars: vars.clone(),
            };
        }
        MutationKind::CorruptEvar => {
            let TraceStep::PureObligation { facts, goal, vars } = &steps[i] else {
                return None;
            };
            out[i] = TraceStep::PureObligation {
                facts: facts.clone(),
                goal: goal.clone(),
                vars: corrupt_solution(vars, sub),
            };
        }
        MutationKind::WidenMask => {
            let TraceStep::InvOpened { .. } = &steps[i] else {
                return None;
            };
            // Claim a namespace nothing else mentions: the real close no
            // longer matches, i.e. the opening pretended to a wider mask
            // than the proof actually restores.
            out[i] = TraceStep::InvOpened {
                ns: Namespace::new("FuzzWidened"),
            };
        }
        MutationKind::FlipAtomic => {
            let TraceStep::SymEx { spec, atomic: true } = &steps[i] else {
                return None;
            };
            out[i] = TraceStep::SymEx {
                spec: spec.clone(),
                atomic: false,
            };
        }
        MutationKind::UnbalanceBranch => {
            out.insert(i.min(out.len()), TraceStep::BranchStart { index: 99 });
        }
        MutationKind::CorruptObligation => {
            let TraceStep::PureObligation { facts, vars, .. } = &steps[i] else {
                return None;
            };
            out[i] = TraceStep::PureObligation {
                facts: facts.clone(),
                goal: PureProp::lt(Term::int(0), Term::int(0)),
                vars: vars.clone(),
            };
        }
        MutationKind::TruncateAfterOpen => {
            let TraceStep::InvOpened { .. } = &steps[i] else {
                return None;
            };
            out.truncate(i + 1);
        }
    }
    Some(out)
}

/// Tries to produce one certified-invalid mutant of `steps` in the given
/// family. Candidate sites are tried in a rotation starting at a
/// rng-chosen offset; `None` when no site yields a spec-invalid trace.
pub fn mutate(steps: &[TraceStep], kind: MutationKind, rng: &mut FuzzRng) -> Option<Mutant> {
    let sites = candidate_sites(kind, steps);
    if sites.is_empty() {
        return None;
    }
    let start = rng.below(sites.len() as u64) as usize;
    for k in 0..sites.len() {
        let site = sites[(start + k) % sites.len()];
        if let Some(mutated) = apply_at(kind, steps, site) {
            if spec_check(&mutated).is_err() {
                return Some(Mutant {
                    kind,
                    description: format!("{} at step {}", kind.name(), site.0),
                    steps: mutated,
                });
            }
        }
    }
    None
}

/// Up to `count` mutants of `steps`, cycling through the families from
/// a seed-derived starting family — so a campaign with
/// `count < ALL.len()` mutations per trace still exercises every family
/// across a corpus. Deterministic per `(steps, seed, count)`.
#[must_use]
pub fn mutate_trace(steps: &[TraceStep], seed: u64, count: usize) -> Vec<Mutant> {
    let base = FuzzRng::new(seed);
    let start = (base.fork(0xC1C).next_u64() as usize) % MutationKind::ALL.len();
    let mut out = Vec::new();
    for k in 0..count {
        let kind = MutationKind::ALL[(start + k) % MutationKind::ALL.len()];
        let mut rng = base.fork(k as u64);
        if let Some(m) = mutate(steps, kind, &mut rng) {
            out.push(m);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker;
    use crate::fuzz::gen::gen_trace;
    use crate::trace::ProofTrace;

    fn trace_of(steps: &[TraceStep]) -> ProofTrace {
        let mut t = ProofTrace::new();
        for s in steps {
            t.push(s.clone());
        }
        t
    }

    #[test]
    fn kind_names_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for k in MutationKind::ALL {
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
        }
        assert!(MutationKind::ALL.len() >= 8);
    }

    #[test]
    fn every_emitted_mutant_is_spec_invalid_and_checker_killed() {
        let mut produced = std::collections::BTreeSet::new();
        for i in 0..12 {
            let t = gen_trace(0xD1AF, i);
            for m in mutate_trace(t.steps(), 0xD1AF ^ i as u64, 22) {
                assert!(
                    spec_check(&m.steps).is_err(),
                    "uncertified mutant emitted: {}",
                    m.description
                );
                assert!(
                    checker::check(&trace_of(&m.steps)).is_err(),
                    "SURVIVOR: {} on synthetic trace {i}",
                    m.description
                );
                produced.insert(m.kind);
            }
        }
        // The synthetic corpus must exercise most families (some, like
        // flip-atomic, need particular step shapes and may not fire on
        // every trace — but across 12 traces they all should).
        assert!(
            produced.len() >= 9,
            "only {} mutation families fired: {:?}",
            produced.len(),
            produced
        );
    }
}
