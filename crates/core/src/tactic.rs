//! Proof scripts and verification options — the interactive escape hatch.
//!
//! When the automation gets stuck, the paper's workflow (§2.2, §6) is: the
//! user inspects the proof state and helps with a manual step (a case
//! distinction like `destruct (decide (z = 1))` in the ARC `drop` proof)
//! or a custom bi-abduction hint. Both are annotation text: a
//! `Next Obligation.` script elaborates into [`Tactic`]s and a `HINT`
//! clause into a [`Hint`]. Every script step and hint counts as *manual
//! proof work* in the Figure 6 statistics.

use crate::ctx::ProofCtx;
use crate::hint::{match_atom, Hint};
use diaframe_logic::{Assertion, Atom};
use diaframe_term::{PureProp, Subst, Term, VarId};

/// A step of a `Next Obligation.` script, tried when the automation gets
/// stuck: `destruct (decide (t₁ = t₂))`, which proves the remaining goal
/// once under `t₁ = t₂` and once under `t₁ ≠ t₂`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tactic {
    /// The script's `decide (t₁ = t₂)`, recorded in traces.
    pub name: String,
    /// `t₁`.
    pub lhs: Operand,
    /// `t₂`.
    pub rhs: Operand,
}

/// One side of a `decide` equation.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// An integer literal.
    Term(Term),
    /// A name the annotation binds: a spec binder, or an `∃` of the
    /// spec's pre- or postcondition. `atom` is the last atom of the
    /// binder's scope that mentions it; at a stuck point the name stands
    /// for what `hole` matches in each hypothesis that matches `atom`
    /// (whose other variables match anything).
    Bound {
        /// The atom the name is read from.
        atom: Atom,
        /// The name's placeholder in `atom`.
        hole: VarId,
    },
}

impl Operand {
    /// The terms this operand stands for in `ctx`, oldest hypothesis
    /// first.
    fn candidates(&self, ctx: &ProofCtx) -> Vec<Term> {
        match self {
            Operand::Term(t) => vec![t.clone()],
            Operand::Bound { atom, hole } => ctx
                .delta
                .iter()
                .filter_map(|h| {
                    let Assertion::Atom(a) = &h.assertion else {
                        return None;
                    };
                    let mut s = Subst::new();
                    match_atom(atom, a, &ctx.vars, &|_| true, &mut s)
                        .then(|| s.get(*hole).cloned())
                        .flatten()
                })
                .collect(),
        }
    }
}

impl Tactic {
    /// The proposition to split on at this stuck point, if the tactic
    /// applies here. When each operand stands for one term, the split is
    /// on their equation as written; when an operand matches several
    /// hypotheses, on the first pair (by `t₂`'s candidates, then `t₁`'s)
    /// that the pure solver cannot already decide.
    #[must_use]
    pub fn case_prop(&self, ctx: &ProofCtx) -> Option<PureProp> {
        let (ls, rs) = (self.lhs.candidates(ctx), self.rhs.candidates(ctx));
        if let ([l], [r]) = (ls.as_slice(), rs.as_slice()) {
            return Some(PureProp::eq(l.clone(), r.clone()));
        }
        let mut probe = None;
        for r in &rs {
            for l in &ls {
                let p = PureProp::eq(l.clone(), r.clone());
                let probe = probe.get_or_insert_with(|| ctx.clone());
                if !probe.prove_pure_frozen(&p) && !probe.prove_pure_frozen(&p.negated()) {
                    return Some(p);
                }
            }
        }
        None
    }
}

/// The hint search's switches, set only through the thread's scoped
/// override ([`with_ablation_override`]): three ablations of the
/// search-order decisions documented in DESIGN.md §5, each *disabling*
/// one decision so the benchmark harness can measure what it buys, and
/// the linear reference scan. All-false is the normal engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Ablation {
    /// Scan hypotheses oldest-first instead of newest-first.
    pub oldest_first: bool,
    /// Single-pass hint search: invariant-opening hints compete with
    /// direct hypothesis hints in one scan instead of being deferred to a
    /// second pass.
    pub single_pass: bool,
    /// Disable the prefer-allocation rule for ghost goals whose name is
    /// an unsolved evar (fresh ghosts may then capture an unrelated
    /// hypothesis's name).
    pub no_alloc_preference: bool,
    /// Probe every hypothesis, without the head index's structural skip
    /// (`index.rs`). Not an ablation but the reference scan the index is
    /// checked against: traces are identical by contract, only the probe
    /// counters move, so it is neither a row of the ablation table nor
    /// part of the proof-store key.
    pub linear_scan: bool,
}

impl Ablation {
    /// The normal engine (no ablation).
    #[must_use]
    pub const fn none() -> Ablation {
        Ablation {
            oldest_first: false,
            single_pass: false,
            no_alloc_preference: false,
            linear_scan: false,
        }
    }
}

std::thread_local! {
    static ABLATION_OVERRIDE: std::cell::Cell<Ablation> =
        const { std::cell::Cell::new(Ablation::none()) };
}

/// Runs `f` with every verification on this thread under the search
/// switches `a`; each verification reads them once, when its engine is
/// built. Used by the ablation benchmark to re-run unmodified examples
/// under degraded search orders, and by the equivalence oracles to run
/// the linear scan. The previous override is restored when `f` returns
/// or unwinds.
pub fn with_ablation_override<T>(a: Ablation, f: impl FnOnce() -> T) -> T {
    struct Restore(Ablation);
    impl Drop for Restore {
        fn drop(&mut self) {
            ABLATION_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(ABLATION_OVERRIDE.with(|c| c.replace(a)));
    f()
}

/// The ablation override currently active on this thread.
#[must_use]
pub fn current_ablation() -> Ablation {
    ABLATION_OVERRIDE.with(std::cell::Cell::get)
}

/// Options controlling one verification run.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// The spec's `Next Obligation.` script: tactics tried (in order) when
    /// the automation gets stuck.
    pub tactics: Vec<Tactic>,
    /// The annotation's `HINT` clauses, tried alongside the ghost
    /// libraries' hints.
    pub hints: Vec<Hint>,
    /// Step budget; the engine stops with a stuck report when exhausted.
    /// `0` means the default budget.
    pub fuel: u64,
}

impl VerifyOptions {
    /// The default options: full automation, no manual help.
    #[must_use]
    pub fn automatic() -> VerifyOptions {
        VerifyOptions::default()
    }

    /// The effective fuel.
    #[must_use]
    pub fn effective_fuel(&self) -> u64 {
        if self.fuel == 0 {
            200_000
        } else {
            self.fuel
        }
    }

    /// Lines of manual proof work this option set represents (script
    /// steps + hints), the unit of the paper's "proof burden" comparison.
    #[must_use]
    pub fn manual_steps(&self) -> usize {
        self.tactics.len() + self.hints.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_override_scoping() {
        let a = Ablation {
            oldest_first: true,
            ..Ablation::none()
        };
        let b = Ablation {
            linear_scan: true,
            ..Ablation::none()
        };
        assert_eq!(Ablation::none(), Ablation::default());
        assert_eq!(current_ablation(), Ablation::none());
        let inner = with_ablation_override(a, || {
            // Nested overrides replace, and restore on exit.
            let nested = with_ablation_override(b, current_ablation);
            assert_eq!(nested, b);
            current_ablation()
        });
        assert_eq!(inner, a);
        assert_eq!(current_ablation(), Ablation::none());
    }

    #[test]
    fn a_unique_pair_is_split_on_as_written_and_counts_once() {
        let split = Tactic {
            name: "decide (0 = 1)".to_owned(),
            lhs: Operand::Term(Term::int(0)),
            rhs: Operand::Term(Term::int(1)),
        };
        let ctx = ProofCtx::new(diaframe_logic::PredTable::new());
        let want = PureProp::eq(Term::int(0), Term::int(1));
        assert_eq!(split.case_prop(&ctx), Some(want));
        let opts = VerifyOptions {
            tactics: vec![split],
            ..VerifyOptions::automatic()
        };
        assert_eq!((opts.manual_steps(), opts.effective_fuel()), (1, 200_000));
    }
}
