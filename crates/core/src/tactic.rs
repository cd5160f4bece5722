//! User tactics and verification options — the interactive escape hatch.
//!
//! When the automation gets stuck, the paper's workflow (§2.2, §6) is: the
//! user inspects the proof state and helps with a manual step (a case
//! distinction like `destruct (decide (x2 = 1))` in the ARC `drop` proof),
//! a custom bi-abduction hint, or opt-in backtracking on disjunctions.
//! Every consumed tactic and custom hint counts as *manual proof work* in
//! the Figure 6 statistics.

use crate::ctx::ProofCtx;
use diaframe_ghost::HintCandidate;
use diaframe_logic::Atom;
use diaframe_term::{PureProp, VarCtx};
use std::sync::Arc;

/// A function inspecting the stuck proof context and producing the
/// proposition to case-split on.
pub type CaseSplitFn = Arc<dyn Fn(&ProofCtx) -> Option<PureProp> + Send + Sync>;

/// A user-provided hypothesis-directed hint: given a hypothesis atom and
/// the goal atom, produce candidates.
pub type CustomHintFn = Arc<dyn Fn(&mut VarCtx, &Atom, &Atom) -> Vec<HintCandidate> + Send + Sync>;

/// A user-provided last-resort (`ε₁`) hint: candidates for a goal atom
/// with no keying hypothesis — e.g. folding a recursive predicate.
pub type CustomAllocFn = Arc<dyn Fn(&mut VarCtx, &Atom) -> Vec<HintCandidate> + Send + Sync>;

/// A function probing the stuck context for a hypothesis to *unfold*:
/// returns the hypothesis index and its replacement assertion. The
/// replacement must be a definitional unfolding of the hypothesis — this
/// is the trusted counterpart of the paper's user-provided lemmas backing
/// custom hints (see DESIGN.md).
pub type UnfoldFn = Arc<dyn Fn(&mut ProofCtx) -> Option<(usize, Assertion)> + Send + Sync>;

use diaframe_logic::Assertion;

/// A user tactic, consumed in order when the automation gets stuck.
#[derive(Clone)]
pub enum Tactic {
    /// Case split on a pure proposition (`destruct (decide φ)`): the
    /// remaining goal is proved once under `φ` and once under `¬φ`.
    CasePure {
        /// Description for the trace.
        name: String,
        /// Computes the proposition from the stuck context.
        prop: CaseSplitFn,
    },
    /// Commit to the left disjunct of a stuck goal disjunction.
    ChooseLeft,
    /// Commit to the right disjunct of a stuck goal disjunction.
    ChooseRight,
    /// Replace a hypothesis by its definitional unfolding (recursive
    /// predicates).
    UnfoldHyp {
        /// Description for the trace.
        name: String,
        /// Probes the context for an unfoldable hypothesis.
        probe: UnfoldFn,
    },
}

impl std::fmt::Debug for Tactic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tactic::CasePure { name, .. } => write!(f, "CasePure({name})"),
            Tactic::ChooseLeft => write!(f, "ChooseLeft"),
            Tactic::ChooseRight => write!(f, "ChooseRight"),
            Tactic::UnfoldHyp { name, .. } => write!(f, "UnfoldHyp({name})"),
        }
    }
}

/// Ablation switches for the search-order design decisions documented in
/// DESIGN.md §5. Each switch *disables* one decision, so the benchmark
/// harness can measure what that decision buys. All-false is the normal
/// engine.
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
}

impl Ablation {
    /// The normal engine (no ablation).
    #[must_use]
    pub fn none() -> Ablation {
        Ablation::default()
    }

    /// Field-wise OR of two ablation sets.
    #[must_use]
    pub fn merged(self, other: Ablation) -> Ablation {
        Ablation {
            oldest_first: self.oldest_first || other.oldest_first,
            single_pass: self.single_pass || other.single_pass,
            no_alloc_preference: self.no_alloc_preference || other.no_alloc_preference,
        }
    }
}

std::thread_local! {
    static ABLATION_OVERRIDE: std::cell::Cell<Ablation> =
        const { std::cell::Cell::new(Ablation {
            oldest_first: false,
            single_pass: false,
            no_alloc_preference: false,
        }) };
}

/// Runs `f` with every verification on this thread ablated by `a` (merged
/// into each run's own [`VerifyOptions::ablation`]). Used by the ablation
/// benchmark to re-run unmodified examples under degraded search orders.
/// The previous override is restored when `f` returns or unwinds.
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
#[derive(Clone, Default)]
pub struct VerifyOptions {
    /// Tactics consumed (in order) when the automation gets stuck — the
    /// "proof script".
    pub tactics: Vec<Tactic>,
    /// User-provided bi-abduction hints, tried alongside the ghost
    /// libraries' hints.
    pub custom_hints: Vec<(String, CustomHintFn)>,
    /// User-provided last-resort hints (folding recursive predicates).
    pub custom_alloc_hints: Vec<(String, CustomAllocFn)>,
    /// Opt-in backtracking for goal disjunctions (§5.3's last paragraph).
    pub backtrack_disjunctions: bool,
    /// Step budget; the engine stops with a stuck report when exhausted.
    /// `0` means the default budget.
    pub fuel: u64,
    /// Disabled search-order decisions (benchmark ablations); all-false
    /// for the normal engine.
    pub ablation: Ablation,
}

impl std::fmt::Debug for VerifyOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyOptions")
            .field("tactics", &self.tactics)
            .field(
                "custom_hints",
                &self.custom_hints.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            )
            .field("backtrack_disjunctions", &self.backtrack_disjunctions)
            .field("fuel", &self.fuel)
            .field("ablation", &self.ablation)
            .finish()
    }
}

impl Tactic {
    /// The tactic's name as recorded in traces.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Tactic::CasePure { name, .. } | Tactic::UnfoldHyp { name, .. } => name,
            Tactic::ChooseLeft => "left",
            Tactic::ChooseRight => "right",
        }
    }
}

impl VerifyOptions {
    /// The default options: full automation, no manual help.
    #[must_use]
    pub fn automatic() -> VerifyOptions {
        VerifyOptions::default()
    }

    /// Adds a case-split tactic.
    #[must_use]
    pub fn with_case_split(
        mut self,
        name: &str,
        f: impl Fn(&ProofCtx) -> Option<PureProp> + Send + Sync + 'static,
    ) -> VerifyOptions {
        self.tactics.push(Tactic::CasePure {
            name: name.to_owned(),
            prop: Arc::new(f),
        });
        self
    }

    /// Adds a custom hint.
    #[must_use]
    pub fn with_custom_hint(
        mut self,
        name: &str,
        f: impl Fn(&mut VarCtx, &Atom, &Atom) -> Vec<HintCandidate> + Send + Sync + 'static,
    ) -> VerifyOptions {
        self.custom_hints.push((name.to_owned(), Arc::new(f)));
        self
    }

    /// Adds a custom last-resort hint.
    #[must_use]
    pub fn with_custom_alloc(
        mut self,
        name: &str,
        f: impl Fn(&mut VarCtx, &Atom) -> Vec<HintCandidate> + Send + Sync + 'static,
    ) -> VerifyOptions {
        self.custom_alloc_hints.push((name.to_owned(), Arc::new(f)));
        self
    }

    /// Adds an unfold tactic for recursive predicates.
    #[must_use]
    pub fn with_unfold(
        mut self,
        name: &str,
        f: impl Fn(&mut ProofCtx) -> Option<(usize, Assertion)> + Send + Sync + 'static,
    ) -> VerifyOptions {
        self.tactics.push(Tactic::UnfoldHyp {
            name: name.to_owned(),
            probe: Arc::new(f),
        });
        self
    }

    /// Enables disjunction backtracking.
    #[must_use]
    pub fn with_backtracking(mut self) -> VerifyOptions {
        self.backtrack_disjunctions = true;
        self
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

    /// Lines of manual proof work this option set represents (tactics +
    /// custom hints), the unit of the paper's "proof burden" comparison.
    #[must_use]
    pub fn manual_steps(&self) -> usize {
        self.tactics.len() + self.custom_hints.len() + self.custom_alloc_hints.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_merge_and_override_scoping() {
        let a = Ablation {
            oldest_first: true,
            ..Ablation::none()
        };
        let b = Ablation {
            single_pass: true,
            ..Ablation::none()
        };
        let m = a.merged(b);
        assert!(m.oldest_first && m.single_pass && !m.no_alloc_preference);
        assert_eq!(Ablation::none().merged(Ablation::none()), Ablation::none());

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
    fn builder_and_accounting() {
        let opts = VerifyOptions::automatic()
            .with_case_split("z = 1", |_| Some(PureProp::True))
            .with_backtracking();
        assert_eq!(opts.tactics.len(), 1);
        assert!(opts.backtrack_disjunctions);
        assert_eq!(opts.manual_steps(), 1);
        assert_eq!(VerifyOptions::automatic().manual_steps(), 0);
        assert!(opts.effective_fuel() > 0);
    }
}
