//! Proof traces — the machine-checkable record of a proof search.
//!
//! Every rule the strategy applies appends a [`TraceStep`]. The trace is
//! the foundational artifact of this reproduction: the [`crate::checker`]
//! replays it independently of the heuristic search, re-validating pure
//! obligations and the invariant-mask discipline.

use diaframe_logic::Namespace;
use diaframe_term::{PureProp, VarCtx};
use std::collections::BTreeSet;

/// One step of the proof.
#[derive(Debug, Clone)]
pub enum TraceStep {
    /// A universal variable was introduced (case 1 of §5.2).
    IntroVar {
        /// Display name of the variable.
        name: String,
    },
    /// A hypothesis was introduced and cleaned (case 2).
    IntroHyp {
        /// Rendering of the hypothesis.
        hyp: String,
    },
    /// A pure fact entered `Γ`.
    Fact {
        /// The fact.
        prop: PureProp,
    },
    /// A pure program step (β-reduction, projections, arithmetic on
    /// literals, …).
    PureStep {
        /// Which reduction fired.
        rule: &'static str,
    },
    /// `sym-ex-fupd-exist` was applied (case 3b).
    SymEx {
        /// The specification used (primitive name or function name).
        spec: String,
        /// Whether the expression was atomic (invariants may stay open).
        atomic: bool,
    },
    /// A bi-abduction hint was applied (case 5d).
    HintApplied {
        /// The chain of rule names (e.g. `["inv-open", "token-mutate-incr"]`).
        rules: Vec<String>,
        /// The hypothesis it keyed on (`None` for `ε₁` hints).
        hyp: Option<String>,
        /// Whether a user-provided hint was involved.
        custom: bool,
    },
    /// An invariant was opened.
    InvOpened {
        /// Its namespace.
        ns: Namespace,
    },
    /// An invariant was closed.
    InvClosed {
        /// Its namespace.
        ns: Namespace,
    },
    /// A pure obligation was discharged; recorded with the facts in scope
    /// and a snapshot of the variable context so the checker can re-prove
    /// it from scratch.
    PureObligation {
        /// The facts available.
        facts: Vec<PureProp>,
        /// The proposition proved.
        goal: PureProp,
        /// Snapshot of the variable context (sorts for the solver).
        vars: VarCtx,
    },
    /// The context was found contradictory (vacuous branch).
    Contradiction {
        /// The rule detecting it (e.g. `locked-unique`).
        rule: String,
    },
    /// A case split started `branches` sub-proofs.
    CaseSplit {
        /// What the split is on.
        on: String,
        /// Number of branches.
        branches: usize,
    },
    /// A branch of the latest case split begins.
    BranchStart {
        /// Its index.
        index: usize,
    },
    /// The branch ends (successfully).
    BranchEnd {
        /// Its index.
        index: usize,
    },
    /// The `wp` reached a value (case 3a).
    ValueReached,
    /// A user tactic was consumed (manual proof work).
    TacticUsed {
        /// Description of the tactic.
        name: String,
    },
    /// A disjunct was chosen by guard reasoning (§5.3).
    DisjunctChosen {
        /// `"left"` or `"right"`.
        side: &'static str,
        /// Why (guard refuted / proved / backtracking).
        reason: &'static str,
    },
}

/// The kind (discriminant) of a [`TraceStep`], used by
/// [`crate::telemetry`] to count rule applications per step kind and by
/// the JSON codec ([`crate::trace_json`]) as the step tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // mirrors the TraceStep variants one-for-one
pub enum TraceKind {
    IntroVar,
    IntroHyp,
    Fact,
    PureStep,
    SymEx,
    HintApplied,
    InvOpened,
    InvClosed,
    PureObligation,
    Contradiction,
    CaseSplit,
    BranchStart,
    BranchEnd,
    ValueReached,
    TacticUsed,
    DisjunctChosen,
}

impl TraceKind {
    /// Number of step kinds.
    pub const COUNT: usize = 16;

    /// Every kind, in declaration order (the order of
    /// [`TraceKind::index`]).
    pub const ALL: [TraceKind; TraceKind::COUNT] = [
        TraceKind::IntroVar,
        TraceKind::IntroHyp,
        TraceKind::Fact,
        TraceKind::PureStep,
        TraceKind::SymEx,
        TraceKind::HintApplied,
        TraceKind::InvOpened,
        TraceKind::InvClosed,
        TraceKind::PureObligation,
        TraceKind::Contradiction,
        TraceKind::CaseSplit,
        TraceKind::BranchStart,
        TraceKind::BranchEnd,
        TraceKind::ValueReached,
        TraceKind::TacticUsed,
        TraceKind::DisjunctChosen,
    ];

    /// A stable dense index, suitable for counter arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stable snake_case name used as the JSON key for this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::IntroVar => "intro_var",
            TraceKind::IntroHyp => "intro_hyp",
            TraceKind::Fact => "fact",
            TraceKind::PureStep => "pure_step",
            TraceKind::SymEx => "sym_ex",
            TraceKind::HintApplied => "hint_applied",
            TraceKind::InvOpened => "inv_opened",
            TraceKind::InvClosed => "inv_closed",
            TraceKind::PureObligation => "pure_obligation",
            TraceKind::Contradiction => "contradiction",
            TraceKind::CaseSplit => "case_split",
            TraceKind::BranchStart => "branch_start",
            TraceKind::BranchEnd => "branch_end",
            TraceKind::ValueReached => "value_reached",
            TraceKind::TacticUsed => "tactic_used",
            TraceKind::DisjunctChosen => "disjunct_chosen",
        }
    }

    /// The inverse of [`TraceKind::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<TraceKind> {
        TraceKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl TraceStep {
    /// The kind of this step.
    #[must_use]
    pub fn kind(&self) -> TraceKind {
        match self {
            TraceStep::IntroVar { .. } => TraceKind::IntroVar,
            TraceStep::IntroHyp { .. } => TraceKind::IntroHyp,
            TraceStep::Fact { .. } => TraceKind::Fact,
            TraceStep::PureStep { .. } => TraceKind::PureStep,
            TraceStep::SymEx { .. } => TraceKind::SymEx,
            TraceStep::HintApplied { .. } => TraceKind::HintApplied,
            TraceStep::InvOpened { .. } => TraceKind::InvOpened,
            TraceStep::InvClosed { .. } => TraceKind::InvClosed,
            TraceStep::PureObligation { .. } => TraceKind::PureObligation,
            TraceStep::Contradiction { .. } => TraceKind::Contradiction,
            TraceStep::CaseSplit { .. } => TraceKind::CaseSplit,
            TraceStep::BranchStart { .. } => TraceKind::BranchStart,
            TraceStep::BranchEnd { .. } => TraceKind::BranchEnd,
            TraceStep::ValueReached => TraceKind::ValueReached,
            TraceStep::TacticUsed { .. } => TraceKind::TacticUsed,
            TraceStep::DisjunctChosen { .. } => TraceKind::DisjunctChosen,
        }
    }
}

/// The full trace of one verification.
#[derive(Debug, Clone, Default)]
pub struct ProofTrace {
    steps: Vec<TraceStep>,
}

impl ProofTrace {
    #[must_use]
    /// An empty trace.
    pub fn new() -> ProofTrace {
        ProofTrace::default()
    }

    /// Appends a step.
    pub fn push(&mut self, step: TraceStep) {
        self.steps.push(step);
    }

    /// Drops every step from index `len` on. The search only appends to
    /// the trace, so truncating to an earlier length restores the trace
    /// as it was then (disjunction backtracking).
    pub fn truncate(&mut self, len: usize) {
        self.steps.truncate(len);
    }

    /// All steps, in order.
    #[must_use]
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    #[must_use]
    /// Whether the trace has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The distinct hint rules used (the paper's "hints used" column).
    #[must_use]
    pub fn hints_used(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for s in &self.steps {
            if let TraceStep::HintApplied { rules, .. } = s {
                for r in rules {
                    out.insert(r.clone());
                }
            }
        }
        out
    }

    /// The distinct *custom* (user-provided) hint rules used.
    #[must_use]
    pub fn custom_hints_used(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for s in &self.steps {
            if let TraceStep::HintApplied {
                rules,
                custom: true,
                ..
            } = s
            {
                for r in rules {
                    out.insert(r.clone());
                }
            }
        }
        out
    }

    /// Number of user tactics consumed (manual proof work).
    #[must_use]
    pub fn tactics_used(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, TraceStep::TacticUsed { .. }))
            .count()
    }

    /// Number of symbolic execution steps.
    #[must_use]
    pub fn symex_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, TraceStep::SymEx { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_hint_statistics() {
        let mut t = ProofTrace::new();
        t.push(TraceStep::HintApplied {
            rules: vec!["inv-open".into(), "token-mutate-incr".into()],
            hyp: Some("H1".into()),
            custom: false,
        });
        t.push(TraceStep::HintApplied {
            rules: vec!["my-custom".into()],
            hyp: None,
            custom: true,
        });
        t.push(TraceStep::TacticUsed {
            name: "case z = 1".into(),
        });
        assert_eq!(t.hints_used().len(), 3);
        assert_eq!(t.custom_hints_used().len(), 1);
        assert_eq!(t.tactics_used(), 1);
        assert_eq!(t.len(), 3);
    }

    /// A recorded obligation shares the live context's storage, so every
    /// later mutation of the live context (solving, level pruning,
    /// solution rewrites, rollback, fresh entries in a shared chunk) must
    /// copy before it writes and leave the snapshot's text unchanged.
    #[test]
    fn recorded_snapshot_is_isolated_from_the_live_context() {
        use diaframe_term::{EVarId, Sort, Subst, Term, VarId};
        let mut vars = VarCtx::new();
        vars.push_level();
        // More than one chunk of each, with a partly filled last chunk.
        let xs: Vec<VarId> = (0..40)
            .map(|i| vars.fresh_var(Sort::Int, &format!("x{i}")))
            .collect();
        let es: Vec<EVarId> = (0..45).map(|_| vars.fresh_evar(Sort::Int)).collect();
        vars.solve_evar(es[3], Term::var(xs[1]));
        vars.solve_evar(es[40], Term::add(Term::var(xs[2]), Term::int(1)));

        let mut t = ProofTrace::new();
        t.push(TraceStep::PureObligation {
            facts: vec![PureProp::Eq(Term::var(xs[0]), Term::int(0))],
            goal: PureProp::Le(Term::int(0), Term::var(xs[0])),
            vars: vars.clone(),
        });
        let recorded = format!("{:?}", t.steps()[0]);

        let mark = vars.checkpoint();
        vars.solve_evar(es[0], Term::int(5));
        vars.solve_evar(es[44], Term::int(6));
        vars.lower_evar_level(es[1], 0);
        vars.fresh_var(Sort::Int, "late");
        vars.fresh_evar(Sort::Int);
        vars.map_solutions(|t| Subst::single(xs[1], Term::int(9)).apply(t));
        assert_eq!(format!("{:?}", t.steps()[0]), recorded);
        vars.rollback(&mark);
        vars.solve_evar(es[10], Term::int(7));
        assert_eq!(format!("{:?}", t.steps()[0]), recorded);
    }

    #[test]
    fn accessors_on_empty_trace() {
        let t = ProofTrace::new();
        assert!(t.is_empty());
        assert!(t.hints_used().is_empty());
        assert!(t.custom_hints_used().is_empty());
        assert_eq!(t.tactics_used(), 0);
        assert_eq!(t.symex_steps(), 0);
    }

    #[test]
    fn hints_used_deduplicates_and_ignores_non_hints() {
        let mut t = ProofTrace::new();
        // The same rule fired twice must count once; a custom hint's rules
        // appear in `hints_used` too (it is the union).
        for _ in 0..2 {
            t.push(TraceStep::HintApplied {
                rules: vec!["points-to-agree".into()],
                hyp: Some("H2".into()),
                custom: false,
            });
        }
        t.push(TraceStep::HintApplied {
            rules: vec!["user-rule".into()],
            hyp: None,
            custom: true,
        });
        t.push(TraceStep::SymEx {
            spec: "CmpXchg".into(),
            atomic: true,
        });
        t.push(TraceStep::ValueReached);
        assert_eq!(
            t.hints_used().into_iter().collect::<Vec<_>>(),
            vec!["points-to-agree".to_owned(), "user-rule".to_owned()]
        );
        assert_eq!(
            t.custom_hints_used().into_iter().collect::<Vec<_>>(),
            vec!["user-rule".to_owned()]
        );
        assert_eq!(t.tactics_used(), 0);
        assert_eq!(t.symex_steps(), 1);
    }

    #[test]
    fn kind_classification_is_total_and_stable() {
        // Every kind has a distinct index and a distinct name, and
        // `from_name` inverts `name`.
        let mut seen = std::collections::BTreeSet::new();
        for (i, k) in TraceKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(seen.insert(k.name()), "duplicate kind name {}", k.name());
            assert_eq!(TraceKind::from_name(k.name()), Some(k));
        }
        assert_eq!(seen.len(), TraceKind::COUNT);
        assert_eq!(TraceKind::from_name("nonsense"), None);
        assert_eq!(TraceStep::ValueReached.kind(), TraceKind::ValueReached);
        assert_eq!(
            TraceStep::PureStep { rule: "if-true" }.kind(),
            TraceKind::PureStep
        );
    }
}
