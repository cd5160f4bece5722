//! The proof context: `Γ` (pure facts + variables) and `Δ` (spatial and
//! persistent hypotheses).

use crate::index::HeadSet;
use crate::symval::SymTable;
use diaframe_logic::{Assertion, MaskStore, PredTable};
use diaframe_term::solver::egraph::EGraph;
use diaframe_term::{PureProp, Subst, Term, VarCtx, VarId};

/// One hypothesis in `Δ`.
#[derive(Debug, Clone)]
pub struct Hyp {
    /// The (clean, §5.1) hypothesis.
    pub assertion: Assertion,
    /// Whether the hypothesis is persistent (usable without consumption).
    pub persistent: bool,
    /// A display name (`"H1"`, `"H2"`, …).
    pub name: String,
    /// Atom-head summary of `assertion`, letting `find_hint` skip
    /// structurally hopeless probes. Computed once at [`ProofCtx::add_hyp`]
    /// time: heads are term-independent, and every in-place rewrite the
    /// strategy performs (substitution, zonking, later-stripping,
    /// same-head resource merges) preserves them — see `index.rs`.
    pub heads: HeadSet,
}

/// The entire mutable proof state of one branch of the search.
///
/// Branching (hypothesis disjunctions, `if` on symbolic booleans, manual
/// case splits) clones the context, so sibling branches can never
/// interfere through shared evars. The clone of [`ProofCtx::vars`] shares
/// its storage copy-on-write: a branch copies a chunk of variables or
/// evars only when it writes to it (see [`diaframe_term::evar`]).
#[derive(Clone)]
pub struct ProofCtx {
    /// Variables and term evars.
    pub vars: VarCtx,
    /// Mask evars.
    pub masks: MaskStore,
    /// Abstract predicates of this verification.
    pub preds: PredTable,
    /// The pure context `Γ`.
    pub facts: Vec<PureProp>,
    /// The spatial/persistent context `Δ`.
    pub delta: Vec<Hyp>,
    /// The symbolic-value table.
    pub syms: SymTable,
    /// Pure goals postponed because they still contain unsolved evars
    /// (they are re-proved once the evars are determined — at the latest
    /// when the branch completes).
    pub pending_pure: Vec<PureProp>,
    next_hyp: u32,
    /// The incremental pure solver, kept in lockstep with `facts` by
    /// [`ProofCtx::add_fact`] / [`ProofCtx::truncate_facts`] (push and
    /// O(changes) rollback instead of rebuilds). Dropped to `None` by the
    /// whole-context rewrites (substitution, zonking) — those change
    /// every fact at once, so a rebuild at the next query is the honest
    /// cost — and rebuilt lazily when absent.
    egraph: Option<EGraph>,
}

/// The solver is internal state, not proof state: keep it out of `Debug`
/// so rendered contexts are identical regardless of its warm-up state.
impl std::fmt::Debug for ProofCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProofCtx")
            .field("vars", &self.vars)
            .field("masks", &self.masks)
            .field("preds", &self.preds)
            .field("facts", &self.facts)
            .field("delta", &self.delta)
            .field("syms", &self.syms)
            .field("pending_pure", &self.pending_pure)
            .field("next_hyp", &self.next_hyp)
            .finish_non_exhaustive()
    }
}

impl ProofCtx {
    /// An empty context over the given predicate table.
    #[must_use]
    pub fn new(preds: PredTable) -> ProofCtx {
        ProofCtx {
            vars: VarCtx::new(),
            masks: MaskStore::new(),
            preds,
            facts: Vec::new(),
            delta: Vec::new(),
            syms: SymTable::new(),
            pending_pure: Vec::new(),
            next_hyp: 0,
            egraph: None,
        }
    }

    /// Adds a pure fact to `Γ`.
    pub fn add_fact(&mut self, p: PureProp) {
        if p != PureProp::True {
            if let Some(eg) = &mut self.egraph {
                eg.push_fact(p.clone());
            }
            self.facts.push(p);
        }
    }

    /// Truncates `Γ` back to a previously recorded length (probe-loop
    /// rollback). All fact mutations must go through `ProofCtx` methods so
    /// the incremental solver stays in lockstep with `facts`.
    pub fn truncate_facts(&mut self, len: usize) {
        if len < self.facts.len() {
            if let Some(eg) = &mut self.egraph {
                eg.truncate_facts(len);
            }
            self.facts.truncate(len);
        }
    }

    /// Adds a hypothesis to `Δ`, returning its index.
    pub fn add_hyp(&mut self, assertion: Assertion, persistent: bool) -> usize {
        self.next_hyp += 1;
        let heads = HeadSet::of(&assertion);
        self.delta.push(Hyp {
            assertion,
            persistent,
            name: format!("H{}", self.next_hyp),
            heads,
        });
        self.delta.len() - 1
    }

    /// Removes a hypothesis by index.
    pub fn remove_hyp(&mut self, idx: usize) -> Hyp {
        self.delta.remove(idx)
    }

    /// Proves a pure proposition from `Γ` (may instantiate evars).
    pub fn prove_pure(&mut self, goal: &PureProp) -> bool {
        egraph_over(&mut self.egraph, &self.facts).prove(&mut self.vars, goal)
    }

    /// Proves a pure proposition without instantiating evars (for
    /// disjunction guards, §5.3).
    pub fn prove_pure_frozen(&mut self, goal: &PureProp) -> bool {
        egraph_over(&mut self.egraph, &self.facts).prove_frozen(&mut self.vars, goal)
    }

    /// Whether `Γ` is contradictory.
    pub fn inconsistent(&mut self) -> bool {
        egraph_over(&mut self.egraph, &self.facts).inconsistent(&mut self.vars)
    }

    /// Substitutes a variable by a term throughout the context (facts and
    /// hypotheses). Used by the cleaning step that eliminates equations
    /// `⌜x = t⌝` with `x` a variable.
    pub fn substitute_var(&mut self, v: VarId, t: &Term) {
        let s = Subst::single(v, t.clone());
        self.egraph = None;
        for f in &mut self.facts {
            *f = f.subst(&s);
        }
        for h in &mut self.delta {
            h.assertion = h.assertion.subst(&s);
        }
        self.syms.map_terms(|t| s.apply(t));
        self.vars.map_solutions(|t| s.apply(t));
    }
}

/// The incremental solver in `slot`, rebuilt from `facts` when absent
/// (context creation, or a whole-context rewrite).
fn egraph_over<'a>(slot: &'a mut Option<EGraph>, facts: &[PureProp]) -> &'a mut EGraph {
    slot.get_or_insert_with(|| {
        let mut sp = crate::profile::span(crate::profile::SpanKind::SolverBatch);
        sp.set_label("egraph-rebuild");
        crate::profile::bump(facts.len() as u64);
        EGraph::from_facts(facts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaframe_logic::Atom;
    use diaframe_term::Sort;

    #[test]
    fn facts_and_proving() {
        let mut ctx = ProofCtx::new(PredTable::new());
        let z = Term::var(ctx.vars.fresh_var(Sort::Int, "z"));
        ctx.add_fact(PureProp::lt(Term::int(0), z.clone()));
        assert!(ctx.prove_pure(&PureProp::le(Term::int(1), z.clone())));
        assert!(!ctx.inconsistent());
        ctx.add_fact(PureProp::eq(z, Term::int(0)));
        assert!(ctx.inconsistent());
    }

    #[test]
    fn hypothesis_management() {
        let mut ctx = ProofCtx::new(PredTable::new());
        let i = ctx.add_hyp(
            Assertion::atom(Atom::points_to(Term::Loc(0), Term::v_unit())),
            false,
        );
        assert_eq!(ctx.delta.len(), 1);
        assert_eq!(ctx.delta[i].name, "H1");
        let h = ctx.remove_hyp(i);
        assert!(!h.persistent);
        assert!(ctx.delta.is_empty());
    }

    #[test]
    fn substitution_reaches_everything() {
        let mut ctx = ProofCtx::new(PredTable::new());
        let v = ctx.vars.fresh_var(Sort::Val, "v");
        let l = Term::var(ctx.vars.fresh_var(Sort::Loc, "l"));
        ctx.add_fact(PureProp::ne(Term::var(v), Term::v_unit()));
        ctx.add_hyp(
            Assertion::atom(Atom::points_to(l.clone(), Term::var(v))),
            false,
        );
        ctx.substitute_var(v, &Term::v_int_lit(3));
        assert_eq!(
            ctx.facts[0],
            PureProp::ne(Term::v_int_lit(3), Term::v_unit())
        );
        assert_eq!(
            ctx.delta[0].assertion,
            Assertion::atom(Atom::points_to(l, Term::v_int_lit(3)))
        );
    }
}
