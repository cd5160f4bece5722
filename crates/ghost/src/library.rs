//! The [`GhostLibrary`] trait and the library [`Registry`].

use diaframe_logic::{Assertion, Atom, GhostAtom, GhostKind};
use diaframe_term::{PureProp, Sort, Term, VarCtx};

/// One candidate bi-abduction hint
/// `H ∗ [y⃗; L] ⊫ [|⇛E E] x⃗; A ∗ [U]` (§4.1 of the paper) proposed by a
/// library for a (hypothesis, goal-atom) pair.
///
/// The engine applies a candidate by (1) checkpointing, (2) unifying the
/// listed `unifications` pairs, (3) discharging the pure `guards` with its
/// solver, and — only if all succeed — committing: the `side` condition
/// becomes the next left-goal and the `residue` is handed to the
/// continuation. On failure it rolls back and tries the next candidate
/// (*local* backtracking only, as in §4.1).
#[derive(Debug, Clone)]
pub struct HintCandidate {
    /// Rule name for traces (e.g. `"token-mutate-decr"`).
    pub name: &'static str,
    /// Term pairs the engine must unify for the candidate to apply.
    pub unifications: Vec<(Term, Term)>,
    /// Pure side conditions that select the candidate (may instantiate
    /// evars, e.g. `⌜q = p + 1⌝`).
    pub guards: Vec<PureProp>,
    /// The spatial side condition `L` (proved *before* the residue is
    /// available); [`Assertion::emp`] when absent.
    pub side: Assertion,
    /// The residue `U` handed to the continuation.
    pub residue: Assertion,
    /// Pure facts learned by applying the rule (added to `Γ`).
    pub learned: Vec<PureProp>,
}

impl HintCandidate {
    /// A candidate with no unifications, guards, side condition or residue.
    #[must_use]
    pub fn new(name: &'static str) -> HintCandidate {
        HintCandidate {
            name,
            unifications: Vec::new(),
            guards: Vec::new(),
            side: Assertion::emp(),
            residue: Assertion::emp(),
            learned: Vec::new(),
        }
    }

    /// Adds a unification obligation.
    #[must_use]
    pub fn unify(mut self, a: Term, b: Term) -> HintCandidate {
        self.unifications.push((a, b));
        self
    }

    /// Adds a pure guard.
    #[must_use]
    pub fn guard(mut self, p: PureProp) -> HintCandidate {
        self.guards.push(p);
        self
    }

    /// Sets the spatial side condition.
    #[must_use]
    pub fn side(mut self, side: Assertion) -> HintCandidate {
        self.side = side;
        self
    }

    /// Sets the residue.
    #[must_use]
    pub fn residue(mut self, residue: Assertion) -> HintCandidate {
        self.residue = residue;
        self
    }

    /// Adds a learned pure fact.
    #[must_use]
    pub fn learn(mut self, p: PureProp) -> HintCandidate {
        self.learned.push(p);
        self
    }
}

/// Outcome of merging two simultaneously-owned ghost atoms of one library
/// (the *interaction* rules).
#[derive(Debug, Clone)]
pub enum MergeOutcome {
    /// Owning both is contradictory (e.g. `locked γ ∗ locked γ`): the
    /// current goal is vacuously provable.
    Contradiction {
        /// Rule name for the trace.
        rule: &'static str,
    },
    /// The two atoms merge into one, learning pure facts (e.g. two
    /// fractional ghost-variable halves agree on the value).
    Merged {
        /// Rule name for the trace.
        rule: &'static str,
        /// The merged atom.
        atom: GhostAtom,
        /// Facts learned.
        facts: Vec<PureProp>,
    },
    /// Both atoms stay, but facts are learned (e.g. authority + fragment
    /// implies a bound).
    Facts {
        /// Rule name for the trace.
        rule: &'static str,
        /// Facts learned.
        facts: Vec<PureProp>,
    },
}

/// A ghost-state library: a family of ghost-assertion kinds with their
/// allocation, interaction and mutation rules.
///
/// Methods that build [`HintCandidate`]s may allocate fresh variables in
/// the [`VarCtx`] (for rule binders like `token-allocate`'s fresh `γ`) but
/// must **not** unify — unification is the engine's job, under a rollback
/// point.
pub trait GhostLibrary: Send + Sync {
    /// The library's name.
    fn name(&self) -> &'static str;

    /// The kinds this library owns.
    fn kinds(&self) -> Vec<GhostKind>;

    /// Whether atoms of this kind are persistent (duplicable).
    fn is_persistent(&self, atom: &GhostAtom) -> bool {
        let _ = atom;
        false
    }

    /// Pure facts implied by owning a single atom (validity of the
    /// underlying RA element, e.g. `counter P γ p ⊢ 0 < p`).
    fn implied_facts(&self, atom: &GhostAtom) -> Vec<PureProp> {
        let _ = atom;
        Vec::new()
    }

    /// Persistent assertions *derived* from owning an atom, added to the
    /// context alongside it (e.g. owning the monotone authority `mono γ n`
    /// derives the persistent lower bound `mono_lb γ n`). Must be
    /// persistent consequences: `atom ⊢ atom ∗ derived`.
    fn derived(&self, atom: &GhostAtom) -> Vec<GhostAtom> {
        let _ = atom;
        Vec::new()
    }

    /// Interaction rule for two owned atoms of this library *with
    /// syntactically equal ghost names*. `None` when no rule applies (both
    /// stay in the context independently).
    fn merge(&self, ctx: &mut VarCtx, a: &GhostAtom, b: &GhostAtom) -> Option<MergeOutcome> {
        let _ = (ctx, a, b);
        None
    }

    /// Mutation/conversion hints from hypothesis `hyp` (one of this
    /// library's kinds) towards the goal atom `goal`. The goal may be a
    /// ghost atom of this library or any other atom the library knows how
    /// to reach (e.g. `token-access` reaches `P q`). Candidates are tried
    /// in order.
    fn hints(&self, ctx: &mut VarCtx, hyp: &GhostAtom, goal: &Atom) -> Vec<HintCandidate> {
        let _ = (ctx, hyp, goal);
        Vec::new()
    }

    /// Last-resort allocation hints (`ε₁` hints) for a goal atom of this
    /// library's kinds.
    fn allocations(&self, ctx: &mut VarCtx, goal: &GhostAtom) -> Vec<HintCandidate> {
        let _ = (ctx, goal);
        Vec::new()
    }
}

/// The registry of ghost libraries consulted by the proof search.
#[derive(Default)]
pub struct Registry {
    libs: Vec<Box<dyn GhostLibrary>>,
}

/// How an annotation writes one ghost atom: `kind.name γ args…`, with
/// the library's abstract predicate first when `pred` is set
/// (`counter P γ z`). The annotation elaborator looks atoms up by
/// `kind.name` and checks the argument sorts against `args`.
#[derive(Debug, Clone, Copy)]
pub struct AtomSig {
    /// The kind; its `name` is the atom's name in annotation text.
    pub kind: GhostKind,
    /// Whether the atom takes an abstract predicate before the ghost name.
    pub pred: bool,
    /// Sorts of the term arguments after the ghost name.
    pub args: &'static [Sort],
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field(
                "libs",
                &self.libs.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The standard registry with all built-in libraries.
    #[must_use]
    pub fn standard() -> Registry {
        let mut r = Registry::new();
        r.register(Box::new(crate::excl_token::ExclTokenLib));
        r.register(Box::new(crate::counting::CountingLib));
        r.register(Box::new(crate::tickets::TicketLib));
        r.register(Box::new(crate::oneshot::OneShotLib));
        r.register(Box::new(crate::gvar::GVarLib));
        r.register(Box::new(crate::monotone::MonotoneLib));
        r
    }

    /// The ghost atoms of the built-in libraries, by annotation name
    /// (the name table of [`Registry::standard`]).
    #[must_use]
    pub fn standard_atoms() -> Vec<AtomSig> {
        use crate::{counting, excl_token, gvar, monotone, oneshot, tickets};
        let sig = |kind, pred, args| AtomSig { kind, pred, args };
        vec![
            sig(excl_token::LOCKED, false, &[]),
            sig(counting::COUNTER, true, &[Sort::Int]),
            sig(counting::TOKEN, true, &[]),
            sig(counting::NO_TOKENS, true, &[Sort::Qp]),
            sig(tickets::TICKETS_AUTH, false, &[Sort::Int]),
            sig(tickets::TICKET, false, &[Sort::Int]),
            sig(oneshot::PENDING, false, &[]),
            sig(oneshot::SHOT, false, &[Sort::Val]),
            sig(gvar::GVAR, false, &[Sort::Qp, Sort::Val]),
            sig(monotone::MONO_AUTH, false, &[Sort::Int]),
            sig(monotone::MONO_LB, false, &[Sort::Int]),
        ]
    }

    /// Registers a library.
    pub fn register(&mut self, lib: Box<dyn GhostLibrary>) {
        self.libs.push(lib);
    }

    /// The library owning a kind, if any.
    #[must_use]
    pub fn library_for(&self, kind: GhostKind) -> Option<&dyn GhostLibrary> {
        self.libs
            .iter()
            .map(AsRef::as_ref)
            .find(|l| l.kinds().contains(&kind))
    }

    /// All registered libraries.
    pub fn iter(&self) -> impl Iterator<Item = &dyn GhostLibrary> {
        self.libs.iter().map(AsRef::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_owns_all_kinds() {
        let r = Registry::standard();
        assert!(r.library_for(crate::excl_token::LOCKED).is_some());
        assert!(r.library_for(crate::counting::COUNTER).is_some());
        assert!(r.library_for(crate::tickets::TICKET).is_some());
        assert!(r.library_for(crate::oneshot::PENDING).is_some());
        assert!(r.library_for(crate::gvar::GVAR).is_some());
        assert!(r.library_for(crate::monotone::MONO_AUTH).is_some());
        assert!(r
            .library_for(GhostKind {
                id: 9999,
                name: "unknown"
            })
            .is_none());
    }

    #[test]
    fn candidate_builder() {
        let c = HintCandidate::new("test")
            .guard(PureProp::True)
            .learn(PureProp::True);
        assert_eq!(c.name, "test");
        assert_eq!(c.guards.len(), 1);
        assert_eq!(c.learned.len(), 1);
        assert!(c.side.is_emp());
        assert!(c.residue.is_emp());
    }
}
