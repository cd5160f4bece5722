//! The first-order term language.
//!
//! Terms are persistent: an application's arguments sit behind an `Arc`,
//! and the rewrites ([`Term::zonk`], [`crate::Subst::apply`]) rebuild only
//! the spine above what they change. Every argument they leave alone
//! stays shared (`Arc::ptr_eq`) with the input, and a term with nothing
//! to rewrite comes back as a clone of itself.

use crate::evar::{EVarId, VarCtx, VarId};
use crate::qp::Qp;
use crate::sort::Sort;
use std::sync::Arc;

/// Function symbols.
///
/// The `V*` symbols embed HeapLang values into the sort [`Sort::Val`]; the
/// arithmetic symbols are polymorphic over the numeric sorts
/// ([`Sort::Int`] and [`Sort::Qp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sym {
    /// Numeric addition.
    Add,
    /// Numeric subtraction.
    Sub,
    /// Numeric negation.
    Neg,
    /// Numeric multiplication (the solver only handles linear occurrences).
    Mul,
    /// Integer minimum.
    Min,
    /// Integer maximum.
    Max,
    /// `ℤ → val` embedding.
    VInt,
    /// `bool → val` embedding.
    VBool,
    /// `() → val` embedding (nullary).
    VUnit,
    /// `loc → val` embedding.
    VLoc,
    /// Value pairing `val → val → val`.
    VPair,
    /// Left injection `val → val`.
    VInjL,
    /// Right injection `val → val`.
    VInjR,
    /// Pair projections `val → val` (reduced eagerly when applied to `VPair`).
    Fst,
    /// See [`Sym::Fst`].
    Snd,
}

impl Sym {
    /// Number of arguments the symbol takes.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            Sym::VUnit => 0,
            Sym::Neg
            | Sym::VInt
            | Sym::VBool
            | Sym::VLoc
            | Sym::VInjL
            | Sym::VInjR
            | Sym::Fst
            | Sym::Snd => 1,
            Sym::Add | Sym::Sub | Sym::Mul | Sym::Min | Sym::Max | Sym::VPair => 2,
        }
    }

    /// Whether the symbol is an injective value constructor, so that
    /// congruence closure may decompose equalities on it and derive
    /// disequalities between distinct heads.
    #[must_use]
    pub fn is_value_ctor(self) -> bool {
        matches!(
            self,
            Sym::VInt | Sym::VBool | Sym::VUnit | Sym::VLoc | Sym::VPair | Sym::VInjL | Sym::VInjR
        )
    }

    /// Whether this is one of the arithmetic symbols normalised by
    /// [`crate::normalize`].
    #[must_use]
    pub fn is_arith(self) -> bool {
        matches!(self, Sym::Add | Sym::Sub | Sym::Neg | Sym::Mul)
    }
}

/// A term of the multi-sorted first-order language.
///
/// Terms are immutable trees. Evars are *not* chased implicitly: use
/// [`Term::zonk`] to resolve solved evars against a [`VarCtx`].
///
/// Application arguments live behind an `Arc`, so cloning a term is a
/// refcount bump regardless of depth, and equality between terms that
/// share the same argument allocation (e.g. two clones) short-circuits
/// on pointer identity. `Arc<[Term]>` renders exactly like `Vec<Term>`
/// under `Debug`, so trace snapshots are unaffected.
// The manual `PartialEq` below is structural equality plus an
// `Arc::ptr_eq` fast path, so the derived structural `Hash` still
// satisfies `a == b ⇒ hash(a) == hash(b)`.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Debug, Clone, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A universally quantified (or program-introduced) variable.
    Var(VarId),
    /// An existential variable, to be determined by unification.
    EVar(EVarId),
    /// Integer literal.
    Int(i128),
    /// Boolean literal.
    Bool(bool),
    /// Positive-fraction literal.
    QpLit(Qp),
    /// A concrete heap location (used by tests and the interpreter bridge;
    /// verification normally works with symbolic locations).
    Loc(u64),
    /// A concrete ghost name.
    Gname(u64),
    /// Function application. The argument count always matches
    /// [`Sym::arity`].
    App(Sym, Arc<[Term]>),
}

/// Structural equality, with an `Arc::ptr_eq` fast path on shared
/// argument lists (sound because cloned terms share storage).
impl PartialEq for Term {
    fn eq(&self, other: &Term) -> bool {
        match (self, other) {
            (Term::Var(a), Term::Var(b)) => a == b,
            (Term::EVar(a), Term::EVar(b)) => a == b,
            (Term::Int(a), Term::Int(b)) => a == b,
            (Term::Bool(a), Term::Bool(b)) => a == b,
            (Term::QpLit(a), Term::QpLit(b)) => a == b,
            (Term::Loc(a), Term::Loc(b)) => a == b,
            (Term::Gname(a), Term::Gname(b)) => a == b,
            (Term::App(f, xs), Term::App(g, ys)) => {
                f == g && (Arc::ptr_eq(xs, ys) || xs[..] == ys[..])
            }
            _ => false,
        }
    }
}

impl Eq for Term {}

#[allow(clippy::should_implement_trait)] // `add`/`sub`/... are static constructors, not operator methods
impl Term {
    #[must_use]
    /// A universal variable.
    pub fn var(v: VarId) -> Term {
        Term::Var(v)
    }

    #[must_use]
    /// An existential variable.
    pub fn evar(e: EVarId) -> Term {
        Term::EVar(e)
    }

    #[must_use]
    /// An integer literal.
    pub fn int(n: i128) -> Term {
        Term::Int(n)
    }

    #[must_use]
    /// A boolean literal.
    pub fn bool(b: bool) -> Term {
        Term::Bool(b)
    }

    #[must_use]
    /// A fraction literal.
    pub fn qp(q: Qp) -> Term {
        Term::QpLit(q)
    }

    /// The full fraction `1`.
    #[must_use]
    pub fn qp_one() -> Term {
        Term::QpLit(Qp::ONE)
    }

    #[must_use]
    /// Function application (checked arity in debug builds).
    pub fn app(sym: Sym, args: Vec<Term>) -> Term {
        debug_assert_eq!(sym.arity(), args.len(), "arity mismatch for {sym:?}");
        Term::App(sym, args.into())
    }

    #[must_use]
    /// `a + b`.
    pub fn add(a: Term, b: Term) -> Term {
        Term::app(Sym::Add, vec![a, b])
    }

    #[must_use]
    /// `a - b`.
    pub fn sub(a: Term, b: Term) -> Term {
        Term::app(Sym::Sub, vec![a, b])
    }

    #[must_use]
    /// `-a`.
    pub fn neg(a: Term) -> Term {
        Term::app(Sym::Neg, vec![a])
    }

    #[must_use]
    /// `a · b` (linear occurrences only are solvable).
    pub fn mul(a: Term, b: Term) -> Term {
        Term::app(Sym::Mul, vec![a, b])
    }

    /// The value embedding `#n` of an integer term.
    #[must_use]
    pub fn v_int(n: Term) -> Term {
        Term::app(Sym::VInt, vec![n])
    }

    /// The value embedding `#b` of a boolean term.
    #[must_use]
    pub fn v_bool(b: Term) -> Term {
        Term::app(Sym::VBool, vec![b])
    }

    /// The unit value `#()`.
    #[must_use]
    pub fn v_unit() -> Term {
        Term::app(Sym::VUnit, vec![])
    }

    /// The value embedding `#ℓ` of a location term.
    #[must_use]
    pub fn v_loc(l: Term) -> Term {
        Term::app(Sym::VLoc, vec![l])
    }

    #[must_use]
    /// The pair value `(a, b)`.
    pub fn v_pair(a: Term, b: Term) -> Term {
        Term::app(Sym::VPair, vec![a, b])
    }

    #[must_use]
    /// The left injection value `inl a`.
    pub fn v_inj_l(a: Term) -> Term {
        Term::app(Sym::VInjL, vec![a])
    }

    #[must_use]
    /// The right injection value `inr a`.
    pub fn v_inj_r(a: Term) -> Term {
        Term::app(Sym::VInjR, vec![a])
    }

    /// Literal value embeddings of common constants.
    #[must_use]
    pub fn v_int_lit(n: i128) -> Term {
        Term::v_int(Term::int(n))
    }

    /// See [`Term::v_int_lit`].
    #[must_use]
    pub fn v_bool_lit(b: bool) -> Term {
        Term::v_bool(Term::bool(b))
    }

    /// Whether the term contains no variables or evars at all.
    #[must_use]
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) | Term::EVar(_) => false,
            Term::Int(_) | Term::Bool(_) | Term::QpLit(_) | Term::Loc(_) | Term::Gname(_) => true,
            Term::App(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// Collects the free variables into `out` (in first-occurrence order,
    /// without duplicates).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Term::Var(v) if !out.contains(v) => {
                out.push(*v);
            }
            Term::App(_, args) => {
                for a in args.iter() {
                    a.collect_vars(out);
                }
            }
            _ => {}
        }
    }

    /// Free variables of the term.
    #[must_use]
    pub fn free_vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    /// Collects the evars into `out` (without duplicates).
    pub fn collect_evars(&self, out: &mut Vec<EVarId>) {
        match self {
            Term::EVar(e) if !out.contains(e) => {
                out.push(*e);
            }
            Term::App(_, args) => {
                for a in args.iter() {
                    a.collect_evars(out);
                }
            }
            _ => {}
        }
    }

    /// Whether the term mentions any evar (solved or not).
    #[must_use]
    pub fn has_evars(&self) -> bool {
        match self {
            Term::EVar(_) => true,
            Term::App(_, args) => args.iter().any(Term::has_evars),
            _ => false,
        }
    }

    /// Whether `v` occurs in the term.
    #[must_use]
    pub fn mentions_var(&self, v: VarId) -> bool {
        match self {
            Term::Var(w) => *w == v,
            Term::App(_, args) => args.iter().any(|a| a.mentions_var(v)),
            _ => false,
        }
    }

    /// Whether evar `e` occurs in the term (without chasing solutions).
    #[must_use]
    pub fn mentions_evar(&self, e: EVarId) -> bool {
        match self {
            Term::EVar(f) => *f == e,
            Term::App(_, args) => args.iter().any(|a| a.mentions_evar(e)),
            _ => false,
        }
    }

    /// Replaces solved evars by their solutions, recursively, and reduces
    /// projections applied to pairs.
    ///
    /// Most zonks in the search happen while every relevant evar is still
    /// unsolved, so a term [`Term::needs_zonk`] clears is returned as a
    /// clone (a refcount bump) without rebuilding anything.
    #[must_use]
    pub fn zonk(&self, ctx: &VarCtx) -> Term {
        if self.needs_zonk(ctx) {
            self.zonk_walk(ctx)
        } else {
            self.clone()
        }
    }

    /// Whether [`Term::zonk`] would change this term at all: some
    /// mentioned evar is solved, or a `Fst`/`Snd`-on-`VPair` redex
    /// occurs. A read-only, allocation-free scan — lets containers
    /// (assertions, atoms, pure propositions) skip their rebuilding
    /// walks entirely in the common all-unsolved state.
    #[must_use]
    pub fn needs_zonk(&self, ctx: &VarCtx) -> bool {
        match self {
            Term::EVar(e) => !ctx.evar_unsolved(*e),
            Term::App(sym, args) => {
                (matches!(sym, Sym::Fst | Sym::Snd)
                    && matches!(&args[..], [Term::App(Sym::VPair, _)]))
                    || args.iter().any(|a| a.needs_zonk(ctx))
            }
            _ => false,
        }
    }

    /// [`Term::zonk`] in place: leaves the term alone when it does not
    /// [`Term::needs_zonk`].
    pub fn zonk_in_place(&mut self, ctx: &VarCtx) {
        if self.needs_zonk(ctx) {
            *self = self.zonk_walk(ctx);
        }
    }

    /// The rebuild behind [`Term::zonk`], for a term that needs it: only
    /// the spine above a solved evar or a projection redex is rebuilt;
    /// every argument that needs no zonking is shared.
    fn zonk_walk(&self, ctx: &VarCtx) -> Term {
        match self {
            Term::EVar(e) => match ctx.evar_solution(*e) {
                Some(sol) => sol.zonk(ctx),
                None => self.clone(),
            },
            Term::App(sym, args) => {
                let args: Arc<[Term]> = args.iter().map(|a| a.zonk(ctx)).collect();
                match (sym, &args[..]) {
                    (Sym::Fst, [Term::App(Sym::VPair, ps)]) => ps[0].clone(),
                    (Sym::Snd, [Term::App(Sym::VPair, ps)]) => ps[1].clone(),
                    _ => Term::App(*sym, args),
                }
            }
            _ => self.clone(),
        }
    }

    /// The sort of the term.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on ill-sorted applications; release builds
    /// return the result sort of the head symbol regardless.
    #[must_use]
    pub fn sort(&self, ctx: &VarCtx) -> Sort {
        match self {
            Term::Var(v) => ctx.var_sort(*v),
            Term::EVar(e) => ctx.evar_sort(*e),
            Term::Int(_) => Sort::Int,
            Term::Bool(_) => Sort::Bool,
            Term::QpLit(_) => Sort::Qp,
            Term::Loc(_) => Sort::Loc,
            Term::Gname(_) => Sort::GhostName,
            Term::App(sym, args) => match sym {
                Sym::Add | Sym::Sub | Sym::Mul | Sym::Min | Sym::Max => args[0].sort(ctx),
                Sym::Neg => args[0].sort(ctx),
                Sym::VInt
                | Sym::VBool
                | Sym::VUnit
                | Sym::VLoc
                | Sym::VPair
                | Sym::VInjL
                | Sym::VInjR
                | Sym::Fst
                | Sym::Snd => Sort::Val,
            },
        }
    }
}

impl From<i128> for Term {
    fn from(n: i128) -> Term {
        Term::Int(n)
    }
}

impl From<bool> for Term {
    fn from(b: bool) -> Term {
        Term::Bool(b)
    }
}

impl From<Qp> for Term {
    fn from(q: Qp) -> Term {
        Term::QpLit(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evar::VarCtx;

    #[test]
    fn constructors_and_sorts() {
        let mut ctx = VarCtx::new();
        let l = ctx.fresh_var(Sort::Loc, "l");
        let t = Term::v_loc(Term::var(l));
        assert_eq!(t.sort(&ctx), Sort::Val);
        assert_eq!(Term::int(3).sort(&ctx), Sort::Int);
        assert_eq!(Term::add(Term::int(1), Term::int(2)).sort(&ctx), Sort::Int);
        assert_eq!(Term::qp_one().sort(&ctx), Sort::Qp);
    }

    #[test]
    fn free_vars_dedup() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Int, "x");
        let t = Term::add(Term::var(x), Term::var(x));
        assert_eq!(t.free_vars(), vec![x]);
        assert!(t.mentions_var(x));
        assert!(!t.is_ground());
        assert!(Term::int(1).is_ground());
    }

    #[test]
    fn zonk_resolves_chains() {
        let mut ctx = VarCtx::new();
        let e1 = ctx.fresh_evar(Sort::Int);
        let e2 = ctx.fresh_evar(Sort::Int);
        ctx.solve_evar(e1, Term::evar(e2));
        ctx.solve_evar(e2, Term::int(7));
        assert_eq!(Term::evar(e1).zonk(&ctx), Term::int(7));
    }

    #[test]
    fn zonk_reduces_projections() {
        let ctx = VarCtx::new();
        let p = Term::v_pair(Term::v_int_lit(1), Term::v_bool_lit(true));
        assert_eq!(
            Term::app(Sym::Fst, vec![p.clone()]).zonk(&ctx),
            Term::v_int_lit(1)
        );
        assert_eq!(
            Term::app(Sym::Snd, vec![p]).zonk(&ctx),
            Term::v_bool_lit(true)
        );
    }

    #[test]
    fn evar_collection() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Val);
        let t = Term::v_pair(Term::evar(e), Term::v_unit());
        assert!(t.has_evars());
        assert!(t.mentions_evar(e));
        let mut out = Vec::new();
        t.collect_evars(&mut out);
        assert_eq!(out, vec![e]);
    }
}
