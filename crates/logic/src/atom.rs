//! Atoms `A` — the leaves of the assertion grammar.

use crate::assertion::{rewrite_shared, Assertion};
use crate::mask::MaskT;
use crate::namespace::Namespace;
use crate::pred::PredId;
use diaframe_heaplang::Expr;
use diaframe_term::{Subst, Term, VarCtx, VarId};
use std::fmt;
use std::sync::Arc;

/// Identifies a family of ghost assertions (e.g. "exclusive token",
/// "counting-permission counter"). Ghost libraries define their kinds as
/// constants; equality is by `id`.
#[derive(Debug, Clone, Copy, Eq)]
pub struct GhostKind {
    /// Globally unique id of the kind.
    pub id: u32,
    /// Display name.
    pub name: &'static str,
}

impl PartialEq for GhostKind {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl std::hash::Hash for GhostKind {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Display for GhostKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// A ghost assertion: a kind applied to a ghost name, an optional abstract
/// predicate parameter, and term arguments.
///
/// Examples: `locked γ` is `{kind: locked, gname: γ, pred: None, args: []}`;
/// `counter P γ p` is `{kind: counter, gname: γ, pred: Some(P), args: [p]}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GhostAtom {
    /// The kind (which ghost library the atom belongs to).
    pub kind: GhostKind,
    /// The ghost name `γ`.
    pub gname: Term,
    /// The abstract predicate the library is instantiated with, if any.
    pub pred: Option<PredId>,
    /// Kind-specific term arguments.
    pub args: Vec<Term>,
}

/// The postcondition of a weakest precondition: `{ v. body }`, with `v` a
/// binder placeholder of sort `Val`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WpPost {
    /// The placeholder bound to the return value.
    pub ret: VarId,
    /// The postcondition body (a left-goal), shared like any other
    /// assertion child.
    pub body: Arc<Assertion>,
}

impl WpPost {
    /// Instantiates the postcondition at a return value.
    #[must_use]
    pub fn at(&self, v: &Term) -> Assertion {
        self.body.subst(&Subst::single(self.ret, v.clone()))
    }
}

/// An atom of the grammar (§5.1): `A ::= wp e {v. L} | χ | ⌜L⌝^N | …` where
/// the ellipsis is points-to assertions, ghost assertions and abstract
/// predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Atom {
    /// The fractional points-to `ℓ ↦{q} v`.
    PointsTo {
        /// The location (sort `Loc`).
        loc: Term,
        /// The fraction (sort `Qp`).
        frac: Term,
        /// The stored value (sort `Val`).
        val: Term,
    },
    /// A ghost assertion.
    Ghost(GhostAtom),
    /// An invariant `body^N`. Duplicable.
    Invariant {
        /// The namespace.
        ns: Namespace,
        /// The shared body (a left-goal, possibly with binders).
        body: Arc<Assertion>,
    },
    /// A weakest precondition `wp^E e {v. L}`.
    Wp {
        /// The expression under execution.
        expr: Expr,
        /// The mask.
        mask: MaskT,
        /// The postcondition.
        post: WpPost,
    },
    /// An abstract predicate applied to arguments (`R`, `P q`).
    PredApp {
        /// The predicate.
        pred: PredId,
        /// Its arguments.
        args: Vec<Term>,
    },
    /// The close-marker `χ_N` (§4.3): an opaque `True` that the strategy
    /// uses to force closing the invariant `N`.
    CloseInv {
        /// Which invariant must be closed.
        ns: Namespace,
    },
}

impl Atom {
    /// The full points-to `ℓ ↦ v`.
    #[must_use]
    pub fn points_to(loc: Term, val: Term) -> Atom {
        Atom::PointsTo {
            loc,
            frac: Term::qp_one(),
            val,
        }
    }

    /// A fractional points-to `ℓ ↦{q} v`.
    #[must_use]
    pub fn points_to_frac(loc: Term, frac: Term, val: Term) -> Atom {
        Atom::PointsTo { loc, frac, val }
    }

    /// An invariant atom.
    #[must_use]
    pub fn invariant(ns: Namespace, body: Assertion) -> Atom {
        Atom::Invariant {
            ns,
            body: Arc::new(body),
        }
    }

    /// Whether the atom is *persistent* (duplicable): invariants are, and
    /// so could be persistent ghost atoms (none of the built-in kinds are).
    #[must_use]
    pub fn is_persistent(&self) -> bool {
        matches!(self, Atom::Invariant { .. })
    }

    /// Whether the atom is timeless (a `▷` in front can be stripped).
    /// Points-to and ghost assertions are; invariants, `wp` and abstract
    /// predicates are not.
    #[must_use]
    pub fn is_timeless(&self) -> bool {
        matches!(
            self,
            Atom::PointsTo { .. } | Atom::Ghost(_) | Atom::CloseInv { .. }
        )
    }

    /// Applies a substitution to all embedded terms (does not descend into
    /// invariant bodies' *binders* — placeholders are globally unique, so
    /// plain recursion is capture-free). A clone plus
    /// [`Atom::subst_in_place`].
    #[must_use]
    pub fn subst(&self, s: &Subst) -> Atom {
        let mut out = self.clone();
        out.subst_in_place(s);
        out
    }

    /// [`Atom::subst`] in place: an invariant body or `wp` postcondition
    /// is copied only when the substitution touches one of its leaves.
    pub fn subst_in_place(&mut self, s: &Subst) {
        self.rewrite_terms(&|t| s.touches(t), &|t| s.apply_in_place(t));
    }

    /// Resolves solved evars in all embedded terms. A plain clone (cheap:
    /// invariant bodies are `Arc`-shared) when no embedded term needs
    /// zonking — the steady state inside probe loops.
    #[must_use]
    pub fn zonk(&self, ctx: &VarCtx) -> Atom {
        let mut out = self.clone();
        out.zonk_in_place(ctx);
        out
    }

    /// [`Atom::zonk`] in place: rewrites only the leaves that
    /// [`Term::needs_zonk`] selects.
    pub fn zonk_in_place(&mut self, ctx: &VarCtx) {
        self.rewrite_terms(&|t| t.needs_zonk(ctx), &|t| t.zonk_in_place(ctx));
    }

    /// Whether [`Atom::zonk`] would change anything (see
    /// [`Term::needs_zonk`]). Early-exits on the first affected term.
    #[must_use]
    pub fn needs_zonk(&self, ctx: &VarCtx) -> bool {
        self.any_term(&|t| t.needs_zonk(ctx))
    }

    /// Whether `p` holds of some term leaf (inside invariant bodies and
    /// `wp` postconditions too); stops at the first that does.
    pub fn any_term(&self, p: &impl Fn(&Term) -> bool) -> bool {
        match self {
            Atom::PointsTo { loc, frac, val } => p(loc) || p(frac) || p(val),
            Atom::Ghost(g) => p(&g.gname) || g.args.iter().any(p),
            Atom::Invariant { body, .. } => body.any_term(p),
            Atom::Wp { post, .. } => post.body.any_term(p),
            Atom::PredApp { args, .. } => args.iter().any(p),
            Atom::CloseInv { .. } => false,
        }
    }

    /// See [`Assertion::rewrite_terms`]: rewrites by `f` the term leaves
    /// `hit` selects, copying a shared body only on the way to one.
    pub fn rewrite_terms(&mut self, hit: &impl Fn(&Term) -> bool, f: &impl Fn(&mut Term)) {
        let leaf = |t: &mut Term| {
            if hit(t) {
                f(t);
            }
        };
        match self {
            Atom::PointsTo { loc, frac, val } => {
                leaf(loc);
                leaf(frac);
                leaf(val);
            }
            Atom::Ghost(g) => {
                leaf(&mut g.gname);
                g.args.iter_mut().for_each(leaf);
            }
            Atom::Invariant { body, .. } => rewrite_shared(body, hit, f),
            Atom::Wp { post, .. } => rewrite_shared(&mut post.body, hit, f),
            Atom::PredApp { args, .. } => args.iter_mut().for_each(leaf),
            Atom::CloseInv { .. } => {}
        }
    }

    /// Visits every term leaf.
    pub fn visit_terms(&self, f: &mut impl FnMut(&Term)) {
        match self {
            Atom::PointsTo { loc, frac, val } => {
                f(loc);
                f(frac);
                f(val);
            }
            Atom::Ghost(g) => {
                f(&g.gname);
                for a in &g.args {
                    f(a);
                }
            }
            Atom::Invariant { body, .. } => body.visit_terms(f),
            Atom::Wp { post, .. } => post.body.visit_terms(f),
            Atom::PredApp { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Atom::CloseInv { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaframe_term::Sort;

    #[test]
    fn points_to_defaults_to_full_fraction() {
        let mut ctx = VarCtx::new();
        let l = Term::var(ctx.fresh_var(Sort::Loc, "l"));
        let a = Atom::points_to(l, Term::v_unit());
        match a {
            Atom::PointsTo { frac, .. } => assert_eq!(frac, Term::qp_one()),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn ghost_kind_equality_is_by_id() {
        let a = GhostKind { id: 1, name: "x" };
        let b = GhostKind { id: 1, name: "y" };
        let c = GhostKind { id: 2, name: "x" };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn subst_and_zonk_reach_terms() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Val, "x");
        let e = ctx.fresh_evar(Sort::Loc);
        ctx.solve_evar(e, Term::Loc(3));
        let a = Atom::points_to(Term::evar(e), Term::var(x));
        let s = Subst::single(x, Term::v_unit());
        let out = a.subst(&s).zonk(&ctx);
        assert_eq!(out, Atom::points_to(Term::Loc(3), Term::v_unit()));
    }

    #[test]
    fn timelessness() {
        let l = Term::Loc(0);
        assert!(Atom::points_to(l.clone(), Term::v_unit()).is_timeless());
        assert!(!Atom::invariant(
            Namespace::new("N"),
            Assertion::Pure(diaframe_term::PureProp::True)
        )
        .is_timeless());
    }

    #[test]
    fn invariants_are_persistent() {
        let inv = Atom::invariant(
            Namespace::new("N"),
            Assertion::Pure(diaframe_term::PureProp::True),
        );
        assert!(inv.is_persistent());
        assert!(!Atom::points_to(Term::Loc(0), Term::v_unit()).is_persistent());
    }
}
