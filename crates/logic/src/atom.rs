//! Atoms `A` — the leaves of the assertion grammar.

use crate::assertion::Assertion;
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct WpPost {
    /// The placeholder bound to the return value.
    pub ret: VarId,
    /// The postcondition body (a left-goal).
    pub body: Box<Assertion>,
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
#[derive(Debug, Clone, PartialEq)]
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
    /// plain recursion is capture-free).
    #[must_use]
    pub fn subst(&self, s: &Subst) -> Atom {
        self.map_terms(&|t| s.apply(t))
    }

    /// Resolves solved evars in all embedded terms. Returns a plain
    /// clone (cheap: invariant bodies are `Arc`-shared) when no embedded
    /// term needs zonking — the steady state inside probe loops.
    #[must_use]
    pub fn zonk(&self, ctx: &VarCtx) -> Atom {
        if !self.needs_zonk(ctx) {
            return self.clone();
        }
        self.map_terms(&|t| t.zonk(ctx))
    }

    /// [`Atom::zonk`] on an owned atom: returns `self` untouched when no
    /// embedded term needs zonking.
    #[must_use]
    pub fn zonk_owned(self, ctx: &VarCtx) -> Atom {
        if !self.needs_zonk(ctx) {
            return self;
        }
        self.map_terms(&|t| t.zonk(ctx))
    }

    /// Whether [`Atom::zonk`] would change anything (see
    /// [`Term::needs_zonk`]). Early-exits on the first affected term.
    #[must_use]
    pub fn needs_zonk(&self, ctx: &VarCtx) -> bool {
        match self {
            Atom::PointsTo { loc, frac, val } => {
                loc.needs_zonk(ctx) || frac.needs_zonk(ctx) || val.needs_zonk(ctx)
            }
            Atom::Ghost(g) => g.gname.needs_zonk(ctx) || g.args.iter().any(|a| a.needs_zonk(ctx)),
            Atom::Invariant { body, .. } => body.needs_zonk(ctx),
            Atom::Wp { post, .. } => post.body.needs_zonk(ctx),
            Atom::PredApp { args, .. } => args.iter().any(|a| a.needs_zonk(ctx)),
            Atom::CloseInv { .. } => false,
        }
    }

    /// Applies `f` to every term leaf.
    #[must_use]
    pub fn map_terms(&self, f: &impl Fn(&Term) -> Term) -> Atom {
        match self {
            Atom::PointsTo { loc, frac, val } => Atom::PointsTo {
                loc: f(loc),
                frac: f(frac),
                val: f(val),
            },
            Atom::Ghost(g) => Atom::Ghost(GhostAtom {
                kind: g.kind,
                gname: f(&g.gname),
                pred: g.pred,
                args: g.args.iter().map(f).collect(),
            }),
            Atom::Invariant { ns, body } => Atom::Invariant {
                ns: ns.clone(),
                body: Arc::new(body.map_terms(f)),
            },
            Atom::Wp { expr, mask, post } => Atom::Wp {
                expr: expr.clone(),
                mask: mask.clone(),
                post: WpPost {
                    ret: post.ret,
                    body: Box::new(post.body.map_terms(f)),
                },
            },
            Atom::PredApp { pred, args } => Atom::PredApp {
                pred: *pred,
                args: args.iter().map(f).collect(),
            },
            Atom::CloseInv { ns } => Atom::CloseInv { ns: ns.clone() },
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
