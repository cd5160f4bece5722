//! The assertion language (`iProp` analogue).
//!
//! Assertions are persistent trees: every child sits behind an `Arc`, so
//! a clone costs one node however deep the tree, and a rewrite copies
//! only what it changes. Sharing contract: [`Assertion::subst_in_place`]
//! and [`Assertion::zonk_in_place`] visit only the subtrees holding a term
//! leaf that [`Subst::touches`] or [`Term::needs_zonk`] selects, and
//! `Arc::make_mut`-copy a shared child (an invariant body or a `wp`
//! postcondition included) only on the way to such a leaf. Every other
//! child, and every untouched term argument list, stays `Arc::ptr_eq` to
//! the input; a rewrite that selects nothing leaves the tree as it was.
//! `subst`/`zonk` on a borrowed assertion are a clone plus the in-place
//! pass. `Arc<T>` renders exactly like `T` under `Debug`, so trace bytes
//! do not depend on the representation.

use crate::atom::Atom;
use crate::mask::MaskT;
use crate::pred::PredTable;
use diaframe_term::{PureProp, Subst, Term, VarCtx, VarId};
use std::sync::Arc;

/// A binder in an assertion: a placeholder variable whose sort and display
/// name live in the [`VarCtx`]. Opening the binder substitutes a fresh
/// variable (or evar) for the placeholder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binder {
    /// The placeholder.
    pub var: VarId,
}

impl Binder {
    #[must_use]
    /// A binder around the given variable.
    pub fn new(var: VarId) -> Binder {
        Binder { var }
    }
}

/// A separation-logic assertion.
///
/// This is one syntax for all the grammar categories of §5.1 (atoms `A`,
/// left-goals `L`, unstructured `U`, clean hypotheses `H_C`); see
/// [`crate::classify`] for the category predicates.
///
/// `Eq` lets equality between `Arc`-shared children short-circuit on
/// pointer identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Assertion {
    /// The pure embedding `⌜φ⌝`.
    Pure(PureProp),
    /// An atom.
    Atom(Atom),
    /// Separating conjunction `∗`.
    Sep(Arc<Assertion>, Arc<Assertion>),
    /// Disjunction `∨` (the §5.3 extension).
    Or(Arc<Assertion>, Arc<Assertion>),
    /// Existential quantification.
    Exists(Binder, Arc<Assertion>),
    /// Universal quantification.
    Forall(Binder, Arc<Assertion>),
    /// The magic wand `−∗`.
    Wand(Arc<Assertion>, Arc<Assertion>),
    /// The later modality `▷`.
    Later(Arc<Assertion>),
    /// The basic update `¤|⇛`.
    BUpd(Arc<Assertion>),
    /// The fancy update `|⇛E₁ E₂`.
    FUpd(MaskT, MaskT, Arc<Assertion>),
}

impl Assertion {
    /// The trivial assertion (`emp` / `True` — the logic is affine).
    #[must_use]
    pub fn emp() -> Assertion {
        Assertion::Pure(PureProp::True)
    }

    /// Whether this is the trivial assertion.
    #[must_use]
    pub fn is_emp(&self) -> bool {
        matches!(self, Assertion::Pure(PureProp::True))
    }

    #[must_use]
    /// An embedded pure proposition `⌜p⌝`.
    pub fn pure(p: PureProp) -> Assertion {
        Assertion::Pure(p)
    }

    #[must_use]
    /// An atomic assertion.
    pub fn atom(a: Atom) -> Assertion {
        Assertion::Atom(a)
    }

    /// `a ∗ b`, simplifying `emp` away.
    #[must_use]
    pub fn sep(a: Assertion, b: Assertion) -> Assertion {
        if a.is_emp() {
            b
        } else if b.is_emp() {
            a
        } else {
            Assertion::Sep(Arc::new(a), Arc::new(b))
        }
    }

    /// Right-nested separating conjunction of a list.
    #[must_use]
    pub fn sep_list<I: IntoIterator<Item = Assertion>>(items: I) -> Assertion {
        let mut items: Vec<Assertion> = items.into_iter().collect();
        let mut acc = match items.pop() {
            None => return Assertion::emp(),
            Some(last) => last,
        };
        while let Some(a) = items.pop() {
            acc = Assertion::sep(a, acc);
        }
        acc
    }

    #[must_use]
    /// Disjunction `a ∨ b`.
    pub fn or(a: Assertion, b: Assertion) -> Assertion {
        Assertion::Or(Arc::new(a), Arc::new(b))
    }

    #[must_use]
    /// Existential quantification `∃ b. body`.
    pub fn exists(b: Binder, body: Assertion) -> Assertion {
        Assertion::Exists(b, Arc::new(body))
    }

    #[must_use]
    /// Universal quantification `∀ b. body`.
    pub fn forall(b: Binder, body: Assertion) -> Assertion {
        Assertion::Forall(b, Arc::new(body))
    }

    #[must_use]
    /// Magic wand `a −∗ b`.
    pub fn wand(a: Assertion, b: Assertion) -> Assertion {
        Assertion::Wand(Arc::new(a), Arc::new(b))
    }

    #[must_use]
    /// Later modality `▷ a`.
    pub fn later(a: Assertion) -> Assertion {
        Assertion::Later(Arc::new(a))
    }

    #[must_use]
    /// Basic update `|==> a`.
    pub fn bupd(a: Assertion) -> Assertion {
        Assertion::BUpd(Arc::new(a))
    }

    #[must_use]
    /// Fancy update `|={from,to}=> a`.
    pub fn fupd(from: MaskT, to: MaskT, a: Assertion) -> Assertion {
        Assertion::FUpd(from, to, Arc::new(a))
    }

    /// Flattens nested separating conjunctions into a list.
    #[must_use]
    pub fn sep_conjuncts(&self) -> Vec<&Assertion> {
        let mut out = Vec::new();
        fn go<'a>(a: &'a Assertion, out: &mut Vec<&'a Assertion>) {
            match a {
                Assertion::Sep(l, r) => {
                    go(l, out);
                    go(r, out);
                }
                other => out.push(other),
            }
        }
        go(self, &mut out);
        out
    }

    /// Applies a substitution to all embedded terms. Binder placeholders
    /// are globally unique variables, so recursion is capture-free as long
    /// as the substitution's domain and range avoid them (which the engine
    /// guarantees by construction). A clone plus
    /// [`Assertion::subst_in_place`]: untouched subtrees are shared.
    #[must_use]
    pub fn subst(&self, s: &Subst) -> Assertion {
        let mut out = self.clone();
        out.subst_in_place(s);
        out
    }

    /// [`Assertion::subst`] in place, rewriting only the term leaves that
    /// [`Subst::touches`] selects (see the module docs).
    pub fn subst_in_place(&mut self, s: &Subst) {
        self.rewrite_terms(&|t| s.touches(t), &|t| s.apply_in_place(t));
    }

    /// Resolves solved evars in all embedded terms: a clone plus
    /// [`Assertion::zonk_in_place`], so when nothing needs zonking only
    /// the top node is copied.
    #[must_use]
    pub fn zonk(&self, ctx: &VarCtx) -> Assertion {
        let mut out = self.clone();
        out.zonk_in_place(ctx);
        out
    }

    /// [`Assertion::zonk`] in place, rewriting only the term leaves that
    /// [`Term::needs_zonk`] selects — none, and no walk beyond the scan,
    /// in the common case of a step that solved no evar.
    pub fn zonk_in_place(&mut self, ctx: &VarCtx) {
        self.rewrite_terms(&|t| t.needs_zonk(ctx), &|t| t.zonk_in_place(ctx));
    }

    /// Whether [`Assertion::zonk`] would change anything (see
    /// [`Term::needs_zonk`]). Early-exits on the first affected term.
    #[must_use]
    pub fn needs_zonk(&self, ctx: &VarCtx) -> bool {
        self.any_term(&|t| t.needs_zonk(ctx))
    }

    /// Whether `p` holds of some term leaf (invariant bodies and `wp`
    /// postconditions included); stops at the first that does.
    pub fn any_term(&self, p: &impl Fn(&Term) -> bool) -> bool {
        match self {
            Assertion::Pure(q) => q.any_term(p),
            Assertion::Atom(a) => a.any_term(p),
            Assertion::Sep(a, b) | Assertion::Or(a, b) | Assertion::Wand(a, b) => {
                a.any_term(p) || b.any_term(p)
            }
            Assertion::Exists(_, a)
            | Assertion::Forall(_, a)
            | Assertion::Later(a)
            | Assertion::BUpd(a)
            | Assertion::FUpd(_, _, a) => a.any_term(p),
        }
    }

    /// Rewrites in place, by `f`, the term leaves that `hit` selects; `f`
    /// is called on no other leaf. A shared child is entered (and
    /// `Arc::make_mut`-copied) only when `hit` selects one of its leaves.
    pub fn rewrite_terms(&mut self, hit: &impl Fn(&Term) -> bool, f: &impl Fn(&mut Term)) {
        match self {
            Assertion::Pure(p) => p.visit_terms_mut(&mut |t| {
                if hit(t) {
                    f(t);
                }
            }),
            Assertion::Atom(a) => a.rewrite_terms(hit, f),
            Assertion::Sep(a, b) | Assertion::Or(a, b) | Assertion::Wand(a, b) => {
                rewrite_shared(a, hit, f);
                rewrite_shared(b, hit, f);
            }
            Assertion::Exists(_, a)
            | Assertion::Forall(_, a)
            | Assertion::Later(a)
            | Assertion::BUpd(a)
            | Assertion::FUpd(_, _, a) => rewrite_shared(a, hit, f),
        }
    }

    /// Calls `f` on this assertion and every sub-assertion, outermost and
    /// leftmost first; invariant bodies are entered when `into_inv`.
    pub fn walk<'a>(&'a self, into_inv: bool, f: &mut impl FnMut(&'a Assertion)) {
        f(self);
        match self {
            Assertion::Sep(a, b) | Assertion::Or(a, b) | Assertion::Wand(a, b) => {
                a.walk(into_inv, f);
                b.walk(into_inv, f);
            }
            Assertion::Exists(_, a)
            | Assertion::Forall(_, a)
            | Assertion::Later(a)
            | Assertion::BUpd(a)
            | Assertion::FUpd(_, _, a) => a.walk(into_inv, f),
            Assertion::Atom(Atom::Invariant { body, .. }) if into_inv => body.walk(into_inv, f),
            Assertion::Atom(_) | Assertion::Pure(_) => {}
        }
    }

    /// Visits every term leaf.
    pub fn visit_terms(&self, f: &mut impl FnMut(&Term)) {
        match self {
            Assertion::Pure(p) => p.visit_terms(f),
            Assertion::Atom(a) => a.visit_terms(f),
            Assertion::Sep(a, b) | Assertion::Or(a, b) | Assertion::Wand(a, b) => {
                a.visit_terms(f);
                b.visit_terms(f);
            }
            Assertion::Exists(_, a) | Assertion::Forall(_, a) => a.visit_terms(f),
            Assertion::Later(a) | Assertion::BUpd(a) => a.visit_terms(f),
            Assertion::FUpd(_, _, a) => a.visit_terms(f),
        }
    }

    /// The free variables (including binder placeholders of *open* binders
    /// but not variables bound within).
    #[must_use]
    pub fn free_vars(&self) -> Vec<VarId> {
        fn go(a: &Assertion, bound: &mut Vec<VarId>, out: &mut Vec<VarId>) {
            match a {
                Assertion::Exists(b, body) | Assertion::Forall(b, body) => {
                    bound.push(b.var);
                    go(body, bound, out);
                    bound.pop();
                }
                other => {
                    let mut collect = |t: &Term| {
                        for v in t.free_vars() {
                            if !bound.contains(&v) && !out.contains(&v) {
                                out.push(v);
                            }
                        }
                    };
                    match other {
                        Assertion::Pure(p) => p.visit_terms(&mut collect),
                        Assertion::Atom(at) => at.visit_terms(&mut collect),
                        Assertion::Sep(x, y) | Assertion::Or(x, y) | Assertion::Wand(x, y) => {
                            go(x, bound, out);
                            go(y, bound, out);
                        }
                        Assertion::Later(x) | Assertion::BUpd(x) => go(x, bound, out),
                        Assertion::FUpd(_, _, x) => go(x, bound, out),
                        Assertion::Exists(..) | Assertion::Forall(..) => unreachable!(),
                    }
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// Whether the assertion is timeless: a leading `▷` can be eliminated.
    /// Pure facts, points-to and ghost atoms are timeless; invariants,
    /// `wp`, wands, updates and abstract predicates are not (the latter
    /// unless the predicate table says so).
    #[must_use]
    pub fn is_timeless(&self, preds: &PredTable) -> bool {
        match self {
            Assertion::Pure(_) => true,
            Assertion::Atom(Atom::PredApp { pred, .. }) => preds.info(*pred).timeless,
            Assertion::Atom(a) => a.is_timeless(),
            Assertion::Sep(a, b) | Assertion::Or(a, b) => {
                a.is_timeless(preds) && b.is_timeless(preds)
            }
            Assertion::Exists(_, a) => a.is_timeless(preds),
            // ∀, −∗, ▷, updates: not timeless in general.
            Assertion::Forall(..)
            | Assertion::Wand(..)
            | Assertion::Later(_)
            | Assertion::BUpd(_)
            | Assertion::FUpd(..) => false,
        }
    }

    /// Strips a `▷` from the assertion where sound: timeless assertions
    /// lose the later entirely; `∗`/`∨`/`∃` distribute; anything else keeps
    /// an explicit [`Assertion::Later`].
    #[must_use]
    pub fn strip_later(self, preds: &PredTable) -> Assertion {
        if self.is_timeless(preds) {
            return self;
        }
        match self {
            Assertion::Sep(a, b) => Assertion::sep(
                Arc::unwrap_or_clone(a).strip_later(preds),
                Arc::unwrap_or_clone(b).strip_later(preds),
            ),
            Assertion::Or(a, b) => Assertion::or(
                Arc::unwrap_or_clone(a).strip_later(preds),
                Arc::unwrap_or_clone(b).strip_later(preds),
            ),
            Assertion::Exists(b, body) => {
                Assertion::exists(b, Arc::unwrap_or_clone(body).strip_later(preds))
            }
            Assertion::Later(inner) => Assertion::Later(inner),
            other => Assertion::later(other),
        }
    }
}

/// [`Assertion::rewrite_terms`] on a shared subtree: copied only when `hit`
/// selects one of its leaves, and otherwise left pointer-equal.
pub fn rewrite_shared(
    a: &mut Arc<Assertion>,
    hit: &impl Fn(&Term) -> bool,
    f: &impl Fn(&mut Term),
) {
    if a.any_term(hit) {
        Arc::make_mut(a).rewrite_terms(hit, f);
    }
}

impl From<Atom> for Assertion {
    fn from(a: Atom) -> Assertion {
        Assertion::Atom(a)
    }
}

impl From<PureProp> for Assertion {
    fn from(p: PureProp) -> Assertion {
        Assertion::Pure(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaframe_term::Sort;

    #[test]
    fn sep_simplifies_emp() {
        let a = Assertion::atom(Atom::points_to(Term::Loc(0), Term::v_unit()));
        assert_eq!(Assertion::sep(Assertion::emp(), a.clone()), a);
        assert_eq!(Assertion::sep(a.clone(), Assertion::emp()), a);
    }

    #[test]
    fn sep_list_and_conjuncts_round_trip() {
        let items: Vec<Assertion> = (0..3)
            .map(|i| Assertion::atom(Atom::points_to(Term::Loc(i), Term::v_unit())))
            .collect();
        let combined = Assertion::sep_list(items.clone());
        let flat = combined.sep_conjuncts();
        assert_eq!(flat.len(), 3);
        for (got, want) in flat.iter().zip(&items) {
            assert_eq!(*got, want);
        }
        assert!(Assertion::sep_list(Vec::new()).is_emp());
    }

    #[test]
    fn free_vars_respect_binders() {
        let mut ctx = VarCtx::new();
        let z = ctx.fresh_var(Sort::Int, "z");
        let l = ctx.fresh_var(Sort::Loc, "l");
        // ∃z. l ↦ #z — l free, z bound.
        let body = Assertion::atom(Atom::points_to(Term::var(l), Term::v_int(Term::var(z))));
        let a = Assertion::exists(Binder::new(z), body);
        assert_eq!(a.free_vars(), vec![l]);
    }

    #[test]
    fn strip_later_on_timeless() {
        let preds = PredTable::new();
        let pt = Assertion::atom(Atom::points_to(Term::Loc(0), Term::v_unit()));
        assert_eq!(pt.clone().strip_later(&preds), pt);
        // A non-timeless assertion keeps the later.
        let mut pt2 = PredTable::new();
        let r = pt2.fresh_plain("R");
        let rp = Assertion::atom(Atom::PredApp {
            pred: r,
            args: Vec::new(),
        });
        assert_eq!(rp.clone().strip_later(&pt2), Assertion::later(rp.clone()));
        // ∗ distributes.
        let both = Assertion::sep(pt.clone(), rp.clone());
        assert_eq!(
            both.strip_later(&pt2),
            Assertion::sep(pt, Assertion::later(rp))
        );
    }

    #[test]
    fn subst_reaches_wp_postconditions() {
        let mut ctx = VarCtx::new();
        let v = ctx.fresh_var(Sort::Val, "v");
        let x = ctx.fresh_var(Sort::Val, "x");
        let post = crate::atom::WpPost {
            ret: v,
            body: Arc::new(Assertion::pure(PureProp::eq(Term::var(v), Term::var(x)))),
        };
        let wp = Assertion::atom(Atom::Wp {
            expr: diaframe_heaplang::Expr::unit(),
            mask: MaskT::top(),
            post,
        });
        let out = wp.subst(&Subst::single(x, Term::v_unit()));
        match out {
            Assertion::Atom(Atom::Wp { post, .. }) => {
                assert_eq!(
                    *post.body,
                    Assertion::pure(PureProp::eq(Term::var(v), Term::v_unit()))
                );
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn wp_post_instantiation() {
        let mut ctx = VarCtx::new();
        let v = ctx.fresh_var(Sort::Val, "v");
        let post = crate::atom::WpPost {
            ret: v,
            body: Arc::new(Assertion::pure(PureProp::eq(
                Term::var(v),
                Term::v_int_lit(3),
            ))),
        };
        assert_eq!(
            post.at(&Term::v_int_lit(3)),
            Assertion::pure(PureProp::eq(Term::v_int_lit(3), Term::v_int_lit(3)))
        );
    }
}
