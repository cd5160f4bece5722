//! The persistent-tree contract of substitution and zonking, checked
//! against the rebuilding implementation they replaced.
//!
//! `reference` is the old `map_terms`-based `subst`/`zonk`: every node
//! and every term is rebuilt. The properties below generate assertions
//! with invariant bodies, `wp` postconditions and nested binders, and
//! check that
//! - `subst`/`zonk` and their in-place forms give the reference's result,
//!   also under `Debug` (the form traces record);
//! - every term argument list and every shared subtree (invariant body,
//!   `wp` postcondition, connective child) holding no rewritten leaf stays
//!   `Arc::ptr_eq` to the input;
//! - a rewrite that touches nothing leaves the whole tree pointer-equal.

use diaframe_heaplang::Expr;
use diaframe_logic::{
    Assertion, Atom, Binder, GhostAtom, GhostKind, MaskT, Namespace, PredTable, WpPost,
};
use diaframe_term::{EVarId, PureProp, Sort, Subst, Sym, Term, VarCtx, VarId};
use proptest::prelude::*;
use std::sync::Arc;

/// The rebuilding `subst`/`zonk` (no sharing), kept as the oracle.
mod reference {
    use super::*;

    pub fn apply(s: &Subst, t: &Term) -> Term {
        match t {
            Term::Var(v) => s.get(*v).cloned().unwrap_or_else(|| t.clone()),
            Term::App(sym, args) => Term::App(*sym, args.iter().map(|a| apply(s, a)).collect()),
            _ => t.clone(),
        }
    }

    pub fn zonk_term(ctx: &VarCtx, t: &Term) -> Term {
        match t {
            Term::EVar(e) => match ctx.evar_solution(*e) {
                Some(sol) => zonk_term(ctx, sol),
                None => t.clone(),
            },
            Term::App(sym, args) => {
                let args: Vec<Term> = args.iter().map(|a| zonk_term(ctx, a)).collect();
                match (sym, args.as_slice()) {
                    (Sym::Fst, [Term::App(Sym::VPair, ps)]) => ps[0].clone(),
                    (Sym::Snd, [Term::App(Sym::VPair, ps)]) => ps[1].clone(),
                    _ => Term::app(*sym, args),
                }
            }
            _ => t.clone(),
        }
    }

    fn prop(p: &PureProp, f: &impl Fn(&Term) -> Term) -> PureProp {
        let b = |q: &PureProp| Box::new(prop(q, f));
        match p {
            PureProp::True => PureProp::True,
            PureProp::False => PureProp::False,
            PureProp::Eq(a, c) => PureProp::Eq(f(a), f(c)),
            PureProp::Ne(a, c) => PureProp::Ne(f(a), f(c)),
            PureProp::Le(a, c) => PureProp::Le(f(a), f(c)),
            PureProp::Lt(a, c) => PureProp::Lt(f(a), f(c)),
            PureProp::And(a, c) => PureProp::And(b(a), b(c)),
            PureProp::Or(a, c) => PureProp::Or(b(a), b(c)),
            PureProp::Not(a) => PureProp::Not(b(a)),
            PureProp::Implies(a, c) => PureProp::Implies(b(a), b(c)),
        }
    }

    fn atom(a: &Atom, f: &impl Fn(&Term) -> Term) -> Atom {
        match a {
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
                body: Arc::new(map(body, f)),
            },
            Atom::Wp { expr, mask, post } => Atom::Wp {
                expr: expr.clone(),
                mask: mask.clone(),
                post: WpPost {
                    ret: post.ret,
                    body: Arc::new(map(&post.body, f)),
                },
            },
            Atom::PredApp { pred, args } => Atom::PredApp {
                pred: *pred,
                args: args.iter().map(f).collect(),
            },
            Atom::CloseInv { ns } => Atom::CloseInv { ns: ns.clone() },
        }
    }

    /// The old `Assertion::map_terms`.
    pub fn map(a: &Assertion, f: &impl Fn(&Term) -> Term) -> Assertion {
        let b = |x: &Assertion| Arc::new(map(x, f));
        match a {
            Assertion::Pure(p) => Assertion::Pure(prop(p, f)),
            Assertion::Atom(x) => Assertion::Atom(atom(x, f)),
            Assertion::Sep(x, y) => Assertion::Sep(b(x), b(y)),
            Assertion::Or(x, y) => Assertion::Or(b(x), b(y)),
            Assertion::Exists(v, x) => Assertion::Exists(*v, b(x)),
            Assertion::Forall(v, x) => Assertion::Forall(*v, b(x)),
            Assertion::Wand(x, y) => Assertion::Wand(b(x), b(y)),
            Assertion::Later(x) => Assertion::Later(b(x)),
            Assertion::BUpd(x) => Assertion::BUpd(b(x)),
            Assertion::FUpd(e1, e2, x) => Assertion::FUpd(e1.clone(), e2.clone(), b(x)),
        }
    }

    pub fn subst(a: &Assertion, s: &Subst) -> Assertion {
        map(a, &|t| apply(s, t))
    }

    pub fn zonk(a: &Assertion, ctx: &VarCtx) -> Assertion {
        map(a, &|t| zonk_term(ctx, t))
    }
}

/// The variables and evars a generated case draws from.
struct Env {
    ctx: VarCtx,
    /// Free variables (the substitution's domain is drawn from these).
    vars: Vec<VarId>,
    /// Binder placeholders.
    binders: Vec<VarId>,
    /// A variable no generated assertion mentions.
    unused: VarId,
    evars: Vec<EVarId>,
    pred: diaframe_logic::PredId,
}

impl Env {
    fn new() -> Env {
        let mut ctx = VarCtx::new();
        let vars = (0..4)
            .map(|i| ctx.fresh_var(Sort::Int, &format!("x{i}")))
            .collect();
        let binders = (0..3)
            .map(|i| ctx.fresh_var(Sort::Int, &format!("b{i}")))
            .collect();
        let unused = ctx.fresh_var(Sort::Int, "u");
        let evars = (0..4).map(|_| ctx.fresh_evar(Sort::Int)).collect();
        let pred = PredTable::new().fresh_plain("R");
        Env {
            ctx,
            vars,
            binders,
            unused,
            evars,
            pred,
        }
    }
}

/// A generated term: indices into [`Env`].
#[derive(Debug, Clone)]
enum T {
    Var(usize),
    Binder(usize),
    EVar(usize),
    Int(i8),
    Loc(u8),
    App(Sym, Vec<T>),
}

impl T {
    fn build(&self, env: &Env) -> Term {
        match self {
            T::Var(i) => Term::var(env.vars[*i]),
            T::Binder(i) => Term::var(env.binders[*i]),
            T::EVar(i) => Term::evar(env.evars[*i]),
            T::Int(n) => Term::int(i128::from(*n)),
            T::Loc(l) => Term::Loc(u64::from(*l)),
            T::App(sym, args) => Term::app(*sym, args.iter().map(|a| a.build(env)).collect()),
        }
    }
}

fn term() -> impl Strategy<Value = T> {
    let leaf = prop_oneof![
        (0usize..4).prop_map(T::Var),
        (0usize..3).prop_map(T::Binder),
        (0usize..4).prop_map(T::EVar),
        (-9i8..=9).prop_map(T::Int),
        (0u8..4).prop_map(T::Loc),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| T::App(Sym::Add, vec![a, b])),
            inner.clone().prop_map(|a| T::App(Sym::VInt, vec![a])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| T::App(Sym::VPair, vec![a, b])),
            // Projections, so that zonking meets `Fst`/`Snd`-on-pair redexes.
            inner.clone().prop_map(|a| T::App(Sym::Fst, vec![a])),
            inner.prop_map(|a| T::App(Sym::Snd, vec![a])),
        ]
    })
}

/// A generated assertion.
#[derive(Debug, Clone)]
enum A {
    Eq(T, T),
    Lt(T, T),
    NotAnd(T, T, T),
    PointsTo(T, T),
    Ghost(T, Vec<T>),
    Pred(Vec<T>),
    CloseInv,
    Inv(Box<A>),
    Wp(Box<A>),
    Sep(Box<A>, Box<A>),
    Or(Box<A>, Box<A>),
    Exists(usize, Box<A>),
    Forall(usize, Box<A>),
    Wand(Box<A>, Box<A>),
    Later(Box<A>),
    FUpd(Box<A>),
}

const KIND: GhostKind = GhostKind { id: 7, name: "tok" };

impl A {
    fn build(&self, env: &Env) -> Assertion {
        let t = |x: &T| x.build(env);
        let ts = |xs: &[T]| xs.iter().map(|x| x.build(env)).collect::<Vec<_>>();
        match self {
            A::Eq(a, b) => Assertion::pure(PureProp::eq(t(a), t(b))),
            A::Lt(a, b) => Assertion::pure(PureProp::lt(t(a), t(b))),
            A::NotAnd(a, b, c) => Assertion::pure(PureProp::negate(PureProp::And(
                Box::new(PureProp::le(t(a), t(b))),
                Box::new(PureProp::ne(t(b), t(c))),
            ))),
            A::PointsTo(l, v) => Assertion::atom(Atom::points_to(t(l), t(v))),
            A::Ghost(g, args) => Assertion::atom(Atom::Ghost(GhostAtom {
                kind: KIND,
                gname: t(g),
                pred: None,
                args: ts(args),
            })),
            A::Pred(args) => Assertion::atom(Atom::PredApp {
                pred: env.pred,
                args: ts(args),
            }),
            A::CloseInv => Assertion::atom(Atom::CloseInv {
                ns: Namespace::new("N"),
            }),
            A::Inv(body) => Assertion::atom(Atom::invariant(Namespace::new("N"), body.build(env))),
            A::Wp(body) => Assertion::atom(Atom::Wp {
                expr: Expr::unit(),
                mask: MaskT::top(),
                post: WpPost {
                    ret: env.binders[0],
                    body: Arc::new(body.build(env)),
                },
            }),
            A::Sep(a, b) => Assertion::Sep(Arc::new(a.build(env)), Arc::new(b.build(env))),
            A::Or(a, b) => Assertion::or(a.build(env), b.build(env)),
            A::Exists(i, a) => Assertion::exists(Binder::new(env.binders[*i]), a.build(env)),
            A::Forall(i, a) => Assertion::forall(Binder::new(env.binders[*i]), a.build(env)),
            A::Wand(a, b) => Assertion::wand(a.build(env), b.build(env)),
            A::Later(a) => Assertion::later(a.build(env)),
            A::FUpd(a) => Assertion::fupd(MaskT::top(), MaskT::top(), a.build(env)),
        }
    }
}

fn assertion() -> impl Strategy<Value = A> {
    let leaf = prop_oneof![
        (term(), term()).prop_map(|(a, b)| A::Eq(a, b)),
        (term(), term()).prop_map(|(a, b)| A::Lt(a, b)),
        (term(), term(), term()).prop_map(|(a, b, c)| A::NotAnd(a, b, c)),
        (term(), term()).prop_map(|(l, v)| A::PointsTo(l, v)),
        (term(), prop::collection::vec(term(), 0..3)).prop_map(|(g, xs)| A::Ghost(g, xs)),
        prop::collection::vec(term(), 0..3).prop_map(A::Pred),
        Just(A::CloseInv),
    ];
    leaf.prop_recursive(5, 32, 2, |inner| {
        let b = |a| Box::new(a);
        prop_oneof![
            inner.clone().prop_map(move |a| A::Inv(b(a))),
            inner.clone().prop_map(move |a| A::Wp(b(a))),
            (inner.clone(), inner.clone()).prop_map(move |(x, y)| A::Sep(b(x), b(y))),
            (inner.clone(), inner.clone()).prop_map(move |(x, y)| A::Or(b(x), b(y))),
            (0usize..3, inner.clone()).prop_map(move |(i, a)| A::Exists(i, b(a))),
            (0usize..3, inner.clone()).prop_map(move |(i, a)| A::Forall(i, b(a))),
            (inner.clone(), inner.clone()).prop_map(move |(x, y)| A::Wand(b(x), b(y))),
            inner.clone().prop_map(move |a| A::Later(b(a))),
            inner.prop_map(move |a| A::FUpd(b(a))),
        ]
    })
}

/// A substitution on a subset of the free variables (and possibly binder
/// placeholders), with targets that may mention variables themselves.
fn subst() -> impl Strategy<Value = Vec<(bool, usize, T)>> {
    prop::collection::vec(((0u8..2).prop_map(|b| b == 1), 0usize..4, term()), 0..4)
}

fn build_subst(env: &Env, raw: &[(bool, usize, T)]) -> Subst {
    raw.iter()
        .map(|(binder, i, t)| {
            let v = if *binder {
                env.binders[*i % 3]
            } else {
                env.vars[*i]
            };
            (v, t.build(env))
        })
        .collect()
}

/// Solutions for some evars: evar `i` may be solved only with a term over
/// the evars below it, so solution chains are acyclic.
fn solutions() -> impl Strategy<Value = Vec<Option<T>>> {
    let sol = prop_oneof![Just(None), term().prop_map(Some), term().prop_map(Some)];
    prop::collection::vec(sol, 4)
}

fn solve(env: &mut Env, sols: &[Option<T>]) {
    fn lower(t: &T, below: usize) -> T {
        match t {
            T::EVar(j) if *j >= below => T::Int(*j as i8),
            T::App(sym, args) => T::App(*sym, args.iter().map(|a| lower(a, below)).collect()),
            other => other.clone(),
        }
    }
    for (i, sol) in sols.iter().enumerate() {
        if let Some(t) = sol {
            let t = lower(t, i).build(env);
            env.ctx.solve_evar(env.evars[i], t);
        }
    }
}

/// Checks the sharing contract between `inp` and its rewrite `out`:
/// wherever `rewritten` selects no leaf of an input subtree, the output
/// holds the very same allocation.
fn check_term(inp: &Term, out: &Term, rewritten: &dyn Fn(&Term) -> bool) -> Result<(), String> {
    match (inp, out) {
        (Term::App(f, xs), Term::App(g, ys)) => {
            if !rewritten(inp) {
                if Arc::ptr_eq(xs, ys) {
                    return Ok(());
                }
                return Err(format!("untouched argument list copied: {inp:?}"));
            }
            // A projection may reduce to one of its arguments' parts, so
            // only a rebuilt node of the same shape is compared pointwise.
            if f == g && !matches!(f, Sym::Fst | Sym::Snd) {
                for (x, y) in xs.iter().zip(ys.iter()) {
                    check_term(x, y, rewritten)?;
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn terms_of_atom(a: &Atom) -> Vec<&Term> {
    match a {
        Atom::PointsTo { loc, frac, val } => vec![loc, frac, val],
        Atom::Ghost(g) => std::iter::once(&g.gname).chain(&g.args).collect(),
        Atom::PredApp { args, .. } => args.iter().collect(),
        Atom::Invariant { .. } | Atom::Wp { .. } | Atom::CloseInv { .. } => Vec::new(),
    }
}

fn terms_of_prop(p: &PureProp) -> Vec<&Term> {
    let mut out: Vec<&Term> = Vec::new();
    fn go<'a>(p: &'a PureProp, out: &mut Vec<&'a Term>) {
        match p {
            PureProp::True | PureProp::False => {}
            PureProp::Eq(a, b) | PureProp::Ne(a, b) | PureProp::Le(a, b) | PureProp::Lt(a, b) => {
                out.push(a);
                out.push(b);
            }
            PureProp::And(a, b) | PureProp::Or(a, b) | PureProp::Implies(a, b) => {
                go(a, out);
                go(b, out);
            }
            PureProp::Not(a) => go(a, out),
        }
    }
    go(p, &mut out);
    out
}

/// Every term leaf of a subtree, invariant bodies and postconditions
/// included (the independent counterpart of `any_term`).
fn leaves(a: &Assertion) -> Vec<&Term> {
    let mut refs: Vec<&Term> = Vec::new();
    fn go<'a>(a: &'a Assertion, refs: &mut Vec<&'a Term>) {
        match a {
            Assertion::Pure(p) => refs.extend(terms_of_prop(p)),
            Assertion::Atom(x) => {
                refs.extend(terms_of_atom(x));
                match x {
                    Atom::Invariant { body, .. } => go(body, refs),
                    Atom::Wp { post, .. } => go(&post.body, refs),
                    _ => {}
                }
            }
            Assertion::Sep(x, y) | Assertion::Or(x, y) | Assertion::Wand(x, y) => {
                go(x, refs);
                go(y, refs);
            }
            Assertion::Exists(_, x)
            | Assertion::Forall(_, x)
            | Assertion::Later(x)
            | Assertion::BUpd(x)
            | Assertion::FUpd(_, _, x) => go(x, refs),
        }
    }
    go(a, &mut refs);
    refs
}

fn check_shared(
    inp: &Arc<Assertion>,
    out: &Arc<Assertion>,
    rewritten: &dyn Fn(&Term) -> bool,
) -> Result<(), String> {
    if !leaves(inp).into_iter().any(rewritten) {
        if Arc::ptr_eq(inp, out) {
            return Ok(());
        }
        return Err(format!("untouched subtree copied: {inp:?}"));
    }
    check_node(inp, out, rewritten)
}

fn check_node(
    inp: &Assertion,
    out: &Assertion,
    rewritten: &dyn Fn(&Term) -> bool,
) -> Result<(), String> {
    let pairwise = |xs: Vec<&Term>, ys: Vec<&Term>| -> Result<(), String> {
        if xs.len() != ys.len() {
            return Err("leaf count changed".into());
        }
        xs.iter()
            .zip(&ys)
            .try_for_each(|(x, y)| check_term(x, y, rewritten))
    };
    match (inp, out) {
        (Assertion::Pure(p), Assertion::Pure(q)) => pairwise(terms_of_prop(p), terms_of_prop(q)),
        (Assertion::Atom(a), Assertion::Atom(b)) => {
            pairwise(terms_of_atom(a), terms_of_atom(b))?;
            match (a, b) {
                (Atom::Invariant { body: x, .. }, Atom::Invariant { body: y, .. }) => {
                    check_shared(x, y, rewritten)
                }
                (Atom::Wp { post: x, .. }, Atom::Wp { post: y, .. }) => {
                    check_shared(&x.body, &y.body, rewritten)
                }
                _ => Ok(()),
            }
        }
        (Assertion::Sep(a, b), Assertion::Sep(c, d))
        | (Assertion::Or(a, b), Assertion::Or(c, d))
        | (Assertion::Wand(a, b), Assertion::Wand(c, d)) => {
            check_shared(a, c, rewritten)?;
            check_shared(b, d, rewritten)
        }
        (Assertion::Exists(_, a), Assertion::Exists(_, c))
        | (Assertion::Forall(_, a), Assertion::Forall(_, c))
        | (Assertion::Later(a), Assertion::Later(c))
        | (Assertion::BUpd(a), Assertion::BUpd(c))
        | (Assertion::FUpd(_, _, a), Assertion::FUpd(_, _, c)) => check_shared(a, c, rewritten),
        _ => Err(format!("shape changed: {inp:?} became {out:?}")),
    }
}

fn mentions_domain(s: &Subst, t: &Term) -> bool {
    t.free_vars().iter().any(|v| s.get(*v).is_some())
}

proptest! {
    /// Substitution, by value and in place, equals the rebuilding
    /// reference and shares every subtree it does not touch.
    #[test]
    fn subst_matches_reference_and_shares(a in assertion(), raw in subst()) {
        let env = Env::new();
        let a = a.build(&env);
        let s = build_subst(&env, &raw);
        let want = reference::subst(&a, &s);
        let got = a.subst(&s);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        let mut in_place = a.clone();
        in_place.subst_in_place(&s);
        prop_assert_eq!(&in_place, &want);
        let rewritten = |t: &Term| mentions_domain(&s, t);
        check_node(&a, &got, &rewritten).map_err(TestCaseError::fail)?;
        check_node(&a, &in_place, &rewritten).map_err(TestCaseError::fail)?;
    }

    /// Zonking, by value and in place, equals the rebuilding reference
    /// and shares every subtree holding no solved evar or redex.
    #[test]
    fn zonk_matches_reference_and_shares(a in assertion(), sols in solutions()) {
        let mut env = Env::new();
        solve(&mut env, &sols);
        let a = a.build(&env);
        let ctx = &env.ctx;
        let want = reference::zonk(&a, ctx);
        let got = a.zonk(ctx);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        let mut in_place = a.clone();
        in_place.zonk_in_place(ctx);
        prop_assert_eq!(&in_place, &want);
        prop_assert_eq!(a.needs_zonk(ctx), want != a);
        let rewritten = |t: &Term| reference::zonk_term(ctx, t) != *t;
        check_node(&a, &got, &rewritten).map_err(TestCaseError::fail)?;
        check_node(&a, &in_place, &rewritten).map_err(TestCaseError::fail)?;
    }

    /// A substitution that touches nothing leaves the whole tree
    /// pointer-equal: every argument list and every shared child.
    #[test]
    fn untouching_subst_shares_everything(a in assertion(), t in term()) {
        let env = Env::new();
        let a = a.build(&env);
        let s = Subst::single(env.unused, t.build(&env));
        let got = a.subst(&s);
        prop_assert_eq!(&got, &a);
        check_node(&a, &got, &|_| false).map_err(TestCaseError::fail)?;
        let mut in_place = a.clone();
        in_place.subst_in_place(&s);
        check_node(&a, &in_place, &|_| false).map_err(TestCaseError::fail)?;
    }
}
