//! HeapLang expressions and substitution.

use crate::value::Val;
use std::fmt;
use std::sync::Arc;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Boolean negation.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (stuck on zero).
    Div,
    /// Integer remainder (stuck on zero).
    Mod,
    /// Structural equality on comparable (unboxed) values.
    Eq,
    /// Structural disequality.
    Ne,
    /// Integer `<`.
    Lt,
    /// Integer `≤`.
    Le,
    /// Integer `>`.
    Gt,
    /// Integer `≥`.
    Ge,
    /// Boolean conjunction (strict — both sides evaluated).
    And,
    /// Boolean disjunction (strict).
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        f.write_str(s)
    }
}

/// A HeapLang expression.
///
/// The semantics is substitution-based: running a binder substitutes a
/// closed [`Val`] into the body, so expressions under evaluation are always
/// closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A value.
    Val(Val),
    /// A free variable (only before substitution).
    Var(String),
    /// `rec f x := body` — evaluates to a closure value.
    Rec {
        /// The self-reference name (`None` for plain lambdas).
        f: Option<String>,
        /// The argument name (`None` when unused).
        x: Option<String>,
        /// The function body.
        body: Arc<Expr>,
    },
    /// Application (arguments evaluate right-to-left, as in HeapLang).
    App(Arc<Expr>, Arc<Expr>),
    /// A unary operation.
    UnOp(UnOp, Arc<Expr>),
    /// A binary operation.
    BinOp(BinOp, Arc<Expr>, Arc<Expr>),
    /// A conditional.
    If(Arc<Expr>, Arc<Expr>, Arc<Expr>),
    /// Pair construction.
    Pair(Arc<Expr>, Arc<Expr>),
    /// First projection.
    Fst(Arc<Expr>),
    /// Second projection.
    Snd(Arc<Expr>),
    /// Left injection of a sum.
    InjL(Arc<Expr>),
    /// Right injection of a sum.
    InjR(Arc<Expr>),
    /// `match e with inl => e1 | inr => e2` — `e1`, `e2` are functions
    /// applied to the injected payload.
    Case(Arc<Expr>, Arc<Expr>, Arc<Expr>),
    /// `ref e` — allocation.
    Alloc(Arc<Expr>),
    /// `!e` — load.
    Load(Arc<Expr>),
    /// `e1 <- e2` — store.
    Store(Arc<Expr>, Arc<Expr>),
    /// `CAS(l, v1, v2)` — compare-and-set, returns a boolean.
    Cas(Arc<Expr>, Arc<Expr>, Arc<Expr>),
    /// `FAA(l, k)` — fetch-and-add, returns the old value.
    Faa(Arc<Expr>, Arc<Expr>),
    /// `fork { e }` — spawns a thread, returns `()`.
    Fork(Arc<Expr>),
}

impl Expr {
    #[must_use]
    /// A value literal.
    pub fn val(v: Val) -> Expr {
        Expr::Val(v)
    }

    #[must_use]
    /// An integer literal.
    pub fn int(n: i128) -> Expr {
        Expr::Val(Val::Int(n))
    }

    #[must_use]
    /// A boolean literal.
    pub fn bool(b: bool) -> Expr {
        Expr::Val(Val::Bool(b))
    }

    #[must_use]
    /// The unit literal `()`.
    pub fn unit() -> Expr {
        Expr::Val(Val::Unit)
    }

    #[must_use]
    /// A free variable.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_owned())
    }

    /// An anonymous function `fun x := body`.
    #[must_use]
    pub fn lam(x: &str, body: Expr) -> Expr {
        Expr::Rec {
            f: None,
            x: Some(x.to_owned()),
            body: Arc::new(body),
        }
    }

    /// A recursive function `rec f x := body`.
    #[must_use]
    pub fn rec(f: &str, x: &str, body: Expr) -> Expr {
        Expr::Rec {
            f: Some(f.to_owned()),
            x: Some(x.to_owned()),
            body: Arc::new(body),
        }
    }

    #[must_use]
    /// Function application `f a`.
    pub fn app(f: Expr, a: Expr) -> Expr {
        Expr::App(Arc::new(f), Arc::new(a))
    }

    /// `let x := e1 in e2`, desugared to `(fun x := e2) e1`.
    #[must_use]
    pub fn let_(x: &str, e1: Expr, e2: Expr) -> Expr {
        Expr::app(Expr::lam(x, e2), e1)
    }

    /// `e1 ;; e2`, desugared to `(fun _ := e2) e1`.
    #[must_use]
    pub fn seq(e1: Expr, e2: Expr) -> Expr {
        Expr::app(
            Expr::Rec {
                f: None,
                x: None,
                body: Arc::new(e2),
            },
            e1,
        )
    }

    #[must_use]
    /// `if c then t else e`.
    pub fn if_(c: Expr, t: Expr, e: Expr) -> Expr {
        Expr::If(Arc::new(c), Arc::new(t), Arc::new(e))
    }

    #[must_use]
    /// A binary operation.
    pub fn binop(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::BinOp(op, Arc::new(a), Arc::new(b))
    }

    #[must_use]
    /// `ref e` — heap allocation.
    pub fn alloc(e: Expr) -> Expr {
        Expr::Alloc(Arc::new(e))
    }

    #[must_use]
    /// `!e` — heap load.
    pub fn load(e: Expr) -> Expr {
        Expr::Load(Arc::new(e))
    }

    #[must_use]
    /// `l <- v` — heap store.
    pub fn store(l: Expr, v: Expr) -> Expr {
        Expr::Store(Arc::new(l), Arc::new(v))
    }

    #[must_use]
    /// `CAS(l, old, new)` — atomic compare-and-swap.
    pub fn cas(l: Expr, old: Expr, new: Expr) -> Expr {
        Expr::Cas(Arc::new(l), Arc::new(old), Arc::new(new))
    }

    #[must_use]
    /// `FAA(l, k)` — atomic fetch-and-add.
    pub fn faa(l: Expr, k: Expr) -> Expr {
        Expr::Faa(Arc::new(l), Arc::new(k))
    }

    #[must_use]
    /// `fork { e }` — spawn a thread.
    pub fn fork(e: Expr) -> Expr {
        Expr::Fork(Arc::new(e))
    }

    /// The value, if this expression is one.
    #[must_use]
    pub fn as_val(&self) -> Option<&Val> {
        match self {
            Expr::Val(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the expression is a value.
    #[must_use]
    pub fn is_val(&self) -> bool {
        matches!(self, Expr::Val(_))
    }

    /// Substitutes the closed value `v` for the free variable `name`.
    /// Binders shadow: substitution does not descend under a binder for the
    /// same name.
    #[must_use]
    pub fn subst(&self, name: &str, v: &Val) -> Expr {
        match self {
            Expr::Val(_) => self.clone(),
            Expr::Var(x) => {
                if x == name {
                    Expr::Val(v.clone())
                } else {
                    self.clone()
                }
            }
            Expr::Rec { f, x, body } => {
                let shadowed = f.as_deref() == Some(name) || x.as_deref() == Some(name);
                if shadowed {
                    self.clone()
                } else {
                    Expr::Rec {
                        f: f.clone(),
                        x: x.clone(),
                        body: Arc::new(body.subst(name, v)),
                    }
                }
            }
            Expr::App(a, b) => Expr::app(a.subst(name, v), b.subst(name, v)),
            Expr::UnOp(op, a) => Expr::UnOp(*op, Arc::new(a.subst(name, v))),
            Expr::BinOp(op, a, b) => Expr::binop(*op, a.subst(name, v), b.subst(name, v)),
            Expr::If(c, t, e) => Expr::if_(c.subst(name, v), t.subst(name, v), e.subst(name, v)),
            Expr::Pair(a, b) => Expr::Pair(Arc::new(a.subst(name, v)), Arc::new(b.subst(name, v))),
            Expr::Fst(a) => Expr::Fst(Arc::new(a.subst(name, v))),
            Expr::Snd(a) => Expr::Snd(Arc::new(a.subst(name, v))),
            Expr::InjL(a) => Expr::InjL(Arc::new(a.subst(name, v))),
            Expr::InjR(a) => Expr::InjR(Arc::new(a.subst(name, v))),
            Expr::Case(s, l, r) => Expr::Case(
                Arc::new(s.subst(name, v)),
                Arc::new(l.subst(name, v)),
                Arc::new(r.subst(name, v)),
            ),
            Expr::Alloc(a) => Expr::Alloc(Arc::new(a.subst(name, v))),
            Expr::Load(a) => Expr::Load(Arc::new(a.subst(name, v))),
            Expr::Store(a, b) => Expr::store(a.subst(name, v), b.subst(name, v)),
            Expr::Cas(a, b, c) => Expr::cas(a.subst(name, v), b.subst(name, v), c.subst(name, v)),
            Expr::Faa(a, b) => Expr::faa(a.subst(name, v), b.subst(name, v)),
            Expr::Fork(a) => Expr::Fork(Arc::new(a.subst(name, v))),
        }
    }

    /// Substitutes an optional binder (the `None` binder ignores the value).
    #[must_use]
    pub fn subst_opt(&self, name: Option<&str>, v: &Val) -> Expr {
        match name {
            Some(n) => self.subst(n, v),
            None => self.clone(),
        }
    }

    /// The free variables of the expression.
    #[must_use]
    pub fn free_vars(&self) -> Vec<String> {
        fn go(e: &Expr, bound: &mut Vec<String>, out: &mut Vec<String>) {
            match e {
                Expr::Val(_) => {}
                Expr::Var(x) => {
                    if !bound.contains(x) && !out.contains(x) {
                        out.push(x.clone());
                    }
                }
                Expr::Rec { f, x, body } => {
                    let n = bound.len();
                    if let Some(f) = f {
                        bound.push(f.clone());
                    }
                    if let Some(x) = x {
                        bound.push(x.clone());
                    }
                    go(body, bound, out);
                    bound.truncate(n);
                }
                Expr::App(a, b)
                | Expr::BinOp(_, a, b)
                | Expr::Pair(a, b)
                | Expr::Store(a, b)
                | Expr::Faa(a, b) => {
                    go(a, bound, out);
                    go(b, bound, out);
                }
                Expr::UnOp(_, a)
                | Expr::Fst(a)
                | Expr::Snd(a)
                | Expr::InjL(a)
                | Expr::InjR(a)
                | Expr::Alloc(a)
                | Expr::Load(a)
                | Expr::Fork(a) => go(a, bound, out),
                Expr::If(a, b, c) | Expr::Case(a, b, c) | Expr::Cas(a, b, c) => {
                    go(a, bound, out);
                    go(b, bound, out);
                    go(c, bound, out);
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// Whether the expression is closed.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Converts a `Rec` expression (or value) into the corresponding
    /// closure value.
    #[must_use]
    pub fn to_rec_val(&self) -> Option<Val> {
        match self {
            Expr::Rec { f, x, body } => Some(Val::Rec {
                f: f.clone(),
                x: x.clone(),
                body: body.clone(),
            }),
            Expr::Val(v @ Val::Rec { .. }) => Some(v.clone()),
            _ => None,
        }
    }
}

impl From<Val> for Expr {
    fn from(v: Val) -> Expr {
        Expr::Val(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subst_replaces_free_occurrences() {
        let e = Expr::binop(BinOp::Add, Expr::var("x"), Expr::var("y"));
        let e = e.subst("x", &Val::int(1));
        assert_eq!(e, Expr::binop(BinOp::Add, Expr::int(1), Expr::var("y")));
    }

    #[test]
    fn subst_respects_shadowing() {
        // (fun x := x) with x := 5 outside must not touch the bound x.
        let lam = Expr::lam("x", Expr::var("x"));
        assert_eq!(lam.subst("x", &Val::int(5)), lam);
        // rec f binder shadows f.
        let r = Expr::rec("f", "y", Expr::app(Expr::var("f"), Expr::var("y")));
        assert_eq!(r.subst("f", &Val::int(5)), r);
    }

    #[test]
    fn free_vars_and_closedness() {
        let e = Expr::let_("x", Expr::int(1), Expr::var("x"));
        assert!(e.is_closed());
        let open = Expr::app(Expr::var("f"), Expr::var("x"));
        assert_eq!(open.free_vars(), vec!["f".to_owned(), "x".to_owned()]);
    }

    #[test]
    fn let_and_seq_desugar() {
        let e = Expr::seq(Expr::unit(), Expr::int(2));
        match e {
            Expr::App(f, _) => match &*f {
                Expr::Rec {
                    f: None, x: None, ..
                } => {}
                other => panic!("unexpected desugaring: {other:?}"),
            },
            other => panic!("unexpected desugaring: {other:?}"),
        }
    }

    #[test]
    fn rec_to_value() {
        let r = Expr::rec("f", "x", Expr::var("x"));
        let v = r.to_rec_val().unwrap();
        match v {
            Val::Rec { f, x, .. } => {
                assert_eq!(f.as_deref(), Some("f"));
                assert_eq!(x.as_deref(), Some("x"));
            }
            other => panic!("unexpected value: {other:?}"),
        }
    }
}
