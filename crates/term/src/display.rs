//! Pretty-printing of terms and pure propositions.
//!
//! Display needs the [`VarCtx`] for variable name hints, so the primary
//! entry points are [`TermDisplay`] and [`PurePropDisplay`], created via
//! [`pp_term`] / [`pp_prop`].

use crate::evar::VarCtx;
use crate::pure::PureProp;
use crate::term::{Sym, Term};
use std::fmt;

/// Displays a term with variable names resolved against a context.
pub struct TermDisplay<'a> {
    ctx: &'a VarCtx,
    term: &'a Term,
}

/// Creates a [`TermDisplay`] for use in format strings.
#[must_use]
pub fn pp_term<'a>(ctx: &'a VarCtx, term: &'a Term) -> TermDisplay<'a> {
    TermDisplay { ctx, term }
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_term(self.ctx, &self.term.zonk(self.ctx), f)
    }
}

fn fmt_term(ctx: &VarCtx, t: &Term, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match t {
        Term::Var(v) => {
            let name = ctx.var_name(*v);
            if name.is_empty() {
                write!(f, "{v}")
            } else {
                write!(f, "{name}{}", v.index())
            }
        }
        Term::EVar(e) => write!(f, "{e}"),
        Term::Int(n) => write!(f, "{n}"),
        Term::Bool(b) => write!(f, "{b}"),
        Term::QpLit(q) => write!(f, "{q}"),
        Term::Loc(l) => write!(f, "ℓ{l}"),
        Term::Gname(g) => write!(f, "γ{g}"),
        Term::App(sym, args) => match sym {
            Sym::Add => binop(ctx, "+", &args[0], &args[1], f),
            Sym::Sub => binop(ctx, "-", &args[0], &args[1], f),
            Sym::Mul => binop(ctx, "*", &args[0], &args[1], f),
            Sym::Min => fun(ctx, "min", args, f),
            Sym::Max => fun(ctx, "max", args, f),
            Sym::Neg => {
                write!(f, "-")?;
                fmt_atomic(ctx, &args[0], f)
            }
            Sym::VInt | Sym::VBool | Sym::VLoc => {
                write!(f, "#")?;
                fmt_atomic(ctx, &args[0], f)
            }
            Sym::VUnit => write!(f, "#()"),
            Sym::VPair => {
                write!(f, "(")?;
                fmt_term(ctx, &args[0], f)?;
                write!(f, ", ")?;
                fmt_term(ctx, &args[1], f)?;
                write!(f, ")")
            }
            Sym::VInjL => fun(ctx, "inl", args, f),
            Sym::VInjR => fun(ctx, "inr", args, f),
            Sym::Fst => fun(ctx, "fst", args, f),
            Sym::Snd => fun(ctx, "snd", args, f),
        },
    }
}

fn fmt_atomic(ctx: &VarCtx, t: &Term, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let needs_parens =
        matches!(t, Term::App(s, _) if s.is_arith()) || matches!(t, Term::Int(n) if *n < 0);
    if needs_parens {
        write!(f, "(")?;
        fmt_term(ctx, t, f)?;
        write!(f, ")")
    } else {
        fmt_term(ctx, t, f)
    }
}

fn binop(ctx: &VarCtx, op: &str, a: &Term, b: &Term, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    fmt_atomic(ctx, a, f)?;
    write!(f, " {op} ")?;
    fmt_atomic(ctx, b, f)
}

fn fun(ctx: &VarCtx, name: &str, args: &[Term], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{name}(")?;
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        fmt_term(ctx, a, f)?;
    }
    write!(f, ")")
}

/// Displays a pure proposition with variable names resolved.
pub struct PurePropDisplay<'a> {
    ctx: &'a VarCtx,
    prop: &'a PureProp,
}

/// Creates a [`PurePropDisplay`] for use in format strings.
#[must_use]
pub fn pp_prop<'a>(ctx: &'a VarCtx, prop: &'a PureProp) -> PurePropDisplay<'a> {
    PurePropDisplay { ctx, prop }
}

impl fmt::Display for PurePropDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_prop(self.ctx, self.prop, f)
    }
}

fn fmt_prop(ctx: &VarCtx, p: &PureProp, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match p {
        PureProp::True => write!(f, "True"),
        PureProp::False => write!(f, "False"),
        PureProp::Eq(a, b) => rel(ctx, "=", a, b, f),
        PureProp::Ne(a, b) => rel(ctx, "≠", a, b, f),
        PureProp::Le(a, b) => rel(ctx, "≤", a, b, f),
        PureProp::Lt(a, b) => rel(ctx, "<", a, b, f),
        PureProp::And(a, b) => {
            fmt_prop(ctx, a, f)?;
            write!(f, " ∧ ")?;
            fmt_prop(ctx, b, f)
        }
        PureProp::Or(a, b) => {
            write!(f, "(")?;
            fmt_prop(ctx, a, f)?;
            write!(f, " ∨ ")?;
            fmt_prop(ctx, b, f)?;
            write!(f, ")")
        }
        PureProp::Not(a) => {
            write!(f, "¬(")?;
            fmt_prop(ctx, a, f)?;
            write!(f, ")")
        }
        PureProp::Implies(a, b) => {
            write!(f, "(")?;
            fmt_prop(ctx, a, f)?;
            write!(f, " → ")?;
            fmt_prop(ctx, b, f)?;
            write!(f, ")")
        }
    }
}

fn rel(ctx: &VarCtx, op: &str, a: &Term, b: &Term, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    fmt_term(ctx, &a.zonk(ctx), f)?;
    write!(f, " {op} ")?;
    fmt_term(ctx, &b.zonk(ctx), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    #[test]
    fn term_rendering() {
        let mut ctx = VarCtx::new();
        let z = ctx.fresh_var(Sort::Int, "z");
        let t = Term::add(Term::var(z), Term::int(-1));
        assert_eq!(pp_term(&ctx, &t).to_string(), "z0 + (-1)");
        assert_eq!(pp_term(&ctx, &Term::v_int_lit(3)).to_string(), "#3");
        assert_eq!(pp_term(&ctx, &Term::v_unit()).to_string(), "#()");
    }

    #[test]
    fn prop_rendering() {
        let mut ctx = VarCtx::new();
        let z = ctx.fresh_var(Sort::Int, "z");
        let p = PureProp::lt(Term::int(0), Term::var(z));
        assert_eq!(pp_prop(&ctx, &p).to_string(), "0 < z0");
    }

    #[test]
    fn zonked_rendering() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        ctx.solve_evar(e, Term::int(9));
        assert_eq!(pp_term(&ctx, &Term::evar(e)).to_string(), "9");
    }
}
