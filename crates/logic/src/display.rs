//! Pretty-printing of assertions, in the paper's notation.
//!
//! Rendering needs a [`VarCtx`] (variable names) and a [`PredTable`]
//! (predicate names); use [`pp_assertion`] to build a displayable wrapper.
//! Output follows the Iris Proof Mode conventions: `ℓ ↦{q} v`,
//! `inv N (…)`, `⌜φ⌝`, `|⇛E₁ E₂`, `▷`, `∗`, `−∗`.

use crate::assertion::Assertion;
use crate::atom::Atom;
use crate::pred::PredTable;
use diaframe_term::display::{pp_prop, pp_term};
use diaframe_term::{Term, VarCtx};
use std::fmt;

/// A displayable assertion.
pub struct AssertionDisplay<'a> {
    ctx: &'a VarCtx,
    preds: &'a PredTable,
    assertion: &'a Assertion,
}

/// Creates an [`AssertionDisplay`] for use in format strings.
#[must_use]
pub fn pp_assertion<'a>(
    ctx: &'a VarCtx,
    preds: &'a PredTable,
    assertion: &'a Assertion,
) -> AssertionDisplay<'a> {
    AssertionDisplay {
        ctx,
        preds,
        assertion,
    }
}

impl fmt::Display for AssertionDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_assertion(self.ctx, self.preds, self.assertion, f, false)
    }
}

fn var_name(ctx: &VarCtx, v: diaframe_term::VarId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let name = ctx.var_name(v);
    if name.is_empty() {
        write!(f, "{v}")
    } else {
        write!(f, "{name}{}", v.index())
    }
}

fn fmt_assertion(
    ctx: &VarCtx,
    preds: &PredTable,
    a: &Assertion,
    f: &mut fmt::Formatter<'_>,
    parens: bool,
) -> fmt::Result {
    let compound = matches!(
        a,
        Assertion::Sep(..)
            | Assertion::Or(..)
            | Assertion::Wand(..)
            | Assertion::Exists(..)
            | Assertion::Forall(..)
    );
    if parens && compound {
        write!(f, "(")?;
        fmt_assertion(ctx, preds, a, f, false)?;
        return write!(f, ")");
    }
    match a {
        Assertion::Pure(p) => write!(f, "⌜{}⌝", pp_prop(ctx, p)),
        Assertion::Atom(at) => fmt_atom(ctx, preds, at, f),
        Assertion::Sep(l, r) => {
            fmt_assertion(ctx, preds, l, f, true)?;
            write!(f, " ∗ ")?;
            fmt_assertion(ctx, preds, r, f, true)
        }
        Assertion::Or(l, r) => {
            fmt_assertion(ctx, preds, l, f, true)?;
            write!(f, " ∨ ")?;
            fmt_assertion(ctx, preds, r, f, true)
        }
        Assertion::Exists(b, body) => {
            write!(f, "∃ ")?;
            var_name(ctx, b.var, f)?;
            write!(f, ". ")?;
            fmt_assertion(ctx, preds, body, f, false)
        }
        Assertion::Forall(b, body) => {
            write!(f, "∀ ")?;
            var_name(ctx, b.var, f)?;
            write!(f, ". ")?;
            fmt_assertion(ctx, preds, body, f, false)
        }
        Assertion::Wand(l, r) => {
            fmt_assertion(ctx, preds, l, f, true)?;
            write!(f, " −∗ ")?;
            fmt_assertion(ctx, preds, r, f, false)
        }
        Assertion::Later(body) => {
            write!(f, "▷ ")?;
            fmt_assertion(ctx, preds, body, f, true)
        }
        Assertion::BUpd(body) => {
            write!(f, "¤|⇛ ")?;
            fmt_assertion(ctx, preds, body, f, true)
        }
        Assertion::FUpd(e1, e2, body) => {
            write!(f, "|⇛{e1} {e2} ")?;
            fmt_assertion(ctx, preds, body, f, true)
        }
    }
}

fn fmt_atom(ctx: &VarCtx, preds: &PredTable, at: &Atom, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match at {
        Atom::PointsTo { loc, frac, val } => {
            write!(f, "{}", pp_term(ctx, loc))?;
            if *frac == Term::qp_one() {
                write!(f, " ↦ ")?;
            } else {
                write!(f, " ↦{{{}}} ", pp_term(ctx, frac))?;
            }
            write!(f, "{}", pp_term(ctx, val))
        }
        Atom::Ghost(g) => {
            write!(f, "{}", g.kind.name)?;
            if let Some(p) = g.pred {
                write!(f, " {}", preds.info(p).name)?;
            }
            write!(f, " {}", pp_term(ctx, &g.gname))?;
            for arg in &g.args {
                write!(f, " {}", pp_term(ctx, arg))?;
            }
            Ok(())
        }
        Atom::Invariant { ns, body } => {
            write!(f, "inv {ns} (")?;
            fmt_assertion(ctx, preds, body, f, false)?;
            write!(f, ")")
        }
        Atom::Wp { expr, mask, post } => {
            write!(f, "WP{mask} {expr} {{{{ ")?;
            var_name(ctx, post.ret, f)?;
            write!(f, ". ")?;
            fmt_assertion(ctx, preds, &post.body, f, false)?;
            write!(f, " }}}}")
        }
        Atom::PredApp { pred, args } => {
            write!(f, "{}", preds.info(*pred).name)?;
            for arg in args {
                write!(f, " {}", pp_term(ctx, arg))?;
            }
            Ok(())
        }
        Atom::CloseInv { ns } => write!(f, "χ[{ns}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Binder;
    use crate::namespace::Namespace;
    use diaframe_term::{PureProp, Qp, Sort};

    #[test]
    fn renders_points_to() {
        let mut ctx = VarCtx::new();
        let preds = PredTable::new();
        let l = ctx.fresh_var(Sort::Loc, "l");
        let a = Assertion::atom(Atom::points_to(Term::var(l), Term::v_bool_lit(false)));
        assert_eq!(pp_assertion(&ctx, &preds, &a).to_string(), "l0 ↦ #false");
        let half = Assertion::atom(Atom::points_to_frac(
            Term::var(l),
            Term::qp(Qp::half()),
            Term::v_unit(),
        ));
        assert_eq!(
            pp_assertion(&ctx, &preds, &half).to_string(),
            "l0 ↦{1/2} #()"
        );
    }

    #[test]
    fn renders_invariants_and_quantifiers() {
        let mut ctx = VarCtx::new();
        let preds = PredTable::new();
        let b = ctx.fresh_var(Sort::Bool, "b");
        let l = ctx.fresh_var(Sort::Loc, "l");
        let body = Assertion::exists(
            Binder::new(b),
            Assertion::atom(Atom::points_to(Term::var(l), Term::v_bool(Term::var(b)))),
        );
        let inv = Assertion::atom(Atom::invariant(Namespace::new("N"), body));
        assert_eq!(
            pp_assertion(&ctx, &preds, &inv).to_string(),
            "inv N (∃ b0. l1 ↦ #b0)"
        );
    }

    #[test]
    fn renders_connectives() {
        let ctx = VarCtx::new();
        let preds = PredTable::new();
        let t = Assertion::pure(PureProp::True);
        let s = Assertion::Sep(
            std::sync::Arc::new(t.clone()),
            std::sync::Arc::new(Assertion::later(t.clone())),
        );
        assert_eq!(
            pp_assertion(&ctx, &preds, &s).to_string(),
            "⌜True⌝ ∗ ▷ ⌜True⌝"
        );
        let w = Assertion::wand(t.clone(), t);
        assert_eq!(
            pp_assertion(&ctx, &preds, &w).to_string(),
            "⌜True⌝ −∗ ⌜True⌝"
        );
    }
}
