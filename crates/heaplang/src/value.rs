//! HeapLang values.

use crate::expr::Expr;
use crate::heap::Loc;
use std::fmt;
use std::sync::Arc;

/// A HeapLang value.
///
/// Closures ([`Val::Rec`]) store their (already substituted) body behind an
/// [`Arc`] so that values stay cheap to clone — the substitution-based
/// semantics copies values freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Val {
    /// The unit value `()`.
    Unit,
    /// An integer literal.
    Int(i128),
    /// A boolean literal.
    Bool(bool),
    /// A heap location.
    Loc(Loc),
    /// A pair of values.
    Pair(Box<Val>, Box<Val>),
    /// Left injection of a sum.
    InjL(Box<Val>),
    /// Right injection of a sum.
    InjR(Box<Val>),
    /// A (possibly recursive) closure `rec f x := body`. `f`/`x` are `None`
    /// for anonymous/argument-ignoring binders.
    Rec {
        /// The self-reference binder.
        f: Option<String>,
        /// The argument binder.
        x: Option<String>,
        /// The body, with the environment already substituted in.
        body: Arc<Expr>,
    },
    /// A *symbolic* value, used only by the prover's symbolic execution:
    /// the id refers to a logical term in the prover's symbol table. The
    /// interpreter treats symbolic values as opaque — any primitive applied
    /// to one is stuck, which is sound because verified programs are never
    /// run with symbolic inputs.
    Sym(u64),
}

impl Val {
    #[must_use]
    /// An integer value.
    pub fn int(n: i128) -> Val {
        Val::Int(n)
    }

    #[must_use]
    /// A boolean value.
    pub fn bool(b: bool) -> Val {
        Val::Bool(b)
    }

    #[must_use]
    /// A pair value.
    pub fn pair(a: Val, b: Val) -> Val {
        Val::Pair(Box::new(a), Box::new(b))
    }

    #[must_use]
    /// A left injection.
    pub fn inj_l(v: Val) -> Val {
        Val::InjL(Box::new(v))
    }

    #[must_use]
    /// A right injection.
    pub fn inj_r(v: Val) -> Val {
        Val::InjR(Box::new(v))
    }

    /// Whether `CAS` may compare this value atomically. Mirrors HeapLang's
    /// `vals_compare_safe`: only word-sized (unboxed) values may be compared
    /// by an atomic instruction.
    #[must_use]
    pub fn compare_safe(&self) -> bool {
        matches!(self, Val::Unit | Val::Int(_) | Val::Bool(_) | Val::Loc(_))
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Val::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Val::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The location payload, if this is a location.
    #[must_use]
    pub fn as_loc(&self) -> Option<Loc> {
        match self {
            Val::Loc(l) => Some(*l),
            _ => None,
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Unit => write!(f, "()"),
            Val::Int(n) => write!(f, "{n}"),
            Val::Bool(b) => write!(f, "{b}"),
            Val::Loc(l) => write!(f, "{l}"),
            Val::Pair(a, b) => write!(f, "({a}, {b})"),
            Val::InjL(v) => write!(f, "inl {v}"),
            Val::InjR(v) => write!(f, "inr {v}"),
            Val::Rec { f: fun, x, .. } => {
                let fun = fun.as_deref().unwrap_or("_");
                let x = x.as_deref().unwrap_or("_");
                write!(f, "<rec {fun} {x}>")
            }
            Val::Sym(id) => write!(f, "?v{id}"),
        }
    }
}

impl From<i128> for Val {
    fn from(n: i128) -> Val {
        Val::Int(n)
    }
}

impl From<bool> for Val {
    fn from(b: bool) -> Val {
        Val::Bool(b)
    }
}

impl From<Loc> for Val {
    fn from(l: Loc) -> Val {
        Val::Loc(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_safety() {
        assert!(Val::Unit.compare_safe());
        assert!(Val::int(3).compare_safe());
        assert!(Val::Loc(Loc::new(1)).compare_safe());
        assert!(!Val::pair(Val::Unit, Val::Unit).compare_safe());
        assert!(!Val::inj_l(Val::Unit).compare_safe());
    }

    #[test]
    fn accessors() {
        assert_eq!(Val::int(7).as_int(), Some(7));
        assert_eq!(Val::bool(true).as_bool(), Some(true));
        assert_eq!(Val::Unit.as_int(), None);
    }

    #[test]
    fn display() {
        assert_eq!(
            Val::pair(Val::int(1), Val::bool(false)).to_string(),
            "(1, false)"
        );
        assert_eq!(Val::inj_r(Val::Unit).to_string(), "inr ()");
    }
}
