//! Call-by-value evaluation contexts and redex decomposition.
//!
//! HeapLang evaluates right-to-left (the argument of an application before
//! the function, the right operand of a binary operator first, …). The
//! decomposition below is shared between the interpreter and the prover's
//! symbolic execution, so both agree on where the next redex is.

use crate::expr::{BinOp, Expr, UnOp};
use crate::value::Val;
use std::sync::Arc;

/// One evaluation-context frame (an expression with a single hole).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// `[] v` — function position, argument already evaluated.
    AppL(Val),
    /// `e []` — argument position.
    AppR(Expr),
    /// `op []`.
    UnOp(UnOp),
    /// `[] op v`.
    BinOpL(BinOp, Val),
    /// `e op []`.
    BinOpR(BinOp, Expr),
    /// `if [] then e1 else e2`.
    If(Expr, Expr),
    /// `([], v)`.
    PairL(Val),
    /// `(e, [])`.
    PairR(Expr),
    /// `fst []`.
    Fst,
    /// `snd []`.
    Snd,
    /// `inl []`.
    InjL,
    /// `inr []`.
    InjR,
    /// `match [] with inl => e1 | inr => e2`.
    Case(Expr, Expr),
    /// `ref []`.
    Alloc,
    /// `! []`.
    Load,
    /// `[] <- v`.
    StoreL(Val),
    /// `e <- []`.
    StoreR(Expr),
    /// `CAS([], v1, v2)`.
    CasL(Val, Val),
    /// `CAS(e, [], v2)`.
    CasM(Expr, Val),
    /// `CAS(e1, e2, [])`.
    CasR(Expr, Expr),
    /// `FAA([], v)`.
    FaaL(Val),
    /// `FAA(e, [])`.
    FaaR(Expr),
}

impl Frame {
    /// Plugs an expression into the frame's hole.
    #[must_use]
    pub fn fill(&self, e: Expr) -> Expr {
        match self {
            Frame::AppL(v) => Expr::app(e, Expr::Val(v.clone())),
            Frame::AppR(f) => Expr::app(f.clone(), e),
            Frame::UnOp(op) => Expr::UnOp(*op, Arc::new(e)),
            Frame::BinOpL(op, v) => Expr::binop(*op, e, Expr::Val(v.clone())),
            Frame::BinOpR(op, l) => Expr::binop(*op, l.clone(), e),
            Frame::If(t, f) => Expr::if_(e, t.clone(), f.clone()),
            Frame::PairL(v) => Expr::Pair(Arc::new(e), Arc::new(Expr::Val(v.clone()))),
            Frame::PairR(l) => Expr::Pair(Arc::new(l.clone()), Arc::new(e)),
            Frame::Fst => Expr::Fst(Arc::new(e)),
            Frame::Snd => Expr::Snd(Arc::new(e)),
            Frame::InjL => Expr::InjL(Arc::new(e)),
            Frame::InjR => Expr::InjR(Arc::new(e)),
            Frame::Case(l, r) => Expr::Case(Arc::new(e), Arc::new(l.clone()), Arc::new(r.clone())),
            Frame::Alloc => Expr::Alloc(Arc::new(e)),
            Frame::Load => Expr::Load(Arc::new(e)),
            Frame::StoreL(v) => Expr::store(e, Expr::Val(v.clone())),
            Frame::StoreR(l) => Expr::store(l.clone(), e),
            Frame::CasL(v1, v2) => Expr::cas(e, Expr::Val(v1.clone()), Expr::Val(v2.clone())),
            Frame::CasM(l, v2) => Expr::cas(l.clone(), e, Expr::Val(v2.clone())),
            Frame::CasR(l, old) => Expr::cas(l.clone(), old.clone(), e),
            Frame::FaaL(v) => Expr::faa(e, Expr::Val(v.clone())),
            Frame::FaaR(l) => Expr::faa(l.clone(), e),
        }
    }
}

/// Plugs an expression into a whole context (innermost frame first).
#[must_use]
pub fn fill_ctx(frames: &[Frame], e: Expr) -> Expr {
    frames.iter().rev().fold(e, |acc, f| f.fill(acc))
}

/// The result of decomposing an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decomp {
    /// The expression is a value.
    Value(Val),
    /// `e = K[redex]` with `redex` a head position (every subexpression
    /// that must be evaluated first is already a value).
    Head(Vec<Frame>, Expr),
}

/// Decomposes `e = K[e']` with `e'` the next head redex, or recognises a
/// value. The frame list is outermost-first.
#[must_use]
pub fn decompose(e: &Expr) -> Decomp {
    if let Expr::Val(v) = e {
        return Decomp::Value(v.clone());
    }
    let mut frames = Vec::new();
    let mut cur = e.clone();
    loop {
        match next_frame(&cur) {
            Some((frame, sub)) => {
                frames.push(frame);
                cur = sub;
            }
            None => return Decomp::Head(frames, cur),
        }
    }
}

/// If the expression has a non-value subexpression in evaluation position,
/// returns the frame around it and the subexpression itself.
fn next_frame(e: &Expr) -> Option<(Frame, Expr)> {
    // Helper: a two-operand, right-to-left position.
    fn two(
        l: &Expr,
        r: &Expr,
        right: impl FnOnce(Expr) -> Frame,
        left: impl FnOnce(Val) -> Frame,
    ) -> Option<(Frame, Expr)> {
        if !r.is_val() {
            return Some((right(l.clone()), r.clone()));
        }
        if !l.is_val() {
            let v = r.as_val().expect("checked above").clone();
            return Some((left(v), l.clone()));
        }
        None
    }
    match e {
        Expr::Val(_) | Expr::Var(_) | Expr::Rec { .. } | Expr::Fork(_) => None,
        Expr::App(f, a) => two(f, a, Frame::AppR, Frame::AppL),
        Expr::UnOp(op, a) => (!a.is_val()).then(|| (Frame::UnOp(*op), (**a).clone())),
        Expr::BinOp(op, l, r) => two(l, r, |e| Frame::BinOpR(*op, e), |v| Frame::BinOpL(*op, v)),
        Expr::If(c, t, f) => {
            (!c.is_val()).then(|| (Frame::If((**t).clone(), (**f).clone()), (**c).clone()))
        }
        Expr::Pair(l, r) => two(l, r, Frame::PairR, Frame::PairL),
        Expr::Fst(a) => (!a.is_val()).then(|| (Frame::Fst, (**a).clone())),
        Expr::Snd(a) => (!a.is_val()).then(|| (Frame::Snd, (**a).clone())),
        Expr::InjL(a) => (!a.is_val()).then(|| (Frame::InjL, (**a).clone())),
        Expr::InjR(a) => (!a.is_val()).then(|| (Frame::InjR, (**a).clone())),
        Expr::Case(s, l, r) => {
            (!s.is_val()).then(|| (Frame::Case((**l).clone(), (**r).clone()), (**s).clone()))
        }
        Expr::Alloc(a) => (!a.is_val()).then(|| (Frame::Alloc, (**a).clone())),
        Expr::Load(a) => (!a.is_val()).then(|| (Frame::Load, (**a).clone())),
        Expr::Store(l, v) => two(l, v, Frame::StoreR, Frame::StoreL),
        Expr::Cas(l, o, n) => {
            if !n.is_val() {
                return Some((Frame::CasR((**l).clone(), (**o).clone()), (**n).clone()));
            }
            let nv = n.as_val().expect("checked above").clone();
            if !o.is_val() {
                return Some((Frame::CasM((**l).clone(), nv), (**o).clone()));
            }
            let ov = o.as_val().expect("checked above").clone();
            if !l.is_val() {
                return Some((Frame::CasL(ov, nv), (**l).clone()));
            }
            None
        }
        Expr::Faa(l, k) => two(l, k, Frame::FaaR, Frame::FaaL),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_decomposes_to_value() {
        assert_eq!(decompose(&Expr::int(3)), Decomp::Value(Val::int(3)));
    }

    #[test]
    fn head_redex_has_no_frames() {
        let e = Expr::binop(BinOp::Add, Expr::int(1), Expr::int(2));
        match decompose(&e) {
            Decomp::Head(frames, redex) => {
                assert!(frames.is_empty());
                assert_eq!(redex, e);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn right_to_left_order() {
        // In (1 + 2) + (3 + 4), the right operand is evaluated first.
        let l = Expr::binop(BinOp::Add, Expr::int(1), Expr::int(2));
        let r = Expr::binop(BinOp::Add, Expr::int(3), Expr::int(4));
        let e = Expr::binop(BinOp::Add, l.clone(), r.clone());
        match decompose(&e) {
            Decomp::Head(frames, redex) => {
                assert_eq!(redex, r);
                assert_eq!(frames, vec![Frame::BinOpR(BinOp::Add, l)]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn fork_is_a_head_redex() {
        // fork's body is *not* evaluated in the parent thread.
        let e = Expr::fork(Expr::binop(BinOp::Add, Expr::int(1), Expr::int(2)));
        match decompose(&e) {
            Decomp::Head(frames, redex) => {
                assert!(frames.is_empty());
                assert_eq!(redex, e);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn fill_round_trips() {
        let e = Expr::store(
            Expr::load(Expr::var("l")),
            Expr::binop(BinOp::Add, Expr::int(1), Expr::int(2)),
        );
        match decompose(&e) {
            Decomp::Head(frames, redex) => {
                assert_eq!(fill_ctx(&frames, redex), e);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn nested_contexts() {
        // !(!l): inner load is the redex (with l a location value).
        let l = Expr::Val(Val::Loc(crate::heap::Loc::new(0)));
        let e = Expr::load(Expr::load(l.clone()));
        match decompose(&e) {
            Decomp::Head(frames, redex) => {
                assert_eq!(frames, vec![Frame::Load]);
                assert_eq!(redex, Expr::load(l));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
