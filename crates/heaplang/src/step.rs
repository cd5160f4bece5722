//! The small-step operational semantics: head steps.

use crate::ectx::{decompose, fill_ctx, Decomp};
use crate::expr::{BinOp, Expr, UnOp};
use crate::heap::{Heap, Loc};
use crate::value::Val;
use std::fmt;

/// The observable memory effect of one head step.
///
/// Surfaced by [`StepResult`] so the schedule-sweep detectors
/// ([`crate::monitor`]) can watch a run without re-decomposing the
/// redex: the lock-order monitor keys on the spin-lock shapes
/// (`CAS(l, false, true)` to acquire, `l <- false` to release) and the
/// race detector on the read/write/RMW classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEffect {
    /// `ref v` allocated a fresh location (the initializing write).
    Alloc {
        /// The fresh location.
        loc: Loc,
    },
    /// `! l`.
    Load {
        /// The location read.
        loc: Loc,
    },
    /// `l <- v`.
    Store {
        /// The location written.
        loc: Loc,
        /// Whether the stored value was `false` — the spin-lock release
        /// shape.
        unlock_shape: bool,
    },
    /// A successful `CAS(l, old, new)`.
    CasOk {
        /// The location updated.
        loc: Loc,
        /// Whether the CAS was `CAS(l, false, true)` — the spin-lock
        /// acquire shape.
        acquire_shape: bool,
    },
    /// A failed `CAS(l, old, new)` (an atomic read).
    CasFail {
        /// The location read.
        loc: Loc,
        /// Whether the CAS was `CAS(l, false, true)` — a blocked
        /// spin-lock acquire attempt.
        acquire_shape: bool,
    },
    /// `FAA(l, k)` (an atomic read-modify-write).
    Faa {
        /// The location updated.
        loc: Loc,
    },
}

impl MemEffect {
    /// The location the effect touched.
    #[must_use]
    pub fn loc(&self) -> Loc {
        match self {
            MemEffect::Alloc { loc }
            | MemEffect::Load { loc }
            | MemEffect::Store { loc, .. }
            | MemEffect::CasOk { loc, .. }
            | MemEffect::CasFail { loc, .. }
            | MemEffect::Faa { loc } => *loc,
        }
    }

    /// Whether the effect is an atomic read-modify-write (`CAS`, taken
    /// or failed, or `FAA`) — the accesses that make a location an
    /// inferred SC atomic for the race detector.
    #[must_use]
    pub fn is_rmw(&self) -> bool {
        matches!(
            self,
            MemEffect::CasOk { .. } | MemEffect::CasFail { .. } | MemEffect::Faa { .. }
        )
    }
}

/// The result of a successful head step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepResult {
    /// The reduct.
    pub expr: Expr,
    /// A newly forked thread, if the redex was a `fork`.
    pub forked: Option<Expr>,
    /// The memory effect, if the redex touched the heap.
    pub effect: Option<MemEffect>,
}

impl StepResult {
    fn pure(expr: Expr) -> StepResult {
        StepResult {
            expr,
            forked: None,
            effect: None,
        }
    }

    fn effectful(expr: Expr, effect: MemEffect) -> StepResult {
        StepResult {
            expr,
            forked: None,
            effect: Some(effect),
        }
    }
}

/// A stuck execution: the program has undefined behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckError {
    /// Human-readable description of the stuck redex.
    pub reason: String,
}

impl fmt::Display for StuckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stuck: {}", self.reason)
    }
}

impl std::error::Error for StuckError {}

fn stuck(reason: impl Into<String>) -> StuckError {
    StuckError {
        reason: reason.into(),
    }
}

/// Performs one head step on a redex whose evaluated positions are values.
///
/// # Errors
///
/// Returns [`StuckError`] when the redex has undefined behaviour (ill-typed
/// operation, unallocated location, unsafe compare, …).
pub fn head_step(e: &Expr, heap: &mut Heap) -> Result<StepResult, StuckError> {
    match e {
        Expr::Rec { f, x, body } => Ok(StepResult::pure(Expr::Val(Val::Rec {
            f: f.clone(),
            x: x.clone(),
            body: body.clone(),
        }))),
        Expr::App(fun, arg) => {
            let (Some(fv), Some(av)) = (fun.as_val(), arg.as_val()) else {
                return Err(stuck("application of non-values"));
            };
            match fv {
                Val::Rec { f, x, body } => {
                    // Substitute the self-reference first, then the argument
                    // (the argument binder shadows the self binder).
                    let mut b = (**body).clone();
                    if let Some(fname) = f {
                        if x.as_deref() != Some(fname.as_str()) {
                            b = b.subst(fname, fv);
                        }
                    }
                    b = b.subst_opt(x.as_deref(), av);
                    Ok(StepResult::pure(b))
                }
                other => Err(stuck(format!("applying non-function {other}"))),
            }
        }
        Expr::UnOp(op, a) => {
            let v = a.as_val().ok_or_else(|| stuck("unop on non-value"))?;
            let out = match (op, v) {
                (UnOp::Neg, Val::Int(n)) => Val::Int(-n),
                (UnOp::Not, Val::Bool(b)) => Val::Bool(!b),
                _ => return Err(stuck(format!("ill-typed unop on {v}"))),
            };
            Ok(StepResult::pure(Expr::Val(out)))
        }
        Expr::BinOp(op, l, r) => {
            let (Some(lv), Some(rv)) = (l.as_val(), r.as_val()) else {
                return Err(stuck("binop on non-values"));
            };
            eval_bin_op(*op, lv, rv).map(|v| StepResult::pure(Expr::Val(v)))
        }
        Expr::If(c, t, f) => match c.as_val() {
            Some(Val::Bool(true)) => Ok(StepResult::pure((**t).clone())),
            Some(Val::Bool(false)) => Ok(StepResult::pure((**f).clone())),
            _ => Err(stuck("if on non-boolean")),
        },
        Expr::Pair(a, b) => {
            let (Some(av), Some(bv)) = (a.as_val(), b.as_val()) else {
                return Err(stuck("pair of non-values"));
            };
            Ok(StepResult::pure(Expr::Val(Val::pair(
                av.clone(),
                bv.clone(),
            ))))
        }
        Expr::Fst(a) => match a.as_val() {
            Some(Val::Pair(x, _)) => Ok(StepResult::pure(Expr::Val((**x).clone()))),
            _ => Err(stuck("fst of non-pair")),
        },
        Expr::Snd(a) => match a.as_val() {
            Some(Val::Pair(_, y)) => Ok(StepResult::pure(Expr::Val((**y).clone()))),
            _ => Err(stuck("snd of non-pair")),
        },
        Expr::InjL(a) => match a.as_val() {
            Some(v) => Ok(StepResult::pure(Expr::Val(Val::inj_l(v.clone())))),
            None => Err(stuck("inl of non-value")),
        },
        Expr::InjR(a) => match a.as_val() {
            Some(v) => Ok(StepResult::pure(Expr::Val(Val::inj_r(v.clone())))),
            None => Err(stuck("inr of non-value")),
        },
        Expr::Case(s, l, r) => match s.as_val() {
            Some(Val::InjL(v)) => Ok(StepResult::pure(Expr::app(
                (**l).clone(),
                Expr::Val((**v).clone()),
            ))),
            Some(Val::InjR(v)) => Ok(StepResult::pure(Expr::app(
                (**r).clone(),
                Expr::Val((**v).clone()),
            ))),
            _ => Err(stuck("case on non-sum")),
        },
        Expr::Alloc(a) => match a.as_val() {
            Some(v) => {
                let l = heap.alloc(v.clone());
                Ok(StepResult::effectful(
                    Expr::Val(Val::Loc(l)),
                    MemEffect::Alloc { loc: l },
                ))
            }
            None => Err(stuck("alloc of non-value")),
        },
        Expr::Load(a) => match a.as_val() {
            Some(Val::Loc(l)) => match heap.load(*l) {
                Some(v) => Ok(StepResult::effectful(
                    Expr::Val(v.clone()),
                    MemEffect::Load { loc: *l },
                )),
                None => Err(stuck(format!("load from unallocated {l}"))),
            },
            _ => Err(stuck("load from non-location")),
        },
        Expr::Store(l, v) => match (l.as_val(), v.as_val()) {
            (Some(Val::Loc(l)), Some(v)) => {
                let unlock_shape = *v == Val::Bool(false);
                match heap.store(*l, v.clone()) {
                    Some(_) => Ok(StepResult::effectful(
                        Expr::unit(),
                        MemEffect::Store {
                            loc: *l,
                            unlock_shape,
                        },
                    )),
                    None => Err(stuck(format!("store to unallocated {l}"))),
                }
            }
            _ => Err(stuck("store to non-location")),
        },
        Expr::Cas(l, old, new) => match (l.as_val(), old.as_val(), new.as_val()) {
            (Some(Val::Loc(l)), Some(old), Some(new)) => {
                let cur = heap
                    .load(*l)
                    .ok_or_else(|| stuck(format!("CAS on unallocated {l}")))?
                    .clone();
                if !(cur.compare_safe() && old.compare_safe()) {
                    return Err(stuck("CAS on non-comparable values"));
                }
                let acquire_shape = *old == Val::Bool(false) && *new == Val::Bool(true);
                if cur == *old {
                    heap.store(*l, new.clone());
                    Ok(StepResult::effectful(
                        Expr::bool(true),
                        MemEffect::CasOk {
                            loc: *l,
                            acquire_shape,
                        },
                    ))
                } else {
                    Ok(StepResult::effectful(
                        Expr::bool(false),
                        MemEffect::CasFail {
                            loc: *l,
                            acquire_shape,
                        },
                    ))
                }
            }
            _ => Err(stuck("CAS on non-location")),
        },
        Expr::Faa(l, k) => match (l.as_val(), k.as_val()) {
            (Some(Val::Loc(l)), Some(Val::Int(k))) => {
                let cur = heap
                    .load(*l)
                    .ok_or_else(|| stuck(format!("FAA on unallocated {l}")))?
                    .clone();
                match cur {
                    Val::Int(n) => {
                        heap.store(*l, Val::Int(n + k));
                        Ok(StepResult::effectful(
                            Expr::int(n),
                            MemEffect::Faa { loc: *l },
                        ))
                    }
                    other => Err(stuck(format!("FAA on non-integer {other}"))),
                }
            }
            _ => Err(stuck("FAA on non-location or non-integer increment")),
        },
        Expr::Fork(body) => Ok(StepResult {
            expr: Expr::unit(),
            forked: Some((**body).clone()),
            effect: None,
        }),
        Expr::Val(_) => Err(stuck("value cannot step")),
        Expr::Var(x) => Err(stuck(format!("free variable {x}"))),
    }
}

/// Evaluates a binary operator on two values.
///
/// # Errors
///
/// Returns [`StuckError`] on ill-typed operands, division by zero, or
/// unsafe comparisons.
pub fn eval_bin_op(op: BinOp, l: &Val, r: &Val) -> Result<Val, StuckError> {
    use BinOp::*;
    let int = |v: &Val| {
        v.as_int()
            .ok_or_else(|| stuck(format!("expected integer, got {v}")))
    };
    let boolean = |v: &Val| {
        v.as_bool()
            .ok_or_else(|| stuck(format!("expected boolean, got {v}")))
    };
    Ok(match op {
        Add => Val::Int(int(l)? + int(r)?),
        Sub => Val::Int(int(l)? - int(r)?),
        Mul => Val::Int(int(l)? * int(r)?),
        Div => {
            let d = int(r)?;
            if d == 0 {
                return Err(stuck("division by zero"));
            }
            Val::Int(int(l)?.div_euclid(d))
        }
        Mod => {
            let d = int(r)?;
            if d == 0 {
                return Err(stuck("modulo by zero"));
            }
            Val::Int(int(l)?.rem_euclid(d))
        }
        Eq | Ne => {
            if !(l.compare_safe() && r.compare_safe()) {
                return Err(stuck("comparing boxed values"));
            }
            let eq = l == r;
            Val::Bool(if op == Eq { eq } else { !eq })
        }
        Lt => Val::Bool(int(l)? < int(r)?),
        Le => Val::Bool(int(l)? <= int(r)?),
        Gt => Val::Bool(int(l)? > int(r)?),
        Ge => Val::Bool(int(l)? >= int(r)?),
        And => Val::Bool(boolean(l)? && boolean(r)?),
        Or => Val::Bool(boolean(l)? || boolean(r)?),
    })
}

/// Performs one full thread step: decomposes, head-steps, recomposes.
///
/// Returns `Ok(None)` when the expression is already a value.
///
/// # Errors
///
/// Propagates [`StuckError`] from the head step.
pub fn thread_step(e: &Expr, heap: &mut Heap) -> Result<Option<StepResult>, StuckError> {
    match decompose(e) {
        Decomp::Value(_) => Ok(None),
        Decomp::Head(frames, redex) => {
            let res = head_step(&redex, heap)?;
            Ok(Some(StepResult {
                expr: fill_ctx(&frames, res.expr),
                forked: res.forked,
                effect: res.effect,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn run_seq(mut e: Expr, heap: &mut Heap) -> Result<Val, StuckError> {
        for _ in 0..100_000 {
            match thread_step(&e, heap)? {
                None => {
                    return Ok(e.as_val().expect("value").clone());
                }
                Some(res) => {
                    assert!(res.forked.is_none(), "unexpected fork in sequential test");
                    e = res.expr;
                }
            }
        }
        panic!("did not terminate");
    }

    #[test]
    fn arithmetic() {
        let mut h = Heap::new();
        let e = Expr::binop(
            BinOp::Add,
            Expr::int(1),
            Expr::binop(BinOp::Mul, Expr::int(2), Expr::int(3)),
        );
        assert_eq!(run_seq(e, &mut h).unwrap(), Val::int(7));
    }

    #[test]
    fn beta_reduction_and_recursion() {
        let mut h = Heap::new();
        // rec fact n := if n = 0 then 1 else n * fact (n - 1)
        let fact = Expr::rec(
            "fact",
            "n",
            Expr::if_(
                Expr::binop(BinOp::Eq, Expr::var("n"), Expr::int(0)),
                Expr::int(1),
                Expr::binop(
                    BinOp::Mul,
                    Expr::var("n"),
                    Expr::app(
                        Expr::var("fact"),
                        Expr::binop(BinOp::Sub, Expr::var("n"), Expr::int(1)),
                    ),
                ),
            ),
        );
        let e = Expr::app(fact, Expr::int(5));
        assert_eq!(run_seq(e, &mut h).unwrap(), Val::int(120));
    }

    #[test]
    fn heap_operations() {
        let mut h = Heap::new();
        let e = Expr::let_(
            "l",
            Expr::alloc(Expr::int(1)),
            Expr::seq(
                Expr::store(Expr::var("l"), Expr::int(5)),
                Expr::load(Expr::var("l")),
            ),
        );
        assert_eq!(run_seq(e, &mut h).unwrap(), Val::int(5));
    }

    #[test]
    fn cas_semantics() {
        let mut h = Heap::new();
        let l = h.alloc(Val::bool(false));
        let loc = Expr::Val(Val::Loc(l));
        let ok = Expr::cas(loc.clone(), Expr::bool(false), Expr::bool(true));
        assert_eq!(run_seq(ok, &mut h).unwrap(), Val::bool(true));
        assert_eq!(h.load(l), Some(&Val::bool(true)));
        // Second CAS from false fails and leaves the heap unchanged.
        let fail = Expr::cas(loc, Expr::bool(false), Expr::bool(true));
        assert_eq!(run_seq(fail, &mut h).unwrap(), Val::bool(false));
        assert_eq!(h.load(l), Some(&Val::bool(true)));
    }

    #[test]
    fn faa_returns_old_value() {
        let mut h = Heap::new();
        let l = h.alloc(Val::int(5));
        let e = Expr::faa(Expr::Val(Val::Loc(l)), Expr::int(3));
        assert_eq!(run_seq(e, &mut h).unwrap(), Val::int(5));
        assert_eq!(h.load(l), Some(&Val::int(8)));
    }

    #[test]
    fn sums_and_case() {
        let mut h = Heap::new();
        let e = Expr::Case(
            Arc::new(Expr::InjR(Arc::new(Expr::int(3)))),
            Arc::new(Expr::lam("x", Expr::int(0))),
            Arc::new(Expr::lam("x", Expr::var("x"))),
        );
        assert_eq!(run_seq(e, &mut h).unwrap(), Val::int(3));
    }

    #[test]
    fn stuck_programs() {
        let mut h = Heap::new();
        assert!(run_seq(Expr::app(Expr::int(0), Expr::int(0)), &mut h).is_err());
        assert!(run_seq(
            Expr::binop(BinOp::Add, Expr::bool(true), Expr::int(1)),
            &mut h
        )
        .is_err());
        assert!(run_seq(Expr::load(Expr::int(3)), &mut h).is_err());
        assert!(run_seq(Expr::binop(BinOp::Div, Expr::int(1), Expr::int(0)), &mut h).is_err());
    }

    #[test]
    fn unsafe_compare_is_stuck() {
        let p = Val::pair(Val::int(1), Val::int(2));
        assert!(eval_bin_op(BinOp::Eq, &p, &p).is_err());
    }

    #[test]
    fn fork_spawns() {
        let mut h = Heap::new();
        let e = Expr::fork(Expr::int(1));
        let res = thread_step(&e, &mut h).unwrap().unwrap();
        assert_eq!(res.expr, Expr::unit());
        assert_eq!(res.forked, Some(Expr::int(1)));
        assert_eq!(res.effect, None);
    }

    #[test]
    fn mem_effects_classify_heap_ops() {
        let mut h = Heap::new();
        let res = thread_step(&Expr::alloc(Expr::bool(false)), &mut h)
            .unwrap()
            .unwrap();
        let l = match res.effect {
            Some(MemEffect::Alloc { loc }) => loc,
            other => panic!("expected alloc effect, got {other:?}"),
        };
        let loc = Expr::Val(Val::Loc(l));

        // Lock-shaped CAS: acquire succeeds, retry fails, both flagged as RMW.
        let acq = Expr::cas(loc.clone(), Expr::bool(false), Expr::bool(true));
        let res = thread_step(&acq.clone(), &mut h).unwrap().unwrap();
        assert_eq!(
            res.effect,
            Some(MemEffect::CasOk {
                loc: l,
                acquire_shape: true
            })
        );
        assert!(res.effect.unwrap().is_rmw());
        let res = thread_step(&acq, &mut h).unwrap().unwrap();
        assert_eq!(
            res.effect,
            Some(MemEffect::CasFail {
                loc: l,
                acquire_shape: true
            })
        );

        // Unlock-shaped store vs an ordinary store.
        let res = thread_step(&Expr::store(loc.clone(), Expr::bool(false)), &mut h)
            .unwrap()
            .unwrap();
        assert_eq!(
            res.effect,
            Some(MemEffect::Store {
                loc: l,
                unlock_shape: true
            })
        );
        let res = thread_step(&Expr::store(loc.clone(), Expr::int(7)), &mut h)
            .unwrap()
            .unwrap();
        assert_eq!(
            res.effect,
            Some(MemEffect::Store {
                loc: l,
                unlock_shape: false
            })
        );

        let res = thread_step(&Expr::load(loc.clone()), &mut h)
            .unwrap()
            .unwrap();
        assert_eq!(res.effect, Some(MemEffect::Load { loc: l }));
        assert!(!res.effect.unwrap().is_rmw());

        let res = thread_step(&Expr::faa(loc, Expr::int(1)), &mut h)
            .unwrap()
            .unwrap();
        assert_eq!(res.effect, Some(MemEffect::Faa { loc: l }));
        assert_eq!(res.effect.unwrap().loc(), l);
    }
}
