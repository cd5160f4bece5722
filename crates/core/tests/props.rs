//! Property-based tests for the proof-search core: the fuzz generator's
//! traces against the JSON codec and both checkers, `VarCtx` solve-event
//! monotonicity under arbitrary op sequences, and `HeadSet` lookup
//! consistency against an independent reachability model.

use diaframe_core::checker;
use diaframe_core::fuzz::{gen_trace, spec_check, trace_of_steps};
use diaframe_core::trace_json::{trace_from_json, trace_to_json};
use diaframe_core::HeadSet;
use diaframe_logic::{Assertion, Atom, Binder, GhostAtom, GhostKind, MaskT, Namespace, PredId};
use diaframe_term::evar::VarCtxMark;
use diaframe_term::{Sort, Term, VarCtx};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generated traces: valid by construction, byte-stable through the
// codec, and verdict-identical through every checking path.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn generated_traces_check_and_round_trip(seed in 0u64..=u64::MAX, index in 0usize..48) {
        let trace = gen_trace(seed, index);
        // Valid by construction, under both the checker and the spec.
        prop_assert!(checker::check(&trace).is_ok());
        prop_assert!(spec_check(trace.steps()).is_ok());
        // Byte-stable codec round-trip.
        let json = trace_to_json(&trace);
        let decoded = trace_from_json(&json).expect("generated trace decodes");
        prop_assert_eq!(trace_to_json(&decoded), json.clone());
        // The codec path reaches the same verdict as the in-memory path.
        prop_assert_eq!(checker::check_json(&json), checker::check(&trace));
        // Decoding preserves the steps the checker actually replays.
        prop_assert!(checker::check(&trace_of_steps(decoded.steps())).is_ok());
    }
}

// ---------------------------------------------------------------------
// VarCtx: `solve_events` is a monotone counter — unaffected by
// rollback, incremented exactly once per solve.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CtxOp {
    FreshVar,
    FreshEvar,
    PushLevel,
    /// Solve the `n % unsolved.len()`-th unsolved evar (no-op if none).
    Solve(usize),
    Checkpoint,
    /// Roll back to the most recent checkpoint (no-op if none).
    Rollback,
}

fn ctx_op() -> impl Strategy<Value = CtxOp> {
    prop_oneof![
        Just(CtxOp::FreshVar),
        Just(CtxOp::FreshEvar),
        Just(CtxOp::PushLevel),
        (0usize..8).prop_map(CtxOp::Solve),
        Just(CtxOp::Checkpoint),
        Just(CtxOp::Rollback),
    ]
}

proptest! {
    #[test]
    fn solve_events_are_monotone_and_survive_rollback(
        ops in prop::collection::vec(ctx_op(), 1..40)
    ) {
        let mut ctx = VarCtx::new();
        // (mark, #evars at mark, solved flags at mark)
        let mut marks: Vec<(VarCtxMark, usize, Vec<bool>)> = Vec::new();
        let mut evars = Vec::new();
        let mut solved: Vec<bool> = Vec::new();
        let mut performed = 0u64;
        let mut last = ctx.solve_events();
        prop_assert_eq!(last, 0);
        for op in ops {
            match op {
                CtxOp::FreshVar => {
                    ctx.fresh_var(Sort::Int, "x");
                }
                CtxOp::FreshEvar => {
                    evars.push(ctx.fresh_evar(Sort::Int));
                    solved.push(false);
                }
                CtxOp::PushLevel => {
                    ctx.push_level();
                }
                CtxOp::Solve(n) => {
                    let unsolved: Vec<usize> =
                        (0..evars.len()).filter(|&i| !solved[i]).collect();
                    if !unsolved.is_empty() {
                        let i = unsolved[n % unsolved.len()];
                        ctx.solve_evar(evars[i], Term::int(7));
                        solved[i] = true;
                        performed += 1;
                    }
                }
                CtxOp::Checkpoint => {
                    marks.push((ctx.checkpoint(), evars.len(), solved.clone()));
                }
                CtxOp::Rollback => {
                    if let Some((mark, n_evars, old_solved)) = marks.pop() {
                        ctx.rollback(&mark);
                        evars.truncate(n_evars);
                        solved = old_solved;
                    }
                }
            }
            let now = ctx.solve_events();
            prop_assert!(now >= last, "solve_events went backwards: {last} -> {now}");
            last = now;
        }
        // The counter records search effort, not surviving solutions:
        // exactly one event per solve, rollbacks notwithstanding.
        prop_assert_eq!(last, performed);
    }
}

// ---------------------------------------------------------------------
// HeadSet: `of` + `may_key` agree with an independent reachability
// model of the recursive hint closure.
// ---------------------------------------------------------------------

/// The leaf shapes the model can reach, mirroring `goal_head`'s taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeafKind {
    PointsTo,
    Ghost,
    Pred(usize),
    Inv(usize),
    CloseInv(usize),
    Pure,
}

/// A model assertion: leaves plus the combinators `HeadSet` walks.
#[derive(Debug, Clone)]
enum HAssn {
    Leaf(LeafKind),
    /// An invariant leaf with a structured interior.
    Inv(usize, Box<HAssn>),
    Later(Box<HAssn>),
    /// Wand: the premise must contribute nothing on the hypothesis side.
    Wand(Box<HAssn>, Box<HAssn>),
    FUpd(Box<HAssn>),
    Forall(Box<HAssn>),
    Sep(Box<HAssn>, Box<HAssn>),
    Exists(Box<HAssn>),
    Or(Box<HAssn>, Box<HAssn>),
}

fn leaf_kind() -> impl Strategy<Value = LeafKind> {
    prop_oneof![
        Just(LeafKind::PointsTo),
        Just(LeafKind::Ghost),
        (0usize..3).prop_map(LeafKind::Pred),
        (0usize..2).prop_map(LeafKind::Inv),
        (0usize..2).prop_map(LeafKind::CloseInv),
        Just(LeafKind::Pure),
    ]
}

fn hassn() -> impl Strategy<Value = HAssn> {
    let leaf = leaf_kind().prop_map(HAssn::Leaf);
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (0usize..2, inner.clone()).prop_map(|(ns, b)| HAssn::Inv(ns, Box::new(b))),
            inner.clone().prop_map(|a| HAssn::Later(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(p, c)| HAssn::Wand(Box::new(p), Box::new(c))),
            inner.clone().prop_map(|a| HAssn::FUpd(Box::new(a))),
            inner.clone().prop_map(|a| HAssn::Forall(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| HAssn::Sep(Box::new(l), Box::new(r))),
            inner.clone().prop_map(|a| HAssn::Exists(Box::new(a))),
            (inner.clone(), inner).prop_map(|(l, r)| HAssn::Or(Box::new(l), Box::new(r))),
        ]
    })
}

struct Fixtures {
    preds: Vec<PredId>,
    pred_table: diaframe_logic::PredTable,
    namespaces: Vec<Namespace>,
}

fn fixtures() -> Fixtures {
    let mut pred_table = diaframe_logic::PredTable::new();
    let preds = (0..3)
        .map(|i| pred_table.fresh_plain(&format!("P{i}")))
        .collect();
    Fixtures {
        preds,
        pred_table,
        namespaces: vec![Namespace::new("HsA"), Namespace::new("HsB")],
    }
}

fn leaf_atom(k: LeafKind, fx: &Fixtures) -> Option<Atom> {
    match k {
        LeafKind::PointsTo => Some(Atom::points_to(Term::Loc(0), Term::v_unit())),
        LeafKind::Ghost => Some(Atom::Ghost(GhostAtom {
            kind: GhostKind { id: 9, name: "tok" },
            gname: Term::Loc(1),
            pred: None,
            args: Vec::new(),
        })),
        LeafKind::Pred(i) => Some(Atom::PredApp {
            pred: fx.preds[i],
            args: Vec::new(),
        }),
        LeafKind::Inv(i) => Some(Atom::invariant(
            fx.namespaces[i].clone(),
            Assertion::pure(diaframe_term::PureProp::True),
        )),
        LeafKind::CloseInv(i) => Some(Atom::CloseInv {
            ns: fx.namespaces[i].clone(),
        }),
        LeafKind::Pure => None,
    }
}

fn to_assertion(a: &HAssn, fx: &Fixtures, vars: &mut VarCtx) -> Assertion {
    match a {
        HAssn::Leaf(LeafKind::Pure) => Assertion::pure(diaframe_term::PureProp::True),
        HAssn::Leaf(k) => Assertion::atom(leaf_atom(*k, fx).expect("non-pure leaf")),
        HAssn::Inv(i, body) => Assertion::atom(Atom::invariant(
            fx.namespaces[*i].clone(),
            to_assertion(body, fx, vars),
        )),
        HAssn::Later(x) => Assertion::later(to_assertion(x, fx, vars)),
        HAssn::Wand(p, c) => Assertion::wand(to_assertion(p, fx, vars), to_assertion(c, fx, vars)),
        HAssn::FUpd(x) => Assertion::fupd(MaskT::top(), MaskT::top(), to_assertion(x, fx, vars)),
        HAssn::Forall(x) => {
            let v = vars.fresh_var(Sort::Int, "hq");
            Assertion::forall(Binder::new(v), to_assertion(x, fx, vars))
        }
        HAssn::Sep(l, r) => Assertion::sep(to_assertion(l, fx, vars), to_assertion(r, fx, vars)),
        HAssn::Exists(x) => {
            let v = vars.fresh_var(Sort::Int, "he");
            Assertion::exists(Binder::new(v), to_assertion(x, fx, vars))
        }
        HAssn::Or(l, r) => Assertion::or(to_assertion(l, fx, vars), to_assertion(r, fx, vars)),
    }
}

/// Independent model of the hypothesis-side closure: which leaves can
/// the recursive hint search reach? `left_goal` flips to the
/// opened-invariant descent, which walks a *different* set of
/// combinators (`∃`/`∗`/`▷` instead of `−∗`/`|⇛`/`∀`).
fn reachable(a: &HAssn, left_goal: bool, out: &mut Vec<LeafKind>) {
    match a {
        HAssn::Leaf(k) if *k != LeafKind::Pure => out.push(*k),
        HAssn::Inv(i, body) => {
            out.push(LeafKind::Inv(*i));
            // Opening descends into the body with left-goal rules.
            reachable(body, true, out);
        }
        HAssn::Later(x) => reachable(x, left_goal, out),
        HAssn::Wand(_, c) if !left_goal => reachable(c, false, out),
        HAssn::FUpd(x) if !left_goal => reachable(x, false, out),
        HAssn::Forall(x) if !left_goal => reachable(x, false, out),
        HAssn::Sep(l, r) if left_goal => {
            reachable(l, true, out);
            reachable(r, true, out);
        }
        HAssn::Exists(x) if left_goal => reachable(x, true, out),
        _ => {}
    }
}

/// What the model says `may_key` must answer for `goal`.
fn model_may_key(reach: &[LeafKind], goal: &LeafKind, custom: bool) -> bool {
    if reach.contains(&LeafKind::Ghost) || (custom && !reach.is_empty()) {
        return true;
    }
    match goal {
        LeafKind::PointsTo => reach.contains(&LeafKind::PointsTo),
        LeafKind::Ghost => false,
        k @ (LeafKind::Pred(_) | LeafKind::Inv(_) | LeafKind::CloseInv(_)) => reach.contains(k),
        LeafKind::Pure => false,
    }
}

proptest! {
    #[test]
    fn headset_matches_reachability_model(a in hassn()) {
        let fx = fixtures();
        let mut vars = VarCtx::new();
        let hs = HeadSet::of(&to_assertion(&a, &fx, &mut vars));
        let mut reach = Vec::new();
        reachable(&a, false, &mut reach);

        let probes = [
            LeafKind::PointsTo,
            LeafKind::Ghost,
            LeafKind::Pred(0),
            LeafKind::Pred(1),
            LeafKind::Pred(2),
            LeafKind::Inv(0),
            LeafKind::Inv(1),
            LeafKind::CloseInv(0),
            LeafKind::CloseInv(1),
        ];
        for goal in probes {
            let atom = leaf_atom(goal, &fx).expect("probe goals are atoms");
            for custom in [false, true] {
                prop_assert_eq!(
                    hs.may_key(&atom, custom),
                    model_may_key(&reach, &goal, custom),
                    "goal {:?} custom={} reach={:?} (preds use {:?})",
                    goal, custom, reach, fx.pred_table.info(fx.preds[0]).name
                );
            }
        }
    }
}
