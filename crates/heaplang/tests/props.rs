//! Property-based tests for HeapLang: the interpreter against an
//! independent arithmetic evaluator, scheduler determinism, pretty-printer
//! round trips through the parser, and substitution hygiene.

use diaframe_heaplang::interp::Machine;
use diaframe_heaplang::{parse_expr, BinOp, Expr, Val};
use proptest::prelude::*;

/// Pure integer expressions with let-bindings and conditionals, paired
/// with an independent evaluator. Division/modulo are excluded so every
/// generated program terminates with a value (div-by-zero is stuck).
#[derive(Debug, Clone)]
enum PExpr {
    Lit(i64),
    Bin(BinOp, Box<PExpr>, Box<PExpr>),
    If(Box<PExpr>, Box<PExpr>, Box<PExpr>), // condition: e ≤ e
    LetPlus(Box<PExpr>, Box<PExpr>),        // let x := a in x + b
}

impl PExpr {
    fn to_expr(&self) -> Expr {
        match self {
            PExpr::Lit(n) => Expr::int(i128::from(*n)),
            PExpr::Bin(op, a, b) => Expr::binop(*op, a.to_expr(), b.to_expr()),
            PExpr::If(c, t, e) => Expr::if_(
                Expr::binop(BinOp::Le, c.to_expr(), Expr::int(0)),
                t.to_expr(),
                e.to_expr(),
            ),
            PExpr::LetPlus(a, b) => Expr::let_(
                "x",
                a.to_expr(),
                Expr::binop(BinOp::Add, Expr::var("x"), b.to_expr()),
            ),
        }
    }

    fn eval(&self) -> i128 {
        match self {
            PExpr::Lit(n) => i128::from(*n),
            PExpr::Bin(op, a, b) => {
                let (x, y) = (a.eval(), b.eval());
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    _ => unreachable!("generator only emits arithmetic ops"),
                }
            }
            PExpr::If(c, t, e) => {
                if c.eval() <= 0 {
                    t.eval()
                } else {
                    e.eval()
                }
            }
            PExpr::LetPlus(a, b) => a.eval() + b.eval(),
        }
    }
}

fn pexpr() -> impl Strategy<Value = PExpr> {
    let leaf = (-9i64..=9).prop_map(PExpr::Lit);
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul)],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| PExpr::Bin(op, Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| PExpr::If(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
            (inner.clone(), inner).prop_map(|(a, b)| PExpr::LetPlus(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    /// The interpreter computes the same integer as the independent
    /// evaluator on every pure program.
    #[test]
    fn interpreter_matches_evaluator(e in pexpr()) {
        let mut m = Machine::new(e.to_expr());
        let v = m.run_round_robin(1_000_000).expect("pure programs terminate");
        prop_assert_eq!(v, Val::Int(e.eval()));
    }

    /// Deterministic replay: the same seeded random schedule produces the
    /// same value, heap evolution aside.
    #[test]
    fn seeded_schedules_deterministic(e in pexpr(), seed in 0u64..=1000) {
        let v1 = Machine::new(e.to_expr()).run_random(seed, 1_000_000).unwrap();
        let v2 = Machine::new(e.to_expr()).run_random(seed, 1_000_000).unwrap();
        prop_assert_eq!(v1, v2);
    }

    /// Pretty-print → parse round trip on the pure fragment: re-parsing
    /// the `Display` output yields a program with the same meaning.
    #[test]
    fn pretty_parse_round_trip(e in pexpr()) {
        let printed = e.to_expr().to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("pretty output failed to parse: {err:?}\n{printed}"));
        let v = Machine::new(reparsed).run_round_robin(1_000_000).unwrap();
        prop_assert_eq!(v, Val::Int(e.eval()));
    }

    /// Substitution hygiene: substituting a closed value leaves the free
    /// variables of the expression minus the bound name.
    #[test]
    fn subst_removes_free_var(e in pexpr(), n in -9i64..=9) {
        // `let x := a in x + b` has no free vars; open it manually.
        let open = Expr::binop(BinOp::Add, Expr::var("y"), e.to_expr());
        prop_assert!(open.free_vars().contains(&"y".to_owned()));
        let closed = open.subst("y", &Val::Int(i128::from(n)));
        prop_assert!(closed.is_closed());
        let v = Machine::new(closed).run_round_robin(1_000_000).unwrap();
        prop_assert_eq!(v, Val::Int(i128::from(n) + e.eval()));
    }

    /// A forked writer is always observed by a joining reader: the
    /// spin-join pattern terminates under every seeded schedule with the
    /// written value, regardless of interleaving.
    #[test]
    fn fork_join_all_schedules(n in -50i128..=50, seed in 0u64..=40) {
        let src = format!(
            "let c := ref 0 in
             let done := ref false in
             fork {{ c <- {n} ;; done <- true }} ;;
             (rec wait u := if !done then !c else wait u) ()"
        );
        let prog = parse_expr(&src).expect("parses");
        let v = Machine::new(prog).run_random(seed, 2_000_000).expect("terminates");
        prop_assert_eq!(v, Val::Int(n));
    }

    /// CAS is atomic: two racing FAA increments never lose an update, for
    /// every seeded schedule.
    #[test]
    fn faa_never_loses_updates(seed in 0u64..=60) {
        let src = "
             let c := ref 0 in
             let done := ref false in
             fork { FAA(c, 3) ;; done <- true } ;;
             FAA(c, 5) ;;
             (rec wait u := if !done then !c else wait u) ()";
        let prog = parse_expr(src).expect("parses");
        let v = Machine::new(prog).run_random(seed, 2_000_000).expect("terminates");
        prop_assert_eq!(v, Val::Int(8));
    }
}
