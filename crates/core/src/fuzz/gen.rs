//! Random generators: entailment goals over the embedded grammar, and
//! synthetic checker traces.
//!
//! Both generators are *constructive*: a case marked provable is built by
//! sound weakening of a generated hypothesis context (so the engine
//! failing it is a completeness gap, not an error), a case marked
//! unprovable carries a witness of unprovability (a resource no
//! hypothesis supplies, a ground-false pure proposition, a duplicated
//! linear resource), and every synthetic trace is valid by construction
//! (so the checker rejecting it is a soundness-of-the-checker bug, and a
//! mutated version surviving the checker is a soundness hole).
//!
//! Truth of generated pure facts is decided against an explicit integer
//! *model* (a value for every generated variable), the same technique the
//! solver property tests in `term/tests/props.rs` use: because every fact
//! is true in one model, the hypothesis context is consistent by
//! construction and an unprovable goal can never sneak through via
//! ex-falso.

use crate::ctx::ProofCtx;
use crate::fuzz::rng::FuzzRng;
use crate::goal::Goal;
use crate::trace::{ProofTrace, TraceStep};
use diaframe_logic::{Assertion, Atom, Binder, MaskT, Namespace, PredTable};
use diaframe_term::{PureProp, Sort, Term, VarCtx, VarId};
use std::cmp::Ordering;

/// Tunables for the entailment generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Percentage of cases built to be provable (by sound weakening of
    /// their own hypothesis context).
    pub provable_pct: u64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig { provable_pct: 70 }
    }
}

/// One generated entailment: a proof context (consumed by the engine)
/// and a goal, plus the generator's ground truth about it.
pub struct EntailmentCase {
    /// The fuzzing seed the case was derived from.
    pub seed: u64,
    /// The case index under that seed.
    pub index: usize,
    /// Whether the goal was built to be provable from the hypotheses.
    pub expect_provable: bool,
    /// The construction recipe (`weakening`, `missing-resource`,
    /// `false-pure`, `dup-resource`) — reported per-flavor by the driver.
    pub flavor: &'static str,
    /// The generated proof context.
    pub ctx: ProofCtx,
    /// The generated goal.
    pub goal: Goal,
}

/// A generated points-to hypothesis, tracked so the goal side can
/// reference the same location.
struct PtHyp {
    loc: u64,
    term: Term,
    existential: bool,
}

/// A small integer expression over the model variables, together with
/// its value under the model.
fn gen_expr(rng: &mut FuzzRng, model: &[(VarId, i64)]) -> (Term, i64) {
    fn leaf(rng: &mut FuzzRng, model: &[(VarId, i64)]) -> (Term, i64) {
        if !model.is_empty() && rng.chance(50) {
            let &(v, n) = rng.pick(model);
            (Term::var(v), n)
        } else {
            let k = rng.range(-9, 9);
            (Term::int(i128::from(k)), k)
        }
    }
    let (mut t, mut v) = leaf(rng, model);
    for _ in 0..rng.below(3) {
        let (t2, v2) = leaf(rng, model);
        match rng.below(4) {
            0 | 1 => {
                t = Term::add(t, t2);
                v += v2;
            }
            2 => {
                t = Term::sub(t, t2);
                v -= v2;
            }
            _ => {
                // Scale the accumulated expression by a small constant:
                // the solver must distribute the multiplication and the
                // non-unit coefficients exercise the gcd/lcm paths of
                // integer tightening.
                let k = rng.range(2, 3);
                t = Term::add(Term::mul(Term::int(i128::from(k)), t), t2);
                v = k * v + v2;
            }
        }
    }
    (t, v)
}

/// A comparison between `a` and `b` that is *true* under the model
/// (values `va`, `vb`), chosen among the true ones.
fn true_comparison(rng: &mut FuzzRng, a: Term, va: i64, b: Term, vb: i64) -> PureProp {
    match va.cmp(&vb) {
        Ordering::Less => match rng.below(3) {
            0 => PureProp::lt(a, b),
            1 => PureProp::le(a, b),
            _ => PureProp::ne(a, b),
        },
        Ordering::Equal => {
            if rng.chance(50) {
                PureProp::eq(a, b)
            } else {
                PureProp::le(a, b)
            }
        }
        Ordering::Greater => match rng.below(3) {
            0 => PureProp::lt(b, a),
            1 => PureProp::le(b, a),
            _ => PureProp::ne(a, b),
        },
    }
}

/// A sound weakening of a hypothesis fact: the result is entailed by the
/// input, so a goal built from weakenings stays provable.
fn weaken(rng: &mut FuzzRng, f: &PureProp) -> PureProp {
    match f {
        PureProp::Lt(a, b) if rng.chance(50) => PureProp::le(a.clone(), b.clone()),
        PureProp::Eq(a, b) => match rng.below(3) {
            0 => PureProp::le(a.clone(), b.clone()),
            1 => PureProp::le(b.clone(), a.clone()),
            _ => f.clone(),
        },
        other => other.clone(),
    }
}

/// Generates entailment case `index` for `seed`. Deterministic: the same
/// `(seed, index, cfg)` triple always builds the same case, regardless
/// of which worker thread runs it or in what order.
#[must_use]
pub fn gen_entailment(seed: u64, index: usize, cfg: &GenConfig) -> EntailmentCase {
    let mut rng = FuzzRng::new(seed).fork(index as u64);
    let expect_provable = rng.chance(cfg.provable_pct);
    let mut ctx = ProofCtx::new(PredTable::new());

    // The integer model: every fact below is true under it, making the
    // hypothesis context consistent by construction.
    let n_vars = rng.below(4) as usize;
    let mut model: Vec<(VarId, i64)> = Vec::with_capacity(n_vars);
    for i in 0..n_vars {
        let v = ctx.vars.fresh_var(Sort::Int, &format!("m{i}"));
        model.push((v, rng.range(-9, 9)));
    }

    let n_facts = 1 + rng.below(3) as usize;
    let mut facts = Vec::with_capacity(n_facts);
    for _ in 0..n_facts {
        let (a, va) = gen_expr(&mut rng, &model);
        let (b, vb) = gen_expr(&mut rng, &model);
        facts.push(true_comparison(&mut rng, a, va, b, vb));
    }

    // Arithmetic-heavy extras: these lean on the pure solver's linear
    // layer (Fourier–Motzkin elimination, integer tightening, and
    // disequality splits) rather than syntactic hypothesis matching.
    // Each leaves a model-true fact set and, optionally, a goal conjunct
    // that is *entailed* by the facts — so provable cases stay provable
    // by construction and unprovable witnesses are unaffected.
    //
    // A parity-split comparison: k·a vs k·b + 1 can never be equal for
    // k ≥ 2, and its non-unit coefficients force the gcd fold in
    // `tighten` to do real work.
    if rng.chance(40) {
        let (a, va) = gen_expr(&mut rng, &model);
        let (b, vb) = gen_expr(&mut rng, &model);
        let k = rng.range(2, 4);
        let sa = Term::mul(Term::int(i128::from(k)), a);
        let sb = Term::add(Term::mul(Term::int(i128::from(k)), b), Term::int(1));
        facts.push(true_comparison(&mut rng, sa, k * va, sb, k * vb + 1));
    }
    // A sorted chain e₀ ⋈ e₁ ⋈ e₂ whose transitive collapse e₀ ≤ e₂
    // lands on the goal side: provable only by eliminating the middle
    // expression, i.e. by a genuine Fourier–Motzkin pivot.
    let mut chain_goal: Option<PureProp> = None;
    if rng.chance(35) {
        let mut es: Vec<(Term, i64)> = (0..3).map(|_| gen_expr(&mut rng, &model)).collect();
        es.sort_by_key(|e| e.1);
        for i in 0..es.len() - 1 {
            let (a, va) = es[i].clone();
            let (b, vb) = es[i + 1].clone();
            facts.push(if va < vb && rng.chance(50) {
                PureProp::lt(a, b)
            } else {
                PureProp::le(a, b)
            });
        }
        chain_goal = Some(PureProp::le(es[0].0.clone(), es[2].0.clone()));
    }
    // Pinning a model variable: either strict unit-width bounds
    // (n−1 < v < n+1 entails v = n over ℤ — integer tightening), or a
    // bound plus a disequality (n−1 ≤ v ∧ v ≠ n−1 entails n ≤ v — a
    // disequality case split followed by tightening).
    let mut pin_goal: Option<PureProp> = None;
    if !model.is_empty() && rng.chance(30) {
        let &(v, n) = rng.pick(&model);
        let t = Term::var(v);
        let n = i128::from(n);
        if rng.chance(50) {
            facts.push(PureProp::lt(Term::int(n - 1), t.clone()));
            facts.push(PureProp::lt(t.clone(), Term::int(n + 1)));
            pin_goal = Some(PureProp::eq(t, Term::int(n)));
        } else {
            facts.push(PureProp::le(Term::int(n - 1), t.clone()));
            facts.push(PureProp::ne(t.clone(), Term::int(n - 1)));
            pin_goal = Some(PureProp::le(Term::int(n), t));
        }
    }

    let n_pts = 1 + rng.below(3) as usize;
    let mut pts = Vec::with_capacity(n_pts);
    for i in 0..n_pts {
        let (term, _) = gen_expr(&mut rng, &model);
        pts.push(PtHyp {
            loc: i as u64,
            term,
            existential: rng.chance(25),
        });
    }

    // ---- hypothesis side -------------------------------------------------
    let mut hyp_parts: Vec<Assertion> = Vec::new();
    for f in &facts {
        hyp_parts.push(Assertion::pure(f.clone()));
    }
    for p in &pts {
        let a = if p.existential {
            // ∃y. ℓ ↦ #y — the witness enters as a universal at intro.
            let y = ctx.vars.fresh_var(Sort::Int, "y");
            Assertion::exists(
                Binder::new(y),
                Assertion::atom(Atom::points_to(Term::Loc(p.loc), Term::v_int(Term::var(y)))),
            )
        } else {
            Assertion::atom(Atom::points_to(
                Term::Loc(p.loc),
                Term::v_int(p.term.clone()),
            ))
        };
        // Points-to is timeless, so a later in front is stripped at
        // intro and changes nothing about provability.
        hyp_parts.push(if rng.chance(30) {
            Assertion::later(a)
        } else {
            a
        });
    }
    if rng.chance(20) {
        // A hypothesis disjunction forces an engine case split. Both
        // sides keep the goal provable: a model-true fact on the left,
        // and on the right either another model-true fact or a
        // ground-false one (that branch is then discharged vacuously).
        let (a, va) = gen_expr(&mut rng, &model);
        let (b, vb) = gen_expr(&mut rng, &model);
        let left = true_comparison(&mut rng, a, va, b, vb);
        let right = if rng.chance(30) {
            PureProp::lt(Term::int(1), Term::int(0))
        } else {
            let (c, vc) = gen_expr(&mut rng, &model);
            let (d, vd) = gen_expr(&mut rng, &model);
            true_comparison(&mut rng, c, vc, d, vd)
        };
        hyp_parts.push(Assertion::or(Assertion::pure(left), Assertion::pure(right)));
    }
    if rng.chance(15) {
        // A (persistent) invariant hypothesis: exercises the hypothesis
        // intro path and the HeadSet `invs` key; the goal never demands
        // it back.
        hyp_parts.push(Assertion::atom(Atom::invariant(
            Namespace::new("FzInv"),
            Assertion::pure(PureProp::True),
        )));
    }

    // ---- goal side -------------------------------------------------------
    let mut goal_parts: Vec<Assertion> = Vec::new();
    for p in &pts {
        if !rng.chance(60) {
            continue;
        }
        if p.existential || rng.chance(25) {
            // ∃x. ℓ ↦ #x, solved by delayed instantiation against
            // whatever the hypothesis holds at ℓ.
            let x = ctx.vars.fresh_var(Sort::Int, "gx");
            goal_parts.push(Assertion::exists(
                Binder::new(x),
                Assertion::atom(Atom::points_to(Term::Loc(p.loc), Term::v_int(Term::var(x)))),
            ));
        } else {
            goal_parts.push(Assertion::atom(Atom::points_to(
                Term::Loc(p.loc),
                Term::v_int(p.term.clone()),
            )));
        }
    }
    for f in &facts {
        if rng.chance(50) {
            goal_parts.push(Assertion::pure(weaken(&mut rng, f)));
        }
    }
    for g in [chain_goal, pin_goal].into_iter().flatten() {
        if rng.chance(70) {
            goal_parts.push(Assertion::pure(g));
        }
    }
    if rng.chance(30) {
        // A ground-true comparison, provable from nothing.
        let k = rng.range(-5, 5);
        let d = rng.range(0, 4);
        goal_parts.push(Assertion::pure(PureProp::le(
            Term::int(i128::from(k)),
            Term::int(i128::from(k + d)),
        )));
    }
    if goal_parts.is_empty() {
        goal_parts.push(Assertion::pure(PureProp::True));
    }

    let flavor = if expect_provable {
        "weakening"
    } else {
        match rng.below(3) {
            0 => {
                // Demand a location no hypothesis supplies.
                goal_parts.push(Assertion::atom(Atom::points_to(
                    Term::Loc(90 + rng.below(8)),
                    Term::v_int_lit(0),
                )));
                "missing-resource"
            }
            1 => {
                // A ground-false pure proposition; the context is
                // consistent (model-true facts), so it cannot be proved
                // by ex-falso either.
                let k = rng.range(-5, 5);
                goal_parts.push(Assertion::pure(PureProp::lt(
                    Term::int(i128::from(k)),
                    Term::int(i128::from(k)),
                )));
                "false-pure"
            }
            _ => {
                // Demand the same linear resource twice; the single
                // hypothesis copy is consumed by the first demand.
                let loc = pts[0].loc;
                for _ in 0..2 {
                    let x = ctx.vars.fresh_var(Sort::Int, "dx");
                    goal_parts.push(Assertion::exists(
                        Binder::new(x),
                        Assertion::atom(Atom::points_to(Term::Loc(loc), Term::v_int(Term::var(x)))),
                    ));
                }
                "dup-resource"
            }
        }
    };

    // Shuffle both sides (Fisher–Yates on the case stream) so conjunct
    // order is part of the search space.
    for parts in [&mut hyp_parts, &mut goal_parts] {
        for i in (1..parts.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            parts.swap(i, j);
        }
    }

    let premise = Assertion::sep_list(hyp_parts);
    let lhs = Assertion::sep_list(goal_parts);
    let goal = Goal::wand_intro(
        premise,
        Goal::Fupd {
            from: MaskT::top(),
            to: MaskT::top(),
            inner: lhs,
        },
    );
    EntailmentCase {
        seed,
        index,
        expect_provable,
        flavor,
        ctx,
        goal,
    }
}

// ---------------------------------------------------------------------------
// Synthetic checker traces
// ---------------------------------------------------------------------------

/// The `PureStep` rules the JSON codec interns; noise steps must stick
/// to these so generated traces round-trip.
const PURE_STEP_NOISE: [&str; 7] = [
    "if-true",
    "if-false",
    "head-step",
    "arith-sym",
    "neg-sym",
    "cmp-true",
    "cmp-false",
];

const DISJUNCT_SIDE_NOISE: [&str; 2] = ["left", "right"];

const DISJUNCT_REASON_NOISE: [&str; 3] =
    ["left guard refuted", "right guard refuted", "backtracking"];

fn emit_noise(rng: &mut FuzzRng, t: &mut ProofTrace) {
    let step = match rng.below(8) {
        0 => TraceStep::IntroVar {
            name: format!("x{}", rng.below(9)),
        },
        1 => TraceStep::IntroHyp {
            hyp: format!("H{}", rng.below(9)),
        },
        2 => TraceStep::Fact {
            prop: PureProp::le(Term::int(i128::from(rng.range(-9, 9))), Term::int(9)),
        },
        3 => TraceStep::PureStep {
            rule: PURE_STEP_NOISE[rng.below(PURE_STEP_NOISE.len() as u64) as usize],
        },
        4 => TraceStep::ValueReached,
        5 => TraceStep::TacticUsed {
            name: "fuzz-tactic".into(),
        },
        6 => TraceStep::HintApplied {
            rules: vec!["fuzz-rule".into()],
            hyp: if rng.chance(50) {
                Some(format!("H{}", rng.below(9)))
            } else {
                None
            },
            custom: rng.chance(20),
        },
        _ => TraceStep::DisjunctChosen {
            side: DISJUNCT_SIDE_NOISE[rng.below(2) as usize],
            reason: DISJUNCT_REASON_NOISE[rng.below(3) as usize],
        },
    };
    t.push(step);
}

/// A pure obligation that re-proves, in one of three styles: ground
/// facts, a frozen universal variable, or a *solved evar* in the goal
/// (the zonk path — the target of the corrupt-evar mutation).
fn emit_obligation(rng: &mut FuzzRng, t: &mut ProofTrace) {
    let step = match rng.below(3) {
        0 => {
            let a = i128::from(rng.range(-9, 9));
            let d = i128::from(rng.range(1, 5));
            TraceStep::PureObligation {
                facts: vec![PureProp::lt(Term::int(a), Term::int(a + d))],
                goal: if rng.chance(50) {
                    PureProp::le(Term::int(a), Term::int(a + d))
                } else {
                    PureProp::lt(Term::int(a), Term::int(a + d))
                },
                vars: VarCtx::new(),
            }
        }
        1 => {
            let mut vars = VarCtx::new();
            let x = vars.fresh_var(Sort::Int, "k");
            let k = i128::from(rng.range(-9, 9));
            TraceStep::PureObligation {
                facts: vec![PureProp::lt(Term::var(x), Term::int(k))],
                goal: PureProp::le(Term::var(x), Term::int(k)),
                vars,
            }
        }
        _ => {
            let mut vars = VarCtx::new();
            let k = i128::from(rng.range(-9, 9));
            let e = vars.push_raw_evar(Sort::Int, 0, Some(Term::int(k)));
            TraceStep::PureObligation {
                facts: Vec::new(),
                goal: PureProp::eq(Term::evar(e), Term::int(k)),
                vars,
            }
        }
    };
    t.push(step);
}

/// An invariant open/close window: atomic work inside, closed either
/// directly or jointly inside every branch of a case split (the
/// continuation-threading shape real engine traces have).
fn emit_window(rng: &mut FuzzRng, t: &mut ProofTrace, ns_counter: &mut usize, depth: usize) {
    let ns = Namespace::new(&format!("Fz{}", *ns_counter));
    *ns_counter += 1;
    t.push(TraceStep::InvOpened { ns: ns.clone() });
    for _ in 0..rng.below(3) {
        match rng.below(3) {
            0 => t.push(TraceStep::SymEx {
                spec: "CmpXchg".into(),
                atomic: true,
            }),
            1 => emit_obligation(rng, t),
            _ => emit_noise(rng, t),
        }
    }
    if depth < 2 && rng.chance(25) {
        // Close inside every branch: the split's branches jointly
        // discharge the window.
        t.push(TraceStep::CaseSplit {
            on: "fuzz-window".into(),
            branches: 2,
        });
        for b in 0..2 {
            t.push(TraceStep::BranchStart { index: b });
            if rng.chance(20) {
                // A vacuous branch may leave the window open.
                t.push(TraceStep::Contradiction {
                    rule: "fuzz-vacuous".into(),
                });
            } else {
                t.push(TraceStep::InvClosed { ns: ns.clone() });
                if rng.chance(50) {
                    emit_noise(rng, t);
                }
            }
            t.push(TraceStep::BranchEnd { index: b });
        }
    } else {
        t.push(TraceStep::InvClosed { ns });
    }
}

fn emit_block(rng: &mut FuzzRng, t: &mut ProofTrace, ns_counter: &mut usize, depth: usize) {
    let items = 2 + rng.below(4);
    for _ in 0..items {
        match rng.below(6) {
            0 | 1 => emit_noise(rng, t),
            2 => emit_obligation(rng, t),
            3 => emit_window(rng, t, ns_counter, depth),
            4 => t.push(TraceStep::SymEx {
                spec: "rec-call".into(),
                atomic: false,
            }),
            _ => {
                if depth < 2 {
                    let branches = 2 + rng.below(2) as usize;
                    t.push(TraceStep::CaseSplit {
                        on: "fuzz-split".into(),
                        branches,
                    });
                    for b in 0..branches {
                        t.push(TraceStep::BranchStart { index: b });
                        if rng.chance(15) {
                            t.push(TraceStep::Contradiction {
                                rule: "fuzz-vacuous".into(),
                            });
                        } else {
                            emit_block(rng, t, ns_counter, depth + 1);
                        }
                        t.push(TraceStep::BranchEnd { index: b });
                    }
                } else {
                    emit_noise(rng, t);
                }
            }
        }
    }
}

/// Generates a checker trace that is valid by construction: balanced
/// branch structure, disciplined invariant windows, re-provable pure
/// obligations, and noise steps restricted to what the JSON codec can
/// round-trip. Deterministic per `(seed, index)`.
#[must_use]
pub fn gen_trace(seed: u64, index: usize) -> ProofTrace {
    let mut rng = FuzzRng::new(seed ^ 0x7A5E_7A5E).fork(index as u64);
    let mut t = ProofTrace::new();
    let mut ns_counter = 0usize;
    emit_block(&mut rng, &mut t, &mut ns_counter, 0);
    // Every trace carries at least one mutation target of each family.
    if ns_counter == 0 {
        emit_window(&mut rng, &mut t, &mut ns_counter, 0);
    }
    if !t
        .steps()
        .iter()
        .any(|s| matches!(s, TraceStep::PureObligation { .. }))
    {
        emit_obligation(&mut rng, &mut t);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_json::{trace_from_json, trace_to_json};

    #[test]
    fn generated_entailments_are_deterministic() {
        let cfg = GenConfig::default();
        for i in 0..8 {
            let a = gen_entailment(0xD1AF, i, &cfg);
            let b = gen_entailment(0xD1AF, i, &cfg);
            assert_eq!(a.expect_provable, b.expect_provable);
            assert_eq!(a.flavor, b.flavor);
            assert_eq!(format!("{:?}", a.goal), format!("{:?}", b.goal));
            assert_eq!(
                format!("{:?} {:?}", a.ctx.facts, a.ctx.vars),
                format!("{:?} {:?}", b.ctx.facts, b.ctx.vars)
            );
        }
    }

    #[test]
    fn generated_traces_are_valid_and_round_trip() {
        for i in 0..16 {
            let t = gen_trace(0xD1AF, i);
            assert!(
                crate::checker::check(&t).is_ok(),
                "synthetic trace {i} rejected: {:?}",
                crate::checker::check(&t)
            );
            assert!(crate::fuzz::spec::spec_check(t.steps()).is_ok());
            let json = trace_to_json(&t);
            let back = trace_from_json(&json).expect("round-trip decodes");
            assert_eq!(trace_to_json(&back), json, "codec not byte-stable on {i}");
        }
    }
}
