//! Counting permissions — the ARC's ghost state (Fig. 4 of the paper).
//!
//! Kinds: `counter P γ p` (the authority that exactly `p > 0` tokens
//! exist), `token P γ` (one read-access token), `no_tokens P γ` (a witness
//! that none exist). Backed by [`diaframe_ra::counting::CountRa`], whose
//! tests validate every rule as a frame-preserving update.

use crate::library::{GhostLibrary, HintCandidate, MergeOutcome};
use diaframe_logic::{Assertion, Atom, GhostAtom, GhostKind, PredId};
use diaframe_term::{PureProp, Sort, Term, VarCtx};

/// `counter P γ p`.
pub const COUNTER: GhostKind = GhostKind {
    id: 10,
    name: "counter",
};

/// `token P γ`.
pub const TOKEN: GhostKind = GhostKind {
    id: 11,
    name: "token",
};

/// `no_tokens P γ`.
pub const NO_TOKENS: GhostKind = GhostKind {
    id: 12,
    name: "no_tokens",
};

/// Builds `counter P γ p`.
#[must_use]
pub fn counter(pred: PredId, gname: Term, count: Term) -> Atom {
    Atom::Ghost(GhostAtom {
        kind: COUNTER,
        gname,
        pred: Some(pred),
        args: vec![count],
    })
}

/// Builds `token P γ`.
#[must_use]
pub fn token(pred: PredId, gname: Term) -> Atom {
    Atom::Ghost(GhostAtom {
        kind: TOKEN,
        gname,
        pred: Some(pred),
        args: Vec::new(),
    })
}

/// Builds `no_tokens P γ q` — the fractional witness that no tokens
/// exist. The paper's `no_tokens` is the half-fraction (the `delete-last`
/// rule mints two halves); the reader-writer locks use other fractions.
#[must_use]
pub fn no_tokens(pred: PredId, gname: Term, frac: Term) -> Atom {
    Atom::Ghost(GhostAtom {
        kind: NO_TOKENS,
        gname,
        pred: Some(pred),
        args: vec![frac],
    })
}

/// The paper's `no_tokens P γ` (a half).
#[must_use]
pub fn no_tokens_half(pred: PredId, gname: Term) -> Atom {
    no_tokens(pred, gname, Term::qp(diaframe_term::Qp::half()))
}

/// The full witness `no_tokens P γ 1`.
#[must_use]
pub fn no_tokens_full(pred: PredId, gname: Term) -> Atom {
    no_tokens(pred, gname, Term::qp_one())
}

/// The counting-permissions library.
#[derive(Debug, Default)]
pub struct CountingLib;

impl GhostLibrary for CountingLib {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn kinds(&self) -> Vec<GhostKind> {
        vec![COUNTER, TOKEN, NO_TOKENS]
    }

    fn implied_facts(&self, atom: &GhostAtom) -> Vec<PureProp> {
        if atom.kind == COUNTER {
            // Validity: the count is positive.
            vec![PureProp::lt(Term::int(0), atom.args[0].clone())]
        } else if atom.kind == NO_TOKENS {
            // Validity: the fraction is at most 1.
            vec![PureProp::le(atom.args[0].clone(), Term::qp_one())]
        } else {
            Vec::new()
        }
    }

    fn merge(&self, _ctx: &mut VarCtx, a: &GhostAtom, b: &GhostAtom) -> Option<MergeOutcome> {
        let pair = (a.kind, b.kind);
        if pair == (COUNTER, COUNTER) {
            return Some(MergeOutcome::Contradiction {
                rule: "counter-exclusive",
            });
        }
        // token-interact (Fig. 4): no tokens exist, yet one is owned.
        if pair == (TOKEN, NO_TOKENS) || pair == (NO_TOKENS, TOKEN) {
            return Some(MergeOutcome::Contradiction {
                rule: "token-interact",
            });
        }
        // A counter claims p ≥ 1 tokens exist; no_tokens claims none.
        if pair == (COUNTER, NO_TOKENS) || pair == (NO_TOKENS, COUNTER) {
            return Some(MergeOutcome::Contradiction {
                rule: "counter-no-tokens",
            });
        }
        // Two fractional witnesses merge (overflow is caught by the
        // implied validity fact).
        if pair == (NO_TOKENS, NO_TOKENS) {
            let merged = GhostAtom {
                kind: NO_TOKENS,
                gname: a.gname.clone(),
                pred: a.pred,
                args: vec![Term::add(a.args[0].clone(), b.args[0].clone())],
            };
            return Some(MergeOutcome::Merged {
                rule: "no-tokens-merge",
                atom: merged,
                facts: Vec::new(),
            });
        }
        None
    }

    fn hints(&self, ctx: &mut VarCtx, hyp: &GhostAtom, goal: &Atom) -> Vec<HintCandidate> {
        let mut out = Vec::new();
        match goal {
            Atom::Ghost(g) if g.kind == COUNTER && hyp.kind == COUNTER => {
                let p = hyp.args[0].clone();
                let q = g.args[0].clone();
                let pred = hyp.pred.expect("counter carries its predicate");
                // token-mutate-incr: counter p ⤳ counter (p+1) ∗ token.
                out.push(
                    HintCandidate::new("token-mutate-incr")
                        .unify(g.gname.clone(), hyp.gname.clone())
                        .guard(PureProp::eq(q.clone(), Term::add(p.clone(), Term::int(1))))
                        .residue(Assertion::atom(token(pred, hyp.gname.clone()))),
                );
                // token-mutate-decr: counter p ∗ token ⤳ counter (p-1),
                // provided p > 1.
                out.push(
                    HintCandidate::new("token-mutate-decr")
                        .unify(g.gname.clone(), hyp.gname.clone())
                        .guard(PureProp::eq(q, Term::sub(p.clone(), Term::int(1))))
                        .guard(PureProp::lt(Term::int(1), p))
                        .side(Assertion::atom(token(pred, hyp.gname.clone()))),
                );
            }
            Atom::Ghost(g) if g.kind == NO_TOKENS && hyp.kind == COUNTER => {
                let p = hyp.args[0].clone();
                let q = g.args[0].clone();
                let pred = hyp.pred.expect("counter carries its predicate");
                // token-mutate-delete-last: counter 1 ∗ token ⤳
                //   no_tokens 1 ∗ P 1; the goal takes the fraction it
                //   wants, the rest (if any) plus the recovered P 1 are
                //   the residue.
                let rest = Assertion::atom(no_tokens(
                    pred,
                    hyp.gname.clone(),
                    Term::sub(Term::qp_one(), q.clone()),
                ));
                let recovered = Assertion::atom(Atom::PredApp {
                    pred,
                    args: vec![Term::qp_one()],
                });
                out.push(
                    HintCandidate::new("token-mutate-delete-last")
                        .unify(g.gname.clone(), hyp.gname.clone())
                        .guard(PureProp::eq(p.clone(), Term::int(1)))
                        .guard(PureProp::lt(q.clone(), Term::qp_one()))
                        .side(Assertion::atom(token(pred, hyp.gname.clone())))
                        .residue(Assertion::sep(rest, recovered.clone())),
                );
                out.push(
                    HintCandidate::new("token-mutate-delete-last")
                        .unify(g.gname.clone(), hyp.gname.clone())
                        .guard(PureProp::eq(p, Term::int(1)))
                        .guard(PureProp::eq(q, Term::qp_one()))
                        .side(Assertion::atom(token(pred, hyp.gname.clone())))
                        .residue(recovered),
                );
            }
            Atom::Ghost(g) if g.kind == NO_TOKENS && hyp.kind == NO_TOKENS => {
                let (q1, q2) = (hyp.args[0].clone(), g.args[0].clone());
                let pred = hyp.pred.expect("no_tokens carries its predicate");
                // Fraction split/join.
                out.push(
                    HintCandidate::new("no-tokens-split")
                        .unify(g.gname.clone(), hyp.gname.clone())
                        .guard(PureProp::lt(q2.clone(), q1.clone()))
                        .residue(Assertion::atom(no_tokens(
                            pred,
                            hyp.gname.clone(),
                            Term::sub(q1.clone(), q2.clone()),
                        ))),
                );
                out.push(
                    HintCandidate::new("no-tokens-join")
                        .unify(g.gname.clone(), hyp.gname.clone())
                        .guard(PureProp::lt(q1.clone(), q2.clone()))
                        .side(Assertion::atom(no_tokens(
                            pred,
                            hyp.gname.clone(),
                            Term::sub(q2, q1),
                        ))),
                );
            }
            Atom::Ghost(g) if g.kind == COUNTER && hyp.kind == NO_TOKENS => {
                // token-revive: no_tokens 1 ∗ P 1 ⤳ counter 1 ∗ token —
                // the inverse of delete-last, used by the reader-writer
                // locks when the first reader enters.
                let pred = hyp.pred.expect("no_tokens carries its predicate");
                out.push(
                    HintCandidate::new("token-revive")
                        .unify(g.gname.clone(), hyp.gname.clone())
                        .guard(PureProp::eq(hyp.args[0].clone(), Term::qp_one()))
                        .guard(PureProp::eq(g.args[0].clone(), Term::int(1)))
                        .side(Assertion::atom(Atom::PredApp {
                            pred,
                            args: vec![Term::qp_one()],
                        }))
                        .residue(Assertion::atom(token(pred, hyp.gname.clone()))),
                );
            }
            Atom::PredApp { pred, args }
                if hyp.kind == COUNTER && hyp.pred == Some(*pred)
                // token-mutate-delete-last, keyed on the recovered `P 1`:
                // counter 1 ∗ token ⤳ P 1 ∗ no_tokens 1. Used when the
                // last reader hands the resource to a writer-side lock
                // before re-establishing its own invariant (duolock).
                && args.len() == 1 =>
            {
                out.push(
                    HintCandidate::new("token-mutate-delete-last")
                        .unify(args[0].clone(), Term::qp_one())
                        .guard(PureProp::eq(hyp.args[0].clone(), Term::int(1)))
                        .side(Assertion::atom(token(*pred, hyp.gname.clone())))
                        .residue(Assertion::atom(no_tokens(
                            *pred,
                            hyp.gname.clone(),
                            Term::qp_one(),
                        ))),
                );
            }
            Atom::PredApp { pred, args }
                if hyp.kind == TOKEN && hyp.pred == Some(*pred)
                // token-access: token ⊢ ∃q. P q ∗ (P q −∗ token).
                && args.len() == 1 =>
            {
                let q = Term::var(ctx.fresh_var(Sort::Qp, "q"));
                let p_q = Assertion::atom(Atom::PredApp {
                    pred: *pred,
                    args: vec![q.clone()],
                });
                out.push(
                    HintCandidate::new("token-access")
                        .unify(args[0].clone(), q)
                        .residue(Assertion::wand(
                            p_q,
                            Assertion::atom(token(*pred, hyp.gname.clone())),
                        )),
                );
            }
            _ => {}
        }
        out
    }

    fn allocations(&self, ctx: &mut VarCtx, goal: &GhostAtom) -> Vec<HintCandidate> {
        if goal.kind == NO_TOKENS {
            // no-tokens-allocate: ⊢ ¤|⇛ ∃γ. no_tokens P γ 1.
            let fresh = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
            return vec![HintCandidate::new("no-tokens-allocate")
                .unify(goal.gname.clone(), fresh)
                .guard(PureProp::eq(goal.args[0].clone(), Term::qp_one()))];
        }
        if goal.kind != COUNTER {
            return Vec::new();
        }
        let pred = goal.pred.expect("counter carries its predicate");
        let fresh = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        // token-allocate: P 1 ⊢ ¤|⇛ ∃γ. counter P γ 1 ∗ token P γ.
        vec![HintCandidate::new("token-allocate")
            .unify(goal.gname.clone(), fresh.clone())
            .guard(PureProp::eq(goal.args[0].clone(), Term::int(1)))
            .side(Assertion::atom(Atom::PredApp {
                pred,
                args: vec![Term::qp_one()],
            }))
            .residue(Assertion::atom(token(pred, fresh)))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaframe_logic::PredTable;

    fn setup() -> (VarCtx, PredTable, PredId, Term) {
        let mut ctx = VarCtx::new();
        let mut preds = PredTable::new();
        let p = preds.fresh_fractional("P");
        let g = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        (ctx, preds, p, g)
    }

    fn ghost(a: Atom) -> GhostAtom {
        match a {
            Atom::Ghost(g) => g,
            other => panic!("not a ghost atom: {other:?}"),
        }
    }

    #[test]
    fn interaction_rules() {
        let (mut ctx, _preds, p, g) = setup();
        let lib = CountingLib;
        let tok = ghost(token(p, g.clone()));
        let no = ghost(no_tokens_half(p, g.clone()));
        let cnt = ghost(counter(p, g, Term::int(1)));
        assert!(matches!(
            lib.merge(&mut ctx, &tok, &no),
            Some(MergeOutcome::Contradiction {
                rule: "token-interact"
            })
        ));
        assert!(matches!(
            lib.merge(&mut ctx, &cnt, &no),
            Some(MergeOutcome::Contradiction { .. })
        ));
        assert!(lib.merge(&mut ctx, &tok, &tok.clone()).is_none());
    }

    #[test]
    fn counter_implies_positive() {
        let (mut ctx, _preds, p, g) = setup();
        let z = Term::var(ctx.fresh_var(Sort::Int, "z"));
        let lib = CountingLib;
        let facts = lib.implied_facts(&ghost(counter(p, g, z.clone())));
        assert_eq!(facts, vec![PureProp::lt(Term::int(0), z)]);
    }

    #[test]
    fn mutation_candidates_cover_fig4() {
        let (mut ctx, _preds, p, g) = setup();
        let z = Term::var(ctx.fresh_var(Sort::Int, "z"));
        let lib = CountingLib;
        let hyp = ghost(counter(p, g.clone(), z.clone()));
        // Towards a counter goal: incr and decr.
        let goal = counter(p, g.clone(), Term::add(z.clone(), Term::int(1)));
        let names: Vec<_> = lib
            .hints(&mut ctx, &hyp, &goal)
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(names, vec!["token-mutate-incr", "token-mutate-decr"]);
        // Towards no_tokens: delete-last.
        let goal = no_tokens_half(p, g.clone());
        let names: Vec<_> = lib
            .hints(&mut ctx, &hyp, &goal)
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(
            names,
            vec!["token-mutate-delete-last", "token-mutate-delete-last"]
        );
        // token-access towards P q.
        let tok = ghost(token(p, g));
        let q = ctx.fresh_evar(Sort::Qp);
        let goal = Atom::PredApp {
            pred: p,
            args: vec![Term::evar(q)],
        };
        let cands = lib.hints(&mut ctx, &tok, &goal);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].name, "token-access");
    }

    #[test]
    fn allocation_requires_count_one() {
        let (mut ctx, _preds, p, _g) = setup();
        let lib = CountingLib;
        let e = ctx.fresh_evar(Sort::GhostName);
        let goal = ghost(counter(p, Term::evar(e), Term::int(1)));
        let cands = lib.allocations(&mut ctx, &goal);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].name, "token-allocate");
        assert!(!cands[0].side.is_emp()); // needs P 1
    }
}
