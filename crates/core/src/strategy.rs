//! The Diaframe proof search strategy (§5.2 of the paper).
//!
//! [`Engine::solve`] performs the case analysis of §5.2 on [`Goal`]s:
//! introduction and *cleaning* of hypotheses, symbolic execution through
//! `sym-ex-fupd-exist` (§3.2), processing of the synthetic
//! `∥|⇛E₁ E₂∥ ∃x⃗. L ∗ G` goals by splitting separating conjunctions
//! left-to-right and discharging atoms via bi-abduction hints (§4), the
//! guard-based disjunction handling of §5.3, and the invariant-closing
//! `χ` bookkeeping.
//!
//! The search never backtracks globally; an undecided goal disjunction is
//! tried left then right, the abandoned branch's steps charged to the
//! fuel. When nothing applies it tries the spec's script and the
//! annotation's unfold hints, or stops with a [`Stuck`] report.

use crate::ctx::ProofCtx;
use crate::goal::Goal;
use crate::hint::find_hint;
use crate::report::Stuck;
use crate::spec::SpecTable;
use crate::tactic::{Ablation, VerifyOptions};
use crate::trace::{ProofTrace, TraceStep};
use diaframe_ghost::{MergeOutcome, Registry};
use diaframe_heaplang::ectx::{decompose, fill_ctx, Decomp, Frame};
use diaframe_heaplang::step::head_step;
use diaframe_heaplang::{BinOp, Expr, Heap, UnOp, Val};
use diaframe_logic::{Assertion, Atom, Binder, Mask, MaskT, Namespace, WpPost};
use diaframe_term::display::pp_prop;
use diaframe_term::{PureProp, Sort, Subst, Sym, Term, VarId};
use std::sync::Arc;

/// The proof search engine for one verification.
pub struct Engine<'a> {
    registry: &'a Registry,
    specs: &'a SpecTable,
    opts: &'a VerifyOptions,
    /// The search-order switches, read once from the thread's scoped
    /// override.
    ablation: Ablation,
    /// The trace of the proof so far.
    pub trace: ProofTrace,
    /// Times each tactic, and each unfold hint, has fired.
    tactic_fires: Vec<u32>,
    unfold_fires: Vec<u32>,
    fuel: u64,
}

type Solved = Result<ProofCtx, Box<Stuck>>;

impl<'a> Engine<'a> {
    /// Creates an engine.
    #[must_use]
    pub fn new(registry: &'a Registry, specs: &'a SpecTable, opts: &'a VerifyOptions) -> Self {
        Engine {
            registry,
            specs,
            opts,
            ablation: crate::tactic::current_ablation(),
            trace: ProofTrace::new(),
            tactic_fires: vec![0; opts.tactics.len()],
            unfold_fires: vec![0; opts.hints.len()],
            fuel: opts.effective_fuel(),
        }
    }

    fn stuck(&self, ctx: &ProofCtx, reason: impl Into<String>, goal: &Goal) -> Box<Stuck> {
        Box::new(Stuck {
            reason: reason.into(),
            ctx: ctx.clone(),
            goal: describe_goal(goal),
            unmatched_head: None,
            diag: crate::telemetry::stuck_diag(),
        })
    }

    /// Records a trace step, mirroring it into the telemetry counters.
    /// Every rule application must go through here (never `trace.push`
    /// directly) so the per-kind counters stay exact; trace *restores*
    /// on disjunction backtracking bypass it by design — counters
    /// measure search effort, not final trace length.
    fn push_step(&mut self, step: TraceStep) {
        crate::telemetry::count_step(&step);
        self.trace.push(step);
    }

    /// The next *applicable* case-split tactic at a stuck point: a
    /// tactic that cannot decide anything here is skipped, so it can fire
    /// at a later stuck point.
    fn try_case_tactic(&mut self, ctx: &ProofCtx) -> Option<(String, PureProp)> {
        for (i, t) in self.opts.tactics.iter().enumerate() {
            // Case splits are reusable (a tactic only offers a proposition
            // while it is undecided), but capped to keep degenerate ones
            // from diverging.
            if self.tactic_fires[i] >= 32 {
                continue;
            }
            if let Some(p) = t.case_prop(ctx) {
                self.tactic_fires[i] += 1;
                return Some((t.name.clone(), p));
            }
        }
        None
    }

    /// Applies the next applicable unfold hint at a stuck point: records
    /// it, removes the unfolded hypothesis and returns its replacement.
    fn unfold_hint(&mut self, ctx: &mut ProofCtx) -> Option<Assertion> {
        for (i, hint) in self.opts.hints.iter().enumerate() {
            if hint.goal.is_some() || self.unfold_fires[i] >= 64 {
                continue;
            }
            if let Some((idx, replacement)) = hint.unfold(ctx) {
                self.unfold_fires[i] += 1;
                let name = hint.name.clone();
                self.push_step(TraceStep::TacticUsed { name: name.clone() });
                self.push_step(TraceStep::HintApplied {
                    rules: vec![name],
                    hyp: Some(ctx.delta[idx].name.clone()),
                    custom: true,
                });
                ctx.remove_hyp(idx);
                return Some(replacement);
            }
        }
        None
    }

    /// Solves a goal, consuming hypotheses; returns the leftover context.
    ///
    /// # Errors
    ///
    /// Returns a [`Stuck`] report when no rule applies and no tactic helps.
    pub fn solve(&mut self, mut ctx: ProofCtx, goal: Goal) -> Solved {
        if self.fuel == 0 {
            return Err(self.stuck(&ctx, "out of fuel", &goal));
        }
        self.fuel -= 1;
        match goal {
            Goal::Done => self.discharge_pending(ctx),
            // Case 1: introduce a universal variable; entering a deeper
            // scope protects older evars (§3.2).
            Goal::Forall(b, g) => {
                ctx.vars.push_level();
                let sort = ctx.vars.var_sort(b.var);
                let name = ctx.vars.var_name(b.var).to_owned();
                let v = ctx.vars.fresh_var(sort, &name);
                self.push_step(TraceStep::IntroVar { name });
                let g = g.subst(&Subst::single(b.var, Term::var(v)));
                self.solve(ctx, g)
            }
            // Case 2: introduce and clean a hypothesis.
            Goal::WandIntro(u, g) => self.intro_hyps(ctx, vec![u], *g),
            Goal::StripLaters(g) => {
                for h in &mut ctx.delta {
                    if let Assertion::Later(inner) = &h.assertion {
                        h.assertion = (**inner).clone();
                    }
                }
                self.solve(ctx, *g)
            }
            // Case 3: weakest preconditions.
            Goal::Wp {
                expr,
                mask,
                post,
                then,
            } => self.wp_step(ctx, expr, mask, post, *then),
            // Case 4: fancy updates.
            Goal::Fupd { from, to, inner } => match inner {
                Assertion::Atom(Atom::Wp { expr, mask, post }) => self.solve(
                    ctx,
                    Goal::MaskSync {
                        from,
                        to,
                        cont: Box::new(Goal::Wp {
                            expr,
                            mask,
                            post,
                            then: Box::new(Goal::Done),
                        }),
                    },
                ),
                other => self.solve(
                    ctx,
                    Goal::SynFupd {
                        from,
                        to,
                        exists: Vec::new(),
                        lhs: other,
                        cont: Box::new(Goal::Done),
                    },
                ),
            },
            Goal::MaskSync { from, to, cont } => self.mask_sync(ctx, from, to, *cont),
            // Case 5: the synthetic fupd goal.
            Goal::SynFupd {
                from,
                to,
                exists,
                lhs,
                cont,
            } => self.syn_fupd(ctx, from, to, exists, lhs, *cont),
        }
    }

    /// Discharges postponed pure goals at the end of a branch. Remaining
    /// single-evar bounds are instantiated with their extremal value.
    fn discharge_pending(&mut self, mut ctx: ProofCtx) -> Solved {
        let pending = std::mem::take(&mut ctx.pending_pure);
        for p in pending {
            let p = p.zonk(&ctx.vars);
            if ctx.prove_pure(&p) {
                self.push_step(TraceStep::PureObligation {
                    facts: ctx.facts.clone(),
                    goal: p,
                    vars: ctx.vars.clone(),
                });
                continue;
            }
            // Heuristic instantiation for a bound on a lone unsolved evar.
            let solved = match &p {
                PureProp::Le(a, b) | PureProp::Lt(a, b) => {
                    let assign = |ctx: &mut ProofCtx, e: &Term, t: &Term| {
                        diaframe_term::unify(&mut ctx.vars, e, t).is_ok()
                    };
                    match (a, b) {
                        (Term::EVar(e), t) if ctx.vars.evar_unsolved(*e) && !t.has_evars() => {
                            assign(&mut ctx, &Term::EVar(*e), t)
                        }
                        (t, Term::EVar(e)) if ctx.vars.evar_unsolved(*e) && !t.has_evars() => {
                            let bump = if matches!(p, PureProp::Lt(..)) {
                                Term::add(t.clone(), Term::int(1))
                            } else {
                                t.clone()
                            };
                            assign(&mut ctx, &Term::EVar(*e), &bump)
                        }
                        _ => false,
                    }
                }
                _ => false,
            };
            let p = p.zonk(&ctx.vars);
            if !(solved && ctx.prove_pure(&p)) {
                let g = Goal::Done;
                return Err(self.stuck(
                    &ctx,
                    format!(
                        "postponed pure goal remains unprovable: {}",
                        pp_prop(&ctx.vars, &p)
                    ),
                    &g,
                ));
            }
            self.push_step(TraceStep::PureObligation {
                facts: ctx.facts.clone(),
                goal: p,
                vars: ctx.vars.clone(),
            });
        }
        Ok(ctx)
    }

    /// Introduces a stack of unstructured hypotheses (cleaning, case 2 of
    /// §5.2 and item 1 of §3.3), then continues with `cont`.
    fn intro_hyps(
        &mut self,
        mut ctx: ProofCtx,
        mut pending: Vec<Assertion>,
        mut cont: Goal,
    ) -> Solved {
        while let Some(u) = pending.pop() {
            let u = u.zonk_owned(&ctx.vars);
            match u {
                Assertion::Pure(p) => {
                    if p == PureProp::True {
                        continue;
                    }
                    // Decompose injective-constructor equations
                    // (`#b = #false` becomes `b = false`), enabling the
                    // substitution-based cleaning below.
                    if let Some(parts) = decompose_ctor_eq(&p) {
                        pending.extend(parts.into_iter().map(Assertion::pure));
                        continue;
                    }
                    self.push_step(TraceStep::Fact { prop: p.clone() });
                    if p == PureProp::False {
                        self.push_step(TraceStep::Contradiction {
                            rule: "false-hypothesis".into(),
                        });
                        return Ok(ctx);
                    }
                    // Cleaning: eliminate ⌜x = t⌝ by substitution.
                    if let Some((v, t)) = as_var_equation(&ctx, &p) {
                        ctx.substitute_var(v, &t);
                        let s = Subst::single(v, t);
                        for q in &mut pending {
                            *q = q.subst(&s);
                        }
                        cont = cont.subst(&s);
                        // The substitution may have made Γ contradictory
                        // (e.g. `z := 0` under the fact `0 < z`).
                        if ctx.inconsistent() {
                            self.push_step(TraceStep::Contradiction {
                                rule: "pure-inconsistency".into(),
                            });
                            return Ok(ctx);
                        }
                        continue;
                    }
                    ctx.add_fact(p);
                    if ctx.inconsistent() {
                        self.push_step(TraceStep::Contradiction {
                            rule: "pure-inconsistency".into(),
                        });
                        return Ok(ctx);
                    }
                }
                Assertion::Sep(l, r) => {
                    pending.push(*r);
                    pending.push(*l);
                }
                Assertion::Exists(b, body) => {
                    ctx.vars.push_level();
                    let sort = ctx.vars.var_sort(b.var);
                    let name = ctx.vars.var_name(b.var).to_owned();
                    let v = ctx.vars.fresh_var(sort, &name);
                    self.push_step(TraceStep::IntroVar { name });
                    pending.push(body.subst(&Subst::single(b.var, Term::var(v))));
                }
                Assertion::Or(l, r) => {
                    self.push_step(TraceStep::CaseSplit {
                        on: "hypothesis disjunction".into(),
                        branches: 2,
                    });
                    let ctx2 = ctx.clone();
                    let mut pending2 = pending.clone();
                    let cont2 = cont.clone();
                    pending.push(*l);
                    pending2.push(*r);
                    // Both branches must complete the remaining proof.
                    return self.split_branches(ctx, pending, cont, ctx2, pending2, cont2);
                }
                Assertion::Later(inner) => {
                    let stripped = inner.strip_later(&ctx.preds);
                    match stripped {
                        Assertion::Later(core) => {
                            // Not timeless: keep the later as a hypothesis.
                            let a = Assertion::Later(core);
                            self.push_step(TraceStep::IntroHyp {
                                hyp: format!("{a:?}"),
                            });
                            ctx.add_hyp(a, false);
                        }
                        other => pending.push(other),
                    }
                }
                Assertion::Atom(a) => {
                    if let Some(done) = self.add_atom_hyp(&mut ctx, a, &mut pending) {
                        return done.map(|()| ctx);
                    }
                }
                other @ (Assertion::Wand(..)
                | Assertion::Forall(..)
                | Assertion::BUpd(_)
                | Assertion::FUpd(..)) => {
                    self.push_step(TraceStep::IntroHyp {
                        hyp: "wand/quantified hypothesis".into(),
                    });
                    ctx.add_hyp(other, false);
                }
            }
        }
        self.solve(ctx, cont)
    }

    /// Adds an atom hypothesis with merging and contradiction detection.
    /// Returns `Some(Ok(()))` when the context became contradictory (the
    /// goal is vacuously discharged).
    fn add_atom_hyp(
        &mut self,
        ctx: &mut ProofCtx,
        atom: Atom,
        pending: &mut Vec<Assertion>,
    ) -> Option<Result<(), Box<Stuck>>> {
        let atom = atom.zonk_owned(&ctx.vars);
        match &atom {
            Atom::Ghost(g) => {
                if let Some(lib) = self.registry.library_for(g.kind) {
                    for f in lib.implied_facts(g) {
                        pending.push(Assertion::pure(f));
                    }
                    // Interaction rules against existing atoms with the
                    // same ghost name.
                    for i in 0..ctx.delta.len() {
                        let existing = ctx.delta[i].assertion.clone();
                        let Assertion::Atom(Atom::Ghost(h)) = &existing else {
                            continue;
                        };
                        if h.gname.zonk(&ctx.vars) != g.gname.zonk(&ctx.vars) {
                            continue;
                        }
                        if !lib.kinds().contains(&h.kind) {
                            continue;
                        }
                        match lib.merge(&mut ctx.vars, h, g) {
                            Some(MergeOutcome::Contradiction { rule }) => {
                                self.push_step(TraceStep::Contradiction {
                                    rule: rule.to_owned(),
                                });
                                return Some(Ok(()));
                            }
                            Some(MergeOutcome::Merged { rule, atom, facts }) => {
                                self.push_step(TraceStep::IntroHyp {
                                    hyp: format!("merged by {rule}"),
                                });
                                ctx.delta[i].assertion = Assertion::Atom(Atom::Ghost(atom));
                                for f in facts {
                                    pending.push(Assertion::pure(f));
                                }
                                return None;
                            }
                            Some(MergeOutcome::Facts { rule: _, facts }) => {
                                for f in facts {
                                    pending.push(Assertion::pure(f));
                                }
                            }
                            None => {}
                        }
                    }
                    let persistent = lib.is_persistent(g);
                    // Persistent derived copies (e.g. monotone snapshots).
                    for d in lib.derived(g) {
                        let a = Assertion::Atom(Atom::Ghost(d));
                        if !ctx.delta.iter().any(|h| h.assertion == a) {
                            ctx.add_hyp(a, true);
                        }
                    }
                    self.push_step(TraceStep::IntroHyp {
                        hyp: g.kind.name.to_owned(),
                    });
                    ctx.add_hyp(Assertion::Atom(atom), persistent);
                    return None;
                }
                self.push_step(TraceStep::IntroHyp {
                    hyp: g.kind.name.to_owned(),
                });
                ctx.add_hyp(Assertion::Atom(atom), false);
                None
            }
            Atom::PointsTo { loc, frac, val } => {
                // Merge fractions on the same location.
                for i in 0..ctx.delta.len() {
                    let Assertion::Atom(Atom::PointsTo {
                        loc: l2,
                        frac: q2,
                        val: v2,
                    }) = &ctx.delta[i].assertion
                    else {
                        continue;
                    };
                    if l2.zonk(&ctx.vars) != loc.zonk(&ctx.vars) {
                        continue;
                    }
                    let sum = Term::add(frac.clone(), q2.clone());
                    pending.push(Assertion::pure(PureProp::le(sum.clone(), Term::qp_one())));
                    pending.push(Assertion::pure(PureProp::eq(val.clone(), v2.clone())));
                    let merged = Atom::PointsTo {
                        loc: loc.clone(),
                        frac: sum,
                        val: v2.clone(),
                    };
                    self.push_step(TraceStep::IntroHyp {
                        hyp: "points-to merged".into(),
                    });
                    ctx.delta[i].assertion = Assertion::Atom(merged);
                    return None;
                }
                self.push_step(TraceStep::IntroHyp { hyp: "↦".into() });
                ctx.add_hyp(Assertion::Atom(atom), false);
                None
            }
            Atom::PredApp { pred, args } if ctx.preds.info(*pred).fractional && args.len() == 1 => {
                for i in 0..ctx.delta.len() {
                    let Assertion::Atom(Atom::PredApp { pred: p2, args: a2 }) =
                        &ctx.delta[i].assertion
                    else {
                        continue;
                    };
                    if p2 != pred || a2.len() != 1 {
                        continue;
                    }
                    let sum = Term::add(args[0].clone(), a2[0].clone());
                    let merged = Atom::PredApp {
                        pred: *pred,
                        args: vec![sum],
                    };
                    self.push_step(TraceStep::IntroHyp {
                        hyp: "fractional predicate merged".into(),
                    });
                    ctx.delta[i].assertion = Assertion::Atom(merged);
                    return None;
                }
                ctx.add_hyp(Assertion::Atom(atom), false);
                None
            }
            Atom::Invariant { .. } => {
                // Duplicable: drop exact duplicates.
                let dup = ctx
                    .delta
                    .iter()
                    .any(|h| h.assertion == Assertion::Atom(atom.clone()));
                if !dup {
                    self.push_step(TraceStep::IntroHyp { hyp: "inv".into() });
                    ctx.add_hyp(Assertion::Atom(atom), true);
                }
                None
            }
            _ => {
                self.push_step(TraceStep::IntroHyp { hyp: "atom".into() });
                ctx.add_hyp(Assertion::Atom(atom), false);
                None
            }
        }
    }

    /// Case 4a: reconcile masks, closing invariants as needed.
    fn mask_sync(&mut self, mut ctx: ProofCtx, from: MaskT, to: MaskT, cont: Goal) -> Solved {
        if ctx.masks.unify(&from, &to) {
            return self.solve(ctx, cont);
        }
        let (Some(f), Some(t)) = (from.resolve(&ctx.masks), to.resolve(&ctx.masks)) else {
            return Err(self.stuck(&ctx, "cannot reconcile undetermined masks", &cont));
        };
        // Invariants to close: those removed in `from` but present in `to`.
        let to_close: Vec<Namespace> = f.removed().filter(|n| t.contains(n)).cloned().collect();
        if to_close.is_empty() || f.removed().any(|n| !t.contains(n) && !f.contains(n)) {
            return Err(self.stuck(&ctx, format!("cannot reconcile masks {f} and {t}"), &cont));
        }
        let ns = to_close[0].clone();
        let mid = MaskT::EVar(ctx.masks.fresh());
        let goal = Goal::SynFupd {
            from: MaskT::Concrete(f),
            to: mid.clone(),
            exists: Vec::new(),
            lhs: Assertion::atom(Atom::CloseInv { ns }),
            cont: Box::new(Goal::MaskSync {
                from: mid,
                to,
                cont: Box::new(cont),
            }),
        };
        self.solve(ctx, goal)
    }

    /// Case 5: the synthetic fupd goal.
    fn syn_fupd(
        &mut self,
        mut ctx: ProofCtx,
        from: MaskT,
        to: MaskT,
        mut exists: Vec<Binder>,
        lhs: Assertion,
        cont: Goal,
    ) -> Solved {
        let Some(from_mask) = from.resolve(&ctx.masks) else {
            // An unconstrained source: unify with the target and continue.
            if ctx.masks.unify(&from, &to) {
                return self.syn_fupd(ctx, to.clone(), to, exists, lhs, cont);
            }
            return Err(self.stuck(&ctx, "unresolved source mask", &cont));
        };
        // Normalisation: a determined target is replaced by a fresh evar
        // plus a MaskSync, so atom hints can always unify the target and
        // invariants opened along the way are closed by the sync.
        if let Some(concrete) = to.resolve(&ctx.masks) {
            let fresh = MaskT::EVar(ctx.masks.fresh());
            return self.syn_fupd_inner(
                ctx,
                from_mask,
                fresh.clone(),
                exists,
                lhs,
                Goal::MaskSync {
                    from: fresh,
                    to: MaskT::Concrete(concrete),
                    cont: Box::new(cont),
                },
            );
        }
        let _ = &mut exists;
        self.syn_fupd_inner(ctx, from_mask, to, exists, lhs, cont)
    }

    #[allow(clippy::too_many_lines)]
    fn syn_fupd_inner(
        &mut self,
        mut ctx: ProofCtx,
        from: Mask,
        to: MaskT,
        mut exists: Vec<Binder>,
        lhs: Assertion,
        cont: Goal,
    ) -> Solved {
        let lhs = lhs.zonk_owned(&ctx.vars);
        match lhs {
            // 5a: pure goals.
            Assertion::Pure(p) => {
                // Remaining binders become evars (they may be determined by
                // solving the pure goal, e.g. ⌜?b = true⌝).
                let s = Self::evarify(&mut ctx, &exists);
                let p = p.subst(&s).zonk(&ctx.vars);
                let cont = cont.subst(&s);
                // Try to prove (equations may instantiate evars); a goal
                // whose evars remain undetermined is *postponed* and
                // re-proved once instantiation happens (delayed
                // instantiation, §3.2).
                if !ctx.prove_pure(&p) && p.zonk(&ctx.vars).has_evars() {
                    ctx.pending_pure.push(p);
                    if !ctx.masks.unify(&to, &MaskT::Concrete(from.clone())) {
                        return Err(self.stuck(&ctx, "mask mismatch at pure goal", &cont));
                    }
                    return self.solve(ctx, cont);
                }
                if !ctx.prove_pure(&p) {
                    let reason = format!("cannot prove pure goal {}", pp_prop(&ctx.vars, &p));
                    let goal = Goal::SynFupd {
                        from: MaskT::Concrete(from),
                        to,
                        exists: Vec::new(),
                        lhs: Assertion::Pure(p),
                        cont: Box::new(cont),
                    };
                    // A manual case split may decide it.
                    if let Some((name, prop)) = self.try_case_tactic(&ctx) {
                        return self.case_split_tactic(ctx, name, prop, goal);
                    }
                    return Err(self.stuck(&ctx, reason, &goal));
                }
                self.push_step(TraceStep::PureObligation {
                    facts: ctx.facts.clone(),
                    goal: p,
                    vars: ctx.vars.clone(),
                });
                if !ctx.masks.unify(&to, &MaskT::Concrete(from.clone())) {
                    return Err(self.stuck(&ctx, "mask mismatch at pure goal", &cont));
                }
                self.solve(ctx, cont)
            }
            // 5b: split separating conjunctions left-to-right — but defer
            // pure conjuncts that mention a still-undetermined binder
            // until after the atoms (which determine the binder), so the
            // annotation's conjunct order does not matter for
            // `⌜2 ≤ m⌝ ∗ lb γ m`-style goals.
            Assertion::Sep(..) => {
                let lhs_owned = lhs;
                let mut conjuncts: Vec<Assertion> =
                    lhs_owned.sep_conjuncts().into_iter().cloned().collect();
                if !exists.is_empty() {
                    let binder_vars: Vec<_> = exists.iter().map(|b| b.var).collect();
                    let (deferred, front): (Vec<Assertion>, Vec<Assertion>) =
                        conjuncts.into_iter().partition(|c| {
                            // Equations *determine* binders (the solver
                            // instantiates them by unification), so only
                            // non-equational constraints are deferred.
                            matches!(c, Assertion::Pure(p) if !matches!(p, PureProp::Eq(..)))
                                && c.free_vars().iter().any(|v| binder_vars.contains(v))
                        });
                    conjuncts = front;
                    conjuncts.extend(deferred);
                }
                let first = conjuncts.remove(0);
                let rest_lhs = Assertion::sep_list(conjuncts);
                let l_vars = first.free_vars();
                let (l_binders, rest): (Vec<Binder>, Vec<Binder>) =
                    exists.into_iter().partition(|b| l_vars.contains(&b.var));
                let mid = MaskT::EVar(ctx.masks.fresh());
                let goal = Goal::SynFupd {
                    from: MaskT::Concrete(from),
                    to: mid.clone(),
                    exists: l_binders,
                    lhs: first,
                    cont: Box::new(Goal::SynFupd {
                        from: mid,
                        to,
                        exists: rest,
                        lhs: rest_lhs,
                        cont: Box::new(cont),
                    }),
                };
                self.solve(ctx, goal)
            }
            // 5c: hoist existentials.
            Assertion::Exists(b, body) => {
                exists.push(b);
                self.syn_fupd_inner(ctx, from, to, exists, *body, cont)
            }
            // Later introduction: A ⊢ ▷A.
            Assertion::Later(inner) => self.syn_fupd_inner(ctx, from, to, exists, *inner, cont),
            // §5.3: guarded disjunctions.
            Assertion::Or(l, r) => self.goal_disjunction(ctx, from, to, exists, *l, *r, cont),
            // 5d: atoms.
            Assertion::Atom(Atom::Wp { expr, mask, post }) => {
                // A wp atom (fork): prove the child's wp, threading the
                // remaining context through its continuation.
                if !ctx.masks.unify(&to, &MaskT::Concrete(from.clone())) {
                    return Err(self.stuck(&ctx, "mask mismatch at wp side condition", &cont));
                }
                if !from.is_top() {
                    return Err(self.stuck(&ctx, "fork while an invariant is open", &cont));
                }
                self.solve(
                    ctx,
                    Goal::Wp {
                        expr,
                        mask,
                        post,
                        then: Box::new(cont),
                    },
                )
            }
            Assertion::Atom(atom) => self.atom_goal(ctx, from, to, exists, atom, cont),
            other => {
                let goal = Goal::SynFupd {
                    from: MaskT::Concrete(from),
                    to,
                    exists,
                    lhs: other,
                    cont: Box::new(cont),
                };
                Err(self.stuck(&ctx, "left-goal outside the grammar", &goal))
            }
        }
    }

    /// Converts binder placeholders to evars (delayed instantiation: only
    /// at the point of atom selection / pure solving). Binder placeholders
    /// occur only in the goal, so the caller applies the returned
    /// substitution to the relevant goal parts.
    fn evarify(ctx: &mut ProofCtx, binders: &[Binder]) -> Subst {
        let mut s = Subst::new();
        for b in binders {
            let sort = ctx.vars.var_sort(b.var);
            let e = ctx.vars.fresh_evar(sort);
            s.insert(b.var, Term::evar(e));
        }
        s
    }

    /// Case 5d for a proper atom: select it, push a hint scope, convert its
    /// existential outputs to evars, and search for a bi-abduction hint.
    fn atom_goal(
        &mut self,
        mut ctx: ProofCtx,
        from: Mask,
        to: MaskT,
        exists: Vec<Binder>,
        atom: Atom,
        cont: Goal,
    ) -> Solved {
        // Push the hint scope: output evars live here and may capture
        // variables the hint introduces (invariant-body existentials,
        // freshly allocated ghost names) but *older* evars may not (§3.2).
        ctx.vars.push_level();
        let mut s = Subst::new();
        for b in &exists {
            let sort = ctx.vars.var_sort(b.var);
            let e = ctx.vars.fresh_evar(sort);
            s.insert(b.var, Term::evar(e));
        }
        let atom = atom.subst(&s);
        let cont = cont.subst(&s);
        match find_hint(
            &mut ctx,
            self.registry,
            self.opts,
            self.ablation,
            &atom,
            &from,
        ) {
            Some(found) => {
                if let Some(ns) = &found.opened {
                    self.push_step(TraceStep::InvOpened { ns: ns.clone() });
                }
                if let Some(ns) = &found.closed {
                    self.push_step(TraceStep::InvClosed { ns: ns.clone() });
                }
                self.push_step(TraceStep::HintApplied {
                    rules: found.rules.clone(),
                    hyp: found.hyp_idx.map(|i| ctx.delta[i].name.clone()),
                    custom: found.custom,
                });
                if let Some(i) = found.hyp_idx {
                    if found.consume {
                        ctx.remove_hyp(i);
                    }
                }
                let mut pending: Vec<Assertion> =
                    found.learned.into_iter().map(Assertion::pure).collect();
                match found.mask_to {
                    Some(target) => {
                        // A mask-changing hint (invariant opening / closing
                        // wand): the goal's target mask becomes the hint's,
                        // and the side condition is proved at the source
                        // mask.
                        if !ctx.masks.unify(&to, &MaskT::Concrete(target)) {
                            return Err(self.stuck(&ctx, "hint target mask mismatch", &cont));
                        }
                        if found.side.is_emp() {
                            pending.push(found.residue);
                            self.intro_hyps(ctx, pending, cont)
                        } else {
                            let side_goal = Goal::SynFupd {
                                from: MaskT::Concrete(from.clone()),
                                to: MaskT::Concrete(from),
                                exists: Vec::new(),
                                lhs: found.side,
                                cont: Box::new(Goal::WandIntro(
                                    Assertion::sep_list(pending.into_iter().chain([found.residue])),
                                    Box::new(cont),
                                )),
                            };
                            self.solve(ctx, side_goal)
                        }
                    }
                    None => {
                        // A base hint: the side condition's own invariant
                        // openings flow into the continuation's mask (the
                        // update composes), so the chain target is left to
                        // the side-goal.
                        if found.side.is_emp() {
                            if !ctx.masks.unify(&to, &MaskT::Concrete(from)) {
                                return Err(self.stuck(&ctx, "hint target mask mismatch", &cont));
                            }
                            pending.push(found.residue);
                            self.intro_hyps(ctx, pending, cont)
                        } else {
                            let side_goal = Goal::SynFupd {
                                from: MaskT::Concrete(from),
                                to,
                                exists: Vec::new(),
                                lhs: found.side,
                                cont: Box::new(Goal::WandIntro(
                                    Assertion::sep_list(pending.into_iter().chain([found.residue])),
                                    Box::new(cont),
                                )),
                            };
                            self.solve(ctx, side_goal)
                        }
                    }
                }
            }
            None => {
                // Stuck-point fallback: an unfold hint on a recursive
                // predicate, or a manual case split.
                if let Some(replacement) = self.unfold_hint(&mut ctx) {
                    let goal = Goal::SynFupd {
                        from: MaskT::Concrete(from),
                        to,
                        exists: Vec::new(),
                        lhs: Assertion::Atom(atom),
                        cont: Box::new(cont),
                    };
                    return self.intro_hyps(ctx, vec![replacement], goal);
                }
                if let Some((name, prop)) = self.try_case_tactic(&ctx) {
                    let goal = Goal::SynFupd {
                        from: MaskT::Concrete(from),
                        to,
                        exists: Vec::new(),
                        lhs: Assertion::Atom(atom),
                        cont: Box::new(cont),
                    };
                    return self.case_split_tactic(ctx, name, prop, goal);
                }
                let atom = atom.zonk_owned(&ctx.vars);
                let head = crate::index::goal_head(&atom, &ctx.preds);
                let goal = Goal::SynFupd {
                    from: MaskT::Concrete(from),
                    to,
                    exists: Vec::new(),
                    lhs: Assertion::Atom(atom),
                    cont: Box::new(cont),
                };
                let mut stuck = self.stuck(&ctx, "no bi-abduction hint applies", &goal);
                stuck.unmatched_head = Some(head);
                Err(stuck)
            }
        }
    }

    /// §5.3: guarded goal disjunctions.
    #[allow(clippy::too_many_arguments)]
    fn goal_disjunction(
        &mut self,
        mut ctx: ProofCtx,
        from: Mask,
        to: MaskT,
        exists: Vec<Binder>,
        l: Assertion,
        r: Assertion,
        cont: Goal,
    ) -> Solved {
        fn refuted(this: &mut Engine, ctx: &mut ProofCtx, side: &Assertion) -> bool {
            // A nested disjunction is refuted when both disjuncts are.
            if let Assertion::Or(a, b) = strip_wrappers(side) {
                return refuted(this, ctx, a) && refuted(this, ctx, b);
            }
            match guard_of(side) {
                Some(g) => {
                    let neg = g.negated();
                    if ctx.prove_pure_frozen(&neg) {
                        this.push_step(TraceStep::PureObligation {
                            facts: ctx.facts.clone(),
                            goal: neg,
                            vars: ctx.vars.clone(),
                        });
                        true
                    } else {
                        false
                    }
                }
                None => false,
            }
        }
        if refuted(self, &mut ctx, &l) {
            self.push_step(TraceStep::DisjunctChosen {
                side: "right",
                reason: "left guard refuted",
            });
            return self.syn_fupd_inner(ctx, from, to, exists, r, cont);
        }
        if refuted(self, &mut ctx, &r) {
            self.push_step(TraceStep::DisjunctChosen {
                side: "left",
                reason: "right guard refuted",
            });
            return self.syn_fupd_inner(ctx, from, to, exists, l, cont);
        }
        // A manual case split may decide the guards.
        if let Some((name, prop)) = self.try_case_tactic(&ctx) {
            let goal = Goal::SynFupd {
                from: MaskT::Concrete(from),
                to,
                exists,
                lhs: Assertion::or(l, r),
                cont: Box::new(cont),
            };
            return self.case_split_tactic(ctx, name, prop, goal);
        }
        // Backtracking (§5.3's last paragraph): the left disjunct, and on
        // failure the right one. The fuel the left branch burnt stays
        // spent, so nested undecided disjunctions cannot multiply the
        // search beyond the budget.
        let ctx2 = ctx.clone();
        let saved_len = self.trace.len();
        let left = match self.syn_fupd_inner(
            ctx,
            from.clone(),
            to.clone(),
            exists.clone(),
            l.clone(),
            cont.clone(),
        ) {
            Ok(out) => {
                self.push_step(TraceStep::DisjunctChosen {
                    side: "left",
                    reason: "backtracking",
                });
                return Ok(out);
            }
            Err(stuck) => stuck,
        };
        crate::telemetry::backtracked((self.trace.len() - saved_len) as u64);
        self.trace.truncate(saved_len);
        self.fuel = self.fuel.saturating_sub(1);
        self.push_step(TraceStep::DisjunctChosen {
            side: "right",
            reason: "backtracking",
        });
        let at = ctx2.clone();
        self.syn_fupd_inner(ctx2, from.clone(), to.clone(), exists, r.clone(), cont)
            .map_err(|right| {
                // Running out of fuel is the search's verdict, not the
                // disjunction's.
                if self.fuel == 0 {
                    return right;
                }
                // Both disjuncts failed: the report stands at the
                // disjunction and keeps both branches' reasons.
                let goal = Goal::SynFupd {
                    from: MaskT::Concrete(from),
                    to,
                    exists: Vec::new(),
                    lhs: Assertion::or(l, r),
                    cont: Box::new(Goal::Done),
                };
                let reason = format!(
                    "neither disjunct holds; left: {}; right: {}",
                    left.reason, right.reason
                );
                Box::new(Stuck {
                    unmatched_head: right.unmatched_head.or(left.unmatched_head),
                    ..*self.stuck(&at, reason, &goal)
                })
            })
    }

    /// Solves both branches of a 2-way case split whose `CaseSplit` step
    /// the caller has already pushed: branch 0, then branch 1, each
    /// bracketed by its `BranchStart`/`BranchEnd` steps.
    fn split_branches(
        &mut self,
        ctx0: ProofCtx,
        pending0: Vec<Assertion>,
        cont0: Goal,
        ctx1: ProofCtx,
        pending1: Vec<Assertion>,
        cont1: Goal,
    ) -> Solved {
        self.push_step(TraceStep::BranchStart { index: 0 });
        {
            let mut sp = crate::profile::span(crate::profile::SpanKind::Branch);
            sp.set_label("0");
            self.intro_hyps(ctx0, pending0, cont0)?;
        }
        self.push_step(TraceStep::BranchEnd { index: 0 });
        self.push_step(TraceStep::BranchStart { index: 1 });
        let out = {
            let mut sp = crate::profile::span(crate::profile::SpanKind::Branch);
            sp.set_label("1");
            self.intro_hyps(ctx1, pending1, cont1)?
        };
        self.push_step(TraceStep::BranchEnd { index: 1 });
        Ok(out)
    }

    /// Applies a user case-split tactic: prove the goal under `φ` and
    /// under `¬φ`.
    fn case_split_tactic(
        &mut self,
        ctx: ProofCtx,
        name: String,
        prop: PureProp,
        goal: Goal,
    ) -> Solved {
        self.push_step(TraceStep::TacticUsed { name: name.clone() });
        self.push_step(TraceStep::CaseSplit {
            on: name,
            branches: 2,
        });
        let ctx2 = ctx.clone();
        let goal2 = goal.clone();
        self.split_branches(
            ctx,
            vec![Assertion::pure(prop.clone())],
            goal,
            ctx2,
            vec![Assertion::pure(prop.negated())],
            goal2,
        )
    }

    // ------------------------------------------------------------------
    // Weakest preconditions (case 3).
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn wp_step(
        &mut self,
        mut ctx: ProofCtx,
        expr: Expr,
        mask: MaskT,
        post: WpPost,
        then: Goal,
    ) -> Solved {
        match decompose(&expr) {
            Decomp::Value(v) => {
                self.push_step(TraceStep::ValueReached);
                let v = resolve_val(&mut ctx, &v);
                let Some(term) = ctx.syms.val_to_term(&v) else {
                    let g = Goal::Done;
                    return Err(self.stuck(&ctx, "closure-valued result", &g));
                };
                let inner = post.at(&term);
                self.solve(
                    ctx,
                    Goal::Fupd {
                        from: mask.clone(),
                        to: mask,
                        inner,
                    },
                )
            }
            Decomp::Head(k, redex) => {
                let redex = resolve_redex(&mut ctx, redex);
                // 1. Registered function specifications (modular calls and
                //    Löb induction hypotheses).
                if let Expr::App(f, a) = &redex {
                    if let (Some(fv), Some(av)) = (f.as_val(), a.as_val()) {
                        if let Some(spec) = self.specs.lookup(fv).cloned() {
                            if let Some(arg_term) = ctx.syms.val_to_term(av) {
                                return self.symex_spec(ctx, &k, mask, post, then, &spec, arg_term);
                            }
                        }
                    }
                }
                // 2. Primitive heap operations and fork.
                if is_heap_op(&redex) {
                    return self.symex_prim(ctx, &k, mask, post, then, &redex);
                }
                // 3. Pure and symbolic steps.
                self.pure_or_symbolic_step(ctx, k, redex, mask, post, then)
            }
        }
    }

    /// A pure reduction or a symbolic case split.
    fn pure_or_symbolic_step(
        &mut self,
        mut ctx: ProofCtx,
        k: Vec<Frame>,
        redex: Expr,
        mask: MaskT,
        post: WpPost,
        then: Goal,
    ) -> Solved {
        // Symbolic `if`.
        if let Expr::If(c, t, e) = &redex {
            if let Some(Val::Sym(id)) = c.as_val() {
                let cond = ctx.syms.resolve(*id).zonk(&ctx.vars);
                let Term::App(Sym::VBool, args) = &cond else {
                    let g = Goal::Done;
                    return Err(self.stuck(&ctx, "if on a non-boolean symbolic value", &g));
                };
                let b = args[0].clone();
                let mk = |branch: &Expr| fill_ctx(&k, branch.clone());
                if ctx.prove_pure_frozen(&PureProp::eq(b.clone(), Term::bool(true))) {
                    self.push_step(TraceStep::PureStep { rule: "if-true" });
                    return self.wp_goal(ctx, mk(t), mask, post, then);
                }
                if ctx.prove_pure_frozen(&PureProp::eq(b.clone(), Term::bool(false))) {
                    self.push_step(TraceStep::PureStep { rule: "if-false" });
                    return self.wp_goal(ctx, mk(e), mask, post, then);
                }
                // Case split on the boolean.
                self.push_step(TraceStep::CaseSplit {
                    on: "symbolic if".into(),
                    branches: 2,
                });
                for h in &mut ctx.delta {
                    if let Assertion::Later(inner) = &h.assertion {
                        h.assertion = (**inner).clone();
                    }
                }
                let ctx2 = ctx.clone();
                return self.split_branches(
                    ctx,
                    vec![Assertion::pure(PureProp::eq(b.clone(), Term::bool(true)))],
                    Goal::Wp {
                        expr: mk(t),
                        mask: mask.clone(),
                        post: post.clone(),
                        then: Box::new(then.clone()),
                    },
                    ctx2,
                    vec![Assertion::pure(PureProp::eq(b, Term::bool(false)))],
                    Goal::Wp {
                        expr: mk(e),
                        mask,
                        post,
                        then: Box::new(then),
                    },
                );
            }
        }
        // Symbolic binary operations.
        if let Expr::BinOp(op, l, r) = &redex {
            if let (Some(lv), Some(rv)) = (l.as_val(), r.as_val()) {
                if matches!(lv, Val::Sym(_)) || matches!(rv, Val::Sym(_)) {
                    return self.symbolic_binop(
                        ctx,
                        k,
                        *op,
                        lv.clone(),
                        rv.clone(),
                        mask,
                        post,
                        then,
                    );
                }
            }
        }
        if let Expr::UnOp(UnOp::Neg, a) = &redex {
            if let Some(Val::Sym(id)) = a.as_val() {
                let t = ctx.syms.resolve(*id).zonk(&ctx.vars);
                if let Term::App(Sym::VInt, args) = &t {
                    let out = Term::v_int(Term::neg(args[0].clone()));
                    let v = ctx.syms.term_to_val(&ctx.vars, &out);
                    self.push_step(TraceStep::PureStep { rule: "neg-sym" });
                    return self.wp_goal(ctx, fill_ctx(&k, Expr::Val(v)), mask, post, then);
                }
            }
        }
        // Concrete head step (β, projections, literal arithmetic, …).
        let mut dummy_heap = Heap::new();
        match head_step(&redex, &mut dummy_heap) {
            Ok(res) => {
                debug_assert!(res.forked.is_none(), "fork handled as heap op");
                debug_assert!(dummy_heap.is_empty(), "heap op slipped through");
                self.push_step(TraceStep::PureStep { rule: "head-step" });
                self.wp_goal(ctx, fill_ctx(&k, res.expr), mask, post, then)
            }
            Err(e) => {
                let g = Goal::Done;
                Err(self.stuck(&ctx, format!("program is stuck: {e}"), &g))
            }
        }
    }

    /// Continues a `wp` after a program step was taken; stripping one
    /// later from every hypothesis (every pure/symbolic reduction is a
    /// real step).
    fn wp_goal(
        &mut self,
        mut ctx: ProofCtx,
        expr: Expr,
        mask: MaskT,
        post: WpPost,
        then: Goal,
    ) -> Solved {
        for h in &mut ctx.delta {
            if let Assertion::Later(inner) = &h.assertion {
                h.assertion = (**inner).clone();
            }
        }
        self.solve(
            ctx,
            Goal::Wp {
                expr,
                mask,
                post,
                then: Box::new(then),
            },
        )
    }

    /// Symbolic comparison / arithmetic on values.
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn symbolic_binop(
        &mut self,
        mut ctx: ProofCtx,
        k: Vec<Frame>,
        op: BinOp,
        l: Val,
        r: Val,
        mask: MaskT,
        post: WpPost,
        then: Goal,
    ) -> Solved {
        let stuck_goal = Goal::Done;
        let (Some(lt), Some(rt)) = (ctx.syms.val_to_term(&l), ctx.syms.val_to_term(&r)) else {
            return Err(self.stuck(&ctx, "binop on closures", &stuck_goal));
        };
        let lt = lt.zonk(&ctx.vars);
        let rt = rt.zonk(&ctx.vars);
        let as_int = |t: &Term| -> Option<Term> {
            match t {
                Term::App(Sym::VInt, args) => Some(args[0].clone()),
                _ => None,
            }
        };
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                let (Some(a), Some(b)) = (as_int(&lt), as_int(&rt)) else {
                    return Err(self.stuck(&ctx, "arithmetic on non-integers", &stuck_goal));
                };
                let out = match op {
                    BinOp::Add => Term::add(a, b),
                    BinOp::Sub => Term::sub(a, b),
                    _ => Term::mul(a, b),
                };
                let v = ctx.syms.term_to_val(&ctx.vars, &Term::v_int(out));
                self.push_step(TraceStep::PureStep { rule: "arith-sym" });
                self.wp_goal(ctx, fill_ctx(&k, Expr::Val(v)), mask, post, then)
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                // Build the proposition the comparison decides.
                let prop = match op {
                    BinOp::Eq => {
                        if !(is_unboxed(&lt) || is_unboxed(&rt)) {
                            return Err(self.stuck(
                                &ctx,
                                "cannot establish compare-safety of symbolic equality",
                                &stuck_goal,
                            ));
                        }
                        PureProp::eq(lt, rt)
                    }
                    BinOp::Ne => {
                        if !(is_unboxed(&lt) || is_unboxed(&rt)) {
                            return Err(self.stuck(
                                &ctx,
                                "cannot establish compare-safety of symbolic equality",
                                &stuck_goal,
                            ));
                        }
                        PureProp::ne(lt, rt)
                    }
                    _ => {
                        let (Some(a), Some(b)) = (as_int(&lt), as_int(&rt)) else {
                            return Err(self.stuck(
                                &ctx,
                                "comparison on non-integers",
                                &stuck_goal,
                            ));
                        };
                        match op {
                            BinOp::Lt => PureProp::lt(a, b),
                            BinOp::Le => PureProp::le(a, b),
                            BinOp::Gt => PureProp::gt(a, b),
                            _ => PureProp::ge(a, b),
                        }
                    }
                };
                let mk = |b: bool| fill_ctx(&k, Expr::bool(b));
                if ctx.prove_pure_frozen(&prop) {
                    self.push_step(TraceStep::PureStep { rule: "cmp-true" });
                    return self.wp_goal(ctx, mk(true), mask, post, then);
                }
                if ctx.prove_pure_frozen(&prop.negated()) {
                    self.push_step(TraceStep::PureStep { rule: "cmp-false" });
                    return self.wp_goal(ctx, mk(false), mask, post, then);
                }
                self.push_step(TraceStep::CaseSplit {
                    on: "symbolic comparison".into(),
                    branches: 2,
                });
                for h in &mut ctx.delta {
                    if let Assertion::Later(inner) = &h.assertion {
                        h.assertion = (**inner).clone();
                    }
                }
                let ctx2 = ctx.clone();
                self.split_branches(
                    ctx,
                    vec![Assertion::pure(prop.clone())],
                    Goal::Wp {
                        expr: mk(true),
                        mask: mask.clone(),
                        post: post.clone(),
                        then: Box::new(then.clone()),
                    },
                    ctx2,
                    vec![Assertion::pure(prop.negated())],
                    Goal::Wp {
                        expr: mk(false),
                        mask,
                        post,
                        then: Box::new(then),
                    },
                )
            }
            _ => Err(self.stuck(
                &ctx,
                format!("symbolic binop {op} unsupported"),
                &stuck_goal,
            )),
        }
    }

    /// `sym-ex-fupd-exist` for a registered function specification.
    #[allow(clippy::too_many_arguments)]
    fn symex_spec(
        &mut self,
        mut ctx: ProofCtx,
        k: &[Frame],
        mask: MaskT,
        post: WpPost,
        then: Goal,
        spec: &crate::spec::Spec,
        arg_term: Term,
    ) -> Solved {
        self.push_step(TraceStep::SymEx {
            spec: spec.name.clone(),
            atomic: spec.atomic,
        });
        let mut s = Subst::single(spec.arg, arg_term);
        let mut binders = Vec::new();
        for b in &spec.binders {
            let sort = ctx.vars.var_sort(*b);
            let name = ctx.vars.var_name(*b).to_owned();
            let fresh = ctx.vars.fresh_var(sort, &name);
            s.insert(*b, Term::var(fresh));
            binders.push(Binder::new(fresh));
        }
        let w = ctx.vars.fresh_var(Sort::Val, "w");
        let pre = spec.pre.subst(&s);
        s.insert(spec.ret, Term::var(w));
        let spec_post = spec.post.subst(&s);
        self.symex(
            ctx,
            k,
            mask,
            post,
            then,
            binders,
            pre,
            w,
            spec_post,
            spec.atomic,
        )
    }

    /// Builds and solves the `sym-ex-fupd-exist` goal.
    #[allow(clippy::too_many_arguments)]
    fn symex(
        &mut self,
        mut ctx: ProofCtx,
        k: &[Frame],
        mask: MaskT,
        post: WpPost,
        then: Goal,
        binders: Vec<Binder>,
        pre: Assertion,
        w: VarId,
        spec_post: Assertion,
        atomic: bool,
    ) -> Solved {
        let Some(cur) = mask.resolve(&ctx.masks) else {
            let g = Goal::Done;
            return Err(self.stuck(&ctx, "wp mask unresolved", &g));
        };
        ctx.vars.push_level();
        let wval = ctx.syms.term_to_val(&ctx.vars, &Term::var(w));
        let to = if atomic {
            MaskT::EVar(ctx.masks.fresh())
        } else {
            MaskT::Concrete(cur.clone())
        };
        let cont_wp = Goal::Fupd {
            from: to.clone(),
            to: mask.clone(),
            inner: Assertion::Atom(Atom::Wp {
                expr: fill_ctx(k, Expr::Val(wval)),
                mask,
                post,
            }),
        };
        // The return value `w` is already a fresh universal variable (it was
        // created after the current scope was entered and is interned in the
        // symbol table), so the `∀w` of sym-ex-fupd-exist needs no further
        // introduction step.
        self.push_step(TraceStep::IntroVar { name: "w".into() });
        let cont = Goal::wand_intro(spec_post, Goal::StripLaters(Box::new(cont_wp)));
        // `then` runs after the whole wp; splice it at the end by wrapping:
        // the wp atom inside cont_wp carries its own continuation via the
        // solve of Fupd → MaskSync → Wp { then: Done }. To keep `then`
        // we instead sequence after the inner Wp by reconstructing here.
        let cont = splice_then(cont, then);
        let goal = Goal::SynFupd {
            from: MaskT::Concrete(cur),
            to,
            exists: binders,
            lhs: pre,
            cont: Box::new(cont),
        };
        self.solve(ctx, goal)
    }

    /// `sym-ex-fupd-exist` for a primitive operation.
    fn symex_prim(
        &mut self,
        mut ctx: ProofCtx,
        k: &[Frame],
        mask: MaskT,
        post: WpPost,
        then: Goal,
        redex: &Expr,
    ) -> Solved {
        let w = ctx.vars.fresh_var(Sort::Val, "w");
        let ret = Term::var(w);
        let stuck_goal = Goal::Done;
        let term_of = |ctx: &ProofCtx, e: &Expr| -> Option<Term> {
            e.as_val().and_then(|v| ctx.syms.val_to_term(v))
        };
        let loc_of = |ctx: &ProofCtx, e: &Expr| -> Option<Term> {
            let t = term_of(ctx, e)?.zonk(&ctx.vars);
            match t {
                Term::App(Sym::VLoc, args) => Some(args[0].clone()),
                _ => None,
            }
        };
        let (name, binders, pre, spec_post): (&str, Vec<Binder>, Assertion, Assertion) = match redex
        {
            Expr::Alloc(v) => {
                let Some(vt) = term_of(&ctx, v) else {
                    return Err(self.stuck(&ctx, "allocating a closure", &stuck_goal));
                };
                let l = ctx.vars.fresh_var(Sort::Loc, "l");
                let post_a = Assertion::exists(
                    Binder::new(l),
                    Assertion::sep(
                        Assertion::pure(PureProp::eq(ret.clone(), Term::v_loc(Term::var(l)))),
                        Assertion::atom(Atom::points_to(Term::var(l), vt)),
                    ),
                );
                ("alloc", Vec::new(), Assertion::emp(), post_a)
            }
            Expr::Load(l) => {
                let Some(loc) = loc_of(&ctx, l) else {
                    return self.retry_after_unfold(
                        ctx,
                        k,
                        mask,
                        post,
                        then,
                        redex,
                        "load from unknown location",
                    );
                };
                let q = ctx.vars.fresh_var(Sort::Qp, "q");
                let v = ctx.vars.fresh_var(Sort::Val, "v");
                let pt = Atom::points_to_frac(loc, Term::var(q), Term::var(v));
                (
                    "load",
                    vec![Binder::new(q), Binder::new(v)],
                    Assertion::atom(pt.clone()),
                    Assertion::sep(
                        Assertion::pure(PureProp::eq(ret.clone(), Term::var(v))),
                        Assertion::atom(pt),
                    ),
                )
            }
            Expr::Store(l, x) => {
                let Some(loc) = loc_of(&ctx, l) else {
                    return Err(self.stuck(&ctx, "store to unknown location", &stuck_goal));
                };
                let Some(xt) = term_of(&ctx, x) else {
                    return Err(self.stuck(&ctx, "storing a closure", &stuck_goal));
                };
                let v = ctx.vars.fresh_var(Sort::Val, "v");
                (
                    "store",
                    vec![Binder::new(v)],
                    Assertion::atom(Atom::points_to(loc.clone(), Term::var(v))),
                    Assertion::sep(
                        Assertion::pure(PureProp::eq(ret.clone(), Term::v_unit())),
                        Assertion::atom(Atom::points_to(loc, xt)),
                    ),
                )
            }
            Expr::Cas(l, o, n) => {
                let Some(loc) = loc_of(&ctx, l) else {
                    return Err(self.stuck(&ctx, "CAS on unknown location", &stuck_goal));
                };
                let (Some(ot), Some(nt)) = (term_of(&ctx, o), term_of(&ctx, n)) else {
                    return Err(self.stuck(&ctx, "CAS with closure operands", &stuck_goal));
                };
                if !is_unboxed(&ot.zonk(&ctx.vars)) {
                    return Err(self.stuck(&ctx, "CAS comparison value not unboxed", &stuck_goal));
                }
                let v = ctx.vars.fresh_var(Sort::Val, "v");
                let success = Assertion::sep_list([
                    Assertion::pure(PureProp::eq(ret.clone(), Term::v_bool_lit(true))),
                    Assertion::pure(PureProp::eq(Term::var(v), ot.clone())),
                    Assertion::atom(Atom::points_to(loc.clone(), nt)),
                ]);
                let failure = Assertion::sep_list([
                    Assertion::pure(PureProp::eq(ret.clone(), Term::v_bool_lit(false))),
                    Assertion::pure(PureProp::ne(Term::var(v), ot)),
                    Assertion::atom(Atom::points_to(loc.clone(), Term::var(v))),
                ]);
                (
                    "cas",
                    vec![Binder::new(v)],
                    Assertion::atom(Atom::points_to(loc, Term::var(v))),
                    Assertion::or(success, failure),
                )
            }
            Expr::Faa(l, kk) => {
                let Some(loc) = loc_of(&ctx, l) else {
                    return Err(self.stuck(&ctx, "FAA on unknown location", &stuck_goal));
                };
                let kt = term_of(&ctx, kk)
                    .map(|t| t.zonk(&ctx.vars))
                    .and_then(|t| match t {
                        Term::App(Sym::VInt, args) => Some(args[0].clone()),
                        _ => None,
                    });
                let Some(kt) = kt else {
                    return Err(self.stuck(&ctx, "FAA with non-integer increment", &stuck_goal));
                };
                let z = ctx.vars.fresh_var(Sort::Int, "z");
                (
                    "faa",
                    vec![Binder::new(z)],
                    Assertion::atom(Atom::points_to(loc.clone(), Term::v_int(Term::var(z)))),
                    Assertion::sep_list([
                        Assertion::pure(PureProp::eq(ret.clone(), Term::v_int(Term::var(z)))),
                        Assertion::atom(Atom::points_to(
                            loc,
                            Term::v_int(Term::add(Term::var(z), kt)),
                        )),
                    ]),
                )
            }
            Expr::Fork(body) => {
                let r = ctx.vars.fresh_var(Sort::Val, "r");
                let child = Atom::Wp {
                    expr: (**body).clone(),
                    mask: MaskT::top(),
                    post: WpPost {
                        ret: r,
                        body: Box::new(Assertion::emp()),
                    },
                };
                (
                    "fork",
                    Vec::new(),
                    Assertion::atom(child),
                    Assertion::pure(PureProp::eq(ret.clone(), Term::v_unit())),
                )
            }
            other => {
                return Err(self.stuck(
                    &ctx,
                    format!("no specification for redex {other}"),
                    &stuck_goal,
                ))
            }
        };
        self.push_step(TraceStep::SymEx {
            spec: name.to_owned(),
            atomic: true,
        });
        self.symex(ctx, k, mask, post, then, binders, pre, w, spec_post, true)
    }
}

impl Engine<'_> {
    /// A heap operation could not determine its location: try an unfold
    /// hint (the location may be hidden inside a recursive predicate)
    /// and retry the step once.
    #[allow(clippy::too_many_arguments)]
    fn retry_after_unfold(
        &mut self,
        mut ctx: ProofCtx,
        k: &[Frame],
        mask: MaskT,
        post: WpPost,
        then: Goal,
        redex: &Expr,
        reason: &str,
    ) -> Solved {
        if let Some(replacement) = self.unfold_hint(&mut ctx) {
            let goal = Goal::Wp {
                expr: fill_ctx(k, redex.clone()),
                mask,
                post,
                then: Box::new(then),
            };
            return self.intro_hyps(ctx, vec![replacement], goal);
        }
        let g = Goal::Done;
        Err(self.stuck(&ctx, reason, &g))
    }
}

/// Whether the redex is a heap operation or fork (handled by `sym-ex`).
fn is_heap_op(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Alloc(_)
            | Expr::Load(_)
            | Expr::Store(..)
            | Expr::Cas(..)
            | Expr::Faa(..)
            | Expr::Fork(_)
    )
}

/// Whether a value term is unboxed (word-sized), so `CAS`/`=` may compare
/// it atomically.
fn is_unboxed(t: &Term) -> bool {
    matches!(
        t,
        Term::App(Sym::VInt | Sym::VBool | Sym::VLoc | Sym::VUnit, _)
    )
}

/// Resolves the immediate `Val::Sym` children of a redex to literal shapes
/// where their terms are known (e.g. after substitution turned a symbolic
/// boolean into `#true`).
fn resolve_redex(ctx: &mut ProofCtx, e: Expr) -> Expr {
    fn res(ctx: &mut ProofCtx, e: &Expr) -> Expr {
        match e.as_val() {
            Some(v) => Expr::Val(resolve_val(ctx, v)),
            None => e.clone(),
        }
    }
    match e {
        Expr::App(f, a) => Expr::app(res(ctx, &f), res(ctx, &a)),
        Expr::UnOp(op, a) => Expr::UnOp(op, Arc::new(res(ctx, &a))),
        Expr::BinOp(op, a, b) => Expr::binop(op, res(ctx, &a), res(ctx, &b)),
        Expr::If(c, t, f) => Expr::If(Arc::new(res(ctx, &c)), t, f),
        Expr::Pair(a, b) => Expr::Pair(Arc::new(res(ctx, &a)), Arc::new(res(ctx, &b))),
        Expr::Fst(a) => Expr::Fst(Arc::new(res(ctx, &a))),
        Expr::Snd(a) => Expr::Snd(Arc::new(res(ctx, &a))),
        Expr::InjL(a) => Expr::InjL(Arc::new(res(ctx, &a))),
        Expr::InjR(a) => Expr::InjR(Arc::new(res(ctx, &a))),
        Expr::Case(s, l, r) => Expr::Case(Arc::new(res(ctx, &s)), l, r),
        Expr::Alloc(a) => Expr::Alloc(Arc::new(res(ctx, &a))),
        Expr::Load(a) => Expr::Load(Arc::new(res(ctx, &a))),
        Expr::Store(a, b) => Expr::store(res(ctx, &a), res(ctx, &b)),
        Expr::Cas(a, b, c) => Expr::cas(res(ctx, &a), res(ctx, &b), res(ctx, &c)),
        Expr::Faa(a, b) => Expr::faa(res(ctx, &a), res(ctx, &b)),
        other => other,
    }
}

/// Resolves one value: a symbolic value whose term has become
/// constructor-shaped is replaced by the structured value.
fn resolve_val(ctx: &mut ProofCtx, v: &Val) -> Val {
    match v {
        Val::Sym(id) => {
            let t = ctx.syms.resolve(*id).clone();
            ctx.syms.term_to_val(&ctx.vars, &t)
        }
        Val::Pair(a, b) => Val::pair(resolve_val(ctx, a), resolve_val(ctx, b)),
        Val::InjL(a) => Val::inj_l(resolve_val(ctx, a)),
        Val::InjR(a) => Val::inj_r(resolve_val(ctx, a)),
        other => other.clone(),
    }
}

/// Strips ▷ and ∃ wrappers to expose a disjunction.
fn strip_wrappers(a: &Assertion) -> &Assertion {
    match a {
        Assertion::Later(x) | Assertion::Exists(_, x) => strip_wrappers(x),
        other => other,
    }
}

/// The pure *guard* of a disjunct (§5.3): its leading pure conjunct.
fn guard_of(a: &Assertion) -> Option<PureProp> {
    match a {
        Assertion::Pure(p) => Some(p.clone()),
        Assertion::Sep(l, _) => guard_of(l),
        Assertion::Exists(_, body) => guard_of(body),
        Assertion::Later(x) => guard_of(x),
        _ => None,
    }
}

/// Decomposes an equation between applications of the same injective value
/// constructor into argument equations; an equation between *different*
/// constructor heads becomes `False`. Returns `None` when no decomposition
/// applies.
fn decompose_ctor_eq(p: &PureProp) -> Option<Vec<PureProp>> {
    let PureProp::Eq(a, b) = p else { return None };
    let (Term::App(f, xs), Term::App(g, ys)) = (a, b) else {
        return None;
    };
    if !(f.is_value_ctor() && g.is_value_ctor()) {
        return None;
    }
    if f != g {
        return Some(vec![PureProp::False]);
    }
    Some(
        xs.iter()
            .zip(ys.iter())
            .map(|(x, y)| PureProp::eq(x.clone(), y.clone()))
            .collect(),
    )
}

/// If the fact is an equation `x = t` (or `t = x`) with `x` a variable not
/// occurring in `t`, return the substitution pair.
fn as_var_equation(ctx: &ProofCtx, p: &PureProp) -> Option<(VarId, Term)> {
    let PureProp::Eq(a, b) = p else { return None };
    let a = a.zonk(&ctx.vars);
    let b = b.zonk(&ctx.vars);
    match (&a, &b) {
        (Term::Var(v), t) if !t.mentions_var(*v) => Some((*v, t.clone())),
        (t, Term::Var(v)) if !t.mentions_var(*v) => Some((*v, t.clone())),
        _ => None,
    }
}

/// Splices `then` after the terminal `Done` reached through the wp chain
/// of a sym-ex continuation: the inner `Fupd`'s wp atom becomes a
/// `Goal::Wp` whose `then` must be the outer continuation.
fn splice_then(goal: Goal, then: Goal) -> Goal {
    if matches!(then, Goal::Done) {
        return goal;
    }
    match goal {
        Goal::Forall(b, g) => Goal::Forall(b, Box::new(splice_then(*g, then))),
        Goal::WandIntro(u, g) => Goal::WandIntro(u, Box::new(splice_then(*g, then))),
        Goal::StripLaters(g) => Goal::StripLaters(Box::new(splice_then(*g, then))),
        Goal::Fupd { from, to, inner } => match inner {
            Assertion::Atom(Atom::Wp { expr, mask, post }) => Goal::MaskSync {
                from,
                to,
                cont: Box::new(Goal::Wp {
                    expr,
                    mask,
                    post,
                    then: Box::new(then),
                }),
            },
            other => Goal::SynFupd {
                from,
                to,
                exists: Vec::new(),
                lhs: other,
                cont: Box::new(then),
            },
        },
        other => other,
    }
}

/// A one-line description of a goal for stuck reports.
fn describe_goal(goal: &Goal) -> String {
    match goal {
        Goal::Forall(..) => "∀ …".into(),
        Goal::WandIntro(..) => "… −∗ …".into(),
        Goal::Wp { expr, .. } => format!("WP {expr} {{{{ … }}}}"),
        Goal::StripLaters(g) => describe_goal(g),
        Goal::Fupd { from, to, .. } => format!("|⇛{from} {to} …"),
        Goal::SynFupd { from, to, lhs, .. } => {
            format!("∥|⇛{from} {to}∥ ∃… {lhs:?} ∗ …")
        }
        Goal::MaskSync { from, to, .. } => format!("mask sync {from} → {to}"),
        Goal::Done => "done".into(),
    }
}
