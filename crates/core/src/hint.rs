//! Bi-abduction hint search (§4 of the paper).
//!
//! Given a goal atom `A` and the context `Δ`, find a hint
//! `H ∗ [y⃗; L] ⊫ [|⇛E₁ E₂] x⃗; A ∗ [U]`: scan hypotheses left-to-right
//! (`ε₁` last), for each hypothesis try *base hints* (generic atom
//! matching, fraction hints for `↦` and fractional predicates, the ghost
//! libraries' mutation rules, the annotation's hints) closed under the
//! *recursive hints* of §4.3 (wands, invariants, laters, existentials,
//! separating conjunctions). Backtracking is local: every source hands
//! its [`HintCandidate`]s to one evaluator, which tries each under a
//! rollback point and commits the first whose unifications and pure
//! guards succeed.
//!
//! An annotation's `HINT` clauses are data ([`Hint`]), read by one
//! interpreter in three forms: a keyed hint `H ∗ [L] ⊫ A ∗ [U]` joins
//! the base hints of a hypothesis matching `H`; a last-resort hint
//! `ε₁ ∗ [L] ⊫ A` folds a goal `A` with one candidate per disjunct of
//! `L`; an unfold hint `H ∗ [L] ⊫ [U]`, tried when the search is stuck,
//! replaces a hypothesis matching `H` by `U`.

use crate::ctx::ProofCtx;
use crate::tactic::{Ablation, VerifyOptions};
use diaframe_ghost::{HintCandidate, Registry};
use diaframe_logic::{Assertion, Atom, Binder, Mask, MaskT, Namespace};
use diaframe_term::{unify, PureProp, Sort, Subst, Term, VarCtx, VarId};

/// A successfully found and committed hint.
#[derive(Debug)]
pub struct FoundHint {
    /// The chain of rule names (outermost recursive hint first).
    pub rules: Vec<String>,
    /// Index of the hypothesis it keyed on; `None` for `ε₁` hints.
    pub hyp_idx: Option<usize>,
    /// Whether the hypothesis must be consumed.
    pub consume: bool,
    /// The side condition `L` (proved before the residue is available).
    pub side: Assertion,
    /// The residue `U`.
    pub residue: Assertion,
    /// Pure facts learned.
    pub learned: Vec<PureProp>,
    /// The concrete mask after applying the hint (`None` = unchanged).
    pub mask_to: Option<Mask>,
    /// Whether a user-provided hint was involved.
    pub custom: bool,
    /// Namespace opened (for the trace), if the hint went through an
    /// invariant.
    pub opened: Option<Namespace>,
    /// Namespace closed (for the trace), if the hint applied a closing
    /// wand.
    pub closed: Option<Namespace>,
}

impl FoundHint {
    /// A committed base hint: it keys on no hypothesis and changes no
    /// mask until the recursive hints and the scan around it say so.
    fn applied(cand: HintCandidate) -> FoundHint {
        FoundHint {
            rules: vec![cand.name.into_owned()],
            hyp_idx: None,
            consume: false,
            side: cand.side,
            residue: cand.residue,
            learned: cand.learned,
            mask_to: None,
            custom: cand.annotation,
            opened: None,
            closed: None,
        }
    }

    /// The hint reached through the recursive hint `rule`.
    fn through(mut self, rule: &str) -> FoundHint {
        self.rules.insert(0, rule.to_owned());
        self
    }
}

/// Searches for a hint for `atom` at mask `from`, with the search-order
/// switches of `ablation`. On success the unifications and pure guards
/// have been committed into `ctx`.
pub fn find_hint(
    ctx: &mut ProofCtx,
    registry: &Registry,
    opts: &VerifyOptions,
    ablation: Ablation,
    atom: &Atom,
    from: &Mask,
) -> Option<FoundHint> {
    // Profile: one probe-batch span per hint search; its payload counter
    // is fed by `probe_attempted` in the loop below, and its label
    // carries the matched rule for per-hint cost attribution.
    let mut prof_span = crate::profile::span(crate::profile::SpanKind::FindHint);
    let solves_before = ctx.vars.solve_events();
    let found = find_hint_inner(ctx, registry, opts, ablation, atom, from);
    // Virtually all unification happens inside hint search, so the delta
    // here is the per-search evar-instantiation effort (speculative
    // solves included: `solve_events` survives rollback by design).
    crate::telemetry::evar_solves(ctx.vars.solve_events() - solves_before);
    if found.is_none() {
        crate::telemetry::hint_missed(|| {
            crate::index::goal_head(&atom.zonk(&ctx.vars), &ctx.preds)
        });
    }
    match &found {
        Some(f) => prof_span.set_label(f.rules.first().map_or("(unnamed)", String::as_str)),
        None => prof_span.set_label("(miss)"),
    }
    found
}

fn find_hint_inner(
    ctx: &mut ProofCtx,
    registry: &Registry,
    opts: &VerifyOptions,
    ablation: Ablation,
    atom: &Atom,
    from: &Mask,
) -> Option<FoundHint> {
    let atom = atom.zonk(&ctx.vars);
    // A ghost goal whose name is still an undetermined evar is a *fresh*
    // ghost — prefer allocation over capturing an unrelated hypothesis's
    // name (e.g. a new lock's `locked ?γ` must not grab another lock's
    // token).
    if !ablation.no_alloc_preference {
        if let Atom::Ghost(g) = &atom {
            if matches!(&g.gname, Term::EVar(e) if ctx.vars.evar_unsolved(*e)) {
                if let Some(found) = last_resort(ctx, registry, opts, &atom) {
                    return Some(found);
                }
            }
        }
    }
    // Hypotheses newest-first (the most recently derived facts are the
    // most specific — e.g. the freshest monotone lower bound). Two passes:
    // direct hints first, invariant-opening hints second — the strategy
    // prefers resources already at hand over opening shared state. ε₁
    // hints come last. (`None` = the single-pass ablation: both kinds
    // compete in one scan.)
    let passes: &[Option<bool>] = if ablation.single_pass {
        &[None]
    } else {
        &[Some(false), Some(true)]
    };
    let order: Vec<usize> = if ablation.oldest_first {
        (0..ctx.delta.len()).collect()
    } else {
        (0..ctx.delta.len()).rev().collect()
    };
    let custom_active = opts
        .hints
        .iter()
        .any(|h| h.key.is_some() && h.goal.is_some());
    for &allow_open in passes {
        for &idx in &order {
            let is_inv = matches!(
                &ctx.delta[idx].assertion,
                Assertion::Atom(Atom::Invariant { .. })
            );
            if allow_open == Some(false) && is_inv && !matches!(&atom, Atom::Invariant { .. }) {
                continue;
            }
            if allow_open == Some(true) && !is_inv {
                continue;
            }
            // Only (hyp, pass) pairs that pass the pass filter count as
            // probes: the filters above route each hypothesis to exactly
            // one pass, so counting earlier would double-count every
            // hypothesis under the two-pass scan.
            crate::telemetry::probe_attempted();
            // Head-indexed skip: a probe that cannot structurally
            // succeed is not worth a checkpoint (see `index.rs`; failed
            // probes roll back completely, so skipping them leaves the
            // search — and the resulting trace — bit-identical).
            if !ablation.linear_scan && !ctx.delta[idx].heads.may_key(&atom, custom_active) {
                crate::telemetry::probe_skipped();
                continue;
            }
            crate::telemetry::probe_run();
            let fmark = ctx.facts.len();
            let probed = attempt(ctx, |ctx| {
                // Borrow the hypothesis without cloning it: the probe
                // never reads `ctx.delta`, so an `emp` placeholder is
                // invisible to it. (Cloning here dominated `find_hint`'s
                // profile — every probe of every hypothesis deep-copied
                // its assertion.)
                let hyp = std::mem::replace(&mut ctx.delta[idx].assertion, Assertion::emp());
                let probed = hint_from_hyp(ctx, registry, opts, &hyp, &atom, from);
                ctx.delta[idx].assertion = hyp;
                probed
            });
            if let Some(found) = probed {
                crate::telemetry::probe_matched();
                return Some(FoundHint {
                    hyp_idx: Some(idx),
                    consume: !ctx.delta[idx].persistent,
                    ..found
                });
            }
            crate::telemetry::probe_failed(&ctx.delta[idx].name);
            ctx.truncate_facts(fmark);
        }
    }
    // ε₁ last-resort hints.
    last_resort(ctx, registry, opts, &atom)
}

/// Runs `f` under a rollback point of the variable and mask stores: what
/// it did stays when it returns a result and is undone when it returns
/// `None`. Every candidate, and every hypothesis probe around them, is
/// committed or rolled back here.
fn attempt<T>(ctx: &mut ProofCtx, f: impl FnOnce(&mut ProofCtx) -> Option<T>) -> Option<T> {
    let vmark = ctx.vars.checkpoint();
    let mmark = ctx.masks.checkpoint();
    let out = f(ctx);
    if out.is_none() {
        ctx.vars.rollback(&vmark);
        ctx.masks.rollback(&mmark);
    }
    out
}

/// The candidate evaluator: commits the first candidate whose
/// unifications and pure guards succeed. The caller generates `cands`
/// first, so the fresh variables they bind are numbered before any of
/// them is tried.
fn first_applicable(ctx: &mut ProofCtx, cands: Vec<HintCandidate>) -> Option<FoundHint> {
    cands.into_iter().find_map(|cand| {
        attempt(ctx, |ctx| {
            let applies = cand
                .unifications
                .iter()
                .all(|(a, b)| unify(&mut ctx.vars, a, b).is_ok())
                && cand.guards.iter().all(|g| ctx.prove_pure(g));
            applies.then(|| FoundHint::applied(cand))
        })
    })
}

/// Last-resort (`ε₁`) hints: user fold hints, ghost allocation and
/// invariant allocation.
fn last_resort(
    ctx: &mut ProofCtx,
    registry: &Registry,
    opts: &VerifyOptions,
    atom: &Atom,
) -> Option<FoundHint> {
    // Annotation fold hints first (they are the only source for
    // recursive predicates).
    for hint in opts.hints.iter().filter(|h| h.key.is_none()) {
        let cands = hint.fold_candidates(&mut ctx.vars, atom);
        if let Some(found) = first_applicable(ctx, cands) {
            return Some(found);
        }
    }
    match atom {
        Atom::Ghost(g) => registry
            .iter()
            .filter(|lib| lib.kinds().contains(&g.kind))
            .find_map(|lib| {
                let cands = lib.allocations(&mut ctx.vars, g);
                first_applicable(ctx, cands)
            }),
        Atom::Invariant { ns, body } => {
            // inv-alloc (§4.2 Example 2): ε₁ ∗ [; ▷L] ⊫ L^N ∗ [L^N].
            // The later is dropped when proving the side (later-intro).
            // The side gets *fresh* binder placeholders: proving it
            // instantiates them, and they must not alias the residue
            // invariant's binders.
            let side = refresh_binders(ctx, body);
            let residue = Assertion::atom(Atom::Invariant {
                ns: ns.clone(),
                body: body.clone(),
            });
            let alloc = HintCandidate::new("inv-alloc").side(side).residue(residue);
            first_applicable(ctx, vec![alloc])
        }
        _ => None,
    }
}

/// Tries to produce a hint from one (clean) hypothesis — the recursive
/// hint closure of §4.3. On success, unifications are committed; the
/// caller owns the rollback point.
fn hint_from_hyp(
    ctx: &mut ProofCtx,
    registry: &Registry,
    opts: &VerifyOptions,
    hyp: &Assertion,
    atom: &Atom,
    from: &Mask,
) -> Option<FoundHint> {
    match hyp {
        Assertion::Atom(a) => {
            // Direct atom-to-atom base hints.
            if let Some(found) = try_atom_candidates(ctx, registry, opts, a, atom) {
                return Some(found);
            }
            // Recursive hint through an invariant (§4.3): open it.
            if let Atom::Invariant { ns, body } = a {
                if !from.contains(ns) {
                    return None; // reentrancy guard
                }
                // Pure conjuncts of the body (outside disjunctions) hold
                // whenever the invariant does — make them available to the
                // guards of the inner hint. NOTE: binder-bound pure facts
                // only become available after the matching freshens the
                // binder, so this prescan is best-effort for closed ones;
                // `hint_in_left_goal` adds the freshened ones.
                let found =
                    hint_in_left_goal(ctx, registry, opts, body, atom, true)?.through("inv-open");
                let closing = Assertion::wand(
                    Assertion::Later(std::sync::Arc::clone(body)),
                    Assertion::fupd(
                        MaskT::Concrete(from.without(ns)),
                        MaskT::Concrete(from.clone()),
                        Assertion::atom(Atom::CloseInv { ns: ns.clone() }),
                    ),
                );
                return Some(FoundHint {
                    residue: Assertion::sep(found.residue, closing),
                    mask_to: Some(from.without(ns)),
                    opened: Some(ns.clone()),
                    ..found
                });
            }
            None
        }
        // ▷H: usable when the payload is timeless.
        Assertion::Later(x) => {
            if x.is_timeless(&ctx.preds) {
                hint_from_hyp(ctx, registry, opts, x, atom, from)
            } else {
                None
            }
        }
        // (L −∗ U): recursive wand hint — premise joins the side condition.
        Assertion::Wand(p, c) => {
            let found = hint_from_hyp(ctx, registry, opts, c, atom, from)?.through("wand-apply");
            Some(FoundHint {
                side: Assertion::sep((**p).clone(), found.side),
                ..found
            })
        }
        // |⇛E₁ E₂ U: a mask-changing hypothesis (closing wands). Requires
        // the current mask to be E₁; afterwards the mask is E₂.
        Assertion::FUpd(m1, m2, c) => {
            let m1 = m1.resolve(&ctx.masks)?;
            let m2 = m2.resolve(&ctx.masks)?;
            if m1 != *from {
                return None;
            }
            let found = hint_from_hyp(ctx, registry, opts, c, atom, from)?;
            if found.mask_to.is_some() {
                return None; // no nested mask changes
            }
            let closed = match atom {
                Atom::CloseInv { ns } => Some(ns.clone()),
                _ => None,
            };
            Some(FoundHint {
                mask_to: Some(m2),
                closed,
                ..found
            })
        }
        // ∀x. U: instantiate with a fresh evar.
        Assertion::Forall(b, body) => {
            let sort = ctx.vars.var_sort(b.var);
            let e = ctx.vars.fresh_evar(sort);
            let body = body.subst(&diaframe_term::Subst::single(b.var, Term::evar(e)));
            hint_from_hyp(ctx, registry, opts, &body, atom, from)
        }
        _ => None,
    }
}

/// Finds a hint from inside a left-goal (an invariant body): descend
/// through `∗`, `∃`, `▷`; never descend into `∨` or `⌜φ⌝` (those spill
/// into the residue).
fn hint_in_left_goal(
    ctx: &mut ProofCtx,
    registry: &Registry,
    opts: &VerifyOptions,
    lg: &Assertion,
    atom: &Atom,
    under_later: bool,
) -> Option<FoundHint> {
    match lg {
        Assertion::Atom(a) => {
            if under_later && !a.is_timeless() {
                return None;
            }
            try_atom_candidates(ctx, registry, opts, a, atom)
        }
        Assertion::Exists(b, body) => {
            let sort = ctx.vars.var_sort(b.var);
            let name = ctx.vars.var_name(b.var).to_owned();
            let fresh = ctx.vars.fresh_var(sort, &name);
            let body = body.subst(&diaframe_term::Subst::single(b.var, Term::var(fresh)));
            hint_in_left_goal(ctx, registry, opts, &body, atom, under_later)
        }
        Assertion::Sep(l, r) => {
            // Make sibling pure conjuncts available to guards: a hint deep
            // in one conjunct may need a pure fact stated next to it
            // (e.g. `mono-snapshot`'s bound needs the invariant's
            // `⌜0 ≤ n⌝`). The caller rolls `ctx.facts` back on failure.
            for c in lg.sep_conjuncts() {
                if let Assertion::Pure(p) = c {
                    ctx.add_fact(p.clone());
                }
            }
            let left = attempt(ctx, |ctx| {
                hint_in_left_goal(ctx, registry, opts, l, atom, under_later)
            });
            if let Some(found) = left {
                let rest = wrap_later(ctx, (**r).clone(), under_later);
                return Some(FoundHint {
                    residue: Assertion::sep(found.residue, rest),
                    ..found
                });
            }
            let found = hint_in_left_goal(ctx, registry, opts, r, atom, under_later)?;
            let rest = wrap_later(ctx, (**l).clone(), under_later);
            Some(FoundHint {
                residue: Assertion::sep(rest, found.residue),
                ..found
            })
        }
        Assertion::Later(x) => hint_in_left_goal(ctx, registry, opts, x, atom, true),
        // Pure facts and disjunctions are residue, not match targets.
        _ => None,
    }
}

fn wrap_later(ctx: &ProofCtx, a: Assertion, under_later: bool) -> Assertion {
    if under_later {
        // The residue is conceptually under a ▷: push the later inwards,
        // dropping it on timeless parts.
        a.strip_later(&ctx.preds)
    } else {
        a
    }
}

/// Base hints between two atoms: generic matching, fraction hints,
/// ghost-library mutations, annotation hints, in that order (annotation
/// hints first for a predicate goal). All candidates are generated
/// before the first is tried.
fn try_atom_candidates(
    ctx: &mut ProofCtx,
    registry: &Registry,
    opts: &VerifyOptions,
    hyp: &Atom,
    goal: &Atom,
) -> Option<FoundHint> {
    // Invariant duplication: unify the bodies (the goal's may contain
    // evars, e.g. a yet-undetermined ghost name).
    if let (Atom::Invariant { ns: n1, body: b1 }, Atom::Invariant { ns: n2, body: b2 }) =
        (hyp, goal)
    {
        if n1 != n2 {
            return None;
        }
        return attempt(ctx, |ctx| {
            unify_assertions(ctx, b1, b2).then(|| FoundHint::applied(HintCandidate::new("inv-dup")))
        });
    }
    // Generic candidates bind no fresh variables, so generating the
    // annotation's keyed candidates first numbers them the same wherever
    // they are tried.
    let keyed: Vec<HintCandidate> = opts
        .hints
        .iter()
        .filter_map(|h| h.keyed_candidate(&mut ctx.vars, hyp, goal))
        .collect();
    let mut cands = generic_candidates(hyp, goal);
    // Annotation hints on recursive predicates are tried *first* (they
    // may need to pre-empt the generic frame rule, e.g. to extract the
    // persistent skeleton of a list while re-proving it).
    if matches!(goal, Atom::PredApp { .. }) {
        cands.splice(0..0, keyed);
    } else {
        cands.extend(keyed);
    }
    if let Atom::Ghost(h) = hyp {
        if let Some(lib) = registry.library_for(h.kind) {
            cands.extend(lib.hints(&mut ctx.vars, h, goal));
        }
    }
    cands.extend(fraction_candidates(ctx, hyp, goal));
    first_applicable(ctx, cands)
}

/// Exact-match candidates (the hypothesis *is* the goal modulo
/// unification and provable equalities).
fn generic_candidates(hyp: &Atom, goal: &Atom) -> Vec<HintCandidate> {
    match (hyp, goal) {
        (
            Atom::PointsTo {
                loc: l1,
                frac: q1,
                val: v1,
            },
            Atom::PointsTo {
                loc: l2,
                frac: q2,
                val: v2,
            },
        ) => {
            vec![HintCandidate::new("points-to")
                .unify(l2.clone(), l1.clone())
                .unify(q2.clone(), q1.clone())
                .guard(PureProp::eq(v2.clone(), v1.clone()))]
        }
        (Atom::Ghost(h), Atom::Ghost(g)) if h.kind == g.kind && h.pred == g.pred => {
            let mut c = HintCandidate::new("ghost-frame").unify(g.gname.clone(), h.gname.clone());
            for (x, y) in g.args.iter().zip(&h.args) {
                c = c.guard(PureProp::eq(x.clone(), y.clone()));
            }
            vec![c]
        }
        (Atom::PredApp { pred: p1, args: a1 }, Atom::PredApp { pred: p2, args: a2 })
            if p1 == p2 =>
        {
            let mut c = HintCandidate::new("pred-frame");
            for (x, y) in a2.iter().zip(a1) {
                c = c.guard(PureProp::eq(x.clone(), y.clone()));
            }
            vec![c]
        }
        (Atom::Invariant { .. }, Atom::Invariant { .. }) => {
            // Handled by `try_atom_candidates` through assertion
            // unification (the bodies may contain evars).
            Vec::new()
        }
        (Atom::CloseInv { ns: n1 }, Atom::CloseInv { ns: n2 }) if n1 == n2 => {
            vec![HintCandidate::new("close-marker")]
        }
        _ => Vec::new(),
    }
}

/// Fraction hints for `↦` (§4.2 Example 4) and fractional abstract
/// predicates.
fn fraction_candidates(ctx: &mut ProofCtx, hyp: &Atom, goal: &Atom) -> Vec<HintCandidate> {
    match (hyp, goal) {
        (
            Atom::PointsTo {
                loc: l1,
                frac: q1,
                val: v1,
            },
            Atom::PointsTo {
                loc: l2,
                frac: q2,
                val: v2,
            },
        ) => {
            let mut out = Vec::new();
            // Split: the hypothesis has more; keep the difference.
            out.push(
                HintCandidate::new("points-to-split")
                    .unify(l2.clone(), l1.clone())
                    .guard(PureProp::lt(q2.clone(), q1.clone()))
                    .guard(PureProp::eq(v2.clone(), v1.clone()))
                    .residue(Assertion::atom(Atom::PointsTo {
                        loc: l1.clone(),
                        frac: Term::sub(q1.clone(), q2.clone()),
                        val: v1.clone(),
                    })),
            );
            // Join: the goal wants more; demand the missing fraction for
            // an arbitrary value — a *binder* of the side condition (§4.2
            // Example 4's ∃v₃), so its instantiation is delayed until the
            // providing resource is found. Points-to agreement then
            // equates the values.
            let v3 = ctx.vars.fresh_var(Sort::Val, "v3");
            out.push(
                HintCandidate::new("points-to-join")
                    .unify(l2.clone(), l1.clone())
                    .guard(PureProp::lt(q1.clone(), q2.clone()))
                    .guard(PureProp::eq(v2.clone(), v1.clone()))
                    .side(Assertion::exists(
                        diaframe_logic::Binder::new(v3),
                        Assertion::atom(Atom::PointsTo {
                            loc: l1.clone(),
                            frac: Term::sub(q2.clone(), q1.clone()),
                            val: Term::var(v3),
                        }),
                    ))
                    // Residue ⌜v₁ = v₃⌝ (§4.2 Example 4): *received* by
                    // points-to agreement, not proven.
                    .residue(Assertion::pure(PureProp::eq(v1.clone(), Term::var(v3)))),
            );
            out
        }
        (Atom::PredApp { pred: p1, args: a1 }, Atom::PredApp { pred: p2, args: a2 })
            if p1 == p2 && ctx.preds.info(*p1).fractional && a1.len() == 1 =>
        {
            let (q1, q2) = (a1[0].clone(), a2[0].clone());
            vec![
                HintCandidate::new("fractional-split")
                    .guard(PureProp::lt(q2.clone(), q1.clone()))
                    .residue(Assertion::atom(Atom::PredApp {
                        pred: *p1,
                        args: vec![Term::sub(q1.clone(), q2.clone())],
                    })),
                HintCandidate::new("fractional-join")
                    .guard(PureProp::lt(q1.clone(), q2.clone()))
                    .side(Assertion::atom(Atom::PredApp {
                        pred: *p1,
                        args: vec![Term::sub(q2, q1)],
                    })),
            ]
        }
        _ => Vec::new(),
    }
}

/// Clones an assertion with fresh binder placeholders (same sorts and
/// names), so that instantiating the clone's binders cannot rewrite the
/// original.
fn refresh_binders(ctx: &mut ProofCtx, a: &Assertion) -> Assertion {
    let mut s = Subst::new();
    for v in binder_vars(a) {
        let sort = ctx.vars.var_sort(v);
        let name = ctx.vars.var_name(v).to_owned();
        s.insert(v, Term::var(ctx.vars.fresh_var(sort, &name)));
    }
    instantiate(a, &s)
}

/// `a` under `s` in one pass: `s` rewrites the terms, and renames every
/// binder it maps to a variable.
fn instantiate(a: &Assertion, s: &Subst) -> Assertion {
    let binder = |b: &Binder| match s.get(b.var) {
        Some(Term::Var(v)) => Binder::new(*v),
        _ => *b,
    };
    match a {
        Assertion::Exists(b, x) => Assertion::exists(binder(b), instantiate(x, s)),
        Assertion::Forall(b, x) => Assertion::forall(binder(b), instantiate(x, s)),
        Assertion::Sep(l, r) => Assertion::sep(instantiate(l, s), instantiate(r, s)),
        Assertion::Or(l, r) => Assertion::or(instantiate(l, s), instantiate(r, s)),
        Assertion::Wand(l, r) => Assertion::wand(instantiate(l, s), instantiate(r, s)),
        Assertion::Later(x) => Assertion::later(instantiate(x, s)),
        Assertion::BUpd(x) => Assertion::bupd(instantiate(x, s)),
        Assertion::FUpd(f, t, x) => Assertion::fupd(f.clone(), t.clone(), instantiate(x, s)),
        Assertion::Pure(_) | Assertion::Atom(_) => a.subst(s),
    }
}

/// Structural unification of two assertions (used for matching duplicable
/// invariants whose bodies may contain evars). Binders must be literally
/// the same placeholders — which they are whenever both assertions are
/// substitution instances of one specification template.
fn unify_assertions(ctx: &mut ProofCtx, a: &Assertion, b: &Assertion) -> bool {
    use diaframe_logic::GhostAtom;
    fn terms(ctx: &mut ProofCtx, xs: &[Term], ys: &[Term]) -> bool {
        xs.len() == ys.len()
            && xs
                .iter()
                .zip(ys)
                .all(|(x, y)| unify(&mut ctx.vars, x, y).is_ok())
    }
    fn atoms(ctx: &mut ProofCtx, a: &Atom, b: &Atom) -> bool {
        match (a, b) {
            (
                Atom::PointsTo {
                    loc: l1,
                    frac: q1,
                    val: v1,
                },
                Atom::PointsTo {
                    loc: l2,
                    frac: q2,
                    val: v2,
                },
            ) => terms(
                ctx,
                &[l1.clone(), q1.clone(), v1.clone()],
                &[l2.clone(), q2.clone(), v2.clone()],
            ),
            (
                Atom::Ghost(GhostAtom {
                    kind: k1,
                    gname: g1,
                    pred: p1,
                    args: a1,
                }),
                Atom::Ghost(GhostAtom {
                    kind: k2,
                    gname: g2,
                    pred: p2,
                    args: a2,
                }),
            ) => k1 == k2 && p1 == p2 && unify(&mut ctx.vars, g1, g2).is_ok() && terms(ctx, a1, a2),
            (Atom::Invariant { ns: n1, body: b1 }, Atom::Invariant { ns: n2, body: b2 }) => {
                n1 == n2 && unify_assertions(ctx, b1, b2)
            }
            (Atom::PredApp { pred: p1, args: a1 }, Atom::PredApp { pred: p2, args: a2 }) => {
                p1 == p2 && terms(ctx, a1, a2)
            }
            (Atom::CloseInv { ns: n1 }, Atom::CloseInv { ns: n2 }) => n1 == n2,
            _ => false,
        }
    }
    fn props(ctx: &mut ProofCtx, a: &PureProp, b: &PureProp) -> bool {
        use PureProp as P;
        match (a, b) {
            (P::True, P::True) | (P::False, P::False) => true,
            (P::Eq(x1, y1), P::Eq(x2, y2))
            | (P::Ne(x1, y1), P::Ne(x2, y2))
            | (P::Le(x1, y1), P::Le(x2, y2))
            | (P::Lt(x1, y1), P::Lt(x2, y2)) => {
                unify(&mut ctx.vars, x1, x2).is_ok() && unify(&mut ctx.vars, y1, y2).is_ok()
            }
            (P::And(x1, y1), P::And(x2, y2))
            | (P::Or(x1, y1), P::Or(x2, y2))
            | (P::Implies(x1, y1), P::Implies(x2, y2)) => props(ctx, x1, x2) && props(ctx, y1, y2),
            (P::Not(x1), P::Not(x2)) => props(ctx, x1, x2),
            _ => false,
        }
    }
    match (a, b) {
        (Assertion::Pure(p1), Assertion::Pure(p2)) => props(ctx, p1, p2),
        (Assertion::Atom(a1), Assertion::Atom(a2)) => atoms(ctx, a1, a2),
        (Assertion::Sep(l1, r1), Assertion::Sep(l2, r2))
        | (Assertion::Or(l1, r1), Assertion::Or(l2, r2))
        | (Assertion::Wand(l1, r1), Assertion::Wand(l2, r2)) => {
            unify_assertions(ctx, l1, l2) && unify_assertions(ctx, r1, r2)
        }
        (Assertion::Exists(b1, x1), Assertion::Exists(b2, x2))
        | (Assertion::Forall(b1, x1), Assertion::Forall(b2, x2)) => {
            // α-insensitive: rename the right binder to the left one (the
            // sorts must agree), then compare the bodies.
            if b1.var == b2.var {
                unify_assertions(ctx, x1, x2)
            } else if ctx.vars.var_sort(b1.var) == ctx.vars.var_sort(b2.var) {
                let x2 = x2.subst(&diaframe_term::Subst::single(b2.var, Term::var(b1.var)));
                unify_assertions(ctx, x1, &x2)
            } else {
                false
            }
        }
        (Assertion::Later(x1), Assertion::Later(x2))
        | (Assertion::BUpd(x1), Assertion::BUpd(x2)) => unify_assertions(ctx, x1, x2),
        (Assertion::FUpd(f1, t1, x1), Assertion::FUpd(f2, t2, x2)) => {
            ctx.masks.unify(f1, f2) && ctx.masks.unify(t1, t2) && unify_assertions(ctx, x1, x2)
        }
        _ => false,
    }
}

/// A `HINT` clause `H ∗ [L] ⊫ A ∗ [U]` (§4) of an annotation, as data.
///
/// Its variables are placeholders numbered above the annotation's own
/// variables, and every use replaces them: the clause variables (its
/// free names) by matching `H` against a hypothesis or `A` against the
/// goal, the binders of `L` and `U` by fresh evars or variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Hint {
    /// The hint's name, recorded in traces.
    pub name: String,
    /// `H`: the hypothesis the hint is keyed on; `None` for `ε₁`.
    pub key: Option<Atom>,
    /// `L`: [`Assertion::emp`] when absent.
    pub side: Assertion,
    /// `A`: the goal atom; `None` for an unfold hint.
    pub goal: Option<Atom>,
    /// `U`: [`Assertion::emp`] when absent.
    pub residue: Assertion,
    /// The clause variables: placeholder, sort and name.
    pub params: Vec<(VarId, Sort, String)>,
    /// The binders of `L` and `U`: placeholder, sort and name.
    pub binders: Vec<(VarId, Sort, String)>,
}

impl Hint {
    fn is_param(&self, v: VarId) -> bool {
        self.params.iter().any(|(x, ..)| *x == v)
    }

    fn binder(&self, v: VarId) -> Option<(Sort, &str)> {
        self.binders
            .iter()
            .find(|(x, ..)| *x == v)
            .map(|(_, s, n)| (*s, n.as_str()))
    }

    fn matches(&self, pattern: &Atom, a: &Atom, vars: &VarCtx, s: &mut Subst) -> bool {
        match_atom(pattern, a, vars, &|v| self.is_param(v), s)
    }

    /// Extends `s` with a fresh evar for every clause variable it leaves
    /// unbound.
    fn close(&self, vars: &mut VarCtx, s: &mut Subst) {
        for (v, sort, _) in &self.params {
            if s.get(*v).is_none() {
                s.insert(*v, Term::evar(vars.fresh_evar(*sort)));
            }
        }
    }

    /// Extends `s` with a fresh variable for every binder of `a`, in the
    /// order [`binder_vars`] lists them.
    fn fresh_binders(&self, vars: &mut VarCtx, a: &Assertion, s: &mut Subst) {
        for v in binder_vars(a) {
            if let Some((sort, name)) = self.binder(v) {
                s.insert(v, Term::var(vars.fresh_var(sort, name)));
            }
        }
    }

    /// A keyed hint's candidate for hypothesis `hyp` and goal `goal`: the
    /// goal is unified with `A`, and `U`'s binders get fresh variables.
    fn keyed_candidate(&self, vars: &mut VarCtx, hyp: &Atom, goal: &Atom) -> Option<HintCandidate> {
        let (Some(key), Some(want)) = (&self.key, &self.goal) else {
            return None;
        };
        let mut s = Subst::new();
        if places(want, goal).is_none() || !self.matches(key, hyp, vars, &mut s) {
            return None;
        }
        self.close(vars, &mut s);
        let want = want.subst(&s);
        let mut c = HintCandidate::annotation(self.name.clone());
        for (g, w) in places(goal, &want).into_iter().flatten() {
            c = c.unify(g.clone(), w.clone());
        }
        self.fresh_binders(vars, &self.side, &mut s);
        self.fresh_binders(vars, &self.residue, &mut s);
        c.side = instantiate(&self.side, &s);
        c.residue = instantiate(&self.residue, &s);
        Some(c)
    }

    /// An `ε₁` hint's candidates for `goal`, one per disjunct of `L`
    /// (`<name>-nil` and `<name>-cons` for two): a disjunct's leading
    /// binders become fresh evars, its equations on them unifications,
    /// its other pure conjuncts guards and the rest the side condition.
    fn fold_candidates(&self, vars: &mut VarCtx, goal: &Atom) -> Vec<HintCandidate> {
        let Some(want) = &self.goal else {
            return Vec::new();
        };
        let mut s = Subst::new();
        if !self.matches(want, goal, vars, &mut s) {
            return Vec::new();
        }
        self.close(vars, &mut s);
        let mut disjuncts = vec![&self.side];
        while let Some(Assertion::Or(l, r)) = disjuncts.last().copied() {
            disjuncts.pop();
            disjuncts.extend([&**l, &**r]);
        }
        let two = disjuncts.len() == 2;
        let mut out = Vec::new();
        for (i, mut d) in disjuncts.into_iter().enumerate() {
            let name = match (two, i) {
                (false, _) => self.name.clone(),
                (true, 0) => format!("{}-nil", self.name),
                (true, _) => format!("{}-cons", self.name),
            };
            let mut s = s.clone();
            let mut bound = Vec::new();
            while let Assertion::Exists(b, body) = d {
                let sort = self.binder(b.var).map_or(Sort::Val, |(sort, _)| sort);
                s.insert(b.var, Term::evar(vars.fresh_evar(sort)));
                bound.push(b.var);
                d = body;
            }
            let mut c = HintCandidate::annotation(name);
            let mut side = Vec::new();
            for conj in d.sep_conjuncts() {
                match conj {
                    Assertion::Pure(PureProp::Eq(a, b))
                        if bound
                            .iter()
                            .any(|v| a.mentions_var(*v) || b.mentions_var(*v)) =>
                    {
                        c = c.unify(s.apply(a), s.apply(b));
                    }
                    Assertion::Pure(p) => c = c.guard(p.subst(&s)),
                    other => side.push(other.clone()),
                }
            }
            let side = Assertion::sep_list(side);
            self.fresh_binders(vars, &side, &mut s);
            c.side = instantiate(&side, &s);
            out.push(c);
        }
        out
    }

    /// An unfold hint's rewrite at a stuck point: the newest hypothesis
    /// matching `H` while every atom of `L` matches a hypothesis (which
    /// stays), and its replacement `U`. `U`'s binders get their fresh
    /// variables before the scan, whether or not a hypothesis matches.
    #[must_use]
    pub fn unfold(&self, ctx: &mut ProofCtx) -> Option<(usize, Assertion)> {
        let key = self.key.as_ref()?;
        let mut fresh = Subst::new();
        self.fresh_binders(&mut ctx.vars, &self.residue, &mut fresh);
        let side: Vec<&Atom> = self
            .side
            .sep_conjuncts()
            .into_iter()
            .filter_map(|c| match c {
                Assertion::Atom(a) => Some(a),
                _ => None,
            })
            .collect();
        for idx in (0..ctx.delta.len()).rev() {
            let Assertion::Atom(a) = &ctx.delta[idx].assertion else {
                continue;
            };
            let mut s = Subst::new();
            if !self.matches(key, a, &ctx.vars, &mut s) {
                continue;
            }
            let found = side.iter().all(|p| {
                ctx.delta.iter().any(|h| {
                    let Assertion::Atom(b) = &h.assertion else {
                        return false;
                    };
                    let mut t = s.clone();
                    let ok = self.matches(p, b, &ctx.vars, &mut t);
                    if ok {
                        s = t;
                    }
                    ok
                })
            });
            if !found {
                continue;
            }
            self.close(&mut ctx.vars, &mut s);
            s.extend(fresh.iter().map(|(v, t)| (v, t.clone())));
            return Some((idx, instantiate(&self.residue, &s)));
        }
        None
    }
}

/// The binders of `a`, outermost and leftmost first (invariant bodies
/// excluded).
pub(crate) fn binder_vars(a: &Assertion) -> Vec<VarId> {
    let mut out = Vec::new();
    a.walk(false, &mut |x| {
        if let Assertion::Exists(b, _) | Assertion::Forall(b, _) = x {
            out.push(b.var);
        }
    });
    out
}

/// Binds the pattern variables `is_var` accepts so that `pattern`
/// becomes `a`, in `s`. A variable binds the term as written; a term of
/// `a` is zonked where the pattern looks inside it or compares it.
pub(crate) fn match_atom(
    pattern: &Atom,
    a: &Atom,
    vars: &VarCtx,
    is_var: &impl Fn(VarId) -> bool,
    s: &mut Subst,
) -> bool {
    fn bind(
        p: &Term,
        t: &Term,
        vars: &VarCtx,
        is_var: &impl Fn(VarId) -> bool,
        s: &mut Subst,
    ) -> bool {
        match p {
            Term::Var(v) if is_var(*v) => match s.get(*v) {
                Some(b) => b.zonk(vars) == t.zonk(vars),
                None => {
                    s.insert(*v, t.clone());
                    true
                }
            },
            _ => match (p, t.zonk(vars)) {
                (Term::App(f, ps), Term::App(g, ts)) => {
                    *f == g
                        && ps
                            .iter()
                            .zip(ts.iter())
                            .all(|(p, t)| bind(p, t, vars, is_var, s))
                }
                (p, t) => *p == t,
            },
        }
    }
    places(pattern, a).is_some_and(|ps| ps.into_iter().all(|(p, t)| bind(p, t, vars, is_var, s)))
}

/// The term places two atoms of the same shape (constructor, ghost kind
/// and predicate) line up, `a`'s first.
pub(crate) fn places<'t>(a: &'t Atom, b: &'t Atom) -> Option<Vec<(&'t Term, &'t Term)>> {
    match (a, b) {
        (
            Atom::PointsTo { loc, frac, val },
            Atom::PointsTo {
                loc: l,
                frac: q,
                val: v,
            },
        ) => Some(vec![(loc, l), (frac, q), (val, v)]),
        (Atom::Ghost(g), Atom::Ghost(h))
            if g.kind == h.kind && g.pred == h.pred && g.args.len() == h.args.len() =>
        {
            Some(
                std::iter::once((&g.gname, &h.gname))
                    .chain(g.args.iter().zip(&h.args))
                    .collect(),
            )
        }
        (Atom::PredApp { pred: p, args: xs }, Atom::PredApp { pred: q, args: ys })
            if p == q && xs.len() == ys.len() =>
        {
            Some(xs.iter().zip(ys).collect())
        }
        _ => None,
    }
}
