//! Bi-abduction hint search (§4 of the paper).
//!
//! Given a goal atom `A` and the context `Δ`, find a hint
//! `H ∗ [y⃗; L] ⊫ [|⇛E₁ E₂] x⃗; A ∗ [U]`: scan hypotheses left-to-right
//! (`ε₁` last), for each hypothesis try *base hints* (generic atom
//! matching, fraction hints for `↦` and fractional predicates, the ghost
//! libraries' mutation rules, user hints) closed under the *recursive
//! hints* of §4.3 (wands, invariants, laters, existentials, separating
//! conjunctions). Backtracking is local: candidates are tried under a
//! rollback point, and the first one whose unifications and pure guards
//! succeed is committed.

use crate::ctx::ProofCtx;
use crate::tactic::VerifyOptions;
use diaframe_ghost::{HintCandidate, Registry};
use diaframe_logic::{Assertion, Atom, Mask, MaskT};
use diaframe_term::{unify, PureProp, Sort, Term};

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
    pub opened: Option<diaframe_logic::Namespace>,
    /// Namespace closed (for the trace), if the hint applied a closing
    /// wand.
    pub closed: Option<diaframe_logic::Namespace>,
}

/// The result of matching inside one hypothesis.
struct Inner {
    rules: Vec<String>,
    side: Assertion,
    residue: Assertion,
    learned: Vec<PureProp>,
    mask_to: Option<Mask>,
    custom: bool,
    opened: Option<diaframe_logic::Namespace>,
    closed: Option<diaframe_logic::Namespace>,
}

/// Searches for a hint for `atom` at mask `from`. On success the
/// unifications and pure guards have been committed into `ctx`.
pub fn find_hint(
    ctx: &mut ProofCtx,
    registry: &Registry,
    opts: &VerifyOptions,
    atom: &Atom,
    from: &Mask,
) -> Option<FoundHint> {
    // Profile: one probe-batch span per hint search; its payload counter
    // is fed by `probe_attempted` in the loop below, and its label
    // carries the matched rule for per-hint cost attribution.
    let mut prof_span = crate::profile::span(crate::profile::SpanKind::FindHint);
    let solves_before = ctx.vars.solve_events();
    let found = find_hint_inner(ctx, registry, opts, atom, from);
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
    atom: &Atom,
    from: &Mask,
) -> Option<FoundHint> {
    let atom = atom.zonk(&ctx.vars);
    let ablation = opts.ablation;
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
    let indexed = crate::index::hint_index_enabled();
    let custom_active = !opts.custom_hints.is_empty();
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
            if indexed && !ctx.delta[idx].heads.may_key(&atom, custom_active) {
                crate::telemetry::probe_skipped();
                continue;
            }
            crate::telemetry::probe_run();
            let vmark = ctx.vars.checkpoint();
            let mmark = ctx.masks.checkpoint();
            let fmark = ctx.facts.len();
            // Borrow the hypothesis without cloning it: the probe never
            // reads `ctx.delta`, so an `emp` placeholder is invisible to
            // it. (Cloning here dominated `find_hint`'s profile — every
            // probe of every hypothesis deep-copied its assertion.)
            let persistent = ctx.delta[idx].persistent;
            let assertion =
                std::mem::replace(&mut ctx.delta[idx].assertion, Assertion::emp());
            let probed = hint_from_hyp(ctx, registry, opts, &assertion, &atom, from);
            ctx.delta[idx].assertion = assertion;
            if let Some(inner) = probed {
                crate::telemetry::probe_matched();
                return Some(FoundHint {
                    rules: inner.rules,
                    hyp_idx: Some(idx),
                    consume: !persistent,
                    side: inner.side,
                    residue: inner.residue,
                    learned: inner.learned,
                    mask_to: inner.mask_to,
                    custom: inner.custom,
                    opened: inner.opened,
                    closed: inner.closed,
                });
            }
            crate::telemetry::probe_failed(&ctx.delta[idx].name);
            ctx.vars.rollback(&vmark);
            ctx.masks.rollback(&mmark);
            ctx.truncate_facts(fmark);
        }
    }
    // ε₁ last-resort hints.
    last_resort(ctx, registry, opts, &atom)
}

/// Last-resort (`ε₁`) hints: ghost allocation, invariant allocation, and
/// user fold hints.
fn last_resort(
    ctx: &mut ProofCtx,
    registry: &Registry,
    opts: &VerifyOptions,
    atom: &Atom,
) -> Option<FoundHint> {
    // User fold hints first (they are the only source for recursive
    // predicates).
    for (_, f) in &opts.custom_alloc_hints {
        let cands = f(&mut ctx.vars, atom);
        for cand in cands {
            let name = cand.name;
            let vmark = ctx.vars.checkpoint();
            let mmark = ctx.masks.checkpoint();
            if let Some(learned) = eval_candidate(ctx, &cand) {
                return Some(FoundHint {
                    rules: vec![name.to_owned()],
                    hyp_idx: None,
                    consume: false,
                    side: cand.side,
                    residue: cand.residue,
                    learned,
                    mask_to: None,
                    custom: true,
                    opened: None,
                    closed: None,
                });
            }
            ctx.vars.rollback(&vmark);
            ctx.masks.rollback(&mmark);
        }
    }
    match atom {
        Atom::Ghost(g) => {
            for lib in registry.iter() {
                if !lib.kinds().contains(&g.kind) {
                    continue;
                }
                let cands = lib.allocations(&mut ctx.vars, g);
                for cand in cands {
                    let name = cand.name;
                    if let Some(learned) = eval_candidate(ctx, &cand) {
                        return Some(FoundHint {
                            rules: vec![name.to_owned()],
                            hyp_idx: None,
                            consume: false,
                            side: cand.side,
                            residue: cand.residue,
                            learned,
                            mask_to: None,
                            custom: false,
                            opened: None,
                            closed: None,
                        });
                    }
                }
            }
            None
        }
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
            Some(FoundHint {
                rules: vec!["inv-alloc".to_owned()],
                hyp_idx: None,
                consume: false,
                side,
                residue,
                learned: Vec::new(),
                mask_to: None,
                custom: false,
                opened: None,
                closed: None,
            })
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
) -> Option<Inner> {
    match hyp {
        Assertion::Atom(a) => {
            // Direct atom-to-atom base hints.
            if let Some(inner) = try_atom_candidates(ctx, registry, opts, a, atom) {
                return Some(inner);
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
                let inner = hint_in_left_goal(ctx, registry, opts, body, atom, true)?;
                let closing = Assertion::wand(
                    Assertion::later((**body).clone()),
                    Assertion::fupd(
                        MaskT::Concrete(from.without(ns)),
                        MaskT::Concrete(from.clone()),
                        Assertion::atom(Atom::CloseInv { ns: ns.clone() }),
                    ),
                );
                let mut rules = vec!["inv-open".to_owned()];
                rules.extend(inner.rules);
                return Some(Inner {
                    rules,
                    side: inner.side,
                    residue: Assertion::sep(inner.residue, closing),
                    learned: inner.learned,
                    mask_to: Some(from.without(ns)),
                    custom: inner.custom,
                    opened: Some(ns.clone()),
                    closed: None,
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
            let inner = hint_from_hyp(ctx, registry, opts, c, atom, from)?;
            let mut rules = vec!["wand-apply".to_owned()];
            rules.extend(inner.rules);
            Some(Inner {
                rules,
                side: Assertion::sep((**p).clone(), inner.side),
                ..inner
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
            let inner = hint_from_hyp(ctx, registry, opts, c, atom, from)?;
            if inner.mask_to.is_some() {
                return None; // no nested mask changes
            }
            let closed = match atom {
                Atom::CloseInv { ns } => Some(ns.clone()),
                _ => None,
            };
            Some(Inner {
                mask_to: Some(m2),
                closed,
                ..inner
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
) -> Option<Inner> {
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
            let vmark = ctx.vars.checkpoint();
            let mmark = ctx.masks.checkpoint();
            if let Some(inner) = hint_in_left_goal(ctx, registry, opts, l, atom, under_later) {
                let rest = wrap_later(ctx, (**r).clone(), under_later);
                return Some(Inner {
                    residue: Assertion::sep(inner.residue, rest),
                    ..inner
                });
            }
            ctx.vars.rollback(&vmark);
            ctx.masks.rollback(&mmark);
            let inner = hint_in_left_goal(ctx, registry, opts, r, atom, under_later)?;
            let rest = wrap_later(ctx, (**l).clone(), under_later);
            Some(Inner {
                residue: Assertion::sep(rest, inner.residue),
                ..inner
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
/// ghost-library mutations, user hints. Candidates are evaluated in that
/// order under rollback points; the first success is committed.
fn try_atom_candidates(
    ctx: &mut ProofCtx,
    registry: &Registry,
    opts: &VerifyOptions,
    hyp: &Atom,
    goal: &Atom,
) -> Option<Inner> {
    // Invariant duplication: unify the bodies (the goal's may contain
    // evars, e.g. a yet-undetermined ghost name).
    if let (Atom::Invariant { ns: n1, body: b1 }, Atom::Invariant { ns: n2, body: b2 }) =
        (hyp, goal)
    {
        if n1 == n2 {
            let vmark = ctx.vars.checkpoint();
            let mmark = ctx.masks.checkpoint();
            if unify_assertions(ctx, b1, b2) {
                return Some(Inner {
                    rules: vec!["inv-dup".to_owned()],
                    side: Assertion::emp(),
                    residue: Assertion::emp(),
                    learned: Vec::new(),
                    mask_to: None,
                    custom: false,
                    opened: None,
                    closed: None,
                });
            }
            ctx.vars.rollback(&vmark);
            ctx.masks.rollback(&mmark);
        }
        return None;
    }
    let mut cands: Vec<(HintCandidate, bool)> = Vec::new();
    // User hints on recursive predicates are tried *first* (they may need
    // to pre-empt the generic frame rule, e.g. to extract the persistent
    // skeleton of a list while re-proving it).
    if matches!(goal, Atom::PredApp { .. }) {
        for (_, f) in &opts.custom_hints {
            for c in f(&mut ctx.vars, hyp, goal) {
                cands.push((c, true));
            }
        }
    }
    for c in generic_candidates(ctx, hyp, goal) {
        cands.push((c, false));
    }
    if !matches!(goal, Atom::PredApp { .. }) {
        for (_, f) in &opts.custom_hints {
            for c in f(&mut ctx.vars, hyp, goal) {
                cands.push((c, true));
            }
        }
    }
    if let Atom::Ghost(h) = hyp {
        if let Some(lib) = registry.library_for(h.kind) {
            for c in lib.hints(&mut ctx.vars, h, goal) {
                cands.push((c, false));
            }
        }
    }
    for c in fraction_candidates(ctx, hyp, goal) {
        cands.push((c, false));
    }
    for (cand, custom) in cands {
        let vmark = ctx.vars.checkpoint();
        let mmark = ctx.masks.checkpoint();
        if let Some(learned) = eval_candidate(ctx, &cand) {
            return Some(Inner {
                rules: vec![cand.name.to_owned()],
                side: cand.side,
                residue: cand.residue,
                learned,
                mask_to: None,
                custom,
                opened: None,
                closed: None,
            });
        }
        ctx.vars.rollback(&vmark);
        ctx.masks.rollback(&mmark);
    }
    None
}

/// Commits a candidate: unify all pairs, prove all guards. Returns the
/// learned facts on success; the caller owns rollback on failure.
fn eval_candidate(ctx: &mut ProofCtx, cand: &HintCandidate) -> Option<Vec<PureProp>> {
    for (a, b) in &cand.unifications {
        if unify(&mut ctx.vars, a, b).is_err() {
            return None;
        }
    }
    for g in &cand.guards {
        if !ctx.prove_pure(g) {
            return None;
        }
    }
    Some(cand.learned.clone())
}

/// Exact-match candidates (the hypothesis *is* the goal modulo
/// unification and provable equalities).
fn generic_candidates(_ctx: &ProofCtx, hyp: &Atom, goal: &Atom) -> Vec<HintCandidate> {
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
    match a {
        Assertion::Exists(b, body) | Assertion::Forall(b, body) => {
            let sort = ctx.vars.var_sort(b.var);
            let name = ctx.vars.var_name(b.var).to_owned();
            let fresh = ctx.vars.fresh_var(sort, &name);
            let body = body.subst(&diaframe_term::Subst::single(b.var, Term::var(fresh)));
            let body = refresh_binders(ctx, &body);
            let binder = diaframe_logic::Binder::new(fresh);
            if matches!(a, Assertion::Exists(..)) {
                Assertion::exists(binder, body)
            } else {
                Assertion::forall(binder, body)
            }
        }
        Assertion::Sep(l, r) => Assertion::sep(refresh_binders(ctx, l), refresh_binders(ctx, r)),
        Assertion::Or(l, r) => Assertion::or(refresh_binders(ctx, l), refresh_binders(ctx, r)),
        Assertion::Wand(l, r) => {
            Assertion::wand(refresh_binders(ctx, l), refresh_binders(ctx, r))
        }
        Assertion::Later(x) => Assertion::later(refresh_binders(ctx, x)),
        Assertion::BUpd(x) => Assertion::bupd(refresh_binders(ctx, x)),
        Assertion::FUpd(f, t, x) => {
            Assertion::fupd(f.clone(), t.clone(), refresh_binders(ctx, x))
        }
        other => other.clone(),
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
            ) => terms(ctx, &[l1.clone(), q1.clone(), v1.clone()], &[
                l2.clone(),
                q2.clone(),
                v2.clone(),
            ]),
            (Atom::Ghost(GhostAtom { kind: k1, gname: g1, pred: p1, args: a1 }),
             Atom::Ghost(GhostAtom { kind: k2, gname: g2, pred: p2, args: a2 })) => {
                k1 == k2
                    && p1 == p2
                    && unify(&mut ctx.vars, g1, g2).is_ok()
                    && terms(ctx, a1, a2)
            }
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
            | (P::Implies(x1, y1), P::Implies(x2, y2)) => {
                props(ctx, x1, x2) && props(ctx, y1, y2)
            }
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
                let x2 = x2.subst(&diaframe_term::Subst::single(
                    b2.var,
                    Term::var(b1.var),
                ));
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
