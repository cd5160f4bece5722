//! Hash-consed term arena with solution-fingerprint-keyed zonk/normalize
//! memo tables.
//!
//! The proof search spends its time matching hypotheses against hint
//! patterns, unifying, and discharging pure obligations, and every one of
//! those operations zonks and normalises the same terms over and over.
//! This module gives each structurally distinct [`Term`] a small integer
//! identity ([`TermId`]) inside a thread-local arena, so that
//!
//! * re-interning a term whose argument list is already canonical is a
//!   single pointer-keyed hash lookup (the arena holds a strong `Arc` to
//!   every canonical argument list, so data pointers are never reused);
//! * zonk results are memoized per `(TermId, solution fingerprint)`,
//!   where the fingerprint is [`VarCtx::solution_fp`] — a content hash of
//!   the recorded evar-solution map, so two states that hold the same
//!   solutions share entries even when they were reached through
//!   different solve/rollback histories (the `solve_events` effort
//!   counter never decreases and cannot key a cache soundly; the
//!   event-stamping [`VarCtx::generation`] is sound but splits
//!   identical states reached twice);
//! * linear-arithmetic normal forms are memoized per zonked `TermId`
//!   (normalising a fully-zonked term is purely structural, so no
//!   generation key is needed);
//! * every arena entry records the set of evars it mentions and whether a
//!   projection redex occurs, so zonking a term none of whose evars are
//!   solved — the steady-state majority inside probe loops — is decided
//!   without walking or allocating anything (see `needs_zonk`, which
//!   applies the same test to un-interned terms);
//! * pure-entailment verdicts are memoized per (solver fingerprint, goal,
//!   solution fingerprint), which is what turns the repeated
//!   side-condition checks of the hint-matching probe loops into hash
//!   lookups.
//!
//! The arena is scoped: [`scope`] installs a fresh interner for the
//! current thread and restores the previous one on drop. The verification
//! entry points install a scope per specification (on the big-stack
//! session thread, so the whole search and the replay checker run inside
//! one), which keeps hit/miss counters deterministic per example
//! regardless of how worker threads are shared, and bounds memory by the
//! size of one search. Without an active scope every operation falls back
//! to the structural implementations, byte-for-byte identical (pinned by
//! `tests/intern_props.rs`).

use crate::evar::VarCtx;
use crate::normalize::LinComb;
use crate::term::{Sym, Term};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Identity of an interned term within the current thread's arena.
///
/// Equality of ids coincides with structural equality of the terms they
/// denote (within one scope), and the id is `Copy`, so passing one around
/// is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The raw arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Shallow description of an arena entry: how the canonical term was
/// built, in terms of other ids.
enum Node {
    /// A non-application term; the canonical [`Term`] is its own
    /// description.
    Leaf,
    /// An application of `sym` to the canonical terms named by `kids`.
    App { sym: Sym, kids: Box<[TermId]> },
}

struct Entry {
    /// The canonical term. For applications the argument `Arc` is owned
    /// here, which is what keeps the pointer-keyed lookup sound.
    term: Term,
    node: Node,
    /// Every evar occurring in the term (transitively, deduplicated).
    /// Zonk can only change the term by resolving one of these, so when
    /// all of them are unsolved — the common case inside probe loops —
    /// zonk is the identity without walking anything.
    evars: Box<[crate::evar::EVarId]>,
    /// Whether a `Fst`/`Snd`-on-`VPair` redex occurs anywhere; zonk
    /// reduces those even with no evars in sight.
    needs_reduce: bool,
}

/// Hit/miss counters for the arena and both memo tables, reported to
/// telemetry by the verification entry points at scope end.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Intern requests answered from the arena (pointer or map hit).
    pub interner_hits: u64,
    /// Intern requests that allocated a new arena entry.
    pub interner_misses: u64,
    /// Zonk requests answered from the `(TermId, solution fingerprint)`
    /// memo table (including constant-time inert answers).
    pub zonk_cache_hits: u64,
    /// Normalisation requests answered from the `TermId → LinComb` table.
    pub normalize_cache_hits: u64,
}

#[derive(Default)]
struct Interner {
    /// Globally-unique stamp for this scope, so state keyed on this
    /// scope's [`TermId`]s (the incremental e-graph) can detect that it
    /// outlived the scope it was built in and must not trust its ids.
    token: u64,
    entries: Vec<Entry>,
    /// Structural map for non-application terms (all small).
    leaves: HashMap<Term, TermId>,
    /// Shallow structural map for applications: canonical children make
    /// interning O(arity) per node instead of O(tree).
    apps: HashMap<(Sym, Box<[TermId]>), TermId>,
    /// Canonical argument-list data pointer → id of an application with
    /// that exact argument list. Only canonical lists are indexed, and
    /// each is owned by its [`Entry`] for the life of the scope, so a hit
    /// proves the argument list is bitwise the one interned earlier (the
    /// head symbol is re-checked on lookup: a caller may legitimately
    /// reuse one argument `Arc` under another symbol).
    by_ptr: HashMap<usize, TermId>,
    zonk_cache: HashMap<(TermId, u64), TermId>,
    norm_cache: HashMap<TermId, LinComb>,
    /// Memoized pure-entailment verdicts, keyed by (solver facts
    /// fingerprint, goal hash, solution fingerprint) — see
    /// [`crate::solver::PureSolver`].
    pure_cache: HashMap<(u64, u64, u64), bool>,
    /// Pre-built refutation states over a solver's facts, keyed by
    /// (solver facts fingerprint, solution fingerprint). `None` marks a
    /// fact set the fast path cannot handle (disjunctive facts), so the
    /// build is not retried.
    pure_base: HashMap<(u64, u64), Option<crate::solver::PureBase>>,
    /// Memoized e-graph entailment verdicts, keyed by (e-graph version,
    /// goal hash, solution fingerprint) — the incremental analogue of
    /// `pure_cache`; see [`crate::solver::egraph::EGraph`].
    egraph_cache: HashMap<(u64, u64, u64), bool>,
    /// Hash-consed e-graph version stamps: `(parent version, literal
    /// hash) → version`. Two e-graphs that assert the same literal
    /// sequence — a branch clone and its original, or an `Implies` goal
    /// re-deriving the same hypothesis — reach the same version and share
    /// memo entries, exactly as the fingerprint chaining of
    /// [`crate::solver::PureSolver`] does.
    egraph_versions: HashMap<(u64, u64), u64>,
    /// Next unallocated e-graph version (0 is the empty e-graph).
    next_version: u64,
    /// Aggregated e-graph work counters for this scope; reported to
    /// telemetry alongside [`InternStats`].
    egraph_stats: crate::solver::egraph::EGraphStats,
    stats: InternStats,
}

impl Interner {
    fn fresh() -> Interner {
        use std::sync::atomic::AtomicU64;
        static NEXT_SCOPE_TOKEN: AtomicU64 = AtomicU64::new(1);
        Interner {
            token: NEXT_SCOPE_TOKEN.fetch_add(1, Ordering::Relaxed),
            next_version: 1,
            ..Interner::default()
        }
    }

    fn intern(&mut self, t: &Term) -> TermId {
        match t {
            Term::App(sym, args) => {
                if !args.is_empty() {
                    if let Some(&id) = self.by_ptr.get(&(args.as_ptr() as usize)) {
                        if let Node::App { sym: s, kids } = &self.entries[id.index()].node {
                            if s == sym {
                                self.stats.interner_hits += 1;
                                return id;
                            }
                            // Same canonical argument list under a
                            // different head: the children ids are known,
                            // skip straight to the shallow map.
                            let kids = kids.clone();
                            return self.intern_app(*sym, kids);
                        }
                    }
                }
                let kids: Box<[TermId]> = args.iter().map(|a| self.intern(a)).collect();
                self.intern_app(*sym, kids)
            }
            _ => {
                if let Some(&id) = self.leaves.get(t) {
                    self.stats.interner_hits += 1;
                    return id;
                }
                self.stats.interner_misses += 1;
                let evars: Box<[crate::evar::EVarId]> = match t {
                    Term::EVar(e) => Box::new([*e]),
                    _ => Box::new([]),
                };
                let id = self.push(Entry {
                    term: t.clone(),
                    node: Node::Leaf,
                    evars,
                    needs_reduce: false,
                });
                self.leaves.insert(t.clone(), id);
                id
            }
        }
    }

    fn intern_app(&mut self, sym: Sym, kids: Box<[TermId]>) -> TermId {
        let key = (sym, kids);
        if let Some(&id) = self.apps.get(&key) {
            self.stats.interner_hits += 1;
            return id;
        }
        self.stats.interner_misses += 1;
        let (sym, kids) = key;
        let args: Arc<[Term]> = kids
            .iter()
            .map(|k| self.entries[k.index()].term.clone())
            .collect();
        let reducible_projection = matches!(sym, Sym::Fst | Sym::Snd)
            && kids.first().is_some_and(|k| {
                matches!(&self.entries[k.index()].term, Term::App(Sym::VPair, _))
            });
        let needs_reduce = reducible_projection
            || kids.iter().any(|k| self.entries[k.index()].needs_reduce);
        let mut evars: Vec<crate::evar::EVarId> = Vec::new();
        for k in &kids {
            for e in self.entries[k.index()].evars.iter() {
                if !evars.contains(e) {
                    evars.push(*e);
                }
            }
        }
        let ptr = (!args.is_empty()).then_some(args.as_ptr() as usize);
        let id = self.push(Entry {
            term: Term::App(sym, args),
            node: Node::App {
                sym,
                kids: kids.clone(),
            },
            evars: evars.into(),
            needs_reduce,
        });
        self.apps.insert((sym, kids), id);
        if let Some(ptr) = ptr {
            self.by_ptr.insert(ptr, id);
        }
        id
    }

    fn push(&mut self, entry: Entry) -> TermId {
        let id = TermId(u32::try_from(self.entries.len()).expect("term arena overflow"));
        self.entries.push(entry);
        id
    }

    /// Memoized zonk on ids, keyed under the caller's solution
    /// fingerprint. Mirrors [`Term::zonk_structural`] exactly: solved
    /// evars are chased recursively and `Fst`/`Snd` applied to a `VPair`
    /// reduce to the corresponding (already zonked) component.
    fn zonk_id(&mut self, ctx: &VarCtx, fp: u64, id: TermId) -> TermId {
        {
            let entry = &self.entries[id.index()];
            // Identity fast paths: no redex and either no evars at all,
            // or none of the mentioned evars solved yet (the common case
            // inside probe loops, where speculation keeps rolling back).
            if !entry.needs_reduce
                && entry
                    .evars
                    .iter()
                    .all(|e| e.index() >= ctx.num_evars() || ctx.evar_unsolved(*e))
            {
                self.stats.zonk_cache_hits += 1;
                return id;
            }
        }
        if let Some(&z) = self.zonk_cache.get(&(id, fp)) {
            self.stats.zonk_cache_hits += 1;
            return z;
        }
        let out = match &self.entries[id.index()].node {
            Node::Leaf => {
                // The only non-inert leaf is an evar.
                let Term::EVar(e) = &self.entries[id.index()].term else {
                    unreachable!("non-inert leaf is not an evar")
                };
                match ctx.evar_solution(*e) {
                    Some(sol) => {
                        let sol = sol.clone();
                        let sid = self.intern(&sol);
                        self.zonk_id(ctx, fp, sid)
                    }
                    None => id,
                }
            }
            Node::App { sym, kids } => {
                let (sym, kids) = (*sym, kids.clone());
                let zkids: Box<[TermId]> =
                    kids.iter().map(|k| self.zonk_id(ctx, fp, *k)).collect();
                let reduced = match (sym, zkids.first()) {
                    (Sym::Fst | Sym::Snd, Some(p)) => match &self.entries[p.index()].node {
                        Node::App {
                            sym: Sym::VPair,
                            kids: ps,
                        } => Some(ps[usize::from(matches!(sym, Sym::Snd))]),
                        _ => None,
                    },
                    _ => None,
                };
                match reduced {
                    Some(r) => r,
                    None => self.intern_app(sym, zkids),
                }
            }
        };
        self.zonk_cache.insert((id, fp), out);
        out
    }
}

thread_local! {
    static INTERNER: RefCell<Option<Interner>> = const { RefCell::new(None) };
}

/// Whether an interner scope is active on this thread.
#[must_use]
pub fn is_active() -> bool {
    INTERNER.with(|slot| slot.borrow().is_some())
}

fn with_active<R>(f: impl FnOnce(&mut Interner) -> R) -> Option<R> {
    INTERNER.with(|slot| slot.borrow_mut().as_mut().map(f))
}

/// An installed interner scope; restores the previous thread state (an
/// outer scope, or none) on drop.
pub struct InternScope {
    /// The interner (or absence of one) this scope was installed over.
    prev: Option<Interner>,
}

impl Drop for InternScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        INTERNER.with(|slot| *slot.borrow_mut() = prev);
    }
}

/// Installs a fresh interner for the current thread. The verification
/// entry points call this once per specification.
#[must_use]
pub fn scope() -> InternScope {
    let prev = INTERNER.with(|slot| slot.borrow_mut().replace(Interner::fresh()));
    InternScope { prev }
}

/// Snapshot of the current scope's counters (zeroes when no scope is
/// active).
#[must_use]
pub fn stats() -> InternStats {
    with_active(|int| int.stats).unwrap_or_default()
}

/// Interns `t`, returning its id, when a scope is active.
#[must_use]
pub fn term_id(t: &Term) -> Option<TermId> {
    with_active(|int| int.intern(t))
}

/// The canonical term for an id interned earlier in this scope.
#[must_use]
pub fn resolve(id: TermId) -> Option<Term> {
    with_active(|int| int.entries.get(id.index()).map(|e| e.term.clone())).flatten()
}

/// The canonical (maximally shared) copy of `t`: structurally identical,
/// but with every argument list owned by the arena, so later interning,
/// equality, and zonking of it short-circuit on pointer identity. Without
/// an active scope this is a plain clone.
#[must_use]
pub fn canonical(t: &Term) -> Term {
    with_active(|int| {
        let id = int.intern(t);
        int.entries[id.index()].term.clone()
    })
    .unwrap_or_else(|| t.clone())
}

/// Whether zonk would change `t` at all: some mentioned evar is solved,
/// or a `Fst`/`Snd`-on-`VPair` redex occurs. A read-only scan — far
/// cheaper than the rebuilding walk it guards, and most zonk calls in
/// the search happen while every relevant evar is still unsolved.
pub(crate) fn needs_zonk(ctx: &VarCtx, t: &Term) -> bool {
    match t {
        Term::EVar(e) => !ctx.evar_unsolved(*e),
        Term::App(sym, args) => {
            if matches!(sym, Sym::Fst | Sym::Snd)
                && matches!(&args[..], [Term::App(Sym::VPair, _)])
            {
                return true;
            }
            args.iter().any(|a| needs_zonk(ctx, a))
        }
        _ => false,
    }
}

/// Memoized zonk: the front for [`Term::zonk`]. Identical results to
/// [`Term::zonk_structural`], with a constant-time path for non-evar
/// leaves, an allocation-free identity scan for terms zonk would not
/// change (the steady state inside probe loops), and the arena's memo
/// tables for terms with real rewriting to do.
#[must_use]
pub fn zonk(ctx: &VarCtx, t: &Term) -> Term {
    match t {
        Term::Var(_)
        | Term::Int(_)
        | Term::Bool(_)
        | Term::QpLit(_)
        | Term::Loc(_)
        | Term::Gname(_) => return t.clone(),
        Term::EVar(e) if ctx.evar_unsolved(*e) => return t.clone(),
        _ => {}
    }
    if !needs_zonk(ctx, t) {
        return t.clone();
    }
    with_active(|int| {
        let id = int.intern(t);
        let z = int.zonk_id(ctx, ctx.solution_fp(), id);
        int.entries[z.index()].term.clone()
    })
    .unwrap_or_else(|| t.zonk_structural(ctx))
}

/// Looks up a memoized pure-entailment verdict (see
/// [`crate::solver::PureSolver`]); `None` when no scope is active or the
/// query has not been decided under this key yet.
#[must_use]
pub(crate) fn pure_cache_get(key: &(u64, u64, u64)) -> Option<bool> {
    with_active(|int| int.pure_cache.get(key).copied()).flatten()
}

/// Records a pure-entailment verdict (no-op without an active scope).
pub(crate) fn pure_cache_put(key: (u64, u64, u64), verdict: bool) {
    let _ = with_active(|int| int.pure_cache.insert(key, verdict));
}

/// Looks up the cached facts-side refutation state for a solver
/// fingerprint + generation. Outer `None`: not cached (or no scope);
/// inner `None`: cached as "not eligible" (disjunctive facts). The state
/// is cloned out so the caller can extend it without holding the scope
/// borrow (extending re-enters the interner through zonk/normalize).
#[must_use]
pub(crate) fn pure_base_get(key: &(u64, u64)) -> Option<Option<crate::solver::PureBase>> {
    with_active(|int| int.pure_base.get(key).cloned()).flatten()
}

/// Records the facts-side refutation state (no-op without an active
/// scope).
pub(crate) fn pure_base_put(key: (u64, u64), base: Option<crate::solver::PureBase>) {
    let _ = with_active(|int| int.pure_base.insert(key, base));
}

/// The globally-unique token of the current scope's interner, or `None`
/// when no scope is active. E-graphs record it at construction and refuse
/// to serve queries under a different scope (their interned ids and
/// version stamps would be meaningless there).
#[must_use]
pub fn scope_token() -> Option<u64> {
    with_active(|int| int.token)
}

/// Looks up a memoized e-graph entailment verdict; `None` when no scope
/// is active or the query has not been decided under this key yet.
#[must_use]
pub(crate) fn egraph_cache_get(key: &(u64, u64, u64)) -> Option<bool> {
    with_active(|int| int.egraph_cache.get(key).copied()).flatten()
}

/// Records an e-graph entailment verdict (no-op without an active scope).
pub(crate) fn egraph_cache_put(key: (u64, u64, u64), verdict: bool) {
    let _ = with_active(|int| int.egraph_cache.insert(key, verdict));
}

/// The hash-consed e-graph version reached by asserting the literal with
/// hash `lit_hash` on top of version `parent`; allocated on first use.
/// `None` when no scope is active.
#[must_use]
pub(crate) fn egraph_version(parent: u64, lit_hash: u64) -> Option<u64> {
    with_active(|int| {
        let key = (parent, lit_hash);
        if let Some(&v) = int.egraph_versions.get(&key) {
            return v;
        }
        let v = int.next_version;
        int.next_version += 1;
        int.egraph_versions.insert(key, v);
        v
    })
}

/// Snapshot of the current scope's e-graph counters (zeroes when no scope
/// is active).
#[must_use]
pub fn egraph_stats() -> crate::solver::egraph::EGraphStats {
    with_active(|int| int.egraph_stats).unwrap_or_default()
}

/// Applies `f` to the current scope's e-graph counters (no-op without an
/// active scope).
pub(crate) fn egraph_stats_mut(f: impl FnOnce(&mut crate::solver::egraph::EGraphStats)) {
    let _ = with_active(|int| f(&mut int.egraph_stats));
}

/// Memoized linear-arithmetic normalisation, keyed by the id of the
/// zonked term (normalising a fully-zonked term is purely structural).
/// `None` when no scope is active — the caller falls back to the
/// structural path.
#[must_use]
pub fn normalize_memo(ctx: &VarCtx, t: &Term) -> Option<LinComb> {
    with_active(|int| {
        let id = int.intern(t);
        let z = int.zonk_id(ctx, ctx.solution_fp(), id);
        if let Some(lc) = int.norm_cache.get(&z) {
            int.stats.normalize_cache_hits += 1;
            return lc.clone();
        }
        let zonked = int.entries[z.index()].term.clone();
        let lc = crate::normalize::normalize_resolved(ctx, &zonked);
        int.norm_cache.insert(z, lc.clone());
        lc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    #[test]
    fn ids_coincide_with_structural_equality() {
        let _scope = scope();
        let a = Term::add(Term::int(1), Term::int(2));
        let b = Term::add(Term::int(1), Term::int(2));
        let c = Term::add(Term::int(2), Term::int(1));
        assert_eq!(term_id(&a), term_id(&b));
        assert_ne!(term_id(&a), term_id(&c));
        let id = term_id(&a).unwrap();
        assert_eq!(resolve(id).unwrap(), a);
    }

    #[test]
    fn canonical_shares_storage() {
        let _scope = scope();
        let a = canonical(&Term::add(Term::int(1), Term::int(2)));
        let b = canonical(&Term::add(Term::int(1), Term::int(2)));
        let (Term::App(_, xs), Term::App(_, ys)) = (&a, &b) else {
            panic!("not apps")
        };
        assert!(Arc::ptr_eq(xs, ys));
    }

    #[test]
    fn memoized_zonk_matches_structural() {
        let _scope = scope();
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        let t = Term::add(Term::evar(e), Term::int(1));
        assert_eq!(t.zonk(&ctx), t.zonk_structural(&ctx));
        ctx.solve_evar(e, Term::int(4));
        assert_eq!(t.zonk(&ctx), t.zonk_structural(&ctx));
        // Cached: same generation, same answer.
        assert_eq!(t.zonk(&ctx), Term::add(Term::int(4), Term::int(1)));
        assert!(stats().zonk_cache_hits > 0);
    }

    #[test]
    fn zonk_cache_invalidated_by_rollback() {
        let _scope = scope();
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        let mark = ctx.checkpoint();
        let t = Term::add(Term::evar(e), Term::int(1));
        ctx.solve_evar(e, Term::int(4));
        assert_eq!(t.zonk(&ctx), Term::add(Term::int(4), Term::int(1)));
        ctx.rollback(&mark);
        // `solve_events` is unchanged by rollback, but the solution
        // fingerprint is restored — the stale entry must not be served.
        assert_eq!(t.zonk(&ctx), t);
        ctx.solve_evar(e, Term::int(9));
        assert_eq!(t.zonk(&ctx), Term::add(Term::int(9), Term::int(1)));
    }

    #[test]
    fn projection_reduction_matches_structural() {
        let _scope = scope();
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Val);
        ctx.solve_evar(e, Term::v_pair(Term::v_int_lit(1), Term::v_bool_lit(true)));
        let fst = Term::app(Sym::Fst, vec![Term::evar(e)]);
        let snd = Term::app(Sym::Snd, vec![Term::evar(e)]);
        assert_eq!(fst.zonk(&ctx), fst.zonk_structural(&ctx));
        assert_eq!(snd.zonk(&ctx), snd.zonk_structural(&ctx));
        assert_eq!(fst.zonk(&ctx), Term::v_int_lit(1));
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert!(!is_active());
        let outer = scope();
        assert!(is_active());
        let _ = term_id(&Term::int(1));
        let before = stats().interner_misses;
        {
            let _inner = scope();
            assert_eq!(stats().interner_misses, 0);
            let _ = term_id(&Term::int(1));
        }
        assert_eq!(stats().interner_misses, before);
        drop(outer);
        assert!(!is_active());
    }

    /// Scopes are strictly per-thread state: a worker thread installing
    /// its own scope must never perturb the scope of the thread that
    /// spawned it — ids minted in one thread's scope are meaningless
    /// (and invisible) in another's.
    #[test]
    fn scopes_are_isolated_per_thread() {
        let _scope = scope();
        let t = Term::add(Term::int(1), Term::int(2));
        let parent_id = term_id(&t).unwrap();
        let parent_misses = stats().interner_misses;
        std::thread::scope(|s| {
            s.spawn(|| {
                // The parent's scope does not leak into this thread.
                assert!(!is_active());
                assert_eq!(term_id(&t), None);
                let _worker = scope();
                let _ = term_id(&t).unwrap();
            })
            .join()
            .expect("worker panicked");
        });
        // The worker's scope left the parent's untouched: still active,
        // same stats, and the old id still resolves.
        assert!(is_active());
        assert_eq!(stats().interner_misses, parent_misses);
        assert_eq!(resolve(parent_id).unwrap(), t);
    }

    #[test]
    fn arc_reuse_under_different_symbol() {
        let _scope = scope();
        let args: Arc<[Term]> = vec![Term::int(1), Term::int(2)].into();
        let add = canonical(&Term::App(Sym::Add, args));
        let Term::App(_, canon_args) = &add else {
            panic!("not an app")
        };
        // Reusing the canonical Add argument list under Sub must intern
        // as Sub, not hit the pointer map blindly.
        let sub = Term::App(Sym::Sub, canon_args.clone());
        assert_eq!(
            resolve(term_id(&sub).unwrap()).unwrap(),
            Term::sub(Term::int(1), Term::int(2))
        );
    }
}
