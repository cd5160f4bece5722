//! Variable and evar contexts with scope levels.
//!
//! The *scope level* machinery implements the delayed-instantiation
//! discipline of §3.2 of the Diaframe paper. Every universal variable and
//! every evar records the level at which it was created; the level increases
//! whenever the proof strategy introduces a universal variable (e.g. when an
//! invariant is opened and its body's existentials enter the context). An
//! evar of level `k` may only be solved by a term whose free variables all
//! have level `≤ k`: a variable introduced *after* the evar could not have
//! been chosen when the evar was created, so capturing it would be unsound
//! (see the failing `FAA` derivation in the paper).

use crate::sort::Sort;
use crate::term::Term;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide source of solution-generation stamps. Stamps are globally
/// unique, so `(TermId, generation)` memo keys (see [`crate::intern`])
/// cannot collide across contexts or across clones of one context.
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

fn fresh_gen() -> u64 {
    NEXT_GEN.fetch_add(1, Ordering::Relaxed)
}

/// A scope level. Level 0 is the outermost scope.
pub type Level = u32;

/// Identifier of a universal variable, unique within one [`VarCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The raw index of the variable.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a raw index (trace deserialization support).
    ///
    /// The id is only meaningful against the [`VarCtx`] it was recorded
    /// with; the proof checker re-validates every use, so a stale index
    /// can at worst make replay fail.
    #[must_use]
    pub fn from_index(index: usize) -> VarId {
        VarId(u32::try_from(index).expect("variable index out of range"))
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an existential variable, unique within one [`VarCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EVarId(pub(crate) u32);

impl EVarId {
    /// The raw index of the evar.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a raw index (trace deserialization support).
    ///
    /// See [`VarId::from_index`] for the safety story.
    #[must_use]
    pub fn from_index(index: usize) -> EVarId {
        EVarId(u32::try_from(index).expect("evar index out of range"))
    }
}

impl fmt::Display for EVarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?e{}", self.0)
    }
}

/// Metadata for a universal variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// The sort of the variable.
    pub sort: Sort,
    /// Scope level at which the variable was introduced.
    pub level: Level,
    /// A human-readable name hint for display.
    pub name: String,
}

/// Metadata for an existential variable.
#[derive(Debug, Clone)]
pub struct EVarInfo {
    /// The sort of the evar.
    pub sort: Sort,
    /// Scope level: the maximum level of variables the solution may mention.
    /// May be *lowered* by level pruning when the evar appears in the
    /// solution of a lower-level evar.
    pub level: Level,
    /// The solution, once unification determines one.
    pub solution: Option<Term>,
}

/// The arena of variables and evars for one verification, together with the
/// current scope level.
#[derive(Clone, Default)]
pub struct VarCtx {
    vars: Vec<VarInfo>,
    evars: Vec<EVarInfo>,
    level: Level,
    solves: u64,
    generation: u64,
    /// Count of in-place solution rewrites ([`VarCtx::map_solutions`]) —
    /// the one mutation [`VarCtx::rollback`] cannot undo. Used to decide
    /// whether a rollback restores the checkpoint's generation stamp.
    maps: u64,
    /// Content fingerprint of the recorded solution map: the XOR of one
    /// hash per `(evar, solution)` entry, maintained incrementally (XOR is
    /// self-inverse, so erasing a solution re-XORs the same value). See
    /// [`VarCtx::solution_fp`].
    sol_fp: u64,
}

/// The fingerprint contribution of one solution entry.
fn sol_entry_fp(e: EVarId, t: &Term) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    e.0.hash(&mut h);
    t.hash(&mut h);
    h.finish()
}

// `solves` and `generation` are deliberately excluded. `solves` counts
// speculative solve *events* (see [`VarCtx::solve_events`]), which vary
// with search effort (e.g. the hint index on/off) even when the resulting
// proof state is identical; `generation` is a cache-invalidation stamp
// ([`VarCtx::generation`]) whose raw value depends on global allocation
// order. Trace snapshots embed a `VarCtx` and are compared via `Debug`,
// so neither may leak into the rendering.
impl fmt::Debug for VarCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VarCtx")
            .field("vars", &self.vars)
            .field("evars", &self.evars)
            .field("level", &self.level)
            .finish()
    }
}

impl VarCtx {
    #[must_use]
    /// An empty context at level 0.
    pub fn new() -> VarCtx {
        VarCtx::default()
    }

    /// The current scope level.
    #[must_use]
    pub fn level(&self) -> Level {
        self.level
    }

    /// Enters a deeper scope (called when universal variables are about to be
    /// introduced, e.g. on invariant opening). Returns the new level.
    pub fn push_level(&mut self) -> Level {
        self.level += 1;
        self.level
    }

    /// Creates a fresh universal variable at the *current* level.
    pub fn fresh_var(&mut self, sort: Sort, name: &str) -> VarId {
        let id = VarId(u32::try_from(self.vars.len()).expect("too many variables"));
        self.vars.push(VarInfo {
            sort,
            level: self.level,
            name: name.to_owned(),
        });
        id
    }

    /// Creates a fresh universal variable at the *base* level (level 0).
    ///
    /// Used for allocation witnesses (fresh ghost names): a freshly
    /// allocated name depends on nothing in the context, so evars of any
    /// scope may be instantiated with it.
    pub fn fresh_var_base(&mut self, sort: Sort, name: &str) -> VarId {
        let id = VarId(u32::try_from(self.vars.len()).expect("too many variables"));
        self.vars.push(VarInfo {
            sort,
            level: 0,
            name: name.to_owned(),
        });
        id
    }

    /// Creates a fresh evar at the *current* level.
    pub fn fresh_evar(&mut self, sort: Sort) -> EVarId {
        let id = EVarId(u32::try_from(self.evars.len()).expect("too many evars"));
        self.evars.push(EVarInfo {
            sort,
            level: self.level,
            solution: None,
        });
        id
    }

    /// Appends a variable with explicit metadata, bypassing the
    /// current-level discipline (trace deserialization support: recorded
    /// contexts interleave levels in ways [`fresh_var`]/[`fresh_var_base`]
    /// cannot replay). The checker re-validates deserialized traces, so
    /// malformed input can at worst make replay fail.
    ///
    /// [`fresh_var`]: VarCtx::fresh_var
    /// [`fresh_var_base`]: VarCtx::fresh_var_base
    pub fn push_raw_var(&mut self, sort: Sort, level: Level, name: &str) -> VarId {
        let id = VarId(u32::try_from(self.vars.len()).expect("too many variables"));
        self.vars.push(VarInfo {
            sort,
            level,
            name: name.to_owned(),
        });
        id
    }

    /// Appends an evar with explicit metadata (trace deserialization
    /// support, see [`VarCtx::push_raw_var`]).
    pub fn push_raw_evar(&mut self, sort: Sort, level: Level, solution: Option<Term>) -> EVarId {
        let id = EVarId(u32::try_from(self.evars.len()).expect("too many evars"));
        if let Some(t) = &solution {
            self.sol_fp ^= sol_entry_fp(id, t);
        }
        self.evars.push(EVarInfo {
            sort,
            level,
            solution,
        });
        self.generation = fresh_gen();
        id
    }

    /// Sets the current scope level directly (trace deserialization
    /// support; the search itself only ever calls [`VarCtx::push_level`]).
    pub fn set_level(&mut self, level: Level) {
        self.level = level;
    }

    #[must_use]
    /// The sort of a variable.
    pub fn var_sort(&self, v: VarId) -> Sort {
        self.vars[v.index()].sort
    }

    #[must_use]
    /// The scope level a variable was created at.
    pub fn var_level(&self, v: VarId) -> Level {
        self.vars[v.index()].level
    }

    #[must_use]
    /// The display name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    #[must_use]
    /// The sort of an evar.
    pub fn evar_sort(&self, e: EVarId) -> Sort {
        self.evars[e.index()].sort
    }

    #[must_use]
    /// The scope level an evar was created at.
    pub fn evar_level(&self, e: EVarId) -> Level {
        self.evars[e.index()].level
    }

    /// The recorded solution of an evar, if any (not recursively resolved;
    /// use [`Term::zonk`]).
    #[must_use]
    pub fn evar_solution(&self, e: EVarId) -> Option<&Term> {
        self.evars[e.index()].solution.as_ref()
    }

    /// Whether the evar is still unsolved.
    #[must_use]
    pub fn evar_unsolved(&self, e: EVarId) -> bool {
        self.evars[e.index()].solution.is_none()
    }

    /// Number of variables allocated so far.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of evars allocated so far.
    #[must_use]
    pub fn num_evars(&self) -> usize {
        self.evars.len()
    }

    /// Records a solution for an evar **without** scope or occurs checking.
    ///
    /// This is the raw operation; [`crate::unify::unify`] performs the
    /// checked assignment. It is exposed for the proof checker, which
    /// re-validates assignments independently.
    ///
    /// # Panics
    ///
    /// Panics if the evar is already solved.
    pub fn solve_evar(&mut self, e: EVarId, t: Term) {
        let info = &mut self.evars[e.index()];
        assert!(info.solution.is_none(), "evar {e} solved twice");
        self.sol_fp ^= sol_entry_fp(e, &t);
        info.solution = Some(t);
        self.solves += 1;
        self.generation = fresh_gen();
    }

    /// The current solution generation: a stamp identifying the recorded
    /// evar-solution state. It changes whenever that state may have changed
    /// (solving, [`VarCtx::map_solutions`], raw evar pushes) and is
    /// *restored* by a rollback that provably re-creates the checkpointed
    /// state. Two reads returning the same stamp guarantee zonk/normalize
    /// results are interchangeable, so [`crate::intern`] keys its memo
    /// tables on it.
    ///
    /// Stamps are globally unique across all contexts (clones share a stamp
    /// only until either side mutates), unlike [`VarCtx::solve_events`],
    /// which is a per-context effort counter that does **not** change on
    /// rollback and therefore cannot key a cache soundly.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A content fingerprint of the recorded solution map: two contexts
    /// with equal fingerprints hold the same `(evar, solution)` entries
    /// (up to 64-bit hash collision, the same risk class as every other
    /// memo key in [`crate::intern`]). Unlike [`VarCtx::generation`] —
    /// which stamps mutation *events*, so two probes that reach the same
    /// solution state through different solve/rollback histories get
    /// different stamps — the fingerprint depends only on the state
    /// itself: a speculative solve that is later re-done identically, or
    /// two branch clones converging on the same instantiation, produce
    /// the same fingerprint and therefore share every cache keyed on it
    /// (zonk memo, entailment verdicts, the e-graph's asserted base).
    #[must_use]
    pub fn solution_fp(&self) -> u64 {
        self.sol_fp
    }

    /// Monotonic count of evar solve *events* in this context's history,
    /// **including** speculative solutions later erased by [`rollback`]
    /// (the counter is never decremented, and clones inherit it). This is
    /// an instrumentation channel — telemetry reads deltas of it to
    /// attribute unification effort — and has no semantic content.
    ///
    /// [`rollback`]: VarCtx::rollback
    #[must_use]
    pub fn solve_events(&self) -> u64 {
        self.solves
    }

    /// Applies a function to every recorded evar solution (used when the
    /// proof engine substitutes a universal variable away: solutions may
    /// mention it too).
    pub fn map_solutions(&mut self, f: impl Fn(&Term) -> Term) {
        self.sol_fp = 0;
        for (i, info) in self.evars.iter_mut().enumerate() {
            if let Some(sol) = &info.solution {
                let sol = f(sol);
                self.sol_fp ^= sol_entry_fp(EVarId(i as u32), &sol);
                info.solution = Some(sol);
            }
        }
        self.maps += 1;
        self.generation = fresh_gen();
    }

    /// Lowers the level of an evar (level pruning). The level can only
    /// decrease; attempts to raise it are ignored.
    pub fn lower_evar_level(&mut self, e: EVarId, level: Level) {
        let info = &mut self.evars[e.index()];
        if level < info.level {
            info.level = level;
        }
    }

    /// Checks the §3.2 scope discipline: may an evar at `level` be solved by
    /// `t`? All free variables of `t` must have been introduced at or below
    /// that level. Evars inside `t` are acceptable at any level — they get
    /// *pruned* (lowered) to `level` by the caller.
    #[must_use]
    pub fn scope_check(&self, level: Level, t: &Term) -> bool {
        t.free_vars().iter().all(|v| self.var_level(*v) <= level)
    }

    /// A checkpoint for undoing speculative work (hint matching performs
    /// local backtracking).
    #[must_use]
    pub fn checkpoint(&self) -> VarCtxMark {
        VarCtxMark {
            num_vars: self.vars.len(),
            num_evars: self.evars.len(),
            level: self.level,
            solved: self
                .evars
                .iter()
                .enumerate()
                .filter(|(_, i)| i.solution.is_some())
                .map(|(i, _)| EVarId(i as u32))
                .collect(),
            levels: self.evars.iter().map(|i| i.level).collect(),
            generation: self.generation,
            maps: self.maps,
        }
    }

    /// Rolls back to a checkpoint: newly created vars/evars are dropped and
    /// solutions recorded since the mark are erased.
    ///
    /// When every mutation since the mark is one rollback can undo (solves,
    /// fresh entities, level changes — everything except
    /// [`VarCtx::map_solutions`], which rewrites solutions in place), the
    /// restored state is bitwise the checkpointed one, so the checkpoint's
    /// generation stamp is restored too. That is what lets the
    /// [`crate::intern`] memo tables stay warm across the speculative
    /// probe loops of hint matching, which checkpoint/rollback constantly.
    ///
    /// # Panics
    ///
    /// Panics if entities created before the mark were removed (cannot
    /// happen through the public API).
    pub fn rollback(&mut self, mark: &VarCtxMark) {
        assert!(self.vars.len() >= mark.num_vars);
        assert!(self.evars.len() >= mark.num_evars);
        self.vars.truncate(mark.num_vars);
        for (i, info) in self.evars.iter().enumerate().skip(mark.num_evars) {
            if let Some(sol) = &info.solution {
                self.sol_fp ^= sol_entry_fp(EVarId(i as u32), sol);
            }
        }
        self.evars.truncate(mark.num_evars);
        self.level = mark.level;
        let mut erased_fp = 0u64;
        for (i, info) in self.evars.iter_mut().enumerate() {
            let id = EVarId(i as u32);
            if info.solution.is_some() && !mark.solved.contains(&id) {
                erased_fp ^= sol_entry_fp(id, info.solution.as_ref().expect("checked"));
                info.solution = None;
            }
            info.level = mark.levels[i];
        }
        self.sol_fp ^= erased_fp;
        self.generation = if self.maps == mark.maps {
            mark.generation
        } else {
            fresh_gen()
        };
    }
}

/// An undo point produced by [`VarCtx::checkpoint`].
#[derive(Debug, Clone)]
pub struct VarCtxMark {
    num_vars: usize,
    num_evars: usize,
    level: Level,
    solved: Vec<EVarId>,
    levels: Vec<Level>,
    generation: u64,
    maps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vars_record_level() {
        let mut ctx = VarCtx::new();
        let a = ctx.fresh_var(Sort::Int, "a");
        ctx.push_level();
        let b = ctx.fresh_var(Sort::Int, "b");
        assert_eq!(ctx.var_level(a), 0);
        assert_eq!(ctx.var_level(b), 1);
        assert_eq!(ctx.var_name(b), "b");
    }

    #[test]
    fn scope_check_rejects_later_vars() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        let lvl = ctx.evar_level(e);
        ctx.push_level();
        let z = ctx.fresh_var(Sort::Int, "z");
        // The paper's unsound FAA derivation: ?z1 must not unify with z.
        assert!(!ctx.scope_check(lvl, &Term::var(z)));
        assert!(ctx.scope_check(lvl, &Term::int(3)));
    }

    #[test]
    fn level_pruning_only_lowers() {
        let mut ctx = VarCtx::new();
        ctx.push_level();
        ctx.push_level();
        let e = ctx.fresh_evar(Sort::Int);
        assert_eq!(ctx.evar_level(e), 2);
        ctx.lower_evar_level(e, 1);
        assert_eq!(ctx.evar_level(e), 1);
        ctx.lower_evar_level(e, 3);
        assert_eq!(ctx.evar_level(e), 1);
    }

    #[test]
    fn rollback_undoes_solutions_and_freshness() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        let mark = ctx.checkpoint();
        let f = ctx.fresh_evar(Sort::Int);
        ctx.solve_evar(e, Term::int(1));
        ctx.solve_evar(f, Term::int(2));
        ctx.push_level();
        ctx.rollback(&mark);
        assert_eq!(ctx.num_evars(), 1);
        assert!(ctx.evar_unsolved(e));
        assert_eq!(ctx.level(), 0);
    }

    #[test]
    fn solve_events_survive_rollback() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        let mark = ctx.checkpoint();
        ctx.solve_evar(e, Term::int(1));
        assert_eq!(ctx.solve_events(), 1);
        ctx.rollback(&mark);
        // The solution is erased but the effort counter is monotonic.
        assert!(ctx.evar_unsolved(e));
        assert_eq!(ctx.solve_events(), 1);
        // ... and it stays out of the Debug rendering, which trace
        // equivalence tests compare byte-for-byte.
        assert!(!format!("{ctx:?}").contains("solves"));
    }

    /// Stamps must stay globally unique when contexts evolve on several
    /// threads at once: pool workers mutate their own `VarCtx`s
    /// concurrently, and the `(TermId, generation)` memo keys in
    /// `crate::intern` are only sound if no two mutation events — on any
    /// thread — ever share a stamp.
    #[test]
    fn generation_stamps_unique_across_threads() {
        use std::collections::HashSet;
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut ctx = VarCtx::new();
                    let mut seen = Vec::with_capacity(64);
                    for i in 0..64 {
                        let e = ctx.fresh_evar(Sort::Int);
                        ctx.solve_evar(e, Term::int(i128::from(t) * 100 + i));
                        seen.push(ctx.generation());
                    }
                    seen
                })
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for g in h.join().expect("stamping thread panicked") {
                assert!(all.insert(g), "generation stamp {g} issued twice");
            }
        }
        assert_eq!(all.len(), 8 * 64);
    }

    #[test]
    fn raw_reconstruction_round_trips() {
        let mut ctx = VarCtx::new();
        ctx.push_level();
        let a = ctx.fresh_var(Sort::Int, "a");
        let _ = ctx.fresh_var_base(Sort::Loc, "l");
        let e = ctx.fresh_evar(Sort::Int);
        ctx.solve_evar(e, Term::var(a));

        let mut rebuilt = VarCtx::new();
        for i in 0..ctx.num_vars() {
            let v = VarId::from_index(i);
            rebuilt.push_raw_var(ctx.var_sort(v), ctx.var_level(v), ctx.var_name(v));
        }
        for i in 0..ctx.num_evars() {
            let ev = EVarId::from_index(i);
            rebuilt.push_raw_evar(
                ctx.evar_sort(ev),
                ctx.evar_level(ev),
                ctx.evar_solution(ev).cloned(),
            );
        }
        rebuilt.set_level(ctx.level());
        assert_eq!(format!("{ctx:?}"), format!("{rebuilt:?}"));
    }

    #[test]
    #[should_panic(expected = "solved twice")]
    fn double_solve_panics() {
        let mut ctx = VarCtx::new();
        let e = ctx.fresh_evar(Sort::Int);
        ctx.solve_evar(e, Term::int(1));
        ctx.solve_evar(e, Term::int(2));
    }
}
