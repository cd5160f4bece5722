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
//!
//! Proof traces snapshot the whole context at every pure obligation, and
//! the search clones it at every branch, so a [`VarCtx`] is built to be
//! cloned: variables and evars live in a chunked store of `Arc`-shared,
//! fixed-size chunks. A clone copies one pointer per chunk, a write
//! copies only the chunk it touches and only while that chunk is still
//! shared, and the bulk rewrites ([`VarCtx::map_solutions`],
//! [`VarCtx::rollback`]) leave every chunk they do not change shared with
//! the snapshots that hold it. Variable names are `Arc<str>`, so copying
//! a chunk allocates no strings.

use crate::sort::Sort;
use crate::term::Term;
use std::fmt;
use std::sync::Arc;

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
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    /// The sort of the variable.
    pub sort: Sort,
    /// Scope level at which the variable was introduced.
    pub level: Level,
    /// A human-readable name hint for display.
    pub name: Arc<str>,
}

/// Metadata for an existential variable.
#[derive(Debug, Clone, PartialEq)]
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

/// Entries per chunk of a [`Chunked`] store.
const CHUNK: usize = 32;

/// A vector stored as `Arc`-shared chunks of [`CHUNK`] entries: every
/// chunk but the last is full, and the last is non-empty. Cloning copies
/// one pointer per chunk; every write goes through `Arc::make_mut`, so it
/// copies the one chunk it touches, and only while a clone still shares
/// it.
#[derive(Clone)]
struct Chunked<T> {
    chunks: Vec<Arc<Vec<T>>>,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked { chunks: Vec::new() }
    }
}

/// Renders exactly as `Vec<T>` does: trace snapshots are compared
/// through their `Debug` text.
impl<T: fmt::Debug> fmt::Debug for Chunked<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> Chunked<T> {
    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    fn get(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// For each entry, in order: whether `old` holds an equal entry at the
    /// same index. Chunks shared with `old` by pointer are not looked at.
    fn unchanged<'a>(&'a self, old: &'a Chunked<T>) -> impl Iterator<Item = bool> + 'a
    where
        T: PartialEq,
    {
        self.chunks.iter().enumerate().flat_map(move |(c, chunk)| {
            let old = old.chunks.get(c);
            let shared = old.is_some_and(|o| Arc::ptr_eq(o, chunk));
            chunk
                .iter()
                .enumerate()
                .map(move |(j, t)| shared || old.and_then(|o| o.get(j)).is_some_and(|o| o == t))
        })
    }
}

impl<T: Clone> Chunked<T> {
    fn get_mut(&mut self, i: usize) -> &mut T {
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }

    fn push(&mut self, t: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => {
                if Arc::get_mut(last).is_none() {
                    // Copy the shared chunk once, with room to fill it.
                    let mut copy = Vec::with_capacity(CHUNK);
                    copy.extend_from_slice(last);
                    *last = Arc::new(copy);
                }
                Arc::make_mut(last).push(t);
            }
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(t);
                self.chunks.push(Arc::new(chunk));
            }
        }
    }

    fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        self.chunks.truncate(len.div_ceil(CHUNK));
        if !len.is_multiple_of(CHUNK) {
            let last = self.chunks.last_mut().expect("len > 0 keeps a chunk");
            Arc::make_mut(last).truncate(len % CHUNK);
        }
    }

    /// Replaces entry `i` by `f(i, entry, base entry)` wherever `f`
    /// returns one. Chunks shared with `base` by pointer are skipped, so
    /// `f` must return `None` whenever the two entries are equal; with no
    /// `base`, every entry is visited. A chunk is copied only when one of
    /// its entries is replaced.
    fn rewrite(
        &mut self,
        base: Option<&Chunked<T>>,
        mut f: impl FnMut(usize, &T, Option<&T>) -> Option<T>,
    ) {
        for c in 0..self.chunks.len() {
            let base = base.and_then(|b| b.chunks.get(c));
            if base.is_some_and(|b| Arc::ptr_eq(b, &self.chunks[c])) {
                continue;
            }
            for j in 0..self.chunks[c].len() {
                if let Some(t) = f(
                    c * CHUNK + j,
                    &self.chunks[c][j],
                    base.and_then(|b| b.get(j)),
                ) {
                    Arc::make_mut(&mut self.chunks[c])[j] = t;
                }
            }
        }
    }
}

/// The arena of variables and evars for one verification, together with the
/// current scope level.
#[derive(Clone, Default)]
pub struct VarCtx {
    vars: Chunked<VarInfo>,
    evars: Chunked<EVarInfo>,
    level: Level,
    solves: u64,
    /// Count of in-place solution rewrites ([`VarCtx::map_solutions`]) —
    /// the one mutation [`VarCtx::rollback`] cannot undo. Used to decide
    /// whether a rollback may restore the checkpoint's evar store
    /// outright.
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

// `solves` is deliberately excluded: it counts speculative solve
// *events* (see [`VarCtx::solve_events`]), which vary with search effort
// (e.g. the hint index on/off) even when the resulting proof state is
// identical. Trace snapshots embed a `VarCtx` and are compared via
// `Debug`, so it may not leak into the rendering.
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
            name: name.into(),
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
            name: name.into(),
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
            name: name.into(),
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
        self.vars.get(v.index()).sort
    }

    #[must_use]
    /// The scope level a variable was created at.
    pub fn var_level(&self, v: VarId) -> Level {
        self.vars.get(v.index()).level
    }

    #[must_use]
    /// The display name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars.get(v.index()).name
    }

    #[must_use]
    /// The sort of an evar.
    pub fn evar_sort(&self, e: EVarId) -> Sort {
        self.evars.get(e.index()).sort
    }

    #[must_use]
    /// The scope level an evar was created at.
    pub fn evar_level(&self, e: EVarId) -> Level {
        self.evars.get(e.index()).level
    }

    /// The recorded solution of an evar, if any (not recursively resolved;
    /// use [`Term::zonk`]).
    #[must_use]
    pub fn evar_solution(&self, e: EVarId) -> Option<&Term> {
        self.evars.get(e.index()).solution.as_ref()
    }

    /// Whether the evar is still unsolved.
    #[must_use]
    pub fn evar_unsolved(&self, e: EVarId) -> bool {
        self.evars.get(e.index()).solution.is_none()
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
        assert!(self.evar_unsolved(e), "evar {e} solved twice");
        self.sol_fp ^= sol_entry_fp(e, &t);
        self.evars.get_mut(e.index()).solution = Some(t);
        self.solves += 1;
    }

    /// A content fingerprint of the recorded solution map: two contexts
    /// with equal fingerprints hold the same `(evar, solution)` entries
    /// (up to 64-bit hash collision). It depends only on the state, not
    /// on the solve/rollback history that reached it, so a speculative
    /// solve that is rolled back and re-done identically leaves it
    /// unchanged. The e-graph compares it to decide whether its asserted
    /// base is stale ([`crate::solver::egraph::EGraph`]).
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
    ///
    /// Only entries whose solution actually changes are written, so
    /// snapshots keep sharing every chunk the rewrite leaves alone.
    pub fn map_solutions(&mut self, f: impl Fn(&Term) -> Term) {
        let mut fp = self.sol_fp;
        self.evars.rewrite(None, |i, info, _| {
            let old = info.solution.as_ref()?;
            let new = f(old);
            if new == *old {
                return None;
            }
            let id = EVarId(i as u32);
            fp ^= sol_entry_fp(id, old) ^ sol_entry_fp(id, &new);
            Some(EVarInfo {
                solution: Some(new),
                ..info.clone()
            })
        });
        self.sol_fp = fp;
        self.maps += 1;
    }

    /// Lowers the level of an evar (level pruning). The level can only
    /// decrease; attempts to raise it are ignored.
    pub fn lower_evar_level(&mut self, e: EVarId, level: Level) {
        if level < self.evar_level(e) {
            self.evars.get_mut(e.index()).level = level;
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

    /// For each variable, in order: whether `old` has one with the same
    /// sort, level and name at the same index. Chunks shared with `old`
    /// are not looked at.
    pub fn unchanged_vars<'a>(&'a self, old: &'a VarCtx) -> impl Iterator<Item = bool> + 'a {
        self.vars.unchanged(&old.vars)
    }

    /// For each evar, in order: whether `old` has one with the same sort,
    /// level and solution at the same index. Chunks shared with `old` are
    /// not looked at.
    pub fn unchanged_evars<'a>(&'a self, old: &'a VarCtx) -> impl Iterator<Item = bool> + 'a {
        self.evars.unchanged(&old.evars)
    }

    /// The context cut to its first `num_vars` variables and `num_evars`
    /// evars, at the same level. The copy shares storage with `self`, and
    /// its [`VarCtx::solution_fp`] covers exactly the kept solutions.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds the context's.
    #[must_use]
    pub fn prefix(&self, num_vars: usize, num_evars: usize) -> VarCtx {
        assert!(num_vars <= self.num_vars() && num_evars <= self.num_evars());
        let mut out = self.clone();
        out.vars.truncate(num_vars);
        if num_evars < self.num_evars() {
            out.truncate_evars(num_evars);
        }
        out
    }

    /// Drops the evars from index `len` on, erasing their solutions from
    /// the fingerprint.
    fn truncate_evars(&mut self, len: usize) {
        for (i, info) in self.evars.iter().enumerate().skip(len) {
            if let Some(sol) = &info.solution {
                self.sol_fp ^= sol_entry_fp(EVarId(i as u32), sol);
            }
        }
        self.evars.truncate(len);
    }

    /// A checkpoint for undoing speculative work (hint matching performs
    /// local backtracking). It holds a clone of the evar store, which
    /// costs one pointer copy per chunk.
    #[must_use]
    pub fn checkpoint(&self) -> VarCtxMark {
        VarCtxMark {
            num_vars: self.vars.len(),
            evars: self.evars.clone(),
            level: self.level,
            sol_fp: self.sol_fp,
            maps: self.maps,
        }
    }

    /// Rolls back to a checkpoint: newly created vars/evars are dropped and
    /// solutions recorded since the mark are erased.
    ///
    /// When every mutation since the mark is one rollback can undo (solves,
    /// fresh entities, level changes — everything except
    /// [`VarCtx::map_solutions`], which rewrites solutions in place), the
    /// restored state is bitwise the checkpointed one, so the mark's copy
    /// of the evar store is put back outright. That keeps rollback cheap
    /// in the speculative probe loops of hint matching, which
    /// checkpoint/rollback constantly.
    ///
    /// # Panics
    ///
    /// Panics if entities created before the mark were removed (cannot
    /// happen through the public API).
    pub fn rollback(&mut self, mark: &VarCtxMark) {
        assert!(self.vars.len() >= mark.num_vars);
        assert!(self.evars.len() >= mark.evars.len());
        self.vars.truncate(mark.num_vars);
        self.level = mark.level;
        if self.maps == mark.maps {
            // Nothing since the mark rewrote a solution in place, so the
            // mark's copy of the evars is exactly the state to restore.
            self.evars = mark.evars.clone();
            self.sol_fp = mark.sol_fp;
            return;
        }
        self.truncate_evars(mark.evars.len());
        // Erase the solutions the mark did not have and restore the
        // levels, keeping the rewritten solutions of evars it had solved.
        let mut fp = self.sol_fp;
        self.evars.rewrite(Some(&mark.evars), |i, info, old| {
            let old = old.expect("evars were truncated to the mark's");
            let erase = info.solution.is_some() && old.solution.is_none();
            if !erase && info.level == old.level {
                return None;
            }
            let solution = if erase {
                fp ^= sol_entry_fp(EVarId(i as u32), info.solution.as_ref().expect("checked"));
                None
            } else {
                info.solution.clone()
            };
            Some(EVarInfo {
                sort: info.sort,
                level: old.level,
                solution,
            })
        });
        self.sol_fp = fp;
    }
}

/// An undo point produced by [`VarCtx::checkpoint`].
#[derive(Debug, Clone)]
pub struct VarCtxMark {
    num_vars: usize,
    /// The evar store at the mark, sharing its chunks with the context.
    evars: Chunked<EVarInfo>,
    level: Level,
    sol_fp: u64,
    maps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum StoreOp {
        Push(u32),
        /// Truncate to `n % (len + 1)`.
        Truncate(usize),
        /// Overwrite entry `i % len` (no-op when empty).
        Set(usize, u32),
        /// Clone the store, mutate the clone, and check that the original
        /// did not move.
        MutateClone(usize, u32),
    }

    fn store_op() -> impl Strategy<Value = StoreOp> {
        prop_oneof![
            (0u32..1000).prop_map(StoreOp::Push),
            prop_oneof![
                Just(31usize),
                Just(32),
                Just(33),
                Just(64),
                Just(65),
                0usize..70
            ]
            .prop_map(StoreOp::Truncate),
            (0usize..1000, 0u32..1000).prop_map(|(i, x)| StoreOp::Set(i, x)),
            (0usize..1000, 0u32..1000).prop_map(|(i, x)| StoreOp::MutateClone(i, x)),
        ]
    }

    fn assert_matches(store: &Chunked<u32>, model: &[u32]) {
        assert_eq!(store.len(), model.len());
        assert!(store.iter().eq(model.iter()));
        for (i, x) in model.iter().enumerate() {
            assert_eq!(store.get(i), x);
        }
        // Trace snapshots are compared through `Debug`, plain and pretty.
        assert_eq!(format!("{store:?}"), format!("{model:?}"));
        assert_eq!(format!("{store:#?}"), format!("{model:#?}"));
    }

    proptest! {
        /// The chunked store behaves as a `Vec` across chunk boundaries,
        /// and a write to a clone never shows through to the original.
        #[test]
        fn chunked_store_matches_vec_model(
            start in prop_oneof![Just(0usize), Just(31), Just(32), Just(33), Just(64), Just(65)],
            ops in prop::collection::vec(store_op(), 1..60),
        ) {
            let mut store = Chunked::default();
            let mut model: Vec<u32> = Vec::new();
            for x in 0..start as u32 {
                store.push(x);
                model.push(x);
            }
            assert_matches(&store, &model);
            for op in ops {
                match op {
                    StoreOp::Push(x) => {
                        store.push(x);
                        model.push(x);
                    }
                    StoreOp::Truncate(n) => {
                        let n = n % (model.len() + 1);
                        store.truncate(n);
                        model.truncate(n);
                    }
                    StoreOp::Set(i, x) if !model.is_empty() => {
                        let i = i % model.len();
                        *store.get_mut(i) = x;
                        model[i] = x;
                    }
                    StoreOp::MutateClone(i, x) => {
                        let mut copy = store.clone();
                        let mut copy_model = model.clone();
                        if !model.is_empty() {
                            let i = i % model.len();
                            *copy.get_mut(i) = x;
                            copy_model[i] = x;
                        }
                        copy.push(x);
                        copy_model.push(x);
                        if model.len() > 1 {
                            copy.truncate(model.len() - 1);
                            copy_model.truncate(model.len() - 1);
                        }
                        assert_matches(&copy, &copy_model);
                    }
                    StoreOp::Set(..) => {}
                }
                assert_matches(&store, &model);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum MarkOp {
        FreshEvar,
        PushLevel,
        /// Solve evar `i % len` if it is unsolved.
        Solve(usize),
        /// Lower evar `i % len` to level 0.
        Lower(usize),
        /// Add one to every integer solution.
        MapSolutions,
        /// Rewrite every solution to itself (a no-op rewrite).
        MapIdentity,
        Checkpoint,
        Rollback,
    }

    fn mark_op() -> impl Strategy<Value = MarkOp> {
        prop_oneof![
            Just(MarkOp::FreshEvar),
            Just(MarkOp::FreshEvar),
            Just(MarkOp::PushLevel),
            (0usize..100).prop_map(MarkOp::Solve),
            (0usize..100).prop_map(MarkOp::Lower),
            Just(MarkOp::MapSolutions),
            Just(MarkOp::MapIdentity),
            Just(MarkOp::Checkpoint),
            Just(MarkOp::Rollback),
        ]
    }

    /// `(level, solution)` per evar: the flat reference model.
    type Model = Vec<(Level, Option<i128>)>;

    fn model_fp(model: &Model) -> u64 {
        model
            .iter()
            .enumerate()
            .fold(0, |fp, (i, (_, sol))| match sol {
                Some(n) => fp ^ sol_entry_fp(EVarId(i as u32), &Term::int(*n)),
                None => fp,
            })
    }

    proptest! {
        /// Rollback against a flat model of the pre-chunking semantics:
        /// it erases the solutions the mark did not have, restores levels,
        /// and keeps solutions rewritten since the mark; the solution
        /// fingerprint always equals the one recomputed from scratch.
        #[test]
        fn rollback_matches_flat_model(
            start in 0usize..70,
            ops in prop::collection::vec(mark_op(), 1..80),
        ) {
            let mut ctx = VarCtx::new();
            let mut model: Model = Vec::new();
            let mut marks: Vec<(VarCtxMark, Level, Model)> = Vec::new();
            for _ in 0..start {
                ctx.fresh_evar(Sort::Int);
                model.push((0, None));
            }
            for op in ops {
                match op {
                    MarkOp::FreshEvar => {
                        ctx.fresh_evar(Sort::Int);
                        model.push((ctx.level(), None));
                    }
                    MarkOp::PushLevel => {
                        ctx.push_level();
                    }
                    MarkOp::Solve(i) if !model.is_empty() => {
                        let i = i % model.len();
                        if model[i].1.is_none() {
                            ctx.solve_evar(EVarId(i as u32), Term::int(i as i128));
                            model[i].1 = Some(i as i128);
                        }
                    }
                    MarkOp::Lower(i) if !model.is_empty() => {
                        let i = i % model.len();
                        ctx.lower_evar_level(EVarId(i as u32), 0);
                        model[i].0 = 0;
                    }
                    MarkOp::MapSolutions => {
                        ctx.map_solutions(|t| match t {
                            Term::Int(n) => Term::int(n + 1),
                            t => t.clone(),
                        });
                        for (_, sol) in &mut model {
                            if let Some(n) = sol {
                                *n += 1;
                            }
                        }
                    }
                    MarkOp::MapIdentity => {
                        let before = ctx.evars.clone();
                        ctx.map_solutions(Term::clone);
                        prop_assert!(before
                            .chunks
                            .iter()
                            .zip(&ctx.evars.chunks)
                            .all(|(a, b)| Arc::ptr_eq(a, b)));
                    }
                    MarkOp::Checkpoint => {
                        marks.push((ctx.checkpoint(), ctx.level(), model.clone()));
                    }
                    MarkOp::Rollback => {
                        if let Some((mark, level, old)) = marks.pop() {
                            ctx.rollback(&mark);
                            let rewritten = std::mem::take(&mut model);
                            model = old
                                .iter()
                                .zip(rewritten)
                                .map(|((lvl, was), (_, now))| (*lvl, was.and(now)))
                                .collect();
                            prop_assert_eq!(ctx.level(), level);
                        }
                    }
                    MarkOp::Solve(_) | MarkOp::Lower(_) => {}
                }
                prop_assert_eq!(ctx.num_evars(), model.len());
                for (i, (lvl, sol)) in model.iter().enumerate() {
                    let e = EVarId(i as u32);
                    prop_assert_eq!(ctx.evar_level(e), *lvl);
                    prop_assert_eq!(ctx.evar_solution(e).cloned(), sol.map(Term::int));
                }
                prop_assert_eq!(ctx.solution_fp(), model_fp(&model));
            }
        }
    }

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

    /// A prefix equals the context rebuilt from the kept entries alone,
    /// down to its solution fingerprint.
    #[test]
    fn prefix_matches_a_rebuilt_context() {
        let mut ctx = VarCtx::new();
        for i in 0..40 {
            ctx.fresh_var(Sort::Int, &format!("x{i}"));
            let e = ctx.fresh_evar(Sort::Int);
            if i % 3 == 0 {
                ctx.solve_evar(e, Term::int(i128::from(i)));
            }
        }
        for (nv, ne) in [(40, 40), (33, 32), (32, 31), (5, 0), (0, 34)] {
            let cut = ctx.prefix(nv, ne);
            let mut rebuilt = VarCtx::new();
            for i in 0..nv {
                let v = VarId::from_index(i);
                rebuilt.push_raw_var(ctx.var_sort(v), ctx.var_level(v), ctx.var_name(v));
            }
            for i in 0..ne {
                let e = EVarId::from_index(i);
                rebuilt.push_raw_evar(
                    ctx.evar_sort(e),
                    ctx.evar_level(e),
                    ctx.evar_solution(e).cloned(),
                );
            }
            assert_eq!(format!("{cut:?}"), format!("{rebuilt:?}"));
            assert_eq!(cut.solution_fp(), rebuilt.solution_fp());
        }
        assert_eq!(ctx.num_evars(), 40, "the source context is untouched");
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
