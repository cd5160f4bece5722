//! The incremental, backtrackable pure solver.
//!
//! [`EGraph`] keeps the congruence-closure and linear-arithmetic state of
//! a [`crate::solver::PureSolver`] *alive across queries and fact
//! changes*: `push_fact` is O(new literals), `truncate_facts` rolls the
//! union-find and constraint state back through the undo trail in
//! O(changes), and each entailment query asserts only the negated goal's
//! literals on top of the persistent base instead of re-asserting every
//! hypothesis. This matches the [`crate::evar::VarCtx`]
//! checkpoint/generation discipline: the search context pushes and
//! truncates facts in lockstep with its variable checkpoints, so the
//! solver backtracks with the search instead of being rebuilt per
//! obligation.
//!
//! **Verdict identity.** Every query answers exactly what the legacy
//! rebuild solver would: hypotheses are normalised by the shared
//! [`crate::solver::normalize_fact`], literals are asserted in the same
//! order through the shared [`crate::solver::add_literal`] dispatch,
//! disjunctive or `False`-containing states take the very same
//! case-splitting [`crate::solver::unsat`] search on byte-equal inputs,
//! and rollback restores the union-find parent array bit-for-bit
//! (including path-compression writes — constraint *order* feeds the
//! Fourier–Motzkin budget cutoff, so layout matters). The legacy
//! solver stays as the test-only reference these properties are checked
//! against (`tests/egraph_props.rs`).
//!
//! **Memoization.** Entailment verdicts are memoized in the interner
//! scope under `(version, goal hash, generation)`, where the version is a
//! hash-consed stamp allocated per `(parent version, literal hash)` pair:
//! two e-graphs that assert the same literal sequence (a branch clone and
//! its original, or an `Implies` goal re-deriving the same hypothesis)
//! reach the same version and share verdicts, replacing the facts
//! fingerprint keying of the legacy solver.

use super::congruence::{ClosureResult, Congruence, CongruenceMark};
use super::linear::{LinResult, Linear, LinearMark};
use super::{add_literal, flatten_literal, normalize_fact, prop_hash, unsat, MAX_OR_DEPTH};
use crate::evar::VarCtx;
use crate::pure::PureProp;
use crate::unify::unify;
use std::sync::atomic::{AtomicU64, Ordering};

/// Work counters for the incremental solver, aggregated per interner
/// scope and reported to telemetry by the verification entry points.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EGraphStats {
    /// Literals asserted into the persistent congruence/linear base.
    pub facts_asserted: u64,
    /// Union-find merges performed (unions survive in the base or were
    /// rolled back; both count — this measures work done).
    pub merges: u64,
    /// Undo operations replayed by rollbacks (trail pops, node removals,
    /// constraint truncations).
    pub undo_ops: u64,
    /// Uncached entailment queries answered on the persistent base.
    pub queries_incremental: u64,
    /// Uncached entailment queries that fell back to a from-scratch
    /// build (disjunctive state, or a base reset after evar churn).
    pub queries_rebuild: u64,
    /// Entailment queries answered from the scope's verdict memo.
    pub verdict_hits: u64,
    /// Entailment queries that missed the verdict memo.
    pub verdict_misses: u64,
}

/// Version stamps for literals pushed outside any interner scope: unique
/// (so they never alias a hash-consed stamp) and drawn from the top half
/// of the space (so they never collide with the interner's allocator).
fn fallback_version() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1 << 63);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn stat(f: impl FnOnce(&mut EGraphStats)) {
    crate::intern::egraph_stats_mut(f);
}

/// One recorded hypothesis literal (the output of
/// [`crate::solver::normalize_fact`]: `Eq`/`Ne`/`Le`/`Lt`/`Or`/`False`),
/// with the flags the query dispatch needs precomputed.
#[derive(Debug, Clone)]
struct Lit {
    prop: PureProp,
    has_evars: bool,
    disjunctive: bool,
    is_false: bool,
}

/// The persistent, backtrackable pure solver state.
///
/// Cloning is supported and cheap relative to a rebuild (the vectors and
/// maps are copied; nothing is re-asserted): the search context clones at
/// genuine branch points only, and each clone continues incrementally
/// from the shared prefix.
#[derive(Clone)]
pub struct EGraph {
    /// The interner-scope token this e-graph was built under; see
    /// [`EGraph::valid`].
    token: u64,
    /// Normalised hypothesis literals, in assertion order — byte-equal to
    /// the legacy solver's fact list over the same inputs.
    lits: Vec<Lit>,
    /// Hash-consed version stamp after each literal; `versions[i]` keys
    /// verdicts over `lits[..=i]`.
    versions: Vec<u64>,
    /// `fact_marks[k]` is the literal count before user-level fact `k`
    /// was pushed (one fact may normalise to several literals).
    fact_marks: Vec<usize>,
    /// Counts over `lits` of disjunctive, `False`, and evar-mentioning
    /// literals, maintained incrementally for O(1) query dispatch.
    or_lits: usize,
    false_lits: usize,
    evar_lits: usize,
    /// The persistent refutation base: `lits[..base_upto]` asserted, in
    /// order, with a pre-assert mark per literal for exact rollback.
    cc: Congruence,
    lin: Linear,
    base_upto: usize,
    base_marks: Vec<(CongruenceMark, LinearMark)>,
    /// Solution fingerprint ([`VarCtx::solution_fp`]) the base was last
    /// caught up under; when an asserted literal mentions an evar and the
    /// solution map has actually changed, the evar-mentioning suffix of
    /// the base is re-asserted (its zonked forms are stale). Ground
    /// prefixes survive every reset: zonk is the identity on them.
    base_gen: u64,
    /// Evar-mentioning literals among `lits[..base_upto]`.
    evar_asserted: usize,
    /// Union count already reported to [`EGraphStats::merges`].
    synced_unions: u64,
}

impl std::fmt::Debug for EGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EGraph")
            .field("facts", &self.fact_marks.len())
            .field("lits", &self.lits.len())
            .field("base_upto", &self.base_upto)
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

impl Default for EGraph {
    fn default() -> EGraph {
        EGraph::new()
    }
}

impl EGraph {
    /// An empty solver bound to the current interner scope (if any).
    #[must_use]
    pub fn new() -> EGraph {
        EGraph {
            token: crate::intern::scope_token().unwrap_or(u64::MAX),
            lits: Vec::new(),
            versions: Vec::new(),
            fact_marks: Vec::new(),
            or_lits: 0,
            false_lits: 0,
            evar_lits: 0,
            cc: Congruence::new(),
            lin: Linear::new(),
            base_upto: 0,
            base_marks: Vec::new(),
            base_gen: 0,
            evar_asserted: 0,
            synced_unions: 0,
        }
    }

    /// A solver over an existing fact list (the rebuild entry point used
    /// when no incremental state survived to the query site).
    #[must_use]
    pub fn from_facts(facts: &[PureProp]) -> EGraph {
        let mut eg = EGraph::new();
        for f in facts {
            eg.push_fact(f.clone());
        }
        eg
    }

    /// Whether this e-graph may serve queries under the current interner
    /// scope: its node keys and version stamps are only meaningful in the
    /// scope it was built in.
    #[must_use]
    pub fn valid(&self) -> bool {
        crate::intern::scope_token().unwrap_or(u64::MAX) == self.token
    }

    /// The number of user-level facts recorded (the unit
    /// [`EGraph::truncate_facts`] counts in).
    #[must_use]
    pub fn num_facts(&self) -> usize {
        self.fact_marks.len()
    }

    /// The hash-consed version identifying the current literal sequence.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.versions.last().copied().unwrap_or(0)
    }

    /// Records one hypothesis (normalising exactly as
    /// [`crate::solver::PureSolver::add_fact`] does). O(new literals).
    pub fn push_fact(&mut self, p: PureProp) {
        self.fact_marks.push(self.lits.len());
        self.push_lits(p);
    }

    /// Rolls back to the first `n` user-level facts, undoing every later
    /// assertion through the trail. O(changes).
    pub fn truncate_facts(&mut self, n: usize) {
        if n >= self.fact_marks.len() {
            return;
        }
        let target = self.fact_marks[n];
        self.fact_marks.truncate(n);
        self.rollback_lits(target);
    }

    fn push_lits(&mut self, p: PureProp) {
        let mut out = Vec::new();
        normalize_fact(p, &mut |lit| out.push(lit));
        for prop in out {
            self.push_lit(prop);
        }
    }

    fn push_lit(&mut self, prop: PureProp) {
        let parent = self.version();
        let version = crate::intern::egraph_version(parent, prop_hash(&prop))
            .unwrap_or_else(fallback_version);
        let lit = Lit {
            has_evars: prop.has_evars(),
            disjunctive: matches!(prop, PureProp::Or(..)),
            is_false: matches!(prop, PureProp::False),
            prop,
        };
        self.or_lits += usize::from(lit.disjunctive);
        self.false_lits += usize::from(lit.is_false);
        self.evar_lits += usize::from(lit.has_evars);
        self.lits.push(lit);
        self.versions.push(version);
    }

    /// Rolls the literal list (and the asserted base, where it reaches)
    /// back to length `n`.
    fn rollback_lits(&mut self, n: usize) {
        let mut undone = 0u64;
        while self.base_upto > n {
            self.base_upto -= 1;
            let (cm, lm) = self
                .base_marks
                .pop()
                .expect("one base mark per asserted literal");
            undone += self.cc.rollback(&cm);
            undone += self.lin.rollback(&lm);
            self.evar_asserted -= usize::from(self.lits[self.base_upto].has_evars);
        }
        for lit in &self.lits[n..] {
            self.or_lits -= usize::from(lit.disjunctive);
            self.false_lits -= usize::from(lit.is_false);
            self.evar_lits -= usize::from(lit.has_evars);
        }
        self.lits.truncate(n);
        self.versions.truncate(n);
        if undone > 0 {
            stat(|s| s.undo_ops += undone);
        }
    }

    /// Brings the persistent base up to date with the literal list.
    /// Returns whether this required a from-scratch re-assertion (base
    /// reset after evar-solution churn, or a previously empty base).
    ///
    /// Only called on the incremental query path, i.e. with no `Or` or
    /// `False` literal present — the base therefore only ever holds
    /// `Eq`/`Ne`/`Le`/`Lt` literals, asserted in list order, exactly as
    /// the legacy cached-base build does.
    fn catch_up(&mut self, ctx: &VarCtx) -> bool {
        let gen = ctx.solution_fp();
        let mut rebuilt = false;
        if self.evar_asserted > 0 && self.base_gen != gen {
            // An asserted literal mentions an evar and the solution map
            // differs from the one it was asserted under: its zonked form
            // is stale. Roll the base back to the first evar-mentioning
            // literal and re-assert from there — the ground prefix's
            // assertions are zonk-invariant, and re-asserting the suffix
            // in list order reproduces exactly the state a from-scratch
            // build would reach.
            let first_evar = self.lits[..self.base_upto]
                .iter()
                .position(|l| l.has_evars)
                .unwrap_or(self.base_upto);
            let mut undone = 0u64;
            while self.base_upto > first_evar {
                self.base_upto -= 1;
                let (cm, lm) = self
                    .base_marks
                    .pop()
                    .expect("one base mark per asserted literal");
                undone += self.cc.rollback(&cm);
                undone += self.lin.rollback(&lm);
                self.evar_asserted -= usize::from(self.lits[self.base_upto].has_evars);
            }
            if undone > 0 {
                stat(|s| s.undo_ops += undone);
            }
            rebuilt = true;
        }
        rebuilt |= self.base_upto == 0 && !self.lits.is_empty();
        let mut asserted = 0u64;
        while self.base_upto < self.lits.len() {
            self.base_marks.push((self.cc.mark(), self.lin.mark()));
            add_literal(
                &mut self.cc,
                &mut self.lin,
                ctx,
                &self.lits[self.base_upto].prop,
            );
            self.evar_asserted += usize::from(self.lits[self.base_upto].has_evars);
            self.base_upto += 1;
            asserted += 1;
        }
        self.base_gen = gen;
        if asserted > 0 {
            stat(|s| s.facts_asserted += asserted);
        }
        self.sync_merges();
        rebuilt
    }

    fn sync_merges(&mut self) {
        let total = self.cc.union_count();
        let delta = total.saturating_sub(self.synced_unions);
        if delta > 0 {
            stat(|s| s.merges += delta);
            self.synced_unions = total;
        }
    }

    /// Proves `goal` from the hypotheses, *possibly instantiating evars*.
    /// Mirrors [`crate::solver::PureSolver::prove`] decision-for-decision.
    pub fn prove(&mut self, ctx: &mut VarCtx, goal: &PureProp) -> bool {
        self.prove_inner(ctx, goal, true)
    }

    /// Proves `goal` without ever instantiating an evar (disjunction
    /// guard checks). Mirrors
    /// [`crate::solver::PureSolver::prove_frozen`].
    pub fn prove_frozen(&mut self, ctx: &mut VarCtx, goal: &PureProp) -> bool {
        self.prove_inner(ctx, goal, false)
    }

    /// Whether the hypotheses are contradictory.
    pub fn inconsistent(&mut self, ctx: &mut VarCtx) -> bool {
        self.entails(ctx, &PureProp::False)
    }

    fn prove_inner(&mut self, ctx: &mut VarCtx, goal: &PureProp, may_unify: bool) -> bool {
        let goal = goal.zonk(ctx);
        match &goal {
            PureProp::True => return true,
            PureProp::And(a, b) => {
                return self.prove_inner(ctx, a, may_unify) && self.prove_inner(ctx, b, may_unify)
            }
            PureProp::Implies(a, b) => {
                // The legacy solver clones itself and adds the hypothesis;
                // here the hypothesis is pushed onto the live state and
                // rolled back — same fact list, no rebuild.
                let lit_mark = self.lits.len();
                self.push_lits((**a).clone());
                let r = self.prove_inner(ctx, b, may_unify);
                self.rollback_lits(lit_mark);
                return r;
            }
            PureProp::Or(a, b) => {
                // Try either side without committing evars; then with.
                if self.prove_inner(ctx, a, false) || self.prove_inner(ctx, b, false) {
                    return true;
                }
                if may_unify {
                    let mark = ctx.checkpoint();
                    if self.prove_inner(ctx, a, true) {
                        return true;
                    }
                    ctx.rollback(&mark);
                    let mark = ctx.checkpoint();
                    if self.prove_inner(ctx, b, true) {
                        return true;
                    }
                    ctx.rollback(&mark);
                }
                return self.entails(ctx, &goal);
            }
            PureProp::Not(a) => return self.prove_inner(ctx, &a.negated(), may_unify),
            _ => {}
        }
        // Equality goals with evars: unification first.
        if may_unify && goal.has_evars() {
            if let PureProp::Eq(a, b) = &goal {
                let mark = ctx.checkpoint();
                if unify(ctx, a, b).is_ok() {
                    return true;
                }
                ctx.rollback(&mark);
            }
        }
        self.entails(ctx, &goal)
    }

    /// Refutation-based entailment, memoized under `(version, goal hash,
    /// solution fingerprint)` — the solution component dropping to 0 for
    /// fully ground queries exactly as the legacy key does.
    fn entails(&mut self, ctx: &mut VarCtx, goal: &PureProp) -> bool {
        let key_gen = if self.evar_lits > 0 || goal.has_evars() {
            ctx.solution_fp()
        } else {
            0
        };
        let key = (self.version(), prop_hash(goal), key_gen);
        if let Some(verdict) = crate::intern::egraph_cache_get(&key) {
            stat(|s| s.verdict_hits += 1);
            return verdict;
        }
        stat(|s| s.verdict_misses += 1);
        let verdict = self.entails_uncached(ctx, goal);
        crate::intern::egraph_cache_put(key, verdict);
        verdict
    }

    fn entails_uncached(&mut self, ctx: &mut VarCtx, goal: &PureProp) -> bool {
        let mut goal_flat = Vec::new();
        flatten_literal(&goal.negated(), &mut goal_flat);
        if self.or_lits > 0 || goal_flat.iter().any(|f| matches!(f, PureProp::Or(..))) {
            // Disjunctions need the case-splitting search; hand it the
            // byte-identical input the legacy solver would build.
            stat(|s| s.queries_rebuild += 1);
            let mut facts: Vec<PureProp> = self.lits.iter().map(|l| l.prop.clone()).collect();
            facts.push(goal.negated());
            return unsat(ctx, &facts, MAX_OR_DEPTH);
        }
        if self.false_lits > 0 || goal_flat.iter().any(|f| matches!(f, PureProp::False)) {
            stat(|s| s.queries_incremental += 1);
            return true;
        }
        let rebuilt = self.catch_up(ctx);
        stat(|s| {
            if rebuilt {
                s.queries_rebuild += 1;
            } else {
                s.queries_incremental += 1;
            }
        });
        // Assert the negated goal on top of the base, decide, roll back.
        let cm = self.cc.mark();
        let lm = self.lin.mark();
        for f in &goal_flat {
            add_literal(&mut self.cc, &mut self.lin, ctx, f);
        }
        let verdict = if self.cc.saturate(ctx) == ClosureResult::Contradiction {
            true
        } else {
            for d in self.cc.derived_numeric().to_vec() {
                self.lin.add_fact(ctx, &d);
            }
            self.lin.refute(ctx) == LinResult::Unsat
        };
        let undone = self.cc.rollback(&cm) + self.lin.rollback(&lm);
        if undone > 0 {
            stat(|s| s.undo_ops += undone);
        }
        self.sync_merges();
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::PureSolver;
    use crate::sort::Sort;
    use crate::term::Term;

    fn int_var(ctx: &mut VarCtx, n: &str) -> Term {
        Term::var(ctx.fresh_var(Sort::Int, n))
    }

    /// Both solvers over the same facts must agree on the goal.
    fn agree(ctx: &mut VarCtx, facts: &[PureProp], goal: &PureProp) -> bool {
        let legacy = PureSolver::new(facts).prove_frozen(&mut ctx.clone(), goal);
        let mut eg = EGraph::from_facts(facts);
        let incr = eg.prove_frozen(&mut ctx.clone(), goal);
        assert_eq!(legacy, incr, "solvers disagree on {goal:?} from {facts:?}");
        incr
    }

    #[test]
    fn matches_legacy_on_bounds() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let facts = [PureProp::lt(Term::int(0), z.clone())];
        assert!(agree(&mut ctx, &facts, &PureProp::le(Term::int(1), z.clone())));
        assert!(!agree(&mut ctx, &facts, &PureProp::le(Term::int(2), z)));
    }

    #[test]
    fn incremental_push_and_truncate() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let mut eg = EGraph::new();
        eg.push_fact(PureProp::lt(Term::int(0), z.clone()));
        assert!(eg.prove(&mut ctx, &PureProp::le(Term::int(1), z.clone())));
        assert!(!eg.prove(&mut ctx, &PureProp::le(Term::int(5), z.clone())));
        let n = eg.num_facts();
        eg.push_fact(PureProp::le(Term::int(5), z.clone()));
        assert!(eg.prove(&mut ctx, &PureProp::le(Term::int(5), z.clone())));
        eg.truncate_facts(n);
        assert!(!eg.prove(&mut ctx, &PureProp::le(Term::int(5), z.clone())));
        assert!(eg.prove(&mut ctx, &PureProp::le(Term::int(1), z)));
    }

    #[test]
    fn truncate_restores_congruence_state() {
        let mut ctx = VarCtx::new();
        let v = Term::var(ctx.fresh_var(Sort::Val, "v"));
        let w = Term::var(ctx.fresh_var(Sort::Val, "w"));
        let mut eg = EGraph::new();
        eg.push_fact(PureProp::eq(v.clone(), w.clone()));
        assert!(eg.prove(&mut ctx, &PureProp::eq(w.clone(), v.clone())));
        let n = eg.num_facts();
        eg.push_fact(PureProp::eq(v.clone(), Term::v_bool_lit(true)));
        assert!(eg.prove(&mut ctx, &PureProp::eq(w.clone(), Term::v_bool_lit(true))));
        eg.truncate_facts(n);
        assert!(!eg.prove(&mut ctx, &PureProp::eq(w.clone(), Term::v_bool_lit(true))));
        assert!(eg.prove(&mut ctx, &PureProp::eq(v, w)));
    }

    #[test]
    fn disjunctive_facts_match_legacy() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let facts = [PureProp::or(
            PureProp::eq(z.clone(), Term::int(1)),
            PureProp::eq(z.clone(), Term::int(2)),
        )];
        assert!(agree(&mut ctx, &facts, &PureProp::lt(Term::int(0), z.clone())));
        assert!(!agree(&mut ctx, &facts, &PureProp::eq(z, Term::int(1))));
    }

    #[test]
    fn implication_goal_rolls_back_hypothesis() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let mut eg = EGraph::new();
        assert!(eg.prove(
            &mut ctx,
            &PureProp::implies(
                PureProp::lt(Term::int(0), z.clone()),
                PureProp::le(Term::int(0), z.clone())
            )
        ));
        // The hypothesis must not leak.
        assert!(!eg.prove(&mut ctx, &PureProp::le(Term::int(0), z)));
        assert_eq!(eg.num_facts(), 0);
    }

    #[test]
    fn evar_generation_reset() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let e = ctx.fresh_evar(Sort::Int);
        let mut eg = EGraph::new();
        eg.push_fact(PureProp::le(Term::evar(e), z.clone()));
        // Unsolved: ?e ≤ z proves nothing about z vs 3.
        assert!(!eg.prove_frozen(&mut ctx, &PureProp::le(Term::int(3), z.clone())));
        ctx.solve_evar(e, Term::int(3));
        // Solved: 3 ≤ z now follows; the base must re-assert under the
        // new generation rather than serve the stale zonked form.
        assert!(eg.prove_frozen(&mut ctx, &PureProp::le(Term::int(3), z)));
    }

    #[test]
    fn unification_instantiates_under_prove() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let e = ctx.fresh_evar(Sort::Int);
        let mut eg = EGraph::new();
        assert!(eg.prove(
            &mut ctx,
            &PureProp::eq(Term::evar(e), Term::add(z.clone(), Term::int(1)))
        ));
        assert_eq!(Term::evar(e).zonk(&ctx), Term::add(z, Term::int(1)));
    }

    #[test]
    fn versions_hash_cons_across_clones() {
        let _scope = crate::intern::scope();
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let mut a = EGraph::new();
        a.push_fact(PureProp::lt(Term::int(0), z.clone()));
        let mut b = EGraph::new();
        b.push_fact(PureProp::lt(Term::int(0), z.clone()));
        assert_eq!(a.version(), b.version());
        a.push_fact(PureProp::lt(z.clone(), Term::int(9)));
        assert_ne!(a.version(), b.version());
        b.push_fact(PureProp::lt(z, Term::int(9)));
        assert_eq!(a.version(), b.version());
        // And truncation returns to the shared stamp.
        a.truncate_facts(1);
        b.truncate_facts(1);
        assert_eq!(a.version(), b.version());
    }

    #[test]
    fn scope_token_invalidates_across_scopes() {
        let eg = {
            let _scope = crate::intern::scope();
            EGraph::new()
        };
        assert!(!eg.valid() || crate::intern::scope_token().is_none());
        let _scope = crate::intern::scope();
        assert!(!eg.valid());
        assert!(EGraph::new().valid());
    }

    /// A rebuild via [`EGraph::from_facts`] must reach the same verdicts
    /// on any thread and under any interner scope: where a search runs
    /// must never change what is provable.
    #[test]
    fn rebuild_verdicts_are_thread_independent() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let w = int_var(&mut ctx, "w");
        let facts = vec![
            PureProp::lt(Term::int(0), z.clone()),
            PureProp::le(z.clone(), w.clone()),
            PureProp::ne(w.clone(), Term::int(1)),
        ];
        let goals = vec![
            (PureProp::le(Term::int(1), z.clone()), true),
            (PureProp::le(Term::int(2), w.clone()), true),
            (PureProp::le(Term::int(2), z.clone()), false),
            (PureProp::eq(w, Term::int(1)), false),
        ];
        let here: Vec<bool> = {
            let mut eg = EGraph::from_facts(&facts);
            goals.iter().map(|(g, _)| eg.prove(&mut ctx, g)).collect()
        };
        for ((_, expect), got) in goals.iter().zip(&here) {
            assert_eq!(expect, got);
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (facts, goals, here) = (&facts, &goals, &here);
                let mut ctx = ctx.clone();
                s.spawn(move || {
                    let _scope = crate::intern::scope();
                    let mut eg = EGraph::from_facts(facts);
                    let there: Vec<bool> =
                        goals.iter().map(|(g, _)| eg.prove(&mut ctx, g)).collect();
                    assert_eq!(&there, here, "rebuild verdicts differ on a worker thread");
                });
            }
        });
    }

    #[test]
    fn inconsistency_detection() {
        let mut ctx = VarCtx::new();
        let z = int_var(&mut ctx, "z");
        let mut eg = EGraph::new();
        eg.push_fact(PureProp::eq(z.clone(), Term::int(0)));
        assert!(!eg.inconsistent(&mut ctx));
        eg.push_fact(PureProp::lt(Term::int(0), z));
        assert!(eg.inconsistent(&mut ctx));
        eg.truncate_facts(1);
        assert!(!eg.inconsistent(&mut ctx));
    }
}
