//! Search telemetry: the one instrumentation session — span tree,
//! counters and stuck-state diagnostics.
//!
//! The Coq Diaframe artifact leans on Coq's interactive feedback to explain
//! where proof search spends its budget; this batch engine needs an
//! explicit instrumentation layer instead. A [`TelemetrySession`] is that
//! layer, built to be **zero-cost when disabled**:
//!
//! * **Spans** — every verification, spec, search phase, hint-probe
//!   batch, case-split branch, solver batch and checker replay is a timed
//!   span with a parent id and a thread lane ([`crate::profile`] has the
//!   span kinds and the exporters). Spans are the only place durations
//!   are recorded.
//! * **Counters** — hint probes (attempted / skipped by the
//!   [`crate::index`] head filter / run / matched), rule applications by
//!   [`TraceKind`], backtracks, evar solve events, checker replay steps,
//!   solver and proof-store effort. Counters are span payloads: each hook
//!   adds to the counter block of the innermost open span on its own
//!   thread that keeps one (`verify` spans and a thread's outermost span),
//!   or to the session's block when no span is open, and a closing span
//!   folds its block into the enclosing one, so a block holds the merge
//!   over its span's subtree. A run is counted by the subtree of its
//!   `verify` span ([`TelemetrySession::subtree_counters`]). Counters are
//!   a pure side channel: they never influence the search, so observed
//!   and unobserved runs produce byte-identical proof traces (pinned by
//!   `crates/bench/tests/telemetry.rs`).
//! * **Diagnostics** — the per-hypothesis failed-probe ranking and the
//!   goal heads that had no keying hypothesis ride on the spans the same
//!   way; [`crate::report::Stuck::render_explain`] turns them into a
//!   structured stuck report.
//!
//! # Sessions
//!
//! A session is installed into a thread with
//! [`TelemetrySession::install`]. When **no** session is installed
//! anywhere in the process, every hook short-circuits on one relaxed
//! atomic load — the engine's hot paths pay nothing. Each thread keeps one
//! state: the installed session, its lane, the span adopted as parent
//! across a thread hop, and its stack of open spans. The engine's thread
//! hops ([`crate::verify::with_verification_session`] spawns a big-stack
//! worker; [`crate::driver::run_ordered`] fans out to a pool) capture one
//! [`Handoff`] — the session plus the innermost open span — and
//! re-install it in the new thread next to the ablation override, so the
//! span tree stays connected across lanes.
//!
//! Only code that installs a session counts or records anything (the
//! bench harness's `figure6` runs, `figure6 --explain`, the fuzz
//! campaign under `DIAFRAME_PROFILE`, and tests): a bare `verify` call,
//! a bare suite run and a daemon request count nothing.

use crate::profile::{OpenSpan, SpanKind, SpanRec};
use crate::trace::{TraceKind, TraceStep};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counters

/// A point-in-time copy of a session's counters.
///
/// Obtained from [`TelemetrySession::snapshot`] (the whole session) or
/// [`TelemetrySession::subtree_counters`] (one span's subtree); all fields
/// are plain totals. Snapshots of deterministic searches are themselves
/// deterministic, which is why the bench harness can cache and compare
/// them. The same type is the counter block each open span carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Hypothesis probes considered by `find_hint`'s scan loop (each
    /// `(pass, hypothesis)` pair that passed the cheap pass filters).
    pub probes_attempted: u64,
    /// Probes skipped because the [`crate::index::HeadSet`] proved the
    /// hypothesis could not key the goal atom.
    pub probes_skipped: u64,
    /// Probes that passed the index filter (or ran with the index
    /// disabled) and actually executed a hint search.
    pub probes_indexed_hit: u64,
    /// Probes that produced an applicable hint.
    pub probes_matched: u64,
    /// `find_hint` calls that found no hint at all (the precursor of a
    /// stuck report).
    pub hint_misses: u64,
    /// Disjunction backtracks (§5.3 opt-in backtracking only; the
    /// strategy never backtracks globally).
    pub backtracks: u64,
    /// Length, in discarded trace steps, of the deepest abandoned branch.
    pub deepest_abandoned: u64,
    /// Evar solve events observed during hint search, *including*
    /// speculative assignments later rolled back (see
    /// [`diaframe_term::VarCtx::solve_events`]).
    pub evar_solve_events: u64,
    /// Steps replayed by the independent [`crate::checker`].
    pub checker_steps: u64,
    /// Always zero: there is no term interner. Remains only for the
    /// benchmark's compile surface until its next change drops it
    /// (ROADMAP, trace format v2); no engine code writes it.
    pub interner_hits: u64,
    /// Always zero, like [`CounterSnapshot::interner_hits`].
    pub interner_misses: u64,
    /// Always zero, like [`CounterSnapshot::interner_hits`]: zonk is not
    /// memoized.
    pub zonk_cache_hits: u64,
    /// Always zero, like [`CounterSnapshot::interner_hits`]: normalisation
    /// is not memoized.
    pub normalize_cache_hits: u64,
    /// Literals asserted into the search's incremental pure solver's
    /// persistent base (see [`diaframe_term::solver::egraph`]). Like
    /// every `solver_*` counter, this counts the search only: the checker
    /// replays on the reference solver.
    pub solver_facts_asserted: u64,
    /// Union-find merges performed by the incremental solver.
    pub solver_merges: u64,
    /// Undo operations replayed by solver rollbacks (trail pops, node
    /// removals, constraint truncations).
    pub solver_undo_ops: u64,
    /// Entailment queries answered on the persistent base.
    pub solver_queries_incremental: u64,
    /// Entailment queries that fell back to a from-scratch build
    /// (disjunctive state, or a base reset after evar churn).
    pub solver_queries_rebuild: u64,
    /// Always zero, like [`CounterSnapshot::interner_hits`]: solver
    /// verdicts are not memoized.
    pub solver_verdict_hits: u64,
    /// Always zero, like [`CounterSnapshot::interner_hits`].
    pub solver_verdict_misses: u64,
    /// Always zero: the engine no longer speculates. Remains only for
    /// the benchmark's compile surface; no engine code writes it.
    pub spec_spawned: u64,
    /// Always zero: the engine no longer speculates. Remains only for
    /// the benchmark's compile surface; no engine code writes it.
    pub spec_won: u64,
    /// Always zero: the engine no longer speculates. Remains only for
    /// the benchmark's compile surface; no engine code writes it.
    pub spec_wasted_probes: u64,
    /// Always zero: checking no longer overlaps search. Remains only for
    /// the benchmark's compile surface; no engine code writes it.
    pub check_overlap_ms: u64,
    /// Persistent proof-store lookups answered by a successfully
    /// *replayed* cached trace (a hit is only counted after the
    /// independent checker accepted the stored trace — the store never
    /// trusts its bytes blindly).
    pub store_hits: u64,
    /// Persistent proof-store lookups that fell through to a full
    /// search: no entry, a stale engine fingerprint, or a corrupt /
    /// non-replaying entry demoted to a miss.
    pub store_misses: u64,
    /// Store entries rejected as corrupt (checksum mismatch, decode
    /// failure, or a trace the checker refused) and demoted to misses.
    /// Always ≤ `store_misses` — every corruption *is* a miss.
    pub store_corruptions: u64,
    /// Store entries evicted by the LRU byte-budget sweep.
    pub store_evictions: u64,
    /// Milliseconds spent replaying stored traces through the checker
    /// on the hit path (the cheap side of the replay-vs-search split).
    pub store_replay_ms: u64,
    /// Milliseconds spent in full proof search on the store miss path
    /// (the expensive side; `store_replay_ms / store_search_ms` per
    /// request is the cache's value proposition).
    pub store_search_ms: u64,
    /// Rule applications by [`TraceKind`] (indexed by
    /// [`TraceKind::index`]); monotonic, so steps of abandoned branches
    /// stay counted — this measures effort, not trace length.
    pub steps_by_kind: [u64; TraceKind::COUNT],
}

impl CounterSnapshot {
    /// The count for one step kind.
    #[must_use]
    pub fn steps(&self, kind: TraceKind) -> u64 {
        self.steps_by_kind[kind.index()]
    }

    /// Total rule applications across all step kinds.
    #[must_use]
    pub fn rule_applications(&self) -> u64 {
        self.steps_by_kind.iter().sum()
    }

    /// Invariant openings (the `inv_opened` step count).
    #[must_use]
    pub fn inv_openings(&self) -> u64 {
        self.steps(TraceKind::InvOpened)
    }

    /// Hint applications (the `hint_applied` step count; includes `ε₁`
    /// last-resort hints, which is why this can exceed
    /// [`probes_matched`](CounterSnapshot::probes_matched)).
    #[must_use]
    pub fn hints_applied(&self) -> u64 {
        self.steps(TraceKind::HintApplied)
    }

    /// Whether every counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == CounterSnapshot::default()
    }

    /// Folds `other` into `self` (sums everywhere except
    /// `deepest_abandoned`, which takes the max). Used to sum a span
    /// subtree and to aggregate per-example counters into suite totals.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        self.probes_attempted += other.probes_attempted;
        self.probes_skipped += other.probes_skipped;
        self.probes_indexed_hit += other.probes_indexed_hit;
        self.probes_matched += other.probes_matched;
        self.hint_misses += other.hint_misses;
        self.backtracks += other.backtracks;
        self.deepest_abandoned = self.deepest_abandoned.max(other.deepest_abandoned);
        self.evar_solve_events += other.evar_solve_events;
        self.checker_steps += other.checker_steps;
        self.solver_facts_asserted += other.solver_facts_asserted;
        self.solver_merges += other.solver_merges;
        self.solver_undo_ops += other.solver_undo_ops;
        self.solver_queries_incremental += other.solver_queries_incremental;
        self.solver_queries_rebuild += other.solver_queries_rebuild;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.store_corruptions += other.store_corruptions;
        self.store_evictions += other.store_evictions;
        self.store_replay_ms += other.store_replay_ms;
        self.store_search_ms += other.store_search_ms;
        for (a, b) in self.steps_by_kind.iter_mut().zip(other.steps_by_kind.iter()) {
            *a += *b;
        }
    }

    /// Checks the cross-counter consistency invariants. The suite runner
    /// asserts these after every run so strategy edits cannot silently
    /// desync the instrumentation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.probes_attempted != self.probes_skipped + self.probes_indexed_hit {
            return Err(format!(
                "probes_attempted ({}) != probes_skipped ({}) + probes_indexed_hit ({})",
                self.probes_attempted, self.probes_skipped, self.probes_indexed_hit
            ));
        }
        if self.probes_matched > self.probes_indexed_hit {
            return Err(format!(
                "probes_matched ({}) > probes_indexed_hit ({})",
                self.probes_matched, self.probes_indexed_hit
            ));
        }
        if self.hints_applied() < self.probes_matched {
            return Err(format!(
                "hint_applied steps ({}) < probes_matched ({}): a matched probe was dropped",
                self.hints_applied(),
                self.probes_matched
            ));
        }
        // Note: no relation between `inv_opened` and `inv_closed` holds
        // in general — an invariant opened once before a case split is
        // closed once *per branch* (the checker's per-branch mask stacks
        // make that sound), so closings can exceed openings.
        if self.deepest_abandoned > 0 && self.backtracks == 0 {
            return Err(format!(
                "deepest_abandoned ({}) recorded without any backtrack",
                self.deepest_abandoned
            ));
        }
        // A corrupt store entry is always demoted to a miss before the
        // re-search, so corruptions can never exceed misses.
        if self.store_corruptions > self.store_misses {
            return Err(format!(
                "store_corruptions ({}) > store_misses ({})",
                self.store_corruptions, self.store_misses
            ));
        }
        if self.store_replay_ms > 0 && self.store_hits == 0 {
            return Err(format!(
                "store_replay_ms ({}) recorded without any store hit",
                self.store_replay_ms
            ));
        }
        Ok(())
    }

    /// Renders the snapshot as a JSON object (the `telemetry` blocks of
    /// the `figure6 --json` snapshot). Key order is fixed, so equal
    /// snapshots render identically.
    #[must_use]
    pub fn json_object(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{ \"probes_attempted\": {}, \"probes_skipped\": {}, \"probes_indexed_hit\": {}, \
             \"probes_matched\": {}, \"hint_misses\": {}, \"backtracks\": {}, \
             \"deepest_abandoned\": {}, \"evar_solve_events\": {}, \"checker_steps\": {}, \
             \"interner_hits\": {}, \"interner_misses\": {}, \"zonk_cache_hits\": {}, \
             \"normalize_cache_hits\": {}, \"solver_facts_asserted\": {}, \
             \"solver_merges\": {}, \"solver_undo_ops\": {}, \
             \"solver_queries_incremental\": {}, \"solver_queries_rebuild\": {}, \
             \"solver_verdict_hits\": {}, \"solver_verdict_misses\": {}, \
             \"store_hits\": {}, \"store_misses\": {}, \
             \"store_corruptions\": {}, \"store_evictions\": {}, \
             \"store_replay_ms\": {}, \"store_search_ms\": {}, \
             \"steps_by_kind\": {{",
            self.probes_attempted,
            self.probes_skipped,
            self.probes_indexed_hit,
            self.probes_matched,
            self.hint_misses,
            self.backtracks,
            self.deepest_abandoned,
            self.evar_solve_events,
            self.checker_steps,
            self.interner_hits,
            self.interner_misses,
            self.zonk_cache_hits,
            self.normalize_cache_hits,
            self.solver_facts_asserted,
            self.solver_merges,
            self.solver_undo_ops,
            self.solver_queries_incremental,
            self.solver_queries_rebuild,
            self.solver_verdict_hits,
            self.solver_verdict_misses,
            self.store_hits,
            self.store_misses,
            self.store_corruptions,
            self.store_evictions,
            self.store_replay_ms,
            self.store_search_ms,
        );
        for (i, kind) in TraceKind::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", kind.name(), self.steps(kind));
        }
        out.push_str("} }");
        out
    }
}

// ---------------------------------------------------------------------------
// Diagnostics

/// The diagnostic side of a session: which hypotheses kept failing
/// probes, and which goal heads had no keying hypothesis. Feeds the
/// structured stuck report of [`crate::report::Stuck::render_explain`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiagSnapshot {
    /// Hypotheses ranked by failed-probe count (descending, then by
    /// name) — "which hypothesis did the search keep trying and failing
    /// to key on".
    pub failed_probes: Vec<(String, u64)>,
    /// Goal heads for which `find_hint` found nothing at all, with miss
    /// counts (same ordering).
    pub missed_heads: Vec<(String, u64)>,
    /// The counters at snapshot time.
    pub counters: CounterSnapshot,
}

/// One counter block: what the hooks recorded while its span was the
/// innermost open span on its thread that keeps a block, plus what the
/// closed spans below it folded in (for the session's own block:
/// everything outside spans).
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    pub(crate) counters: CounterSnapshot,
    failed_probes: BTreeMap<String, u64>,
    missed_heads: BTreeMap<String, u64>,
}

impl Tally {
    pub(crate) fn merge(&mut self, other: Tally) {
        self.counters.merge(&other.counters);
        for (mine, theirs) in [
            (&mut self.failed_probes, other.failed_probes),
            (&mut self.missed_heads, other.missed_heads),
        ] {
            if mine.is_empty() {
                *mine = theirs;
            } else {
                for (key, n) in theirs {
                    *mine.entry(key).or_insert(0) += n;
                }
            }
        }
    }

    fn diag(self) -> DiagSnapshot {
        DiagSnapshot {
            failed_probes: ranked(self.failed_probes),
            missed_heads: ranked(self.missed_heads),
            counters: self.counters,
        }
    }
}

fn ranked(map: BTreeMap<String, u64>) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = map.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

fn bump_key(map: &mut BTreeMap<String, u64>, key: &str) {
    if let Some(n) = map.get_mut(key) {
        *n += 1;
    } else {
        map.insert(key.to_owned(), 1);
    }
}

// ---------------------------------------------------------------------------
// Sessions

/// Locks `m`, ignoring poisoning: the instrumentation state stays usable
/// after a panic in a verification it observed.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) struct SessionInner {
    label: String,
    pub(crate) epoch: Instant,
    pub(crate) next_id: AtomicU64,
    /// What the hooks counted while no span was open, and the subtrees of
    /// the closed spans that had no parent.
    pub(crate) root: Mutex<Tally>,
    pub(crate) log: Mutex<SpanLog>,
    pub(crate) lanes: Mutex<Vec<String>>,
}

/// The closed spans of a session.
#[derive(Default)]
pub(crate) struct SpanLog {
    /// Every closed span, in completion order.
    pub(crate) spans: Vec<SpanRec>,
    /// The subtrees of closed spans whose parent is still open on another
    /// thread (the far side of a thread hop), keyed by that parent; the
    /// parent folds them in when it closes.
    pub(crate) handed_back: HashMap<u64, Tally>,
}

impl SessionInner {
    fn register_lane(&self, base: &str) -> u32 {
        let mut lanes = lock(&self.lanes);
        let mut name = base.to_string();
        let mut k = 1usize;
        while lanes.iter().any(|l| l == &name) {
            k += 1;
            name = format!("{base}#{k}");
        }
        lanes.push(name);
        u32::try_from(lanes.len() - 1).expect("lane count fits u32")
    }
}

/// One instrumentation session: the span log, the counters riding on the
/// spans, and the diagnostics. Cheap to clone (an `Arc`; clones share
/// the log), and `Send + Sync` so the handle can follow the engine across
/// its worker threads.
#[derive(Clone)]
pub struct TelemetrySession {
    pub(crate) inner: Arc<SessionInner>,
}

impl std::fmt::Debug for TelemetrySession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySession")
            .field("label", &self.inner.label)
            .finish_non_exhaustive()
    }
}

/// Counts sessions currently installed in *any* thread; the
/// instrumentation fast path is one relaxed load of this.
static ACTIVE_SESSIONS: AtomicUsize = AtomicUsize::new(0);

/// One thread's instrumentation state: the installed session and the
/// thread's place in its span tree.
struct Local {
    session: Option<Arc<SessionInner>>,
    spans: ThreadSpans,
}

/// A thread's place in the installed session's span tree.
pub(crate) struct ThreadSpans {
    /// This thread's lane in the session.
    pub(crate) lane: u32,
    /// The parent of spans opened with no span open on this thread (the
    /// span open at the far side of a thread hop).
    pub(crate) adopted: Option<u64>,
    /// The innermost `verify` span open at the far side of a thread hop.
    verify: Option<u64>,
    /// The open spans, innermost last.
    pub(crate) open: Vec<OpenSpan>,
    /// The counter blocks of the open spans that have one, innermost last.
    pub(crate) blocks: Vec<Tally>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            session: None,
            spans: ThreadSpans {
                lane: 0,
                adopted: None,
                verify: None,
                open: Vec::new(),
                blocks: Vec::new(),
            },
        })
    };
}

/// Runs `f` on this thread's spans and session when a session is
/// installed here.
#[inline]
pub(crate) fn with_local<R>(f: impl FnOnce(&mut ThreadSpans, &Arc<SessionInner>) -> R) -> Option<R> {
    if ACTIVE_SESSIONS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    LOCAL.with(|l| {
        let Local { session, spans } = &mut *l.borrow_mut();
        Some(f(spans, session.as_ref()?))
    })
}

impl TelemetrySession {
    /// A fresh session labelled `label` (by convention the example or
    /// tool name).
    #[must_use]
    pub fn new(label: &str) -> TelemetrySession {
        TelemetrySession {
            inner: Arc::new(SessionInner {
                label: label.to_owned(),
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                root: Mutex::new(Tally::default()),
                log: Mutex::new(SpanLog::default()),
                lanes: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The session's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// Installs the session into the current thread until the returned
    /// guard drops; the thread's previous state (session, lane, open
    /// spans) is restored then. The thread gets its own *lane*, named
    /// after the OS thread (uniquified with `#k` on collision), so pool
    /// workers and verification session threads each render as their own
    /// timeline row.
    #[must_use]
    pub fn install(&self) -> TelemetryGuard {
        self.install_with_parent(None, None)
    }

    /// Like [`install`](TelemetrySession::install), but spans opened with
    /// no span open on this thread adopt `adopted` as their parent id, and
    /// stuck diagnostics are scoped to the `verify` span `verify` — the
    /// spans open at the far side of a thread hop.
    fn install_with_parent(&self, adopted: Option<u64>, verify: Option<u64>) -> TelemetryGuard {
        let state = Local {
            session: Some(Arc::clone(&self.inner)),
            spans: ThreadSpans {
                lane: self.inner.register_lane(std::thread::current().name().unwrap_or("main")),
                adopted,
                verify,
                open: Vec::new(),
                blocks: Vec::new(),
            },
        };
        ACTIVE_SESSIONS.fetch_add(1, Ordering::SeqCst);
        TelemetryGuard {
            prev: LOCAL.with(|l| std::mem::replace(&mut *l.borrow_mut(), state)),
            _not_send: PhantomData,
        }
    }

    /// The counters of the whole session. Spans still open, and what
    /// their closed children folded into them, are not included.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        lock(&self.inner.root).counters.clone()
    }

    /// The counters of the closed `verify` span `root`'s subtree (the
    /// default snapshot when `root` is no closed `verify` span). The
    /// subtree follows parent ids across lanes, so work done on a
    /// verification session thread counts toward the span that spawned
    /// it.
    #[must_use]
    pub fn subtree_counters(&self, root: u64) -> CounterSnapshot {
        let log = lock(&self.inner.log);
        let rec = log.spans.iter().rev().find(|s| s.id == root);
        rec.and_then(|s| s.counters.as_deref()).cloned().unwrap_or_default()
    }
}

/// Restores the thread's previous instrumentation state on drop. Not
/// `Send`: the guard must drop on the thread that installed the session.
pub struct TelemetryGuard {
    prev: Local,
    _not_send: PhantomData<*const ()>,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| std::mem::swap(&mut *l.borrow_mut(), &mut self.prev));
        ACTIVE_SESSIONS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The session installed on this thread, if any.
#[must_use]
pub fn current() -> Option<TelemetrySession> {
    with_local(|_, inner| TelemetrySession {
        inner: Arc::clone(inner),
    })
}

/// What a thread hop carries: the installed session, the innermost open
/// span (the parent of the far side's spans) and the innermost open
/// `verify` span (the scope of stuck diagnostics over there).
pub(crate) struct Handoff {
    session: TelemetrySession,
    parent: Option<u64>,
    verify: Option<u64>,
}

impl Handoff {
    /// Captures this thread's session and innermost open spans; `None`
    /// when no session is installed here.
    #[must_use]
    pub(crate) fn capture() -> Option<Handoff> {
        with_local(|l, inner| Handoff {
            session: TelemetrySession {
                inner: Arc::clone(inner),
            },
            parent: l.open.last().map(|f| f.id).or(l.adopted),
            verify: innermost_verify(l).map_or(l.verify, |k| Some(l.open[k].id)),
        })
    }

    /// Installs the captured session on the current thread, adopting the
    /// captured span as the parent of its root spans.
    #[must_use]
    pub(crate) fn install(&self) -> TelemetryGuard {
        self.session.install_with_parent(self.parent, self.verify)
    }
}

fn innermost_verify(l: &ThreadSpans) -> Option<usize> {
    l.open.iter().rposition(|f| f.kind == SpanKind::Verify)
}

// ---------------------------------------------------------------------------
// Instrumentation hooks (called from the engine; no-ops without a session)

/// Adds to the counter block of the innermost open span on this thread
/// that has one, or to the session's block when no span is open.
#[inline]
fn with_tally(f: impl FnOnce(&mut Tally)) {
    with_local(|l, inner| match l.blocks.last_mut() {
        Some(block) => f(block),
        None => f(&mut lock(&inner.root)),
    });
}

/// A `(pass, hypothesis)` probe candidate passed the cheap pass filters.
/// Also one unit of payload for the enclosing `find_hint` span.
#[inline]
pub(crate) fn probe_attempted() {
    crate::profile::bump(1);
    with_tally(|t| t.counters.probes_attempted += 1);
}

/// The head index proved the candidate cannot key the goal.
#[inline]
pub(crate) fn probe_skipped() {
    with_tally(|t| t.counters.probes_skipped += 1);
}

/// The candidate passed the index filter; a hint search runs.
#[inline]
pub(crate) fn probe_run() {
    with_tally(|t| t.counters.probes_indexed_hit += 1);
}

/// The probe produced an applicable hint.
#[inline]
pub(crate) fn probe_matched() {
    with_tally(|t| t.counters.probes_matched += 1);
}

/// The probe on hypothesis `hyp` ran and failed (rolled back).
#[inline]
pub(crate) fn probe_failed(hyp: &str) {
    with_tally(|t| bump_key(&mut t.failed_probes, hyp));
}

/// `find_hint` found nothing for a goal atom whose head `head` renders.
/// The head is only rendered when a session is installed.
#[inline]
pub(crate) fn hint_missed(head: impl FnOnce() -> String) {
    with_tally(|t| {
        t.counters.hint_misses += 1;
        bump_key(&mut t.missed_heads, &head());
    });
}

/// A [`TraceStep`] was appended to the proof trace.
#[inline]
pub(crate) fn count_step(step: &TraceStep) {
    with_tally(|t| t.counters.steps_by_kind[step.kind().index()] += 1);
}

/// A disjunction backtrack discarded `discarded_steps` trace steps.
#[inline]
pub(crate) fn backtracked(discarded_steps: u64) {
    with_tally(|t| {
        t.counters.backtracks += 1;
        t.counters.deepest_abandoned = t.counters.deepest_abandoned.max(discarded_steps);
    });
}

/// `delta` evar solve events were observed (see
/// [`CounterSnapshot::evar_solve_events`]).
#[inline]
pub(crate) fn evar_solves(delta: u64) {
    if delta > 0 {
        with_tally(|t| t.counters.evar_solve_events += delta);
    }
}

/// The checker replayed `n` steps. Also `n` units of payload for the
/// enclosing `check` span.
#[inline]
pub(crate) fn checker_steps(n: u64) {
    crate::profile::bump(n);
    with_tally(|t| t.counters.checker_steps += n);
}

/// Folds one specification's incremental-solver counters into the
/// innermost open span (the verification entry point calls this at the
/// end of each `spec` span).
#[inline]
pub(crate) fn egraph_stats(stats: diaframe_term::solver::egraph::EGraphStats) {
    with_tally(|t| {
        let c = &mut t.counters;
        c.solver_facts_asserted += stats.facts_asserted;
        c.solver_merges += stats.merges;
        c.solver_undo_ops += stats.undo_ops;
        c.solver_queries_incremental += stats.queries_incremental;
        c.solver_queries_rebuild += stats.queries_rebuild;
    });
}

/// A persistent proof-store lookup was answered by a cached trace that
/// the checker replayed successfully.
#[inline]
pub fn store_hit() {
    with_tally(|t| t.counters.store_hits += 1);
}

/// A persistent proof-store lookup fell through to a full search (no
/// entry, stale fingerprint, or a corrupt entry demoted to a miss).
#[inline]
pub fn store_miss() {
    with_tally(|t| t.counters.store_misses += 1);
}

/// A store entry was rejected as corrupt (checksum mismatch, decode
/// failure, or a replay the checker refused). Callers count the
/// accompanying [`store_miss`] separately.
#[inline]
pub fn store_corruption() {
    with_tally(|t| t.counters.store_corruptions += 1);
}

/// `n` store entries were evicted by the LRU byte-budget sweep.
#[inline]
pub fn store_evictions(n: u64) {
    if n > 0 {
        with_tally(|t| t.counters.store_evictions += n);
    }
}

/// `ms` milliseconds were spent replaying a stored trace on a hit.
#[inline]
pub fn store_replay_ms(ms: u64) {
    with_tally(|t| t.counters.store_replay_ms += ms);
}

/// `ms` milliseconds were spent in full search on the store miss path.
#[inline]
pub fn store_search_ms(ms: u64) {
    with_tally(|t| t.counters.store_search_ms += ms);
}

/// The diagnostics attached to a [`crate::report::Stuck`] report at stuck
/// time: the subtree of the innermost open `verify` span, including the
/// spans still open on this thread, or the whole session when no
/// `verify` span is open. `None` without a session.
#[must_use]
pub(crate) fn stuck_diag() -> Option<DiagSnapshot> {
    with_local(|l, inner| {
        let at = innermost_verify(l);
        let open = &l.open[at.unwrap_or(0)..];
        let whole = at.is_none() && l.verify.is_none();
        let mut tally = if whole { lock(&inner.root).clone() } else { Tally::default() };
        // Closed spans are folded into their open parents, or wait for a
        // parent open on another thread in `handed_back`.
        let mut ids: Vec<u64> = open.iter().map(|f| f.id).collect();
        if at.is_none() {
            ids.extend(l.verify.into_iter().chain(l.adopted));
        }
        for (id, t) in &lock(&inner.log).handed_back {
            if whole || ids.contains(id) {
                tally.merge(t.clone());
            }
        }
        let outside = l.open.len() - open.len();
        let skip = l.open[..outside].iter().filter(|f| f.block).count();
        for block in &l.blocks[skip..] {
            tally.merge(block.clone());
        }
        tally.diag()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::span;

    #[test]
    fn hooks_are_noops_without_a_session() {
        assert!(current().is_none());
        probe_attempted();
        probe_skipped();
        probe_failed("H1");
        hint_missed(|| panic!("head must not be rendered without a session"));
        backtracked(10);
        assert!(stuck_diag().is_none());
    }

    #[test]
    fn counters_accumulate_and_validate() {
        let session = TelemetrySession::new("unit");
        {
            let _g = session.install();
            for _ in 0..3 {
                probe_attempted();
            }
            probe_skipped();
            probe_run();
            probe_run();
            probe_matched();
            probe_failed("H2");
            probe_failed("H2");
            probe_failed("H0");
            hint_missed(|| "↦".to_owned());
            count_step(&TraceStep::ValueReached);
            count_step(&TraceStep::HintApplied {
                rules: vec!["r".into()],
                hyp: None,
                custom: false,
            });
            backtracked(7);
            evar_solves(4);
            checker_steps(2);
        }
        let snap = session.snapshot();
        assert_eq!(snap.probes_attempted, 3);
        assert_eq!(snap.probes_skipped, 1);
        assert_eq!(snap.probes_indexed_hit, 2);
        assert_eq!(snap.probes_matched, 1);
        assert_eq!(snap.hint_misses, 1);
        assert_eq!(snap.backtracks, 1);
        assert_eq!(snap.deepest_abandoned, 7);
        assert_eq!(snap.evar_solve_events, 4);
        assert_eq!(snap.checker_steps, 2);
        assert_eq!(snap.steps(crate::trace::TraceKind::ValueReached), 1);
        assert_eq!(snap.hints_applied(), 1);
        assert_eq!(snap.rule_applications(), 2);
        snap.check_invariants().unwrap();

        let diag = lock(&session.inner.root).clone().diag();
        assert_eq!(
            diag.failed_probes,
            vec![("H2".to_owned(), 2), ("H0".to_owned(), 1)]
        );
        assert_eq!(diag.missed_heads, vec![("↦".to_owned(), 1)]);

        // Counting stopped when the guard dropped.
        probe_attempted();
        assert_eq!(session.snapshot().probes_attempted, 3);
    }

    #[test]
    fn payload_hooks_feed_the_innermost_span() {
        let session = TelemetrySession::new("payload");
        {
            let _installed = session.install();
            let find = span(SpanKind::FindHint);
            (0..3).for_each(|_| probe_attempted());
            drop(find);
            let _check = span(SpanKind::Check);
            checker_steps(5);
        }
        let payloads: Vec<(SpanKind, u64)> = session.spans().iter().map(|r| (r.kind, r.count)).collect();
        assert_eq!(payloads, [(SpanKind::FindHint, 3), (SpanKind::Check, 5)]);
        let snap = session.snapshot();
        assert_eq!((snap.probes_attempted, snap.checker_steps), (3, 5));
    }

    /// Pool workers and a verification-session hop all record into the
    /// caller's session, under the span open at the call site, and that
    /// span's subtree counts exactly what they bumped.
    #[test]
    fn workers_and_session_hops_land_in_the_callers_session() {
        let session = TelemetrySession::new("caller");
        let _installed = session.install();
        let call_site = span(SpanKind::Verify);
        let site = call_site.id().expect("session installed");
        let labels = crate::driver::run_ordered(&[1u64, 2, 3], 2, |_, &n| {
            let _worker = span(SpanKind::Search);
            (0..n).for_each(|_| probe_attempted());
            current().map(|s| s.label().to_owned())
        });
        let hop = crate::verify::with_verification_session(|| {
            let _hop = span(SpanKind::Check);
            checker_steps(4);
            current().map(|s| s.label().to_owned())
        });
        drop(call_site);
        for l in labels {
            assert_eq!(l.unwrap().as_deref(), Some("caller"));
        }
        assert_eq!(hop.as_deref(), Some("caller"));

        let spans = session.spans();
        let lanes = session.lanes();
        let hopped: Vec<&SpanRec> = spans.iter().filter(|s| s.id != site).collect();
        assert_eq!(hopped.len(), 4);
        for s in &hopped {
            assert_eq!(s.parent, Some(site), "{:?} is not under the call site", s.kind);
            let lane = &lanes[usize::try_from(s.lane).unwrap()];
            assert!(lane.starts_with("diaframe-"), "{:?} recorded on lane {lane}", s.kind);
        }
        let counters = session.subtree_counters(site);
        assert_eq!((counters.probes_attempted, counters.checker_steps), (6, 4));
        assert_eq!(counters, session.snapshot());
    }

    #[test]
    fn stuck_diagnostics_cover_the_open_verify_subtree() {
        let session = TelemetrySession::new("stuck");
        let _installed = session.install();
        {
            let _earlier = span(SpanKind::Verify);
            probe_failed("H1");
        }
        let _run = span(SpanKind::Verify);
        let _search = span(SpanKind::Search);
        probe_failed("H2");
        {
            let _find = span(SpanKind::FindHint);
            probe_failed("H3");
            probe_failed("H3");
        }
        let diag = stuck_diag().expect("session installed");
        assert_eq!(diag.failed_probes, [("H3".to_owned(), 2), ("H2".to_owned(), 1)]);
    }

    #[test]
    fn invariant_violations_are_reported() {
        let snap = CounterSnapshot {
            probes_attempted: 5,
            probes_skipped: 1,
            probes_indexed_hit: 3,
            ..CounterSnapshot::default()
        };
        let err = snap.check_invariants().unwrap_err();
        assert!(err.contains("probes_attempted"), "{err}");

        let snap = CounterSnapshot {
            deepest_abandoned: 3,
            ..CounterSnapshot::default()
        };
        assert!(snap.check_invariants().is_err());
    }

    #[test]
    fn nested_installs_restore_the_outer_session() {
        let outer = TelemetrySession::new("outer");
        let inner = TelemetrySession::new("inner");
        let _og = outer.install();
        let outer_span = span(SpanKind::Verify);
        {
            let _ig = inner.install();
            let _inner_span = span(SpanKind::Search);
            probe_attempted();
        }
        // The outer span is innermost again.
        probe_attempted();
        drop(outer_span);
        assert_eq!(inner.snapshot().probes_attempted, 1);
        assert_eq!(inner.spans()[0].parent, None);
        assert_eq!(outer.snapshot().probes_attempted, 1);
        assert_eq!(outer.spans().len(), 1);
        assert_eq!(current().unwrap().label(), "outer");
    }

    #[test]
    fn merge_sums_and_keeps_the_deepest_abandoned_branch() {
        let a = CounterSnapshot {
            probes_attempted: 2,
            probes_indexed_hit: 2,
            deepest_abandoned: 5,
            ..CounterSnapshot::default()
        };
        let mut b = CounterSnapshot {
            probes_attempted: 3,
            probes_indexed_hit: 3,
            deepest_abandoned: 9,
            ..CounterSnapshot::default()
        };
        b.merge(&a);
        assert_eq!(b.probes_attempted, 5);
        assert_eq!(b.deepest_abandoned, 9);
    }

    #[test]
    fn json_object_lists_every_kind() {
        let snap = CounterSnapshot::default();
        let json = snap.json_object();
        for kind in TraceKind::ALL {
            assert!(json.contains(kind.name()), "missing {}", kind.name());
        }
        assert!(json.contains("\"probes_attempted\": 0"));
    }
}
