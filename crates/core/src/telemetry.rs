//! Search telemetry: counters and stuck-state diagnostics.
//!
//! The Coq Diaframe artifact leans on Coq's interactive feedback to explain
//! where proof search spends its budget; this batch engine needs an
//! explicit instrumentation layer instead. This module provides one, built
//! to be **zero-cost when disabled**:
//!
//! * **Counters** — per-verification tallies of hint probes (attempted /
//!   skipped by the [`crate::index`] head filter / run / matched), rule
//!   applications by [`TraceKind`], disjunction backtracks, evar solve
//!   events, invariant openings, and checker replay steps. Counters are a
//!   pure side channel: they never influence the search, so telemetry-on
//!   and telemetry-off runs produce byte-identical proof traces (pinned by
//!   `crates/bench/tests/telemetry.rs`).
//! * **Per-spec deltas** — the counters attributable to each spec of a
//!   verification, written with the counters to a sink selected by the
//!   `DIAFRAME_TELEMETRY` environment variable (see [`Sink`]).
//! * **Diagnostics** — the per-hypothesis failed-probe ranking and the
//!   goal heads that had no keying hypothesis, which
//!   [`crate::report::Stuck::render_explain`] turns into a structured
//!   stuck report.
//!
//! # Sessions
//!
//! All state hangs off a [`TelemetrySession`], installed into a thread
//! with [`TelemetrySession::install`]. When **no** session is installed
//! anywhere in the process, every instrumentation hook short-circuits on
//! one relaxed atomic load — the engine's hot paths pay nothing. The
//! session handle is `Send + Sync` and is re-installed across the thread
//! hops the engine performs ([`crate::verify::with_verification_session`]
//! spawns a big-stack worker; [`crate::driver::run_ordered`] fans out to a
//! pool), mirroring how the ablation override travels.
//!
//! This module reads no clock: durations live only in the
//! [`crate::profile`] span tree. The two payload hooks, `probe_attempted`
//! and `checker_steps`, also add to the payload of the innermost open
//! profile span, so the `find_hint` and `check` span counts agree with
//! the flat counters by construction.
//!
//! Under the parallel driver each worker runs its own verifications under
//! its own session; a session's [`flush`](TelemetrySession::flush) appends
//! its summary line to the sink under one lock, so concurrent workers never
//! interleave lines.

use crate::trace::{TraceKind, TraceStep};
use crate::trace_json::json_escape;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Counters

/// The live atomic counters of one session.
#[derive(Default)]
struct Counters {
    probes_attempted: AtomicU64,
    probes_skipped: AtomicU64,
    probes_indexed_hit: AtomicU64,
    probes_matched: AtomicU64,
    hint_misses: AtomicU64,
    backtracks: AtomicU64,
    deepest_abandoned: AtomicU64,
    evar_solve_events: AtomicU64,
    checker_steps: AtomicU64,
    solver_facts_asserted: AtomicU64,
    solver_merges: AtomicU64,
    solver_undo_ops: AtomicU64,
    solver_queries_incremental: AtomicU64,
    solver_queries_rebuild: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_corruptions: AtomicU64,
    store_evictions: AtomicU64,
    store_replay_ms: AtomicU64,
    store_search_ms: AtomicU64,
    steps_by_kind: [AtomicU64; TraceKind::COUNT],
}

/// A point-in-time copy of a session's counters.
///
/// Obtained from [`TelemetrySession::snapshot`]; all fields are plain
/// totals since session creation. Snapshots of deterministic searches are
/// themselves deterministic, which is why the bench harness can cache and
/// compare them.
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

    /// Invariant closings.
    #[must_use]
    pub fn inv_closings(&self) -> u64 {
        self.steps(TraceKind::InvClosed)
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
    /// `deepest_abandoned`, which takes the max). Used to aggregate
    /// per-example counters into suite totals.
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

    /// The counters accumulated since `before` was taken (used to carve
    /// per-spec deltas out of a per-example session). Sums subtract;
    /// `deepest_abandoned` is attributed to the interval in which the
    /// maximum grew.
    #[must_use]
    pub fn delta_since(&self, before: &CounterSnapshot) -> CounterSnapshot {
        let mut out = CounterSnapshot {
            probes_attempted: self.probes_attempted - before.probes_attempted,
            probes_skipped: self.probes_skipped - before.probes_skipped,
            probes_indexed_hit: self.probes_indexed_hit - before.probes_indexed_hit,
            probes_matched: self.probes_matched - before.probes_matched,
            hint_misses: self.hint_misses - before.hint_misses,
            backtracks: self.backtracks - before.backtracks,
            deepest_abandoned: 0,
            evar_solve_events: self.evar_solve_events - before.evar_solve_events,
            checker_steps: self.checker_steps - before.checker_steps,
            solver_facts_asserted: self.solver_facts_asserted - before.solver_facts_asserted,
            solver_merges: self.solver_merges - before.solver_merges,
            solver_undo_ops: self.solver_undo_ops - before.solver_undo_ops,
            solver_queries_incremental: self.solver_queries_incremental
                - before.solver_queries_incremental,
            solver_queries_rebuild: self.solver_queries_rebuild - before.solver_queries_rebuild,
            store_hits: self.store_hits - before.store_hits,
            store_misses: self.store_misses - before.store_misses,
            store_corruptions: self.store_corruptions - before.store_corruptions,
            store_evictions: self.store_evictions - before.store_evictions,
            store_replay_ms: self.store_replay_ms - before.store_replay_ms,
            store_search_ms: self.store_search_ms - before.store_search_ms,
            steps_by_kind: [0; TraceKind::COUNT],
            ..CounterSnapshot::default()
        };
        if self.deepest_abandoned > before.deepest_abandoned {
            out.deepest_abandoned = self.deepest_abandoned;
        }
        for (i, o) in out.steps_by_kind.iter_mut().enumerate() {
            *o = self.steps_by_kind[i] - before.steps_by_kind[i];
        }
        out
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

    /// Renders the snapshot as a JSON object (the shared serialization
    /// used by the `figure6 --json` v2 `telemetry` blocks and the
    /// `DIAFRAME_TELEMETRY` file sink). Key order is fixed, so equal
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

#[derive(Default)]
struct DiagState {
    failed_probes: BTreeMap<String, u64>,
    missed_heads: BTreeMap<String, u64>,
}

fn ranked(map: &BTreeMap<String, u64>) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = map.iter().map(|(k, n)| (k.clone(), *n)).collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

// ---------------------------------------------------------------------------
// The sink

/// Where per-verification counter summaries go, selected once per
/// process by the `DIAFRAME_TELEMETRY` environment variable:
///
/// * unset, empty, `0`, or `off` — no sink;
/// * `stderr` — a one-line human-readable summary per verification on
///   standard error;
/// * anything else — treated as a file path; one `{"event":"summary",…}`
///   JSON line per verification is appended, with counters and per-spec
///   deltas. The sink carries no durations: timing lives in the
///   [`crate::profile`] span tree (`figure6 --profile-out`).
///
/// Counters and diagnostics work regardless of the sink: the bench
/// harness installs sessions programmatically and reads snapshots
/// directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sink {
    /// No sink.
    Off,
    /// Per-verification summary lines on standard error.
    Stderr,
    /// JSON lines appended to this path.
    File(PathBuf),
}

impl Sink {
    fn is_on(&self) -> bool {
        *self != Sink::Off
    }
}

fn parse_sink(value: Option<&str>) -> Sink {
    match value {
        None => Sink::Off,
        Some(v) => {
            let v = v.trim();
            if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") {
                Sink::Off
            } else if v.eq_ignore_ascii_case("stderr") {
                Sink::Stderr
            } else {
                Sink::File(PathBuf::from(v))
            }
        }
    }
}

/// The process-wide sink (the `DIAFRAME_TELEMETRY` variable, read once).
pub fn sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| parse_sink(std::env::var("DIAFRAME_TELEMETRY").ok().as_deref()))
}

/// Serializes sink appends so per-verification blocks from parallel
/// workers never interleave.
static SINK_LOCK: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------------------
// Sessions

struct SessionInner {
    label: String,
    counters: Counters,
    diag: Mutex<DiagState>,
    per_spec: Mutex<Vec<(String, CounterSnapshot)>>,
    flushed: AtomicBool,
}

/// One verification's worth of telemetry state. Cheap to clone (an
/// `Arc`), and `Send + Sync` so the handle can follow the engine across
/// its worker threads.
#[derive(Clone)]
pub struct TelemetrySession {
    inner: Arc<SessionInner>,
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

thread_local! {
    static CURRENT: RefCell<Option<Arc<SessionInner>>> = const { RefCell::new(None) };
}

impl TelemetrySession {
    /// A fresh session labelled `label` (by convention the example or
    /// spec name; the label tags every sink line).
    #[must_use]
    pub fn new(label: &str) -> TelemetrySession {
        TelemetrySession {
            inner: Arc::new(SessionInner {
                label: label.to_owned(),
                counters: Counters::default(),
                diag: Mutex::new(DiagState::default()),
                per_spec: Mutex::new(Vec::new()),
                flushed: AtomicBool::new(false),
            }),
        }
    }

    /// The session's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// Installs the session into the current thread until the returned
    /// guard drops (a previously installed session is restored then).
    #[must_use]
    pub fn install(&self) -> TelemetryGuard {
        ACTIVE_SESSIONS.fetch_add(1, Ordering::SeqCst);
        let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&self.inner)));
        TelemetryGuard {
            prev,
            _not_send: PhantomData,
        }
    }

    /// A copy of the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        let c = &self.inner.counters;
        let mut steps = [0u64; TraceKind::COUNT];
        for (o, a) in steps.iter_mut().zip(c.steps_by_kind.iter()) {
            *o = a.load(Ordering::Relaxed);
        }
        CounterSnapshot {
            probes_attempted: c.probes_attempted.load(Ordering::Relaxed),
            probes_skipped: c.probes_skipped.load(Ordering::Relaxed),
            probes_indexed_hit: c.probes_indexed_hit.load(Ordering::Relaxed),
            probes_matched: c.probes_matched.load(Ordering::Relaxed),
            hint_misses: c.hint_misses.load(Ordering::Relaxed),
            backtracks: c.backtracks.load(Ordering::Relaxed),
            deepest_abandoned: c.deepest_abandoned.load(Ordering::Relaxed),
            evar_solve_events: c.evar_solve_events.load(Ordering::Relaxed),
            checker_steps: c.checker_steps.load(Ordering::Relaxed),
            solver_facts_asserted: c.solver_facts_asserted.load(Ordering::Relaxed),
            solver_merges: c.solver_merges.load(Ordering::Relaxed),
            solver_undo_ops: c.solver_undo_ops.load(Ordering::Relaxed),
            solver_queries_incremental: c.solver_queries_incremental.load(Ordering::Relaxed),
            solver_queries_rebuild: c.solver_queries_rebuild.load(Ordering::Relaxed),
            store_hits: c.store_hits.load(Ordering::Relaxed),
            store_misses: c.store_misses.load(Ordering::Relaxed),
            store_corruptions: c.store_corruptions.load(Ordering::Relaxed),
            store_evictions: c.store_evictions.load(Ordering::Relaxed),
            store_replay_ms: c.store_replay_ms.load(Ordering::Relaxed),
            store_search_ms: c.store_search_ms.load(Ordering::Relaxed),
            steps_by_kind: steps,
            ..CounterSnapshot::default()
        }
    }

    /// The diagnostic state (failed-probe ranking + missed goal heads),
    /// with a counter snapshot attached.
    #[must_use]
    pub fn diag_snapshot(&self) -> DiagSnapshot {
        let d = self.inner.diag.lock().unwrap();
        DiagSnapshot {
            failed_probes: ranked(&d.failed_probes),
            missed_heads: ranked(&d.missed_heads),
            counters: self.snapshot(),
        }
    }

    /// Per-spec counter deltas recorded by [`crate::verify::verify`], in
    /// verification order.
    #[must_use]
    pub fn per_spec(&self) -> Vec<(String, CounterSnapshot)> {
        self.inner.per_spec.lock().unwrap().clone()
    }

    /// Records the counter delta attributable to one spec.
    pub fn record_spec(&self, name: &str, delta: CounterSnapshot) {
        self.inner
            .per_spec
            .lock()
            .unwrap()
            .push((name.to_owned(), delta));
    }

    /// Writes the session's summary to the process sink. Idempotent; a
    /// no-op when the sink is [`Sink::Off`]. The summary is appended as
    /// one line under a process-wide lock, so parallel workers' output
    /// never interleaves ("one sink per worker, merged at join").
    pub fn flush(&self) {
        if self.inner.flushed.swap(true, Ordering::SeqCst) {
            return;
        }
        let s = sink();
        if !s.is_on() {
            return;
        }
        let snap = self.snapshot();
        match s {
            Sink::Off => {}
            Sink::Stderr => {
                let _guard = SINK_LOCK.lock().unwrap();
                eprintln!(
                    "telemetry[{}]: probes {} (skipped {}, run {}, matched {}), rules {}, \
                     backtracks {}, evar solves {}, checker {}",
                    self.inner.label,
                    snap.probes_attempted,
                    snap.probes_skipped,
                    snap.probes_indexed_hit,
                    snap.probes_matched,
                    snap.rule_applications(),
                    snap.backtracks,
                    snap.evar_solve_events,
                    snap.checker_steps,
                );
            }
            Sink::File(path) => {
                let specs: Vec<String> = self
                    .per_spec()
                    .iter()
                    .map(|(name, d)| format!("\"{}\": {}", json_escape(name), d.json_object()))
                    .collect();
                let line = format!(
                    "{{\"event\":\"summary\",\"verify\":\"{}\",\"counters\":{},\"specs\":{{{}}}}}\n",
                    json_escape(&self.inner.label),
                    snap.json_object(),
                    specs.join(", ")
                );
                let _guard = SINK_LOCK.lock().unwrap();
                let res = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
                if let Err(e) = res {
                    eprintln!("telemetry: cannot append to {}: {e}", path.display());
                }
            }
        }
    }
}

/// Restores the previously installed session (if any) on drop. Not
/// `Send`: the guard must drop on the thread that installed the session.
pub struct TelemetryGuard {
    prev: Option<Arc<SessionInner>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        ACTIVE_SESSIONS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The session installed on this thread, if any. Used to re-install the
/// session across the engine's worker-thread hops.
#[must_use]
pub fn current() -> Option<TelemetrySession> {
    if ACTIVE_SESSIONS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CURRENT.with(|c| {
        c.borrow().as_ref().map(|inner| TelemetrySession {
            inner: Arc::clone(inner),
        })
    })
}

/// A session `verify` should auto-create: `Some` only when a sink is
/// configured and no session is already installed (an installed session —
/// e.g. the bench harness's per-example one — is reused instead).
#[must_use]
pub(crate) fn auto_session(label: &str) -> Option<TelemetrySession> {
    if sink().is_on() && current().is_none() {
        Some(TelemetrySession::new(label))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Instrumentation hooks (called from the engine; no-ops without a session)

#[inline]
fn with_session(f: impl FnOnce(&SessionInner)) {
    if ACTIVE_SESSIONS.load(Ordering::Relaxed) == 0 {
        return;
    }
    CURRENT.with(|c| {
        if let Some(inner) = c.borrow().as_ref() {
            f(inner);
        }
    });
}

/// A `(pass, hypothesis)` probe candidate passed the cheap pass filters.
/// Also one unit of payload for the enclosing `find_hint` profile span.
#[inline]
pub(crate) fn probe_attempted() {
    crate::profile::bump(1);
    with_session(|s| {
        s.counters.probes_attempted.fetch_add(1, Ordering::Relaxed);
    });
}

/// The head index proved the candidate cannot key the goal.
#[inline]
pub(crate) fn probe_skipped() {
    with_session(|s| {
        s.counters.probes_skipped.fetch_add(1, Ordering::Relaxed);
    });
}

/// The candidate passed the index filter; a hint search runs.
#[inline]
pub(crate) fn probe_run() {
    with_session(|s| {
        s.counters.probes_indexed_hit.fetch_add(1, Ordering::Relaxed);
    });
}

/// The probe produced an applicable hint.
#[inline]
pub(crate) fn probe_matched() {
    with_session(|s| {
        s.counters.probes_matched.fetch_add(1, Ordering::Relaxed);
    });
}

/// The probe on hypothesis `hyp` ran and failed (rolled back).
#[inline]
pub(crate) fn probe_failed(hyp: &str) {
    with_session(|s| {
        let mut d = s.diag.lock().unwrap();
        match d.failed_probes.get_mut(hyp) {
            Some(n) => *n += 1,
            None => {
                d.failed_probes.insert(hyp.to_owned(), 1);
            }
        }
    });
}

/// `find_hint` found nothing for a goal atom whose head `head` renders.
/// The head is only rendered when a session is installed.
#[inline]
pub(crate) fn hint_missed(head: impl FnOnce() -> String) {
    with_session(|s| {
        s.counters.hint_misses.fetch_add(1, Ordering::Relaxed);
        let mut d = s.diag.lock().unwrap();
        let head = head();
        match d.missed_heads.get_mut(&head) {
            Some(n) => *n += 1,
            None => {
                d.missed_heads.insert(head, 1);
            }
        }
    });
}

/// A [`TraceStep`] was appended to the proof trace.
#[inline]
pub(crate) fn count_step(step: &TraceStep) {
    with_session(|s| {
        s.counters.steps_by_kind[step.kind().index()].fetch_add(1, Ordering::Relaxed);
    });
}

/// A disjunction backtrack discarded `discarded_steps` trace steps.
#[inline]
pub(crate) fn backtracked(discarded_steps: u64) {
    with_session(|s| {
        s.counters.backtracks.fetch_add(1, Ordering::Relaxed);
        s.counters
            .deepest_abandoned
            .fetch_max(discarded_steps, Ordering::Relaxed);
    });
}

/// `delta` evar solve events were observed (see
/// [`CounterSnapshot::evar_solve_events`]).
#[inline]
pub(crate) fn evar_solves(delta: u64) {
    if delta == 0 {
        return;
    }
    with_session(|s| {
        s.counters
            .evar_solve_events
            .fetch_add(delta, Ordering::Relaxed);
    });
}

/// The checker replayed `n` steps. Also `n` units of payload for the
/// enclosing `check` profile span.
#[inline]
pub(crate) fn checker_steps(n: u64) {
    crate::profile::bump(n);
    with_session(|s| {
        s.counters.checker_steps.fetch_add(n, Ordering::Relaxed);
    });
}

/// Folds one specification's incremental-solver counters into the
/// session (called by the verification entry point after each spec).
#[inline]
pub(crate) fn egraph_stats(stats: diaframe_term::solver::egraph::EGraphStats) {
    if stats == diaframe_term::solver::egraph::EGraphStats::default() {
        return;
    }
    with_session(|s| {
        s.counters
            .solver_facts_asserted
            .fetch_add(stats.facts_asserted, Ordering::Relaxed);
        s.counters
            .solver_merges
            .fetch_add(stats.merges, Ordering::Relaxed);
        s.counters
            .solver_undo_ops
            .fetch_add(stats.undo_ops, Ordering::Relaxed);
        s.counters
            .solver_queries_incremental
            .fetch_add(stats.queries_incremental, Ordering::Relaxed);
        s.counters
            .solver_queries_rebuild
            .fetch_add(stats.queries_rebuild, Ordering::Relaxed);
    });
}

/// A persistent proof-store lookup was answered by a cached trace that
/// the checker replayed successfully.
#[inline]
pub fn store_hit() {
    with_session(|s| {
        s.counters.store_hits.fetch_add(1, Ordering::Relaxed);
    });
}

/// A persistent proof-store lookup fell through to a full search (no
/// entry, stale fingerprint, or a corrupt entry demoted to a miss).
#[inline]
pub fn store_miss() {
    with_session(|s| {
        s.counters.store_misses.fetch_add(1, Ordering::Relaxed);
    });
}

/// A store entry was rejected as corrupt (checksum mismatch, decode
/// failure, or a replay the checker refused). Callers count the
/// accompanying [`store_miss`] separately.
#[inline]
pub fn store_corruption() {
    with_session(|s| {
        s.counters.store_corruptions.fetch_add(1, Ordering::Relaxed);
    });
}

/// `n` store entries were evicted by the LRU byte-budget sweep.
#[inline]
pub fn store_evictions(n: u64) {
    if n == 0 {
        return;
    }
    with_session(|s| {
        s.counters.store_evictions.fetch_add(n, Ordering::Relaxed);
    });
}

/// `ms` milliseconds were spent replaying a stored trace on a hit.
#[inline]
pub fn store_replay_ms(ms: u64) {
    with_session(|s| {
        s.counters.store_replay_ms.fetch_add(ms, Ordering::Relaxed);
    });
}

/// `ms` milliseconds were spent in full search on the store miss path.
#[inline]
pub fn store_search_ms(ms: u64) {
    with_session(|s| {
        s.counters.store_search_ms.fetch_add(ms, Ordering::Relaxed);
    });
}

/// The diagnostic snapshot of the current session, if one is installed
/// (attached to [`crate::report::Stuck`] reports at stuck time).
#[must_use]
pub(crate) fn stuck_diag() -> Option<DiagSnapshot> {
    current().as_ref().map(TelemetrySession::diag_snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

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

        let diag = session.diag_snapshot();
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
    fn payload_hooks_feed_the_innermost_profile_span() {
        use crate::profile::{span, ProfileSession, SpanKind};
        let (session, profile) = (TelemetrySession::new("payload"), ProfileSession::new());
        {
            let (_t, _p) = (session.install(), profile.install());
            let find = span(SpanKind::FindHint);
            (0..3).for_each(|_| probe_attempted());
            drop(find);
            let _check = span(SpanKind::Check);
            checker_steps(5);
        }
        let payloads: Vec<(SpanKind, u64)> =
            profile.spans().iter().map(|r| (r.kind, r.count)).collect();
        let snap = session.snapshot();
        assert_eq!((snap.probes_attempted, snap.checker_steps), (3, 5));
        assert_eq!(payloads, [(SpanKind::FindHint, 3), (SpanKind::Check, 5)]);
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
        {
            let _ig = inner.install();
            probe_attempted();
        }
        probe_attempted();
        assert_eq!(inner.snapshot().probes_attempted, 1);
        assert_eq!(outer.snapshot().probes_attempted, 1);
        assert_eq!(current().unwrap().label(), "outer");
    }

    #[test]
    fn merge_and_delta_are_consistent() {
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

        let delta = b.delta_since(&a);
        assert_eq!(delta.probes_attempted, 3);
        // The max grew after `a`, so the delta carries it.
        assert_eq!(delta.deepest_abandoned, 9);
        assert_eq!(a.delta_since(&a).deepest_abandoned, 0);
    }

    #[test]
    fn sink_parsing() {
        assert_eq!(parse_sink(None), Sink::Off);
        assert_eq!(parse_sink(Some("")), Sink::Off);
        assert_eq!(parse_sink(Some("0")), Sink::Off);
        assert_eq!(parse_sink(Some("off")), Sink::Off);
        assert_eq!(parse_sink(Some("OFF")), Sink::Off);
        assert_eq!(parse_sink(Some("stderr")), Sink::Stderr);
        assert_eq!(
            parse_sink(Some("target/t.jsonl")),
            Sink::File(PathBuf::from("target/t.jsonl"))
        );
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
