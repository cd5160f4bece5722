//! Opt-in hierarchical search-tree profiler.
//!
//! Where [`crate::telemetry`] aggregates *flat counters* per verification,
//! this module records the *shape* of a run: every verification, spec,
//! search phase, hint-probe batch, case-split branch, solver query batch
//! and checker replay becomes a timestamped span with a parent id and a
//! thread/worker *lane*. The span tree is the substrate for three
//! consumers in `diaframe-bench`:
//!
//! * `figure6 --profile-out FILE` — Chrome trace-event JSON (open the file
//!   in [Perfetto](https://ui.perfetto.dev), one lane per pool worker /
//!   verification session thread), hand-rolled like
//!   [`crate::trace_json`] since serde is not available in this container;
//! * `figure6 --folded-out FILE` — folded-stacks text for flamegraph tools
//!   (`kind:label;kind:label;... self_us` per line);
//! * `figure6 --hotspots N` — per-rule/per-hint cost attribution (self vs.
//!   cumulative time, probe counts per span label).
//!
//! Discipline is identical to the telemetry layer: **zero cost when off**
//! (a single relaxed atomic load per hook), sessions are installed
//! per-thread and propagated across `run_ordered` workers and
//! verification session threads. Profiling is a pure side channel:
//! turning it on must not change a single byte of any emitted proof
//! trace or figure6 table (pinned by
//! `crates/bench/tests/profile_identity.rs`).
//!
//! The profiler is not trusted, it is *cross-checked*: span rollups must
//! reconcile exactly with the flat telemetry counters (the sum of
//! probe-batch span counts equals `probes_attempted`, the sum of check
//! span counts equals `checker_steps`), asserted by
//! `figure6 --profile-out`, the profile-identity suite and the fuzz
//! campaign in CI.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::trace_json::{json_escape, parse_json_value, JsonValue};

/// The kind of a profiled span — one variant per instrumented region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One example verification run (all its specs), labelled with the
    /// example name (bench cache layer).
    Verify,
    /// One spec verification, labelled with the spec name (`verify.rs`).
    Spec,
    /// One engine search phase for a goal (`verify.rs::verify_goal`).
    Search,
    /// One `find_hint` probe batch; `count` is the number of hypothesis
    /// probes attempted, the label is the matched hypothesis (or `(miss)`).
    FindHint,
    /// One case-split branch search, labelled with the branch index
    /// (`strategy.rs`).
    Branch,
    /// One pure-solver query batch discharging a recorded obligation;
    /// `count` is the number of solver queries in the batch.
    SolverBatch,
    /// One whole-trace checker replay (`checker::check`); `count` is the
    /// number of steps replayed.
    Check,
}

impl SpanKind {
    /// Number of span kinds.
    pub const COUNT: usize = 7;

    /// All kinds, in `index()` order.
    pub const ALL: [SpanKind; SpanKind::COUNT] = [
        SpanKind::Verify,
        SpanKind::Spec,
        SpanKind::Search,
        SpanKind::FindHint,
        SpanKind::Branch,
        SpanKind::SolverBatch,
        SpanKind::Check,
    ];

    /// Dense index of this kind (position in [`SpanKind::ALL`]).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            SpanKind::Verify => 0,
            SpanKind::Spec => 1,
            SpanKind::Search => 2,
            SpanKind::FindHint => 3,
            SpanKind::Branch => 4,
            SpanKind::SolverBatch => 5,
            SpanKind::Check => 6,
        }
    }

    /// Stable snake_case name (used in the trace-event `cat` field, the
    /// folded-stacks paths and the hotspots table).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Verify => "verify",
            SpanKind::Spec => "spec",
            SpanKind::Search => "search",
            SpanKind::FindHint => "find_hint",
            SpanKind::Branch => "branch",
            SpanKind::SolverBatch => "solver_batch",
            SpanKind::Check => "check",
        }
    }
}

/// One completed span, as stored in the session.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Session-unique id (ids start at 1; 0 never occurs).
    pub id: u64,
    /// Parent span id, if any. The parent is the innermost open span on
    /// the recording thread, or the span adopted across a thread hop
    /// (`install_with_parent`), and may live on a different lane.
    pub parent: Option<u64>,
    /// What was being timed.
    pub kind: SpanKind,
    /// Kind-specific label (spec name, matched hypothesis, branch index…).
    /// Empty when the kind alone identifies the region.
    pub label: String,
    /// Lane (thread/worker instance) the span was recorded on.
    pub lane: u32,
    /// Start offset from the session epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds (0 for instant marks).
    pub dur_ns: u64,
    /// Kind-specific payload counter (probes for `FindHint`, replayed
    /// steps for `Check`, queries for `SolverBatch`).
    pub count: u64,
}

impl SpanRec {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

struct ProfInner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    lanes: Mutex<Vec<String>>,
}

impl ProfInner {
    fn register_lane(&self, base: &str) -> u32 {
        let mut lanes = self.lanes.lock().unwrap_or_else(PoisonError::into_inner);
        let mut name = base.to_string();
        let mut k = 1usize;
        while lanes.iter().any(|l| l == &name) {
            k += 1;
            name = format!("{base}#{k}");
        }
        lanes.push(name);
        u32::try_from(lanes.len() - 1).expect("lane count fits u32")
    }

    fn push(&self, rec: SpanRec) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(rec);
    }
}

/// How many profile sessions are currently installed, process-wide. The
/// fast path of every hook is a single relaxed load of this counter.
static ACTIVE_PROFILERS: AtomicUsize = AtomicUsize::new(0);

struct OpenSpan {
    id: u64,
    kind: SpanKind,
    label: Option<String>,
    start: Instant,
    count: u64,
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<ProfInner>>> = const { RefCell::new(None) };
    static LANE: Cell<u32> = const { Cell::new(0) };
    static ADOPTED: Cell<Option<u64>> = const { Cell::new(None) };
    static OPEN: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

/// A profiling session: an append-only span log shared by every thread
/// the session is [installed](ProfileSession::install) on. Clone is
/// cheap (`Arc`); clones share the log.
#[derive(Clone)]
pub struct ProfileSession {
    inner: Arc<ProfInner>,
}

impl std::fmt::Debug for ProfileSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileSession").finish_non_exhaustive()
    }
}

impl Default for ProfileSession {
    fn default() -> Self {
        ProfileSession::new()
    }
}

/// Restores the previously installed session (if any) on drop.
/// Not `Send`: must be dropped on the installing thread.
pub struct ProfileGuard {
    prev: Option<Arc<ProfInner>>,
    prev_lane: u32,
    prev_adopted: Option<u64>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            if cur.is_some() {
                ACTIVE_PROFILERS.fetch_sub(1, Ordering::SeqCst);
            }
            *cur = self.prev.take();
            if cur.is_some() {
                ACTIVE_PROFILERS.fetch_add(1, Ordering::SeqCst);
            }
        });
        LANE.with(|l| l.set(self.prev_lane));
        ADOPTED.with(|a| a.set(self.prev_adopted));
    }
}

impl ProfileSession {
    /// Create a new, empty session. Nothing is recorded until it is
    /// [installed](ProfileSession::install) on a thread.
    #[must_use]
    pub fn new() -> Self {
        ProfileSession {
            inner: Arc::new(ProfInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                lanes: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Install this session on the current thread: spans opened on this
    /// thread are recorded into it until the guard drops. The thread gets
    /// its own *lane*, named after the OS thread (uniquified with `#k` on
    /// collision), so pool workers and verification session threads each
    /// render as their own timeline row.
    #[must_use]
    pub fn install(&self) -> ProfileGuard {
        self.install_with_parent(None)
    }

    /// Like [`install`](ProfileSession::install), but new root spans on
    /// this thread adopt `parent` as their parent id — used when hopping
    /// threads (pool workers, verification session threads) so the tree
    /// stays connected across lanes.
    #[must_use]
    pub fn install_with_parent(&self, parent: Option<u64>) -> ProfileGuard {
        let base = std::thread::current()
            .name()
            .unwrap_or("main")
            .to_string();
        let lane = self.inner.register_lane(&base);
        let prev = CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            if cur.is_none() {
                ACTIVE_PROFILERS.fetch_add(1, Ordering::SeqCst);
            }
            cur.replace(Arc::clone(&self.inner))
        });
        ProfileGuard {
            prev,
            prev_lane: LANE.with(|l| l.replace(lane)),
            prev_adopted: ADOPTED.with(|a| a.replace(parent)),
            _not_send: PhantomData,
        }
    }

    /// Snapshot of all completed spans, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRec> {
        self.inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Lane names, indexed by [`SpanRec::lane`].
    #[must_use]
    pub fn lanes(&self) -> Vec<String> {
        self.inner
            .lanes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Per-kind rollup: number of spans, payload-counter sum, cumulative
    /// nanoseconds. Indexed by [`SpanKind::index`]. These are the values
    /// the accounting identities check against the flat telemetry
    /// counters.
    #[must_use]
    pub fn rollup(&self) -> [KindRollup; SpanKind::COUNT] {
        let mut out = [KindRollup::default(); SpanKind::COUNT];
        for s in self
            .inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            let slot = &mut out[s.kind.index()];
            slot.spans += 1;
            slot.count += s.count;
            slot.total_ns += s.dur_ns;
        }
        out
    }

    /// Chrome trace-event JSON for the whole session: balanced `B`/`E`
    /// duration events per lane (`tid` = lane index, timestamps in
    /// microseconds, monotonically non-decreasing within a lane), plus
    /// `M` metadata events naming each lane. Load the output in Perfetto
    /// or `chrome://tracing`.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans();
        let lanes = self.lanes();
        let mut out = String::with_capacity(spans.len() * 128 + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"diaframe\"}}",
        );
        for (i, lane) in lanes.iter().enumerate() {
            out.push_str(&format!(
                ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(lane)
            ));
            out.push_str(&format!(
                ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{i}}}}}",
            ));
        }
        // Emit each lane's spans as properly nested B/E pairs. Within a
        // lane the spans came from one thread's guard stack, so sorting
        // by (start asc, end desc) and walking with a stack reconstructs
        // the nesting; ends are clamped to the enclosing span so the
        // output stays balanced and monotonic even if clock granularity
        // produced a tie.
        for (lane, idxs) in per_lane_sorted(&spans) {
            let mut stack: Vec<(usize, u64)> = Vec::new(); // (span idx, effective end)
            for i in idxs {
                let s = &spans[i];
                let (start, mut end) = (s.start_ns / 1000, s.end_ns() / 1000);
                while let Some(&(_, top_end)) = stack.last() {
                    if top_end <= start {
                        out.push_str(&format!(
                            ",\n{{\"ph\":\"E\",\"pid\":1,\"tid\":{lane},\"ts\":{top_end}}}"
                        ));
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&(_, top_end)) = stack.last() {
                    end = end.min(top_end);
                }
                let name = if s.label.is_empty() {
                    s.kind.name().to_string()
                } else {
                    format!("{}:{}", s.kind.name(), s.label)
                };
                let parent = s.parent.unwrap_or(0);
                out.push_str(&format!(
                    ",\n{{\"ph\":\"B\",\"pid\":1,\"tid\":{lane},\"ts\":{start},\
                     \"name\":\"{}\",\"cat\":\"{}\",\
                     \"args\":{{\"id\":{},\"parent\":{parent},\"count\":{}}}}}",
                    json_escape(&name),
                    s.kind.name(),
                    s.id,
                    s.count
                ));
                stack.push((i, end.max(start)));
            }
            while let Some((_, top_end)) = stack.pop() {
                out.push_str(&format!(
                    ",\n{{\"ph\":\"E\",\"pid\":1,\"tid\":{lane},\"ts\":{top_end}}}"
                ));
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Folded-stacks flamegraph text: one `path value` line per distinct
    /// root-to-span path (`;`-separated `kind:label` frames, following
    /// parent ids across lanes), value = aggregated *self* time in
    /// microseconds. Feed to any `flamegraph.pl`-compatible tool.
    #[must_use]
    pub fn folded_stacks(&self) -> String {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let by_id: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for (i, self_ns) in selfs.iter().enumerate() {
            let self_us = self_ns / 1000;
            if self_us == 0 {
                continue;
            }
            let mut frames = Vec::new();
            let mut cur = Some(i);
            let mut hops = 0usize;
            while let Some(j) = cur {
                let sp = &spans[j];
                let frame = if sp.label.is_empty() {
                    sp.kind.name().to_string()
                } else {
                    format!("{}:{}", sp.kind.name(), sp.label)
                };
                frames.push(frame);
                hops += 1;
                if hops > 128 {
                    break; // defensive: a parent cycle would be a bug
                }
                cur = sp.parent.and_then(|p| by_id.get(&p).copied());
            }
            frames.reverse();
            let path = frames.join(";").replace(' ', "_");
            *folded.entry(path).or_insert(0) += self_us;
        }
        let mut out = String::new();
        for (path, us) in &folded {
            out.push_str(&format!("{path} {us}\n"));
        }
        out
    }

    /// Top-`n` cost attribution rows aggregated by `(kind, label)`,
    /// sorted by self time (cumulative minus same-lane children)
    /// descending.
    #[must_use]
    pub fn hotspots(&self, n: usize) -> Vec<Hotspot> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut agg: BTreeMap<(SpanKind, String), Hotspot> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let slot = agg
                .entry((s.kind, s.label.clone()))
                .or_insert_with(|| Hotspot {
                    kind: s.kind,
                    label: s.label.clone(),
                    calls: 0,
                    self_ns: 0,
                    cum_ns: 0,
                    count: 0,
                });
            slot.calls += 1;
            slot.self_ns += selfs[i];
            slot.cum_ns += s.dur_ns;
            slot.count += s.count;
        }
        let mut rows: Vec<Hotspot> = agg.into_values().collect();
        rows.sort_by(|a, b| {
            b.self_ns
                .cmp(&a.self_ns)
                .then_with(|| b.cum_ns.cmp(&a.cum_ns))
                .then_with(|| a.label.cmp(&b.label))
        });
        rows.truncate(n);
        rows
    }
}

/// Per-kind rollup totals (see [`ProfileSession::rollup`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindRollup {
    /// Number of spans of this kind.
    pub spans: u64,
    /// Sum of the kind-specific payload counters.
    pub count: u64,
    /// Cumulative duration, nanoseconds.
    pub total_ns: u64,
}

/// One row of the `figure6 --hotspots` table.
#[derive(Debug, Clone)]
pub struct Hotspot {
    /// Span kind of the aggregated group.
    pub kind: SpanKind,
    /// Span label of the aggregated group (may be empty).
    pub label: String,
    /// Number of spans aggregated.
    pub calls: u64,
    /// Self time (cumulative minus same-lane children), nanoseconds.
    pub self_ns: u64,
    /// Cumulative time, nanoseconds.
    pub cum_ns: u64,
    /// Payload counter sum (probes / steps / queries).
    pub count: u64,
}

/// Group span indices by lane, each sorted by (start asc, end desc, id).
fn per_lane_sorted(spans: &[SpanRec]) -> BTreeMap<u32, Vec<usize>> {
    let mut by_lane: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_lane.entry(s.lane).or_default().push(i);
    }
    for idxs in by_lane.values_mut() {
        idxs.sort_by(|&a, &b| {
            spans[a]
                .start_ns
                .cmp(&spans[b].start_ns)
                .then_with(|| spans[b].end_ns().cmp(&spans[a].end_ns()))
                .then_with(|| spans[a].id.cmp(&spans[b].id))
        });
    }
    by_lane
}

/// Self time per span: duration minus the durations of *direct same-lane
/// children* (cross-lane children — a verification session thread under
/// a pool worker's span — do not eat their parent's self time).
fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for idxs in per_lane_sorted(spans).values() {
        let mut stack: Vec<usize> = Vec::new();
        for &i in idxs {
            let s = &spans[i];
            while let Some(&top) = stack.last() {
                if spans[top].end_ns() <= s.start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = stack.last() {
                child_ns[top] += s.dur_ns.min(spans[top].dur_ns);
            }
            stack.push(i);
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// Whether any profile session is installed anywhere in the process.
/// One relaxed load — this is the hook fast path.
#[must_use]
pub fn enabled() -> bool {
    ACTIVE_PROFILERS.load(Ordering::Relaxed) != 0
}

/// Whether a profile session is installed on *this* thread (label
/// computations may key off this to stay free when profiling is off).
#[must_use]
pub fn active() -> bool {
    enabled() && CURRENT.with(|c| c.borrow().is_some())
}

/// The session installed on this thread, if any — used to propagate the
/// session into spawned workers, mirroring `telemetry::current()`.
#[must_use]
pub fn current() -> Option<ProfileSession> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|inner| ProfileSession {
                inner: Arc::clone(inner),
            })
    })
}

/// Id of the innermost span currently open on this thread, if any — pass
/// it to [`ProfileSession::install_with_parent`] across a thread hop.
#[must_use]
pub fn current_span_id() -> Option<u64> {
    if !enabled() {
        return None;
    }
    OPEN.with(|o| o.borrow().last().map(|f| f.id))
}

/// RAII guard for one span. Records the span into the installed session
/// when dropped. Not `Send`; must drop on the opening thread.
pub struct Span {
    active: Option<SpanActive>,
    _not_send: PhantomData<*const ()>,
}

struct SpanActive {
    inner: Arc<ProfInner>,
    idx: usize,
}

/// Open a span of `kind` on this thread. No-op (and allocation-free)
/// unless a session is installed here.
#[must_use]
pub fn span(kind: SpanKind) -> Span {
    if !enabled() {
        return Span {
            active: None,
            _not_send: PhantomData,
        };
    }
    let inner = CURRENT.with(|c| c.borrow().as_ref().map(Arc::clone));
    let Some(inner) = inner else {
        return Span {
            active: None,
            _not_send: PhantomData,
        };
    };
    let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
    let idx = OPEN.with(|o| {
        let mut open = o.borrow_mut();
        open.push(OpenSpan {
            id,
            kind,
            label: None,
            start: Instant::now(),
            count: 0,
        });
        open.len() - 1
    });
    Span {
        active: Some(SpanActive { inner, idx }),
        _not_send: PhantomData,
    }
}

impl Span {
    /// Attach a label (spec name, matched hypothesis…). Cheap no-op when
    /// the span is inactive; call sites guard expensive label rendering
    /// behind [`active`].
    pub fn set_label(&mut self, label: &str) {
        if let Some(a) = &self.active {
            OPEN.with(|o| {
                if let Some(f) = o.borrow_mut().get_mut(a.idx) {
                    f.label = Some(label.to_string());
                }
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let now = Instant::now();
        OPEN.with(|o| {
            let mut open = o.borrow_mut();
            // Normally we pop exactly our own frame; during an unwind
            // that skipped inner guards (they always run, but be
            // defensive) any deeper frames are closed innermost-first at
            // the same end time to keep the tree balanced.
            while open.len() > a.idx {
                let f = open.pop().expect("len checked");
                let parent = if open.is_empty() {
                    ADOPTED.with(Cell::get)
                } else {
                    open.last().map(|p| p.id)
                };
                let start_ns =
                    u64::try_from(f.start.saturating_duration_since(a.inner.epoch).as_nanos())
                        .unwrap_or(u64::MAX);
                let dur_ns = u64::try_from(now.saturating_duration_since(f.start).as_nanos())
                    .unwrap_or(u64::MAX);
                a.inner.push(SpanRec {
                    id: f.id,
                    parent,
                    kind: f.kind,
                    label: f.label.unwrap_or_default(),
                    lane: LANE.with(Cell::get),
                    start_ns,
                    dur_ns,
                    count: f.count,
                });
            }
        });
    }
}

/// Add `n` to the payload counter of the innermost open span on this
/// thread (e.g. one probe attempted inside a `FindHint` span). No-op
/// when profiling is off.
pub fn bump(n: u64) {
    if !enabled() {
        return;
    }
    OPEN.with(|o| {
        if let Some(f) = o.borrow_mut().last_mut() {
            f.count += n;
        }
    });
}

/// Validate a Chrome trace-event JSON document produced by
/// [`ProfileSession::chrome_trace`] (or anything claiming the same
/// contract): every lane's `B`/`E` events must balance and its
/// timestamps must be monotonically non-decreasing. Returns
/// `(duration_event_count, lane_count)`.
///
/// This is the checker the CI profile gate runs against the exported
/// trace — the profiler is cross-checked, not trusted.
pub fn validate_chrome_trace(text: &str) -> Result<(usize, usize), String> {
    let doc = parse_json_value(text).map_err(|e| format!("trace JSON parse error: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    struct LaneState {
        depth: usize,
        last_ts: u64,
    }
    let mut lanes: BTreeMap<u64, LaneState> = BTreeMap::new();
    let mut n_events = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        if ph != "B" && ph != "E" {
            return Err(format!("event {i}: unexpected ph {ph:?}"));
        }
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let lane = lanes.entry(tid).or_insert(LaneState { depth: 0, last_ts: 0 });
        if ts < lane.last_ts {
            return Err(format!(
                "event {i}: lane {tid} timestamp went backwards ({ts} < {})",
                lane.last_ts
            ));
        }
        lane.last_ts = ts;
        if ph == "B" {
            lane.depth += 1;
        } else if lane.depth == 0 {
            return Err(format!("event {i}: lane {tid} E without matching B"));
        } else {
            lane.depth -= 1;
        }
        n_events += 1;
    }
    for (tid, lane) in &lanes {
        if lane.depth != 0 {
            return Err(format!("lane {tid}: {} unclosed B events", lane.depth));
        }
    }
    Ok((n_events, lanes.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn off_records_nothing_and_is_inert() {
        // No session installed on this thread: spans are no-ops.
        let s = ProfileSession::new();
        {
            let mut sp = span(SpanKind::Search);
            sp.set_label("ignored");
            bump(7);
        }
        assert!(s.spans().is_empty());
        assert_eq!(current_span_id(), None);
    }

    #[test]
    fn nesting_parents_counts_and_labels() {
        let s = ProfileSession::new();
        let g = s.install();
        {
            let mut outer = span(SpanKind::Spec);
            outer.set_label("push");
            {
                let _inner = span(SpanKind::FindHint);
                bump(3);
                bump(2);
                spin(50);
            }
        }
        drop(g);
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        // Completion order: inner FindHint, outer Spec.
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.kind, SpanKind::FindHint);
        assert_eq!(inner.count, 5);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.kind, SpanKind::Spec);
        assert_eq!(outer.label, "push");
        assert_eq!(outer.parent, None);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(inner.start_ns >= outer.start_ns);
        let roll = s.rollup();
        assert_eq!(roll[SpanKind::FindHint.index()].count, 5);
        assert_eq!(roll[SpanKind::Spec.index()].spans, 1);
    }

    #[test]
    fn adopted_parent_links_across_threads() {
        let s = ProfileSession::new();
        let g = s.install();
        let outer = span(SpanKind::Branch);
        let parent = current_span_id().expect("branch span open");
        let s2 = s.clone();
        std::thread::Builder::new()
            .name("prof-test-worker".into())
            .spawn(move || {
                let _g = s2.install_with_parent(Some(parent));
                let _w = span(SpanKind::Search);
                spin(20);
            })
            .expect("spawn")
            .join()
            .expect("join");
        drop(outer);
        drop(g);
        let spans = s.spans();
        let worker = spans
            .iter()
            .find(|r| r.kind == SpanKind::Search)
            .expect("worker span recorded");
        assert_eq!(worker.parent, Some(parent));
        let lanes = s.lanes();
        assert_eq!(lanes.len(), 2);
        assert!(lanes[usize::try_from(worker.lane).unwrap()].contains("prof-test-worker"));
    }

    #[test]
    fn chrome_trace_escapes_validates_and_round_trips() {
        let s = ProfileSession::new();
        let g = s.install();
        {
            let mut sp = span(SpanKind::Spec);
            sp.set_label("odd \"name\"\\with\nnewline\tand\u{1}ctl");
            spin(30);
            {
                let _inner = span(SpanKind::Search);
                spin(30);
            }
        }
        drop(g);
        let trace = s.chrome_trace();
        // Escaping: the raw control characters must not survive.
        assert!(trace.contains("odd \\\"name\\\"\\\\with\\nnewline\\tand\\u0001ctl"));
        assert!(!trace.contains('\u{1}'));
        // Round-trip: our own hand-rolled parser must accept it and the
        // validator must find balanced, monotonic lanes.
        let (events, lanes) = validate_chrome_trace(&trace).expect("valid trace");
        assert_eq!(events, 4); // 2 spans -> 2 B + 2 E
        assert_eq!(lanes, 1);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // Unbalanced: B without E.
        let unbalanced = "{\"traceEvents\":[\
            {\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1,\"name\":\"x\"}]}";
        assert!(validate_chrome_trace(unbalanced).is_err());
        // E without B.
        let stray = "{\"traceEvents\":[{\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":1}]}";
        assert!(validate_chrome_trace(stray).is_err());
        // Backwards timestamps within a lane.
        let backwards = "{\"traceEvents\":[\
            {\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":5,\"name\":\"x\"},\
            {\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":4}]}";
        assert!(validate_chrome_trace(backwards).is_err());
        // A correct two-lane trace passes.
        let ok = "{\"traceEvents\":[\
            {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"a\"}},\
            {\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1,\"name\":\"x\"},\
            {\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1,\"name\":\"y\"},\
            {\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2},\
            {\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":3}]}";
        assert_eq!(validate_chrome_trace(ok).expect("valid"), (4, 2));
    }

    #[test]
    fn folded_stacks_and_hotspots_attribute_self_time() {
        let s = ProfileSession::new();
        let g = s.install();
        {
            let mut outer = span(SpanKind::Spec);
            outer.set_label("push");
            spin(300);
            {
                let mut inner = span(SpanKind::FindHint);
                inner.set_label("lock");
                bump(4);
                spin(300);
            }
        }
        drop(g);
        let folded = s.folded_stacks();
        assert!(folded.contains("spec:push;find_hint:lock "));
        assert!(folded.lines().any(|l| l.starts_with("spec:push ")));
        let hot = s.hotspots(10);
        assert_eq!(hot.len(), 2);
        let spec = hot
            .iter()
            .find(|h| h.kind == SpanKind::Spec)
            .expect("spec row");
        let fh = hot
            .iter()
            .find(|h| h.kind == SpanKind::FindHint)
            .expect("find_hint row");
        assert_eq!(fh.count, 4);
        // The parent's self time excludes the child's cumulative time.
        assert!(spec.self_ns < spec.cum_ns);
        assert!(fh.cum_ns <= spec.cum_ns);
    }
}
