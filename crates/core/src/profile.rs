//! The span tree of a [`TelemetrySession`]: span kinds, the span guard
//! and the exporters. Spans are the only place durations are recorded.
//!
//! Every verification, spec, search phase, hint-probe batch, case-split
//! branch, solver query batch and checker replay becomes a timestamped
//! span with a parent id and a thread/worker *lane*, recorded into the
//! session installed on the thread ([`crate::telemetry`]); `verify`
//! spans also carry their subtree's counters. The span tree is the
//! substrate for four consumers in `diaframe-bench`:
//!
//! * `figure6 --profile-out FILE` — Chrome trace-event JSON (open the file
//!   in [Perfetto](https://ui.perfetto.dev), one lane per pool worker /
//!   verification session thread), hand-rolled like
//!   [`crate::trace_json`] since serde is not available in this container;
//! * `figure6 --folded-out FILE` — folded-stacks text for flamegraph tools
//!   (`kind:label;kind:label;... self_us` per line);
//! * `figure6 --hotspots N` — per-rule/per-hint cost attribution (self vs.
//!   cumulative time, probe counts per span label);
//! * the `"spans"` blocks of the `figure6` JSON snapshot — per-kind
//!   count/total/p50/p95/max histograms over a run's subtree
//!   ([`TelemetrySession::span_stats`]).
//!
//! Spans cost nothing when no session is installed (one relaxed atomic
//! load per hook) and are a pure side channel: recording them must not
//! change a single byte of any emitted proof trace or figure6 table
//! (pinned by `crates/bench/tests/telemetry.rs`). The `find_hint` and
//! `check` payload counts are fed by the telemetry hooks themselves
//! (`probe_attempted`, `checker_steps`), so they equal the
//! `probes_attempted` and `checker_steps` counters by construction. The
//! exported Chrome trace is still *validated* ([`validate_chrome_trace`])
//! before `figure6 --profile-out` writes it.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::telemetry::{lock, with_local, CounterSnapshot, Tally, TelemetrySession};
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
    /// The counters of this span's subtree, kept for `verify` spans: their
    /// subtrees are the per-run counters. `None` for the other kinds,
    /// which keeps the log small (every hint search writes a record).
    pub counters: Option<Box<CounterSnapshot>>,
}

impl SpanRec {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// One open span on a thread's stack.
pub(crate) struct OpenSpan {
    pub(crate) id: u64,
    pub(crate) kind: SpanKind,
    label: Option<String>,
    start: Instant,
    pub(crate) count: u64,
    /// Whether the span has its own counter block (see [`span`]).
    pub(crate) block: bool,
}

impl TelemetrySession {
    /// Snapshot of all completed spans, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRec> {
        lock(&self.inner.log).spans.clone()
    }

    /// Lane names, indexed by [`SpanRec::lane`].
    #[must_use]
    pub fn lanes(&self) -> Vec<String> {
        lock(&self.inner.lanes).clone()
    }

    /// Per-kind duration histograms over the subtrees rooted at the
    /// span ids in `roots` (each root included), in [`SpanKind::ALL`]
    /// order; kinds with no span in the subtrees are omitted. Subtrees
    /// follow parent ids across lanes, so a verification's spans on a
    /// session thread count toward the `verify` span that spawned it.
    #[must_use]
    pub fn span_stats(&self, roots: &[u64]) -> Vec<(SpanKind, SpanStats)> {
        // Ids are allocated when a span opens, and its parent is open at
        // that moment, so in id order every parent precedes its children.
        let mut spans = self.spans();
        spans.sort_unstable_by_key(|s| s.id);
        let mut inside: HashSet<u64> = roots.iter().copied().collect();
        let mut durs: [Vec<u64>; SpanKind::COUNT] = Default::default();
        for s in &spans {
            if inside.contains(&s.id) || s.parent.is_some_and(|p| inside.contains(&p)) {
                inside.insert(s.id);
                durs[s.kind.index()].push(s.dur_ns);
            }
        }
        SpanKind::ALL
            .into_iter()
            .zip(durs)
            .filter(|(_, d)| !d.is_empty())
            .map(|(kind, d)| (kind, SpanStats::from_durations(d)))
            .collect()
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

/// Duration histogram for one span kind (see
/// [`TelemetrySession::span_stats`]): count, total, and nearest-rank
/// p50/p95/max percentiles, all in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of spans.
    pub count: u64,
    /// Sum of all durations, nanoseconds.
    pub total_ns: u64,
    /// Median duration (nearest-rank), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile duration (nearest-rank), nanoseconds.
    pub p95_ns: u64,
    /// Maximum duration, nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    fn from_durations(mut durs: Vec<u64>) -> SpanStats {
        durs.sort_unstable();
        SpanStats {
            count: durs.len() as u64,
            total_ns: durs.iter().sum(),
            p50_ns: percentile(&durs, 50),
            p95_ns: percentile(&durs, 95),
            max_ns: durs.last().copied().unwrap_or(0),
        }
    }
}

/// Nearest-rank percentile over **sorted** durations (`q` in 0..=100).
fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (q * n).div_ceil(100).max(1);
    sorted[usize::try_from(rank - 1).expect("rank fits usize")]
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

/// RAII guard for one span. Records the span into the installed session
/// when dropped. Not `Send`; must drop on the opening thread.
pub struct Span {
    active: Option<SpanActive>,
}

struct SpanActive {
    id: u64,
    /// Position of the span's frame in the thread's open stack.
    idx: usize,
    /// Identity of the session the frame was pushed under.
    session: *const (),
}

/// Open a span of `kind` on this thread. No-op (and allocation-free)
/// unless a session is installed here.
///
/// Only `verify` spans — whose subtrees are the per-run counters — and a
/// thread's outermost span get a counter block of their own; the hooks
/// feed the innermost open span that has one. That keeps the frame of
/// every other span, one per hint search, small.
#[must_use]
pub fn span(kind: SpanKind) -> Span {
    let active = with_local(|l, inner| {
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let block = kind == SpanKind::Verify || l.open.is_empty();
        if block {
            l.blocks.push(Tally::default());
        }
        l.open.push(OpenSpan {
            id,
            kind,
            label: None,
            start: Instant::now(),
            count: 0,
            block,
        });
        SpanActive {
            id,
            idx: l.open.len() - 1,
            session: Arc::as_ptr(inner).cast(),
        }
    });
    Span { active }
}

impl Span {
    /// The span's session-unique id, or `None` when the span is inactive
    /// (no session installed on this thread).
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }

    /// Attach a label (spec name, matched hypothesis…). Cheap no-op when
    /// the span is inactive.
    pub fn set_label(&mut self, label: &str) {
        if let Some(a) = &self.active {
            with_local(|l, _| {
                if let Some(f) = l.open.get_mut(a.idx) {
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
        with_local(|l, inner| {
            if Arc::as_ptr(inner).cast() != a.session {
                return; // the session it was opened under is no longer installed
            }
            // Normally we pop exactly our own frame; during an unwind
            // that skipped inner guards (they always run, but be
            // defensive) any deeper frames are closed innermost-first at
            // the same end time to keep the tree balanced. A closing
            // block folds its subtree's tally into the enclosing block on
            // this thread, or — across a thread hop — hands it back to the
            // adopted span, which collects it when it closes.
            let mut log = lock(&inner.log);
            while l.open.len() > a.idx {
                let f = l.open.pop().expect("len checked");
                let children = log.handed_back.remove(&f.id);
                let tally = if f.block {
                    let mut block = l.blocks.pop().expect("one block per block frame");
                    block.merge(children.unwrap_or_default());
                    Some(block)
                } else {
                    children
                };
                let parent = l.open.last().map(|p| p.id).or(l.adopted);
                let start_ns = u64::try_from(f.start.saturating_duration_since(inner.epoch).as_nanos())
                    .unwrap_or(u64::MAX);
                let dur_ns = u64::try_from(now.saturating_duration_since(f.start).as_nanos())
                    .unwrap_or(u64::MAX);
                log.spans.push(SpanRec {
                    id: f.id,
                    parent,
                    kind: f.kind,
                    label: f.label.unwrap_or_default(),
                    lane: l.lane,
                    start_ns,
                    dur_ns,
                    count: f.count,
                    counters: tally
                        .as_ref()
                        .filter(|_| f.kind == SpanKind::Verify)
                        .map(|t| Box::new(t.counters.clone())),
                });
                let Some(tally) = tally else { continue };
                match (l.blocks.last_mut(), parent) {
                    (Some(enclosing), _) => enclosing.merge(tally),
                    (None, Some(p)) => log.handed_back.entry(p).or_default().merge(tally),
                    (None, None) => lock(&inner.root).merge(tally),
                }
            }
        });
    }
}

/// Add `n` to the payload counter of the innermost open span on this
/// thread (e.g. the facts of one solver batch). No-op without a session.
pub fn bump(n: u64) {
    with_local(|l, _| {
        if let Some(f) = l.open.last_mut() {
            f.count += n;
        }
    });
}

/// Validate a Chrome trace-event JSON document produced by
/// [`TelemetrySession::chrome_trace`] (or anything claiming the same
/// contract): every lane's `B`/`E` events must balance and its
/// timestamps must be monotonically non-decreasing. Returns
/// `(duration_event_count, lane_count)`.
///
/// This is the checker the CI observability gate runs against the
/// exported trace.
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
        let s = TelemetrySession::new("test");
        {
            let mut sp = span(SpanKind::Search);
            sp.set_label("ignored");
            bump(7);
        }
        assert!(s.spans().is_empty());
    }

    #[test]
    fn nesting_parents_counts_and_labels() {
        let s = TelemetrySession::new("test");
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
    }

    #[test]
    fn span_stats_cover_exactly_the_subtree() {
        let s = TelemetrySession::new("test");
        let g = s.install();
        let mut roots = Vec::new();
        for _ in 0..2 {
            let root = span(SpanKind::Verify);
            roots.push(root.id().expect("session installed"));
            for us in [10, 40] {
                let _search = span(SpanKind::Search);
                spin(us);
            }
        }
        drop(span(SpanKind::Check)); // outside both subtrees
        drop(g);
        let one = s.span_stats(&roots[..1]);
        let kinds: Vec<SpanKind> = one.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, [SpanKind::Verify, SpanKind::Search]);
        let search = one[1].1;
        assert_eq!(search.count, 2);
        assert!(search.p50_ns <= search.p95_ns && search.p95_ns == search.max_ns);
        let both = s.span_stats(&roots);
        assert_eq!((both.len(), both[0].1.count, both[1].1.count), (2, 2, 4));
        assert!(s.span_stats(&[]).is_empty());
        let d: Vec<u64> = (1..=20).collect();
        assert_eq!([50, 95, 100].map(|q| percentile(&d, q)), [10, 19, 20]);
    }

    #[test]
    fn chrome_trace_escapes_validates_and_round_trips() {
        let s = TelemetrySession::new("test");
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
        let s = TelemetrySession::new("test");
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
