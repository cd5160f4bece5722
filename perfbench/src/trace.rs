//! In-memory spans for the traced run, and the per-layer ledger built
//! from them.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions; a request's spans share its id and hang off one
//! root `request` span. Nothing is written until the run ends. A layer's
//! *self time* is its span's duration minus its children's; the root's
//! self time is the part of the request no layer span covers
//! (`unattributed_ms`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`store.read`, `verify.search`, …) or `request`.
    pub name: &'static str,
    /// The request this span belongs to.
    pub request: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

/// The name of every request's root span.
pub const ROOT: &str = "request";

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
}

impl Tracer {
    /// An empty recorder; all timestamps count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: None,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens request `request`'s root span.
    pub fn begin_request(&mut self, request: u64) {
        assert!(self.open.is_none(), "requests do not nest");
        let start_ns = self.now();
        self.open = Some(self.spans.len());
        self.spans.push(Span {
            name: ROOT,
            request,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the open request and returns its duration in ns.
    pub fn end_request(&mut self) -> u64 {
        let end_ns = self.now();
        let root = self.open.take().expect("no open request");
        let span = &mut self.spans[root];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Runs `f` inside a `name` span under the open request.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let parent = self.open.expect("layer spans belong to a request");
        self.spans.push(Span {
            name,
            request: self.spans[parent].request,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_none(), "a request is still open");
        self.spans
    }
}

/// Concatenates several tracers' spans, re-basing parent indices.
#[must_use]
pub fn merge(tracers: impl IntoIterator<Item = Tracer>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for tracer in tracers {
        let base = out.len();
        out.extend(tracer.into_spans().into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time per layer, summed over every traced request.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Traced requests.
    pub requests: u64,
    /// Sum of request (root span) durations, ns.
    pub wall_ns: u64,
    /// Self time per span name, ns; the [`ROOT`] entry is the
    /// unattributed remainder.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// Builds the ledger and checks that it reconciles: every child lies
    /// inside its parent, children of one parent do not overlap, and the
    /// self times sum exactly to the request wall time.
    ///
    /// # Errors
    ///
    /// Returns the first violated property.
    pub fn build(spans: &[Span]) -> Result<Ledger, String> {
        let mut ledger = Ledger::default();
        let mut child_ns = vec![0u64; spans.len()];
        let mut last_child_end = vec![0u64; spans.len()];
        for s in spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} of request {} ends before it starts", s.name, s.request));
            }
            let Some(p) = s.parent else { continue };
            let parent = &spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns || parent.request != s.request {
                return Err(format!("span {} escapes request {}", s.name, s.request));
            }
            if s.start_ns < last_child_end[p] {
                return Err(format!("span {} overlaps a sibling in request {}", s.name, s.request));
            }
            last_child_end[p] = s.end_ns;
            child_ns[p] += s.end_ns - s.start_ns;
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            *ledger.self_ns.entry(s.name).or_default() += dur - child_ns[i];
            if s.parent.is_none() {
                ledger.requests += 1;
                ledger.wall_ns += dur;
            }
        }
        let total: u64 = ledger.self_ns.values().sum();
        if total != ledger.wall_ns {
            return Err(format!(
                "ledger does not reconcile: self times sum to {total} ns, requests to {} ns",
                ledger.wall_ns
            ));
        }
        Ok(ledger)
    }

    /// Mean self time of `name` per request, in ms.
    #[must_use]
    pub fn per_request_ms(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).copied().unwrap_or(0);
        ns as f64 / 1e6 / self.requests.max(1) as f64
    }

    /// Mean request wall time, in ms.
    #[must_use]
    pub fn request_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6 / self.requests.max(1) as f64
    }

    /// A human-readable table: self time per layer, per request.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<26} {:>12} {:>8}", "layer (self time)", "ms/request", "share");
        let wall = self.wall_ns.max(1) as f64;
        for (name, ns) in &self.self_ns {
            let label = if *name == ROOT { "unattributed" } else { name };
            let _ = writeln!(
                out,
                "{label:<26} {:>12.4} {:>7.2}%",
                self.per_request_ms(name),
                *ns as f64 * 100.0 / wall
            );
        }
        let _ = writeln!(out, "{:<26} {:>12.4} {:>7.2}%", "request wall", self.request_ms(), 100.0);
        out
    }
}

/// Renders spans as JSON lines (for `--trace-out`).
#[must_use]
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| String::from("null"), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.request, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, request: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_times_reconcile_with_the_request_wall() {
        let spans = vec![
            span(ROOT, None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 90),
        ];
        let ledger = Ledger::build(&spans).unwrap();
        assert_eq!(ledger.self_ns[ROOT], 30);
        assert_eq!(ledger.self_ns["a"], 30);
        assert_eq!(ledger.wall_ns, 100);
    }

    #[test]
    fn overlapping_siblings_are_rejected() {
        let spans = vec![
            span(ROOT, None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 50, 90),
        ];
        assert!(Ledger::build(&spans).is_err());
    }
}
