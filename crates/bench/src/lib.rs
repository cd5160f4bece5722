#![warn(missing_docs)]
//! The benchmark harness regenerating the paper's evaluation (Figure 6
//! and the §6 failing-verification experiment).
//!
//! The `figure6` binary prints the full comparison table; the
//! `adequacy` binary runs the schedule-sweep adequacy experiment (see
//! [`adequacy`]); the criterion benches (`verification`, `failing`,
//! `substrate`, `hint_search`) measure wall-clock verification times.
//!
//! Measurement and rendering are split: the [`suite`] driver verifies
//! every `(example, variant, ablation)` task once — in parallel, on
//! `diaframe_core`'s work pool — into a [`SuiteCache`], and the table
//! functions are pure cache readers. Rendered output therefore does not
//! depend on the worker count, which the equivalence tests check
//! byte-for-byte.

pub mod adequacy;
mod cache;
pub mod cli;
pub mod diff;
pub mod proto;
pub mod server;
pub mod store;
mod suite;

pub use adequacy::{
    adequacy_json, render_adequacy, run_adequacy, AdequacyConfig, AdequacyReport, NegativeRow,
    ProvedRow,
};
pub use cache::{CachedRun, SuiteCache, Variant};
pub use diff::{diff_snapshots, DiffReport};
pub use store::{store_key, ProofStore, StoreStats};
pub use suite::{ablation_configs, assert_counter_invariants, prefetch_ablations, prefetch_suite};

use diaframe_core::trace_json::json_escape;
use diaframe_core::{CounterSnapshot, SpanKind, SpanStats, TelemetrySession};
use diaframe_examples::{all_examples, annotation_lines, count_lines, Example, ToolStat};
use std::fmt::Write as _;
use std::time::Duration;

/// Measured statistics for one example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Measured {
    /// Row name.
    pub name: &'static str,
    /// Lines of implementation (HeapLang source).
    pub impl_lines: usize,
    /// Lines of annotation (specs + invariants rendering).
    pub annot_lines: usize,
    /// Manual steps (tactics + custom hints).
    pub manual: usize,
    /// Distinct hints used, and how many were custom.
    pub hints: (usize, usize),
    /// Proof-search wall-clock time.
    pub time: Duration,
    /// Independent trace-replay wall-clock time.
    pub check_time: Duration,
    /// Number of verified specifications.
    pub specs: usize,
    /// Search-effort counters for the run (see
    /// [`CounterSnapshot::check_invariants`] for the invariants they
    /// obey).
    pub counters: CounterSnapshot,
}

/// Collects one example's row from the shared cache, verifying it only
/// on the first request.
///
/// # Panics
///
/// Panics if the example fails to verify or its trace fails replay.
#[must_use]
pub fn measure_cached(cache: &SuiteCache, ex: &dyn Example) -> Measured {
    let run = cache.get_or_run(ex, Variant::Ok);
    let outcome = run.expect_ok(ex.name());
    Measured {
        name: ex.name(),
        impl_lines: count_lines(ex.record().source),
        annot_lines: annotation_lines(ex.record().annotation),
        manual: outcome.manual_steps,
        hints: (
            outcome.hints_used().len(),
            outcome.custom_hints_used().len(),
        ),
        time: run.search_time,
        check_time: run.check_time,
        specs: outcome.proofs.len(),
        counters: run.counters.clone(),
    }
}

/// The Figure 6 rows, in the paper's row order, from the shared cache.
///
/// # Panics
///
/// Panics if any example fails to verify.
#[must_use]
pub fn figure6_rows(cache: &SuiteCache) -> Vec<Measured> {
    all_examples()
        .iter()
        .map(|ex| measure_cached(cache, ex.as_ref()))
        .collect()
}

fn tool(t: Option<ToolStat>) -> String {
    match t {
        Some(t) => format!("{}/{}", t.total, t.proof),
        None => String::from("—"),
    }
}

/// Renders the Figure 6 reproduction table (measured columns side by
/// side with the paper-reported ones) from already-measured rows. Pure:
/// equal rows render byte-identically.
///
/// # Panics
///
/// Panics if `rows` does not line up with the example list.
#[must_use]
pub fn render_figure6(rows: &[Measured]) -> String {
    let examples = all_examples();
    assert_eq!(rows.len(), examples.len(), "one row per example");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} | {:>5} {:>6} {:>7} {:>9} {:>9} | {:>5} {:>7} {:>7} {:>7} | {:>8} {:>8} {:>8} {:>8}",
        "name", "impl", "annot", "manual", "hints", "time",
        "impl*", "annot*", "hints*", "time*",
        "iris*", "starl*", "caper*", "voila*"
    );
    let _ = writeln!(out, "{}", "-".repeat(150));
    let mut tot = (0usize, 0usize, 0usize, Duration::ZERO);
    for (m, ex) in rows.iter().zip(&examples) {
        assert_eq!(m.name, ex.name(), "rows must be in Figure 6 order");
        let p = &ex.record().paper;
        tot.0 += m.impl_lines;
        tot.1 += m.annot_lines;
        tot.2 += m.manual;
        tot.3 += m.time;
        let _ = writeln!(
            out,
            "{:<24} | {:>5} {:>6} {:>7} {:>6}({:>1}) {:>8.2?} | {:>5} {:>4}/{:<2} {:>4}({:<1}) {:>7} | {:>8} {:>8} {:>8} {:>8}",
            m.name,
            m.impl_lines,
            m.annot_lines,
            m.manual,
            m.hints.0,
            m.hints.1,
            m.time,
            p.impl_lines,
            p.annot.0,
            p.annot.1,
            p.hints.0,
            p.hints.1,
            p.time,
            tool(p.iris),
            tool(p.starling),
            tool(p.caper),
            tool(p.voila),
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(150));
    let _ = writeln!(
        out,
        "{:<24} | {:>5} {:>6} {:>7} {:>12} {:>8.2?} | paper totals: impl 823, annot 1162/164, custom 154, hints 38(8), time 32:30",
        "total", tot.0, tot.1, tot.2, "", tot.3
    );
    out.push_str("\ncolumns marked * are the paper-reported values (Figure 6); — = not verified by that tool\n");
    out
}

/// Renders the Figure 6 reproduction table from the shared cache.
///
/// # Panics
///
/// Panics if any example fails to verify.
#[must_use]
pub fn figure6_table(cache: &SuiteCache) -> String {
    render_figure6(&figure6_rows(cache))
}

/// Renders the deterministic *verdict table* for the given examples:
/// what was proved and with how much manual help — and none of the
/// timings. A cold search and a store replay that prove the same things
/// render byte-identically (verdicts, spec counts and hint usage all
/// derive from the byte-deterministic traces), which is exactly what
/// the `diaframe serve` gate and `figure6 --store` compare with `cmp`.
///
/// # Panics
///
/// Panics if an example fails to verify.
#[must_use]
pub fn verdict_table_for(cache: &SuiteCache, examples: &[&dyn Example]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} | {:>5} {:>6} {:>9} | verdict",
        "name", "specs", "manual", "hints"
    );
    let _ = writeln!(out, "{}", "-".repeat(64));
    for ex in examples {
        let run = cache.get_or_run(*ex, Variant::Ok);
        let outcome = run.expect_ok(ex.name());
        let _ = writeln!(
            out,
            "{:<24} | {:>5} {:>6} {:>6}({:>1}) | verified",
            ex.name(),
            outcome.proofs.len(),
            outcome.manual_steps,
            outcome.hints_used().len(),
            outcome.custom_hints_used().len()
        );
    }
    out
}

/// The verdict table over the whole Figure 6 suite, in row order.
///
/// # Panics
///
/// Panics if any example fails to verify.
#[must_use]
pub fn verdict_table(cache: &SuiteCache) -> String {
    let examples = all_examples();
    let refs: Vec<&dyn Example> = examples.iter().map(AsRef::as_ref).collect();
    verdict_table_for(cache, &refs)
}

/// The §6 failing-verification experiment: for every example with a
/// sabotaged variant, check that the failure is detected and compare how
/// long detection took with the successful verification. Both timings
/// come from the cache, so each variant is verified exactly once.
///
/// # Panics
///
/// Panics if a sabotaged variant is *not* rejected.
#[must_use]
pub fn failing_table(cache: &SuiteCache) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} | {:>12} {:>12} {:>9}",
        "name", "success", "failure", "fail<succ"
    );
    let _ = writeln!(out, "{}", "-".repeat(64));
    for ex in all_examples() {
        let broken = cache.get_or_run(ex.as_ref(), Variant::Broken);
        let Some(broken_outcome) = &broken.outcome else {
            continue;
        };
        assert!(
            broken_outcome.is_err(),
            "{}: sabotage not detected",
            ex.name()
        );
        let ok = cache.get_or_run(ex.as_ref(), Variant::Ok);
        let (ok_time, fail_time) = (ok.search_time, broken.search_time);
        let _ = writeln!(
            out,
            "{:<24} | {:>10.2?} {:>10.2?} {:>9}",
            ex.name(),
            ok_time,
            fail_time,
            if fail_time <= ok_time { "yes" } else { "no" }
        );
    }
    out.push_str(
        "\npaper (§6): \"In all these cases, failing times were lower than the final\nverification time\" — failures verify fewer specs, so detection is fast.\n",
    );
    out
}

/// The ablation experiment (beyond the paper): re-runs the whole suite
/// with one search-order design decision disabled at a time, reporting
/// how many examples still verify. Quantifies what the decisions
/// documented in DESIGN.md §5 buy. The baseline row shares its cache
/// entries with Figure 6.
#[must_use]
pub fn ablation_table(cache: &SuiteCache) -> String {
    use diaframe_core::with_ablation_override;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} | {:>8} {:>7} {:>9} {:>10}",
        "config", "verified", "stuck", "automatic", "time"
    );
    let _ = writeln!(out, "{}", "-".repeat(64));
    for (name, ab) in ablation_configs() {
        let (mut ok, mut stuck, mut auto) = (0usize, 0usize, 0usize);
        let mut search = Duration::ZERO;
        let mut failures: Vec<&'static str> = Vec::new();
        for ex in all_examples() {
            // A panic under an ablated order is memoized as an error by
            // the cache (engine invariants the normal order upholds).
            let run = with_ablation_override(ab, || cache.get_or_run(ex.as_ref(), Variant::Ok));
            search += run.search_time;
            match &run.outcome {
                Some(Ok(outcome)) => {
                    ok += 1;
                    if outcome.manual_steps == 0 {
                        auto += 1;
                    }
                }
                Some(Err(_)) | None => {
                    stuck += 1;
                    failures.push(ex.name());
                }
            }
        }
        let _ = writeln!(
            out,
            "{:<22} | {:>8} {:>7} {:>9} {:>8.2?}{}",
            name,
            ok,
            stuck,
            auto,
            search,
            if failures.is_empty() {
                String::new()
            } else {
                format!("   fails: {}", failures.join(", "))
            }
        );
    }
    out.push_str(
        "\neach row disables one search-order decision from DESIGN.md §5; the\nbaseline row is the normal engine (all 24 verify); time sums the\nper-example search times (runs execute in parallel).\n",
    );
    out
}

/// Aggregate claims from §6, re-checked on the reproduction.
///
/// # Panics
///
/// Panics if any example fails to verify.
#[must_use]
pub fn aggregate_table(cache: &SuiteCache) -> String {
    let rows = figure6_rows(cache);
    let total = rows.len();
    let automatic = rows.iter().filter(|m| m.manual == 0).count();
    let manual: usize = rows.iter().map(|m| m.manual).sum();
    let impl_lines: usize = rows.iter().map(|m| m.impl_lines).sum();
    format!(
        "examples: {total}\nfully automatic: {automatic}  (paper: 7 of 24)\n\
         manual steps per implementation line: {:.3}  (paper: ~0.4 proof lines/impl line; \
         our unit is tactics+hints, not lines)\n",
        manual as f64 / impl_lines as f64
    )
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1000.0)
}

/// Renders per-kind span duration histograms as a `spans` JSON object:
/// per [`SpanKind`] name, the span count, total, and the p50/p95/max
/// duration in nanoseconds.
fn spans_json(stats: &[(SpanKind, SpanStats)]) -> String {
    let parts: Vec<String> = stats
        .iter()
        .map(|(kind, s)| {
            format!(
                "\"{}\": {{ \"count\": {}, \"total_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"max_ns\": {} }}",
                kind.name(),
                s.count,
                s.total_ns,
                s.p50_ns,
                s.p95_ns,
                s.max_ns
            )
        })
        .collect();
    format!("{{ {} }}", parts.join(", "))
}

/// Renders the top-`n` profiler hotspots — `(kind, label)` pairs ranked
/// by self time — as the `figure6 --hotspots` table. Self time is the
/// span's wall-clock minus its same-lane children, so a rule that is
/// expensive *itself* ranks above one that merely sits atop a deep
/// subtree; `count` is the span kind's payload counter (probes for
/// `find_hint` batches, replayed steps for the checker).
#[must_use]
pub fn render_hotspots(session: &TelemetrySession, n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<28} | {:>7} {:>11} {:>11} {:>9}",
        "kind", "label", "calls", "self ms", "cum ms", "count"
    );
    let _ = writeln!(out, "{}", "-".repeat(88));
    #[allow(clippy::cast_precision_loss)]
    for h in session.hotspots(n) {
        let _ = writeln!(
            out,
            "{:<12} {:<28} | {:>7} {:>11.3} {:>11.3} {:>9}",
            h.kind.name(),
            h.label,
            h.calls,
            h.self_ns as f64 / 1e6,
            h.cum_ns as f64 / 1e6,
            h.count
        );
    }
    out.push_str(
        "\nself = span wall-clock minus same-lane child spans; cum = span wall-clock;\ncount = the kind's payload (hint probes, checker steps, solver facts).\n",
    );
    out
}

/// The warm-vs-cold proof-store experiment attached to a v7 snapshot by
/// `figure6 --store`: the same suite prefetched twice against one
/// persistent [`ProofStore`] — a cold pass that searches and populates,
/// then a warm pass from a fresh [`SuiteCache`] that replays.
#[derive(Debug, Clone)]
pub struct StoreExperiment {
    /// Suite wall-clock of the cold (populate) pass.
    pub cold_wall: Duration,
    /// Suite wall-clock of the warm (replay) pass.
    pub warm_wall: Duration,
    /// Store counter deltas attributable to the cold pass.
    pub cold: StoreStats,
    /// Store counter deltas attributable to the warm pass.
    pub warm: StoreStats,
    /// Entries resident after both passes.
    pub entries: usize,
    /// Bytes resident after both passes.
    pub bytes: u64,
}

impl StoreExperiment {
    /// Cold wall over warm wall (how many times faster the warm pass
    /// ran); infinite if the warm pass rounded to zero.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.cold_wall.as_secs_f64() / self.warm_wall.as_secs_f64().max(f64::EPSILON)
    }

    fn json_object(&self) -> String {
        format!(
            "{{ \"cold_wall_ms\": {}, \"warm_wall_ms\": {}, \"speedup\": {:.2}, \
             \"entries\": {}, \"bytes\": {}, \"cold\": {}, \"warm\": {} }}",
            ms(self.cold_wall),
            ms(self.warm_wall),
            self.speedup(),
            self.entries,
            self.bytes,
            self.cold.json_object(),
            self.warm.json_object()
        )
    }
}

/// Serializes the Figure 6 run as JSON (schema
/// `diaframe-bench/figure6/v9`) for committing as a `BENCH_*.json`
/// snapshot. The top level holds:
///
/// - `jobs`, `stack_mb` and `wall_ms`: the worker count, the verification
///   workers' stack size and the suite's wall-clock;
/// - `cache`: the [`SuiteCache`] hit/miss accounting;
/// - `store`: `null`, or under `figure6 --store` the warm-vs-cold
///   experiment — both suite walls, per-pass store counters, resident
///   entries/bytes and the speedup;
/// - `telemetry`: every search-effort counter of [`CounterSnapshot`],
///   summed over the examples (the store counters among them depend on
///   cache temperature, so the `--diff` reporter never gates on them);
/// - `spans`: per [`SpanKind`] name, the sample count, total and
///   p50/p95/max duration in nanoseconds, over the span subtrees of all
///   examples' `verify` spans in `session`, the telemetry session that
///   was installed while `cache` was filled;
/// - `examples`: one row per example — name, spec count, manual steps,
///   hints (all and custom), search/check/total milliseconds, and its own
///   `telemetry` and `spans` blocks, taken from its `verify` span's
///   subtree.
///
/// # Panics
///
/// Panics if any example fails to verify or its counters violate the
/// [`CounterSnapshot::check_invariants`] accounting identities.
#[must_use]
pub fn figure6_json(
    cache: &SuiteCache,
    jobs: usize,
    wall: Duration,
    store: Option<&StoreExperiment>,
    session: &TelemetrySession,
) -> String {
    let rows = figure6_rows(cache);
    let mut aggregate = CounterSnapshot::default();
    for m in &rows {
        m.counters
            .check_invariants()
            .unwrap_or_else(|e| panic!("{}: counter invariant violated: {e}", m.name));
        aggregate.merge(&m.counters);
    }
    // Span duration histograms come from the span tree, rooted at
    // each cached run's `verify` span (every request below is a warm
    // hit), keeping `Measured` — which the driver-equivalence tests
    // compare across worker counts — free of wall-clock samples.
    let roots: Vec<Option<u64>> = all_examples()
        .iter()
        .map(|ex| cache.get_or_run(ex.as_ref(), Variant::Ok).verify_span)
        .collect();
    let per_spans: Vec<String> = roots
        .iter()
        .map(|root| spans_json(&session.span_stats(root.as_slice())))
        .collect();
    let all_roots: Vec<u64> = roots.iter().flatten().copied().collect();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"diaframe-bench/figure6/v9\",");
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(
        out,
        "  \"stack_mb\": {},",
        diaframe_core::verify::SESSION_STACK_BYTES / (1024 * 1024)
    );
    let _ = writeln!(out, "  \"wall_ms\": {},", ms(wall));
    let _ = writeln!(
        out,
        "  \"cache\": {{ \"hits\": {}, \"misses\": {} }},",
        cache.hits(),
        cache.misses()
    );
    let _ = writeln!(
        out,
        "  \"store\": {},",
        store.map_or_else(|| String::from("null"), StoreExperiment::json_object)
    );
    let _ = writeln!(out, "  \"telemetry\": {},", aggregate.json_object());
    let _ = writeln!(
        out,
        "  \"spans\": {},",
        spans_json(&session.span_stats(&all_roots))
    );
    let _ = writeln!(out, "  \"examples\": [");
    for (i, m) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"name\": \"{}\", \"specs\": {}, \"manual\": {}, \"hints\": {}, \"custom_hints\": {}, \"search_ms\": {}, \"check_ms\": {}, \"total_ms\": {},\n      \"telemetry\": {},\n      \"spans\": {} }}{}",
            json_escape(m.name),
            m.specs,
            m.manual,
            m.hints.0,
            m.hints.1,
            ms(m.time),
            ms(m.check_time),
            ms(m.time + m.check_time),
            m.counters.json_object(),
            per_spans[i],
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}
