//! The snapshot-diff regression reporter behind `figure6 --diff`.
//!
//! Compares two `figure6 --json` snapshots (the committed
//! `BENCH_figure6.json` baseline against a fresh run, or any two files)
//! per example and per counter, and renders a markdown report. Timing
//! gates are *relative* with an absolute noise floor, replacing the old
//! crude whole-suite `2×` aggregate gate in `ci.sh`: a single example
//! regressing `4×` now fails even when the aggregate hides it, and a
//! machine-wide slowdown still fails via the aggregate gate.
//!
//! Counters are split by determinism. Search-shaped counters (probes,
//! backtracks, checker steps, per-kind trace steps, solver effort…) are
//! deterministic for a fixed engine, so drift beyond the threshold gates
//! — an engine change that legitimately moves them must regenerate the
//! baseline. The persistent proof store's counters
//! (`store_*`) depend on what happens to be on disk and are reported
//! informationally only.

use diaframe_core::trace_json::{parse_json_value, JsonValue};
use std::fmt::Write as _;

/// Thresholds for [`diff_snapshots`]. All gates are "current worse than
/// baseline by more than the ratio"; improvements never gate.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Per-example search-time gate: fail when
    /// `cur > base × example_ratio` (and the floor is exceeded).
    pub example_ratio: f64,
    /// Suite-aggregate (summed per-example search time) gate.
    pub aggregate_ratio: f64,
    /// Absolute per-example noise floor in milliseconds: a timing
    /// regression only gates when the current time also exceeds the
    /// baseline by at least this much (sub-millisecond examples jitter
    /// far beyond any sane ratio).
    pub min_ms: f64,
    /// Deterministic-counter drift gate (relative, either direction).
    pub counter_ratio: f64,
    /// Counters below this on both sides never flag (small counts make
    /// ratios meaningless).
    pub counter_floor: u64,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            example_ratio: 3.0,
            aggregate_ratio: 2.0,
            min_ms: 25.0,
            counter_ratio: 1.5,
            counter_floor: 100,
        }
    }
}

/// The outcome of a snapshot comparison: the rendered markdown report
/// plus the gating verdicts it was derived from.
#[derive(Debug)]
pub struct DiffReport {
    /// The full markdown report (what `figure6 --diff` prints).
    pub markdown: String,
    /// Gate failures: timing regressions past the thresholds, missing
    /// examples, deterministic-counter drift. Empty means the diff
    /// passes.
    pub regressions: Vec<String>,
    /// Informational drift (cache-temperature counters, new examples).
    pub notes: Vec<String>,
}

struct SnapExample {
    name: String,
    search_ms: f64,
    /// Flattened telemetry counters: `steps_by_kind` children appear as
    /// `steps_by_kind/<kind>`.
    counters: Vec<(String, u64)>,
}

struct Snapshot {
    schema: String,
    examples: Vec<SnapExample>,
}

fn parse_snapshot(which: &str, text: &str) -> Result<Snapshot, String> {
    let v = parse_json_value(text).map_err(|e| format!("{which}: not valid JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{which}: missing \"schema\""))?
        .to_owned();
    if !schema.starts_with("diaframe-bench/figure6/") {
        return Err(format!("{which}: unexpected schema {schema:?}"));
    }
    let examples = v
        .get("examples")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{which}: missing \"examples\" array"))?;
    let mut out = Vec::with_capacity(examples.len());
    for e in examples {
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{which}: example without a name"))?
            .to_owned();
        let search_ms = e
            .get("search_ms")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{which}: {name}: missing search_ms"))?;
        let mut counters = Vec::new();
        if let Some(entries) = e.get("telemetry").and_then(JsonValue::entries) {
            for (k, val) in entries {
                match val {
                    JsonValue::Obj(inner) => {
                        for (ik, iv) in inner {
                            if let Some(n) = iv.as_u64() {
                                counters.push((format!("{k}/{ik}"), n));
                            }
                        }
                    }
                    _ => {
                        if let Some(n) = val.as_u64() {
                            counters.push((k.clone(), n));
                        }
                    }
                }
            }
        }
        out.push(SnapExample {
            name,
            search_ms,
            counters,
        });
    }
    Ok(Snapshot {
        schema,
        examples: out,
    })
}

/// Whether a counter measures cache temperature (the persistent proof
/// store's hit/miss ledger, which depends on what happens to be on
/// disk) and therefore never gates.
fn counter_is_informational(key: &str) -> bool {
    key.starts_with("store_")
}

fn ratio(base: f64, cur: f64) -> f64 {
    if base <= 0.0 {
        if cur <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        cur / base
    }
}

/// Compares a baseline snapshot against a current one and renders the
/// regression report. Both arguments are the raw JSON text of a
/// `figure6 --json` run (any schema version with an `examples` array;
/// only fields present on both sides are compared).
///
/// # Errors
///
/// Returns an error when either snapshot fails to parse — a parse
/// failure is a harness bug or a truncated file, not a regression.
pub fn diff_snapshots(
    baseline: &str,
    current: &str,
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    let base = parse_snapshot("baseline", baseline)?;
    let cur = parse_snapshot("current", current)?;
    let mut regressions: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let mut md = String::new();
    let _ = writeln!(md, "# figure6 snapshot diff\n");
    let _ = writeln!(
        md,
        "baseline: `{}` ({} examples)  ",
        base.schema,
        base.examples.len()
    );
    let _ = writeln!(
        md,
        "current:  `{}` ({} examples)\n",
        cur.schema,
        cur.examples.len()
    );

    // Aggregate search time.
    let base_sum: f64 = base.examples.iter().map(|e| e.search_ms).sum();
    let cur_sum: f64 = cur.examples.iter().map(|e| e.search_ms).sum();
    let agg_ratio = ratio(base_sum, cur_sum);
    let agg_fails = agg_ratio > opts.aggregate_ratio;
    let _ = writeln!(
        md,
        "aggregate search: {base_sum:.1} ms → {cur_sum:.1} ms ({agg_ratio:.2}×, gate {:.1}×): {}\n",
        opts.aggregate_ratio,
        if agg_fails { "**REGRESSION**" } else { "ok" }
    );
    if agg_fails {
        regressions.push(format!(
            "aggregate search time {base_sum:.1} ms → {cur_sum:.1} ms ({agg_ratio:.2}× > {:.1}×)",
            opts.aggregate_ratio
        ));
    }

    // Per-example timings.
    let _ = writeln!(
        md,
        "## per-example search time (gate {:.1}× and +{:.0} ms)\n",
        opts.example_ratio, opts.min_ms
    );
    let _ = writeln!(md, "| example | base ms | cur ms | ratio | verdict |");
    let _ = writeln!(md, "|---|---:|---:|---:|---|");
    for b in &base.examples {
        let Some(c) = cur.examples.iter().find(|c| c.name == b.name) else {
            regressions.push(format!("example {} missing from current run", b.name));
            let _ = writeln!(md, "| {} | {:.2} | — | — | **MISSING** |", b.name, b.search_ms);
            continue;
        };
        let r = ratio(b.search_ms, c.search_ms);
        let fails = r > opts.example_ratio && (c.search_ms - b.search_ms) > opts.min_ms;
        let verdict = if fails {
            regressions.push(format!(
                "{}: search {:.2} ms → {:.2} ms ({r:.2}× > {:.1}×)",
                b.name, b.search_ms, c.search_ms, opts.example_ratio
            ));
            "**REGRESSION**"
        } else if r > opts.example_ratio {
            "slower (under floor)"
        } else if r < 1.0 / opts.example_ratio && (b.search_ms - c.search_ms) > opts.min_ms {
            "improved"
        } else {
            "ok"
        };
        let _ = writeln!(
            md,
            "| {} | {:.2} | {:.2} | {r:.2}× | {verdict} |",
            b.name, b.search_ms, c.search_ms
        );
    }
    for c in &cur.examples {
        if !base.examples.iter().any(|b| b.name == c.name) {
            notes.push(format!("example {} is new (not in baseline)", c.name));
        }
    }

    // Per-example, per-counter drift.
    let mut det_lines: Vec<String> = Vec::new();
    let mut info_lines: Vec<String> = Vec::new();
    for b in &base.examples {
        let Some(c) = cur.examples.iter().find(|c| c.name == b.name) else {
            continue;
        };
        for (key, bv) in &b.counters {
            let Some((_, cv)) = c.counters.iter().find(|(k, _)| k == key) else {
                continue;
            };
            let (lo, hi) = (*bv.min(cv), *bv.max(cv));
            if hi < opts.counter_floor {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let r = if lo == 0 {
                f64::INFINITY
            } else {
                hi as f64 / lo as f64
            };
            if r <= opts.counter_ratio {
                continue;
            }
            let line = format!("{}: {key} {bv} → {cv} ({r:.2}×)", b.name);
            if counter_is_informational(key) {
                info_lines.push(line);
            } else {
                det_lines.push(line);
            }
        }
    }
    let _ = writeln!(
        md,
        "\n## deterministic counter drift (gate {:.1}×, floor {})\n",
        opts.counter_ratio, opts.counter_floor
    );
    if det_lines.is_empty() {
        let _ = writeln!(md, "none");
    }
    for l in &det_lines {
        let _ = writeln!(md, "- **REGRESSION** {l}");
        regressions.push(l.clone());
    }
    let _ = writeln!(md, "\n## cache-temperature counter drift (informational)\n");
    if info_lines.is_empty() {
        let _ = writeln!(md, "none");
    }
    const INFO_CAP: usize = 40;
    for l in info_lines.iter().take(INFO_CAP) {
        let _ = writeln!(md, "- {l}");
    }
    if info_lines.len() > INFO_CAP {
        let _ = writeln!(md, "- … and {} more", info_lines.len() - INFO_CAP);
    }
    notes.extend(info_lines);

    let _ = writeln!(
        md,
        "\nverdict: {}",
        if regressions.is_empty() {
            "PASS — 0 regressions".to_owned()
        } else {
            format!("FAIL — {} regression(s)", regressions.len())
        }
    );
    Ok(DiffReport {
        markdown: md,
        regressions,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(name_times: &[(&str, f64, u64)]) -> String {
        let mut s = String::from("{\n  \"schema\": \"diaframe-bench/figure6/v6\",\n  \"examples\": [\n");
        for (i, (n, t, probes)) in name_times.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{ \"name\": \"{n}\", \"search_ms\": {t:.3}, \"telemetry\": {{ \"probes_attempted\": {probes}, \"store_hits\": 5000 }} }}{}",
                if i + 1 == name_times.len() { "" } else { "," }
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    #[test]
    fn self_diff_is_clean() {
        let a = snap(&[("a", 100.0, 1000), ("b", 0.4, 50)]);
        let r = diff_snapshots(&a, &a, &DiffOptions::default()).unwrap();
        assert!(r.regressions.is_empty(), "{:?}", r.regressions);
        assert!(r.markdown.contains("PASS — 0 regressions"));
    }

    #[test]
    fn timing_regression_gates_and_noise_floor_holds() {
        let base = snap(&[("a", 100.0, 1000), ("tiny", 0.2, 50)]);
        // `a` regresses 4×; `tiny` regresses 10× but stays under the
        // absolute floor and must not gate.
        let cur = snap(&[("a", 400.0, 1000), ("tiny", 2.0, 50)]);
        let r = diff_snapshots(&base, &cur, &DiffOptions::default()).unwrap();
        assert_eq!(r.regressions.len(), 2, "{:?}", r.regressions); // example + aggregate
        assert!(r.regressions.iter().any(|l| l.starts_with("a: search")));
        assert!(r.regressions.iter().any(|l| l.starts_with("aggregate")));
        assert!(r.markdown.contains("| tiny | 0.20 | 2.00 |"));
    }

    #[test]
    fn deterministic_counters_gate_but_store_ones_do_not() {
        let base = snap(&[("a", 100.0, 1000)]);
        // probes 3× (deterministic → gates); store_hits differs wildly in
        // `snap` too but is cache temperature.
        let mut cur = snap(&[("a", 100.0, 3000)]);
        cur = cur.replace("\"store_hits\": 5000", "\"store_hits\": 1");
        let r = diff_snapshots(&base, &cur, &DiffOptions::default()).unwrap();
        assert_eq!(r.regressions.len(), 1, "{:?}", r.regressions);
        assert!(r.regressions[0].contains("probes_attempted"));
        assert!(r.notes.iter().any(|l| l.contains("store_hits")));
    }

    #[test]
    fn missing_example_is_a_regression() {
        let base = snap(&[("a", 100.0, 1000), ("b", 50.0, 500)]);
        let cur = snap(&[("a", 100.0, 1000)]);
        let r = diff_snapshots(&base, &cur, &DiffOptions::default()).unwrap();
        assert!(r.regressions.iter().any(|l| l.contains("missing")));
    }

    #[test]
    fn malformed_snapshots_error_instead_of_passing() {
        assert!(diff_snapshots("{", "{}", &DiffOptions::default()).is_err());
        assert!(diff_snapshots("{}", "{}", &DiffOptions::default()).is_err());
        let no_examples = "{ \"schema\": \"diaframe-bench/figure6/v6\" }";
        assert!(diff_snapshots(no_examples, no_examples, &DiffOptions::default()).is_err());
    }
}
