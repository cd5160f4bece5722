//! The snapshot-diff regression reporter behind `figure6 --diff`.
//!
//! Compares two `figure6 --json` snapshots (the committed
//! `BENCH_figure6.json` baseline against a fresh run, or any two files)
//! per example and per counter, and renders a markdown report. Only
//! deterministic facts gate, so the verdict does not depend on the
//! machine, its load or the worker count:
//!
//! - an example of the baseline missing from the current run;
//! - any difference in a search-shaped counter (probes, backtracks,
//!   checker steps, per-kind trace steps, solver effort…). These are
//!   exact for a fixed engine, so an engine change that moves one must
//!   regenerate the baseline.
//!
//! The persistent proof store's counters (`store_*`) depend on what
//! happens to be on disk, and a new example only widens coverage: both
//! are reported as notes. Timings are never compared; same-session
//! `perfbench` pairs judge speed.

use diaframe_core::trace_json::{parse_json_value, JsonValue};
use std::fmt::Write as _;

/// The outcome of a snapshot comparison: the rendered markdown report
/// plus the gating verdicts it was derived from.
#[derive(Debug)]
pub struct DiffReport {
    /// The full markdown report (what `figure6 --diff` prints).
    pub markdown: String,
    /// Gate failures: missing examples and deterministic-counter drift.
    /// Empty means the diff passes.
    pub regressions: Vec<String>,
    /// Informational drift (cache-temperature counters, new examples).
    pub notes: Vec<String>,
}

struct SnapExample {
    name: String,
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
        out.push(SnapExample { name, counters });
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

/// Compares a baseline snapshot against a current one and renders the
/// regression report. Both arguments are the raw JSON text of a
/// `figure6 --json` run (any schema version with an `examples` array).
/// A counter is compared when both sides carry it, so a schema that
/// adds counters still diffs against an older baseline.
///
/// # Errors
///
/// Returns an error when either snapshot fails to parse — a parse
/// failure is a harness bug or a truncated file, not a regression.
pub fn diff_snapshots(baseline: &str, current: &str) -> Result<DiffReport, String> {
    let base = parse_snapshot("baseline", baseline)?;
    let cur = parse_snapshot("current", current)?;
    let mut missing: Vec<&str> = Vec::new();
    let mut drift: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    for b in &base.examples {
        let Some(c) = cur.examples.iter().find(|c| c.name == b.name) else {
            missing.push(&b.name);
            continue;
        };
        for (key, bv) in &b.counters {
            let Some((_, cv)) = c.counters.iter().find(|(k, _)| k == key) else {
                continue;
            };
            if bv == cv {
                continue;
            }
            let line = format!("{}: {key} {bv} → {cv}", b.name);
            if counter_is_informational(key) {
                notes.push(line);
            } else {
                drift.push(line);
            }
        }
    }
    for c in &cur.examples {
        if !base.examples.iter().any(|b| b.name == c.name) {
            notes.push(format!("example {} is new (not in baseline)", c.name));
        }
    }

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
    let _ = writeln!(md, "## regressions (missing examples, any deterministic counter change)\n");
    if missing.is_empty() && drift.is_empty() {
        let _ = writeln!(md, "none");
    }
    for name in &missing {
        let _ = writeln!(md, "- **MISSING** {name}");
    }
    for l in &drift {
        let _ = writeln!(md, "- **REGRESSION** {l}");
    }
    let _ = writeln!(md, "\n## notes (new examples, cache-temperature counter drift)\n");
    if notes.is_empty() {
        let _ = writeln!(md, "none");
    }
    const NOTE_CAP: usize = 40;
    for l in notes.iter().take(NOTE_CAP) {
        let _ = writeln!(md, "- {l}");
    }
    if notes.len() > NOTE_CAP {
        let _ = writeln!(md, "- … and {} more", notes.len() - NOTE_CAP);
    }
    let regressions: Vec<String> = missing
        .iter()
        .map(|name| format!("example {name} missing from current run"))
        .chain(drift)
        .collect();
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
        let r = diff_snapshots(&a, &a).unwrap();
        assert!(r.regressions.is_empty(), "{:?}", r.regressions);
        assert!(r.markdown.contains("PASS — 0 regressions"));
    }

    #[test]
    fn deterministic_counters_gate_but_store_ones_do_not() {
        let base = snap(&[("a", 100.0, 1000)]);
        // probes 3× (deterministic → gates); store_hits differs wildly in
        // `snap` too but is cache temperature.
        let mut cur = snap(&[("a", 100.0, 3000)]);
        cur = cur.replace("\"store_hits\": 5000", "\"store_hits\": 1");
        let r = diff_snapshots(&base, &cur).unwrap();
        assert_eq!(r.regressions.len(), 1, "{:?}", r.regressions);
        assert!(r.regressions[0].contains("probes_attempted"));
        assert!(r.notes.iter().any(|l| l.contains("store_hits")));
    }

    #[test]
    fn missing_example_is_a_regression() {
        let base = snap(&[("a", 100.0, 1000), ("b", 50.0, 500)]);
        let cur = snap(&[("a", 100.0, 1000)]);
        let r = diff_snapshots(&base, &cur).unwrap();
        assert!(r.regressions.iter().any(|l| l.contains("missing")));
    }

    #[test]
    fn malformed_snapshots_error_instead_of_passing() {
        assert!(diff_snapshots("{", "{}").is_err());
        assert!(diff_snapshots("{}", "{}").is_err());
        let no_examples = "{ \"schema\": \"diaframe-bench/figure6/v6\" }";
        assert!(diff_snapshots(no_examples, no_examples).is_err());
    }
}
