//! Golden pin of the engine's observable output: the SHA-256 of every
//! example's proof-trace JSON, of its compact proof-store bundle
//! (`traces_to_compact_json`, the bytes a store entry embeds), of every
//! sabotaged variant's rejection report and of its `--explain` diagnosis
//! (`Stuck::render_explain` under a telemetry session), and of the
//! rendered Figure 6 and
//! failing-verification tables (with their wall-clock columns masked),
//! against the digests committed in `tests/trace_digests.golden`.
//!
//! This is the migration gate for engine refactors: any change that
//! moves a single trace byte, a verdict, a manual-step count or a hint
//! tally fails here, and so does an encoder change that moves a single
//! bundle byte (a different delta base, table order or escape). A
//! deliberate output change regenerates the golden file from the
//! `actual` block this test prints on mismatch.

use diaframe::core::trace_json::{trace_to_json, traces_to_compact_json};
use diaframe::core::{default_jobs, sha256_hex, with_verification_session, TelemetrySession};
use diaframe::examples::all_examples;
use diaframe_bench::{failing_table, figure6_rows, prefetch_suite, render_figure6, SuiteCache, Variant};
use std::fmt::Write as _;
use std::time::Duration;

const GOLDEN: &str = include_str!("trace_digests.golden");

/// Replaces every table row's columns after the name with `-`: the
/// failing table reports wall-clock (and a timing comparison), which is
/// the one thing an engine refactor may legitimately move.
fn mask_timings(table: &str) -> String {
    let mut out = String::new();
    for line in table.lines() {
        match line.split_once(" | ") {
            Some((name, _)) if !line.starts_with("name ") => {
                let _ = writeln!(out, "{name} | -");
            }
            _ => {
                let _ = writeln!(out, "{line}");
            }
        }
    }
    out
}

/// The structured stuck report of `ex`'s sabotaged variant, produced the
/// way `figure6 --explain` produces it: under a fresh telemetry session,
/// so the diagnostics block (failed probes, missed heads, counters) is
/// pinned along with the proof state.
fn explain(ex: &dyn diaframe::examples::Example) -> String {
    let session = TelemetrySession::new(ex.name());
    let _guard = session.install();
    match with_verification_session(|| ex.verify_broken()) {
        Some(Err(stuck)) => stuck.render_explain(),
        _ => panic!("{}: sabotaged variant did not get stuck", ex.name()),
    }
}

/// One `<label> <sha256>` line per pinned artifact, in a fixed order.
fn actual_digests() -> String {
    let cache = SuiteCache::new();
    prefetch_suite(&cache, default_jobs(), true);
    let mut out = String::new();
    for ex in all_examples() {
        let run = cache.get_or_run(ex.as_ref(), Variant::Ok);
        let outcome = run.expect_ok(ex.name());
        let mut traces = String::new();
        for p in &outcome.proofs {
            let _ = writeln!(traces, "{}\n{}", p.name, trace_to_json(&p.trace));
        }
        let _ = writeln!(out, "trace/{} {}", ex.name(), sha256_hex(traces.as_bytes()));
        let specs: Vec<_> = outcome.proofs.iter().map(|p| (p.name.as_str(), &p.trace)).collect();
        let bundle = traces_to_compact_json(&specs);
        let _ = writeln!(out, "bundle/{} {}", ex.name(), sha256_hex(bundle.as_bytes()));
        let broken = cache.get_or_run(ex.as_ref(), Variant::Broken);
        match &broken.outcome {
            None => {}
            Some(Ok(_)) => panic!("{}: sabotaged variant verified", ex.name()),
            Some(Err(report)) => {
                let _ = writeln!(out, "broken/{} {}", ex.name(), sha256_hex(report.as_bytes()));
                let _ = writeln!(out, "explain/{} {}", ex.name(), sha256_hex(explain(ex.as_ref()).as_bytes()));
            }
        }
    }
    let rows: Vec<_> = figure6_rows(&cache)
        .into_iter()
        .map(|mut m| {
            m.time = Duration::ZERO;
            m.check_time = Duration::ZERO;
            m
        })
        .collect();
    let _ = writeln!(out, "table/figure6 {}", sha256_hex(render_figure6(&rows).as_bytes()));
    let failing = mask_timings(&failing_table(&cache));
    let _ = writeln!(out, "table/failing {}", sha256_hex(failing.as_bytes()));
    out
}

#[test]
fn traces_and_tables_match_committed_digests() {
    let actual = actual_digests();
    let golden: String = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(golden == actual, "output digests moved; actual:\n{actual}");
}

#[test]
fn masking_keeps_names_and_drops_timings() {
    let table = "name | success failure fail<succ\n----\nspin_lock | 1.20ms 0.30ms yes\n\nfooter\n";
    assert_eq!(mask_timings(table), "name | success failure fail<succ\n----\nspin_lock | -\n\nfooter\n");
}
