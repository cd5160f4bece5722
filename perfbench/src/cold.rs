//! `cold_verify`: one closed-loop client sends the 24 Ok examples and the
//! 17 Broken variants, shuffled per pass, through
//! `SuiteCache::get_or_run` over a fresh, empty `ProofStore`. Every Ok
//! request searches, checks, encodes and writes its store entry; every
//! Broken request takes the stuck path. The traced run also reads every
//! written entry back through the store's hit path, so the read side of
//! store and codec is measured too.

use crate::gen::{cold_pass, resolve, Request};
use crate::stats::{reset_peak_rss, Clock, Phase};
use crate::trace::{Ledger, Tracer};
use crate::{ratio, set_end_to_end, set_ledger, time_setups, Config, Report, TempDir};
use diaframe_bench::store::STORE_FORMAT;
use diaframe_bench::{store_key, CachedRun, ProofStore, StoreStats, SuiteCache, Variant};
use diaframe_core::trace_json::{parse_json_value, traces_from_compact_value, traces_to_compact_json, JsonValue};
use diaframe_core::{checker, current_ablation, sha256_hex, CounterSnapshot, ProofTrace, TelemetrySession};
use diaframe_examples::{all_examples, Example, ExampleOutcome};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Examples<'a> = HashMap<&'static str, &'a dyn Example>;

/// The oracle: Ok requests verify (by a fresh search, not a store hit)
/// and Broken requests are rejected. The injected wrong expectation
/// claims `arc` must be rejected.
fn expect_verified(req: &Request, cfg: &Config) -> bool {
    let flip = cfg.inject_wrong_expectation && req.example == "arc";
    (req.variant == Variant::Ok) != flip
}

fn accepts(req: &Request, run: &CachedRun, cfg: &Config) -> bool {
    match (&run.outcome, expect_verified(req, cfg)) {
        (Some(Ok(outcome)), true) => !outcome.proofs.is_empty() && !run.from_store,
        (Some(Err(_)), false) => true,
        _ => false,
    }
}

/// Totals the untraced phase reports to the traced run.
#[derive(Default)]
struct Tally {
    check_overlap_ms: u64,
    store: StoreStats,
}

/// One untraced pass over a fresh store in `dir`.
fn pass(
    cfg: &Config,
    examples: &Examples,
    reqs: &[Request],
    dir: &Path,
    phase: &mut Phase,
    tally: &mut Tally,
) -> Result<(), String> {
    let _dir = TempDir(dir.to_owned());
    let store = Arc::new(ProofStore::open(dir, None).map_err(|e| format!("opening store: {e}"))?);
    let cache = SuiteCache::with_store(Arc::clone(&store));
    reset_peak_rss(None);
    let t0 = Instant::now();
    for req in reqs {
        let t = Instant::now();
        let run = cache.get_or_run(examples[req.example], req.variant);
        phase.request(t.elapsed(), accepts(req, &run, cfg));
        tally.check_overlap_ms += run.counters.check_overlap_ms;
    }
    phase.end_pass(t0, reqs.len(), None);
    drop(cache);
    let s = store.stats();
    tally.store.hits += s.hits;
    tally.store.misses += s.misses;
    tally.store.corruptions += s.corruptions;
    Ok(())
}

/// What one traced request produced.
struct Traced {
    accepted: bool,
    /// Bytes of the store entry written.
    entry_bytes: u64,
    /// The verified outcome, which the real path keeps in its cache
    /// until the pass ends (so it is not freed inside the request).
    kept: Option<ExampleOutcome>,
}

/// One traced request: the store-backed cold path replayed as the
/// sequence of public calls it makes — key, lookup miss, search, check,
/// encode, checksum, write — each in its own span. Broken requests
/// bypass the store and render their stuck report.
fn traced_request(
    t: &mut Tracer,
    cfg: &Config,
    ex: &dyn Example,
    req: &Request,
    store: &ProofStore,
) -> Traced {
    let mut entry_bytes = 0;
    let mut kept = None;
    let verified = match req.variant {
        Variant::Broken => match t.span("verify.search", || ex.verify_broken()) {
            Some(Err(stuck)) => {
                let _report = t.span("report.stuck_render", || stuck.to_string());
                false
            }
            // A proof, or no such variant: either way not a rejection.
            _ => true,
        },
        Variant::Ok => {
            let key = t.span("store.key", || store_key(ex, Variant::Ok, current_ablation()));
            let path = store.entry_path(&key);
            let miss = t.span("store.read", || std::fs::read_to_string(&path)).is_err();
            match t.span("verify.search", || ex.verify()) {
                Ok(outcome) if miss => {
                    let checked = t.span("checker.replay", || {
                        outcome.proofs.iter().all(|p| checker::check(&p.trace).is_ok())
                    });
                    let specs: Vec<(&str, &diaframe_core::ProofTrace)> =
                        outcome.proofs.iter().map(|p| (p.name.as_str(), &p.trace)).collect();
                    let bundle = t.span("trace_json.encode", || traces_to_compact_json(&specs));
                    let payload = format!(
                        "{{\"format\":{STORE_FORMAT},\"key\":\"{key}\",\"example\":\"{}\",\"variant\":\"ok\",\"manual_steps\":{},\"bundle\":{bundle}}}",
                        ex.cache_key(),
                        outcome.manual_steps
                    );
                    let checksum = t.span("store.checksum", || sha256_hex(payload.as_bytes()));
                    let file = format!("{{\"checksum\":\"{checksum}\",\"payload\":{payload}}}");
                    entry_bytes = file.len() as u64;
                    let tmp = store.root().join(format!("tmp-{key}"));
                    let written = t.span("store.write", || {
                        std::fs::write(&tmp, &file).and_then(|()| std::fs::rename(&tmp, &path))
                    });
                    let verified = checked && written.is_ok() && !outcome.proofs.is_empty();
                    kept = Some(outcome);
                    verified
                }
                _ => false,
            }
        }
    };
    Traced {
        accepted: verified == expect_verified(req, cfg),
        entry_bytes,
        kept,
    }
}

/// The store's hit path on the entry for `ex`, as the sequence of public
/// calls it makes — key, read, checksum, parse, decode, checker replay —
/// each in its own span. Returns the replayed traces, or `None` if any
/// step failed.
fn read_back(t: &mut Tracer, ex: &dyn Example, store: &ProofStore) -> Option<Vec<(String, ProofTrace)>> {
    let key = t.span("store.key", || store_key(ex, Variant::Ok, current_ablation()));
    let text = t.span("store.read", || std::fs::read_to_string(store.entry_path(&key))).ok()?;
    let payload = t.span("store.checksum", || {
        let rest = text.strip_prefix("{\"checksum\":\"")?;
        let (checksum, rest) = rest.split_at_checked(64)?;
        let payload = rest.strip_prefix("\",\"payload\":")?.strip_suffix('}')?;
        (sha256_hex(payload.as_bytes()) == checksum).then_some(payload)
    });
    let v = t.span("trace_json.parse", || parse_json_value(payload?).ok())?;
    let header_ok = v.get("format").and_then(JsonValue::as_u64) == Some(u64::from(STORE_FORMAT))
        && v.get("key").and_then(JsonValue::as_str) == Some(key.as_str())
        && v.get("example").and_then(JsonValue::as_str) == Some(ex.cache_key().as_str());
    let bundle = v.get("bundle").filter(|_| header_ok)?;
    let decoded = t.span("trace_json.decode", || traces_from_compact_value(bundle).ok())?;
    let replayed = t.span("checker.replay", || {
        !decoded.is_empty() && decoded.iter().all(|(_, trace)| checker::check(trace).is_ok())
    });
    replayed.then_some(decoded)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns set-up and store I/O errors.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let (setups, examples_owned) = time_setups(cfg.setups, |i| {
        // Set-up loads the example registry and runs one untimed pass,
        // so allocator, interner and page cache are warm before timing.
        let examples_owned = all_examples();
        let examples = resolve(&examples_owned)?;
        let mut warmup = Phase::default();
        pass(
            cfg,
            &examples,
            &cold_pass(cfg.seed, 0),
            &cfg.work.join(format!("setup-{i}")),
            &mut warmup,
            &mut Tally::default(),
        )?;
        report.absorb(&warmup);
        Ok(examples_owned)
    })?;
    let examples = resolve(&examples_owned)?;
    let phase_time = Duration::from_secs_f64(if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds });
    let mut next_pass = 1u64;

    let mut untraced = Phase::default();
    let mut tally = Tally::default();
    let clock = Clock::new(phase_time);
    while clock.next_pass(&untraced) {
        let dir = cfg.work.join(format!("pass-{next_pass}"));
        pass(cfg, &examples, &cold_pass(cfg.seed, next_pass), &dir, &mut untraced, &mut tally)?;
        next_pass += 1;
    }
    eprintln!("{}", untraced.describe("cold_verify"));
    report.absorb(&untraced);
    set_end_to_end(&mut report, &setups, &untraced);
    if !cfg.trace {
        return Ok(report);
    }

    let mut traced = Phase::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut readback = Tracer::new(Instant::now());
    let mut counters = CounterSnapshot::default();
    let mut entry_bytes = 0u64;
    let mut request_id = 0u64;
    let clock = Clock::new(phase_time);
    while clock.next_pass(&traced) {
        let dir = cfg.work.join(format!("pass-{next_pass}"));
        let _dir = TempDir(dir.clone());
        let store = ProofStore::open(&dir, None).map_err(|e| format!("opening store: {e}"))?;
        let reqs = cold_pass(cfg.seed, next_pass);
        let mut kept = Vec::with_capacity(reqs.len());
        reset_peak_rss(None);
        let t0 = Instant::now();
        for req in &reqs {
            let session = TelemetrySession::new(req.example);
            let guard = session.install();
            tracer.begin_request(request_id);
            let out = traced_request(&mut tracer, cfg, examples[req.example], req, &store);
            let dur = tracer.end_request();
            drop(guard);
            counters.merge(&session.snapshot());
            traced.request(Duration::from_nanos(dur), out.accepted);
            entry_bytes += out.entry_bytes;
            kept.push(out.kept);
            request_id += 1;
        }
        traced.end_pass(t0, reqs.len(), None);
        // Outside the timed pass: read every entry just written back
        // through the hit path, as a warm replay would.
        for (req, outcome) in reqs.iter().zip(&kept) {
            if outcome.is_some() {
                readback.begin_request(request_id);
                let replayed = read_back(&mut readback, examples[req.example], &store);
                readback.end_request();
                request_id += 1;
                if replayed.is_none() {
                    report.problems.push(format!("{}: the entry written does not read back", req.example));
                }
            }
        }
        drop(kept);
        next_pass += 1;
    }
    eprintln!("{}", traced.describe("cold_verify (traced)"));
    report.absorb(&traced);
    let spans = tracer.into_spans();
    set_ledger(&mut report, cfg, &spans, &untraced, &traced);

    match Ledger::build(&readback.into_spans()) {
        Ok(side) => {
            for (span, metric) in [
                ("store.key", "readback.key_ms"),
                ("store.read", "readback.read_ms"),
                ("store.checksum", "readback.checksum_ms"),
                ("trace_json.parse", "trace_json.parse_ms"),
                ("trace_json.decode", "trace_json.decode_ms"),
                ("checker.replay", "readback.replay_ms"),
            ] {
                report.set(metric, side.per_request_ms(span));
            }
            report.set("readback.request_ms", side.request_ms());
        }
        Err(e) => report.problems.push(e),
    }

    let passes = traced.pass_walls_s.len() as u64;
    let per_pass = |n: u64| n as f64 / passes as f64;
    let c = &counters;
    report.set("hint.probes_attempted", per_pass(c.probes_attempted));
    report.set("index.skip_ratio", ratio(c.probes_skipped, c.probes_attempted));
    report.set("hint.match_ratio", ratio(c.probes_matched, c.probes_indexed_hit));
    report.set("strategy.backtracks", per_pass(c.backtracks));
    report.set("intern.hit_ratio", ratio(c.interner_hits, c.interner_hits + c.interner_misses));
    report.set("speculate.spawned", per_pass(c.spec_spawned));
    report.set("speculate.win_ratio", ratio(c.spec_won, c.spec_spawned));
    report.set("speculate.wasted_probes", per_pass(c.spec_wasted_probes));
    report.set(
        "solver.verdict_hit_ratio",
        ratio(c.solver_verdict_hits, c.solver_verdict_hits + c.solver_verdict_misses),
    );
    report.set("solver.queries_rebuild", per_pass(c.solver_queries_rebuild));
    report.set("checker.steps", per_pass(c.checker_steps));
    report.set("trace_json.entry_bytes", per_pass(entry_bytes));
    // Pipelined checking and the real store counters exist only on the
    // untraced path (the traced replay checks serially).
    report.set("cache.check_overlap_ms", ratio(tally.check_overlap_ms, untraced.attempted));
    let untraced_passes = untraced.pass_walls_s.len() as u64;
    report.set("store.hits", ratio(tally.store.hits, untraced_passes));
    report.set("store.misses", ratio(tally.store.misses, untraced_passes));
    report.set("store.corruptions", ratio(tally.store.corruptions, untraced_passes));
    Ok(report)
}
