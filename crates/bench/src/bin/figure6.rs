//! Regenerates the paper's Figure 6 (and, with flags, the §6 aggregate
//! data, the failing-verification experiment and the ablation table).
//!
//! ```text
//! cargo run -p diaframe-bench --bin figure6 -- \
//!     [--aggregate] [--failing] [--ablation] [--all] \
//!     [--jobs N] [--json] [--json-out PATH] [--explain EXAMPLE] \
//!     [--store DIR] [--profile-out PATH] [--folded-out PATH] [--hotspots N] \
//!     [--diff BASELINE.json] [--diff-current CURRENT.json]
//! ```
//!
//! The suite is verified once, in parallel (`--jobs`, default the core
//! count), into a shared cache; every requested table is then rendered
//! from that cache without re-running anything. `--json` prints the machine-readable timing + telemetry
//! snapshot (schema `diaframe-bench/figure6/v9`) instead of tables;
//! `--json-out` writes it to a file alongside the tables — the committed
//! `BENCH_figure6.json` is produced that way. `--store DIR` runs the
//! warm-vs-cold proof-store experiment: the suite is prefetched twice
//! against a persistent content-addressed store rooted at DIR (cold
//! pass searches and populates; warm pass must be answered entirely by
//! checker-replayed store hits, render a byte-identical verdict table,
//! and finish in at most half the cold wall — the run exits non-zero
//! otherwise), and the snapshot gains a `store` block recording both
//! passes. `--explain EXAMPLE` skips
//! the suite and instead runs EXAMPLE's sabotaged variant under a
//! telemetry session, printing the structured stuck report
//! (`Stuck::render_explain`): the unmatched goal head, the hypotheses
//! the search kept failing to key on, and the search-effort counters.
//!
//! Profiling: the suite always runs under one telemetry session, whose
//! span tree gives the counters of each run (the subtree of its `verify`
//! span) and the snapshot's `spans` histograms. `--profile-out` (Chrome
//! trace-event JSON, loadable in Perfetto / `chrome://tracing`, one lane
//! per pool worker and verification session thread), `--folded-out`
//! (folded stacks for `flamegraph.pl`-style tools) and `--hotspots N`
//! (top-N `(kind, label)` pairs by self time) export that tree. The
//! trace is validated (balanced begin/end events, monotonic timestamps
//! per lane) before it is written.
//!
//! Snapshot diffing: `--diff BASELINE.json` compares this run's v9
//! snapshot against a committed baseline and prints a markdown
//! regression report: an example missing from this run, or any change
//! in a deterministic counter, fails it, and timings are not compared.
//! The exit code is non-zero when the diff fails. With
//! `--diff-current CURRENT.json` both sides come from files and the
//! suite is not run at all.

use diaframe_bench::cli::Args;
use diaframe_bench::{
    ablation_table, aggregate_table, diff_snapshots, failing_table, figure6_json, figure6_table,
    prefetch_ablations, prefetch_suite, render_hotspots, verdict_table, ProofStore,
    StoreExperiment, SuiteCache,
};
use diaframe_core::TelemetrySession;
use diaframe_examples::all_examples;

/// Reads a whole file or exits with a diagnostic (used for the diff
/// baselines, where a missing file is an operator error, not a panic).
fn read_or_exit(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("--diff: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

/// Runs the snapshot diff and exits non-zero when a gate fails.
fn run_diff(baseline: &str, current: &str) -> ! {
    match diff_snapshots(baseline, current) {
        Ok(report) => {
            print!("{}", report.markdown);
            std::process::exit(i32::from(!report.regressions.is_empty()));
        }
        Err(e) => {
            eprintln!("--diff: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs `name`'s sabotaged variant under a telemetry session and prints
/// the structured stuck report. Exits non-zero when the example is
/// unknown, has no sabotaged variant, or (a harness bug) verifies anyway.
fn explain(name: &str) -> ! {
    let examples = all_examples();
    let Some(ex) = examples.iter().find(|ex| ex.name() == name) else {
        eprintln!("--explain: no example named {name:?}; known examples:");
        for ex in &examples {
            eprintln!("  {}", ex.name());
        }
        std::process::exit(2);
    };
    let session = TelemetrySession::new(name);
    let guard = session.install();
    let verdict = diaframe_core::with_verification_session(|| ex.verify_broken());
    drop(guard);
    match verdict {
        None => {
            eprintln!("--explain: {name} has no sabotaged variant");
            std::process::exit(2);
        }
        Some(Ok(_)) => {
            eprintln!("--explain: {name}'s sabotaged variant unexpectedly verified");
            std::process::exit(1);
        }
        Some(Err(stuck)) => {
            println!("== {name}: why the sabotaged variant gets stuck ==");
            print!("{}", stuck.render_explain());
            std::process::exit(0);
        }
    }
}

const USAGE: &str = "usage: figure6 [--aggregate] [--failing] [--ablation] [--all] \
[--jobs N] [--json] [--json-out PATH] [--explain EXAMPLE] [--store DIR] [--profile-out PATH] \
[--folded-out PATH] [--hotspots N] [--diff BASELINE.json] [--diff-current CURRENT.json]";

fn main() {
    let args = Args::parse(
        &std::env::args().skip(1).collect::<Vec<_>>(),
        &["--aggregate", "--failing", "--ablation", "--all", "--json"],
        &[
            "--jobs",
            "--json-out",
            "--explain",
            "--store",
            "--profile-out",
            "--folded-out",
            "--hotspots",
            "--diff",
            "--diff-current",
        ],
        USAGE,
    );
    let jobs = args
        .number::<usize>("--jobs")
        .map_or_else(diaframe_core::default_jobs, |n| n.max(1));
    let hotspots: Option<usize> = args.number("--hotspots");
    if let Some(name) = args.value("--explain") {
        explain(name);
    }
    let json_out = args.value("--json-out");
    let diff_baseline = args.value("--diff");
    if let (Some(b), Some(c)) = (diff_baseline, args.value("--diff-current")) {
        // Pure file-vs-file mode: nothing is verified.
        run_diff(&read_or_exit(b), &read_or_exit(c));
    }
    let profile_out = args.value("--profile-out");
    let folded_out = args.value("--folded-out");

    let all = args.has("--all");
    let (failing, ablation, aggregate) =
        (args.has("--failing"), args.has("--ablation"), args.has("--aggregate"));
    let figure6 = all || !(failing || ablation || aggregate);
    let store_dir = args.value("--store");
    let json = args.has("--json");

    // The session covers exactly the prefetch passes below — every
    // verification, and nothing else. Each run is counted by its own
    // `verify` subtree, and the JSON snapshot and the profile exports
    // read the span tree.
    let writes_json = json || json_out.is_some() || diff_baseline.is_some();
    let session = TelemetrySession::new("figure6");
    let session_guard = session.install();
    let mut store_exp: Option<StoreExperiment> = None;
    // One parallel pass fills the cache with everything the requested
    // tables will read; rendering below re-runs nothing.
    let (cache, wall) = if let Some(dir) = store_dir {
        // Warm-vs-cold store experiment: the same suite twice against
        // one persistent store — a cold pass that searches and
        // populates, then a warm pass (fresh in-memory cache, same
        // store) that must be answered by checker-replayed store hits.
        let store = std::sync::Arc::new(
            ProofStore::open(std::path::Path::new(dir), None)
                .unwrap_or_else(|e| panic!("--store: cannot open {dir}: {e}")),
        );
        let cold_cache = SuiteCache::with_store(std::sync::Arc::clone(&store));
        let mut cold_wall = prefetch_suite(&cold_cache, jobs, all || failing);
        if all || ablation {
            cold_wall += prefetch_ablations(&cold_cache, jobs);
        }
        let cold = store.stats();
        let warm_cache = SuiteCache::with_store(std::sync::Arc::clone(&store));
        let warm_wall = prefetch_suite(&warm_cache, jobs, false);
        let warm = store.stats().delta_since(&cold);
        let suite_len = all_examples().len() as u64;
        let cold_table = verdict_table(&cold_cache);
        let warm_table = verdict_table(&warm_cache);
        let speedup = cold_wall.as_secs_f64() / warm_wall.as_secs_f64().max(f64::EPSILON);
        let mut failures = Vec::new();
        if warm.hits != suite_len || warm.misses != 0 {
            failures.push(format!(
                "warm pass must be all store hits: {} hits / {} misses over {suite_len} examples",
                warm.hits, warm.misses
            ));
        }
        if cold_table != warm_table {
            failures.push(String::from(
                "verdict tables differ between the cold search and the warm replay",
            ));
        }
        if warm_wall.as_secs_f64() > 0.5 * cold_wall.as_secs_f64() {
            failures.push(format!(
                "warm wall {warm_wall:.2?} exceeds half the cold wall {cold_wall:.2?}"
            ));
        }
        if failures.is_empty() {
            println!(
                "store gate: PASS — warm {}/{suite_len} hits, 0 misses, byte-identical verdict \
                 tables, {warm_wall:.2?} warm vs {cold_wall:.2?} cold ({speedup:.1}x)",
                warm.hits
            );
        } else {
            for f in &failures {
                eprintln!("store gate: FAIL — {f}");
            }
            std::process::exit(1);
        }
        store_exp = Some(StoreExperiment {
            cold_wall,
            warm_wall,
            cold,
            warm,
            entries: store.len(),
            bytes: store.total_bytes(),
        });
        (cold_cache, cold_wall)
    } else {
        let cache = SuiteCache::new();
        let mut wall = prefetch_suite(&cache, jobs, all || failing);
        if all || ablation {
            wall += prefetch_ablations(&cache, jobs);
        }
        (cache, wall)
    };
    drop(session_guard);

    if !json {
        if figure6 {
            println!("== Figure 6 reproduction ==");
            println!("{}", figure6_table(&cache));
        }
        if all || aggregate {
            println!("== §6 aggregated data ==");
            println!("{}", aggregate_table(&cache));
        }
        if all || failing {
            println!("== §6 failing-verification experiment ==");
            println!("{}", failing_table(&cache));
        }
        if all || ablation {
            println!("== ablation experiment (search-order design decisions) ==");
            println!("{}", ablation_table(&cache));
        }
        println!(
            "[suite: {} jobs, {:.2?} wall, cache {} hits / {} misses]",
            jobs,
            wall,
            cache.hits(),
            cache.misses()
        );
    }
    let snapshot =
        writes_json.then(|| figure6_json(&cache, jobs, wall, store_exp.as_ref(), &session));
    if let (Some(path), Some(snapshot)) = (json_out, &snapshot) {
        std::fs::write(path, snapshot).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("[timing snapshot written to {path}]");
    }
    if let (true, Some(snapshot)) = (json, &snapshot) {
        print!("{snapshot}");
    }
    if let Some(n) = hotspots {
        println!("== profile hotspots (top {n} by self time) ==");
        print!("{}", render_hotspots(&session, n));
    }
    if let Some(path) = profile_out {
        let trace = session.chrome_trace();
        let (events, lanes) = diaframe_core::profile::validate_chrome_trace(&trace)
            .unwrap_or_else(|e| panic!("--profile-out: trace failed validation: {e}"));
        std::fs::write(path, &trace).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!(
            "[profile trace written to {path}: {events} span events across {lanes} lanes, validated]"
        );
    }
    if let Some(path) = folded_out {
        std::fs::write(path, session.folded_stacks())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("[folded stacks written to {path}]");
    }
    if let (Some(b), Some(current)) = (diff_baseline, &snapshot) {
        // Fresh-run mode: this run's v9 snapshot against the committed
        // baseline. Exits non-zero on any regression.
        run_diff(&read_or_exit(b), current);
    }
}
