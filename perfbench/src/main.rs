//! The repo benchmark: two seeded workloads over the diaframe verifier,
//! each printing the same end-to-end metrics, plus a traced mode that
//! prints the per-layer ledger.
//!
//! ```text
//! perfbench --workload (cold_verify|daemon_hot) --seed N
//!           --seconds S --trace (0|1)
//!           [--setups K] [--inject-wrong-expectation] [--trace-out PATH]
//! perfbench --dump-requests PASSES --workload W --seed N
//! ```
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `NOTES.md` beside this
//! package for what each workload and metric is for.

mod cold;
mod daemon;
mod gen;
mod stats;
mod trace;

use stats::Phase;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics, in output order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p95_ms", "ms"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run, in output order. Times are
/// mean self time per request (so they sum, with `unattributed_ms`, to
/// `ledger.request_ms`); counts are per pass. A metric whose layer a
/// workload does not reach reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 48] = [
    // Search (cold_verify).
    ("verify.search_ms", "ms"),
    ("hint.probes_attempted", "count"),
    ("index.skip_ratio", "ratio"),
    ("hint.match_ratio", "ratio"),
    ("strategy.backtracks", "count"),
    ("intern.hit_ratio", "ratio"),
    ("speculate.spawned", "count"),
    ("speculate.win_ratio", "ratio"),
    ("speculate.wasted_probes", "count"),
    ("cache.check_overlap_ms", "ms"),
    ("report.stuck_render_ms", "ms"),
    // Solver (search, and the checker's re-proofs).
    ("solver.verdict_hit_ratio", "ratio"),
    ("solver.queries_rebuild", "count"),
    // Store, codec and checker on the cold path: key, lookup miss,
    // checking, encoding, checksum and write.
    ("store.key_ms", "ms"),
    ("store.read_ms", "ms"),
    ("checker.replay_ms", "ms"),
    ("checker.steps", "count"),
    ("trace_json.encode_ms", "ms"),
    ("trace_json.entry_bytes", "bytes"),
    ("store.checksum_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.corruptions", "count"),
    // The read side: each written entry read back through the store's
    // hit path (cold_verify, outside the timed requests).
    ("readback.key_ms", "ms"),
    ("readback.read_ms", "ms"),
    ("readback.checksum_ms", "ms"),
    ("trace_json.parse_ms", "ms"),
    ("trace_json.decode_ms", "ms"),
    ("readback.replay_ms", "ms"),
    ("readback.request_ms", "ms"),
    // Service (daemon_hot).
    ("client.write_frame_ms", "ms"),
    ("client.await_response_ms", "ms"),
    ("client.parse_ms", "ms"),
    ("proto.frame_io_ms", "ms"),
    ("server.table_render_ms", "ms"),
    ("proto.response_bytes", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    // The ledger and the cost of tracing (every workload).
    ("unattributed_ms", "ms"),
    ("ledger.request_ms", "ms"),
    ("ledger.unattributed_share", "%"),
    ("ledger.traced_requests", "count"),
    ("overhead.verdict_p50_pct", "%"),
    ("overhead.verdict_p95_pct", "%"),
    ("overhead.verdicts_per_s_pct", "%"),
    ("overhead.peak_rss_mb", "MB"),
    ("overhead.setup_s", "s"),
];

/// One run's settings.
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Measurement time, s (split evenly between the untraced and the
    /// traced phase when tracing).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Set-ups per run (the median is `setup_s`); 5 unless `--setups`.
    pub setups: usize,
    /// Flip one expected answer, to prove the oracle counts failures.
    pub inject_wrong_expectation: bool,
    /// Where to write the traced run's spans, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// This run's private scratch directory (removed at exit).
    pub work: PathBuf,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations issued.
    pub attempted: u64,
    /// Operations the oracle refused.
    pub failed: u64,
    /// Checks other than per-request verdicts that failed (e.g. a ledger
    /// that does not reconcile); any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Counts a phase's requests and failures.
    pub fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Runs `setup` `n` times, timing each; returns every time (s) and the
/// last set-up's product (earlier ones are dropped untimed).
///
/// # Errors
///
/// Returns the first set-up error.
pub fn time_setups<T>(
    n: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for i in 0..n.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let product = setup(i)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(product);
    }
    Ok((times, last.expect("at least one set-up")))
}

/// Sets the end-to-end metrics from the set-up times and a phase.
pub fn set_end_to_end(report: &mut Report, setups: &[f64], phase: &Phase) {
    report.set("setup_s", stats::median(setups));
    report.set("verdict_p50_ms", phase.p50_ms());
    report.set("verdict_p95_ms", phase.p95_ms());
    report.set("verdicts_per_s", phase.verdicts_per_s());
    report.set("peak_rss_mb", phase.peak_rss_mb());
}

/// Sets the ledger and tracing-overhead metrics, and records a problem
/// if the ledger does not reconcile.
pub fn set_ledger(
    report: &mut Report,
    cfg: &Config,
    spans: &[trace::Span],
    untraced: &Phase,
    traced: &Phase,
) {
    if let Some(path) = &cfg.trace_out {
        if let Err(e) = std::fs::write(path, trace::spans_jsonl(spans)) {
            report.problems.push(format!("writing {}: {e}", path.display()));
        }
    }
    let ledger = match trace::Ledger::build(spans) {
        Ok(l) => l,
        Err(e) => {
            report.problems.push(e);
            return;
        }
    };
    eprintln!("{}", ledger.render());
    let pct = |a: f64, b: f64| if b > 0.0 { (a - b) * 100.0 / b } else { 0.0 };
    report.set("unattributed_ms", ledger.per_request_ms(trace::ROOT));
    report.set("ledger.request_ms", ledger.request_ms());
    report.set(
        "ledger.unattributed_share",
        ledger.self_ns.get(trace::ROOT).copied().unwrap_or(0) as f64 * 100.0
            / ledger.wall_ns.max(1) as f64,
    );
    report.set("ledger.traced_requests", ledger.requests as f64);
    report.set("overhead.verdict_p50_pct", pct(traced.p50_ms(), untraced.p50_ms()));
    report.set("overhead.verdict_p95_pct", pct(traced.p95_ms(), untraced.p95_ms()));
    // Positive = the traced run was slower, for all three.
    report.set(
        "overhead.verdicts_per_s_pct",
        -pct(traced.verdicts_per_s(), untraced.verdicts_per_s()),
    );
    report.set("overhead.peak_rss_mb", traced.peak_rss_mb() - untraced.peak_rss_mb());
    // Set-up is never traced, so tracing cannot cost it anything.
    report.set("overhead.setup_s", 0.0);
    for layer in ledger.self_ns.keys().filter(|n| **n != trace::ROOT) {
        if let Some((name, _)) = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix("_ms") == Some(layer))
        {
            report.set(name, ledger.per_request_ms(layer));
        }
    }
}

/// Ratio with a zero denominator read as 0.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload (cold_verify|daemon_hot) --seed N --seconds S --trace (0|1)\n\
         \x20                [--setups K] [--inject-wrong-expectation] [--trace-out PATH]\n\
         \x20      perfbench --dump-requests PASSES --workload W --seed N"
    );
    std::process::exit(2);
}

/// A scratch directory, removed however the run ends.
pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn render_result(report: &Report, trace: bool) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let correct = report.failed == 0 && report.problems.is_empty() && report.attempted > 0;
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = report.get(name).unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted,
        report.failed
    )
}

fn main() {
    // The engine runs with its defaults: no tuning knob leaks in from the
    // caller's environment (the daemon inherits this environment too).
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DIAFRAME_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| usage()))
    };
    let workload = opt("--workload").unwrap_or_else(|| usage());
    let seed: u64 = opt("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    if let Some(passes) = opt("--dump-requests") {
        let passes = passes.parse().unwrap_or_else(|_| usage());
        match gen::dump(&workload, seed, passes) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let seconds: f64 = opt("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage());
    let trace = match opt("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => usage(),
    };
    let work = PathBuf::from(".bench_work").join(format!("perfbench-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        std::process::exit(1);
    }
    let guard = TempDir(work.clone());
    let cfg = Config {
        seed,
        seconds,
        trace,
        setups: opt("--setups")
            .map(|s| s.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(5),
        inject_wrong_expectation: args.iter().any(|a| a == "--inject-wrong-expectation"),
        trace_out: opt("--trace-out").map(PathBuf::from),
        work,
    };
    let result = match workload.as_str() {
        "cold_verify" => cold::run(&cfg),
        "daemon_hot" => daemon::run(&cfg),
        _ => usage(),
    };
    drop(guard);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(report) => {
            for p in &report.problems {
                eprintln!("perfbench: problem: {p}");
            }
            println!("{}", render_result(&report, trace));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
