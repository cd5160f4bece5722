//! The adequacy schedule-sweep driver: executable Iris adequacy at
//! scale.
//!
//! For every proved example's client program this fans out — on
//! [`diaframe_core::run_ordered`] — a [`diaframe_heaplang::sweep`]
//! sweep: `seeds` seeded random interleavings plus a
//! preemption-bounded DFS enumeration, every run executed to
//! quiescence with the lock-order, manifest-deadlock and vector-clock
//! race detectors threaded through each step, and each terminating
//! run's final value/heap checked against the example's proved
//! postcondition. Iris adequacy says the proofs make all of that
//! unfalsifiable, so the gate is absolute: 0 violations, 0 races, 0
//! cycles, 0 deadlocks across every proved example.
//!
//! The same harness then runs the intentionally-buggy
//! [`diaframe_examples::negative_examples`] suite, where the gate flips:
//! every negative must be flagged with its expected categories (and
//! none of its forbidden ones) and produce an actionable finding. A
//! detector that cannot catch a planted bug would make the proved
//! suite's silence worthless.
//!
//! The JSON report (schema `diaframe-bench/adequacy/v1`) is a pure
//! function of the config: fixed seeds, deterministic DFS order, no
//! timestamps and no worker-count dependence, so two runs at any
//! `--jobs` produce byte-identical bytes — which CI checks with `cmp`.

use diaframe_core::trace_json::json_escape;
use diaframe_core::{run_ordered, JobPanic};
use diaframe_examples::{all_examples, negative_examples, Client};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::sweep::{sweep, SweepConfig, SweepOutcome};
use std::fmt::Write as _;

/// Configuration of one adequacy run. The `adequacy` binary runs the
/// defaults; tests build smaller sweeps.
#[derive(Debug, Clone)]
pub struct AdequacyConfig {
    /// Seeded random interleavings per proved example.
    pub seeds: u64,
    /// Per-run step budget for proved examples.
    pub fuel: u64,
    /// DFS preemption bound (both suites).
    pub preemption_bound: u32,
    /// Maximum DFS runs per example (both suites).
    pub dfs_max_runs: u64,
    /// Total DFS step budget per example (both suites).
    pub dfs_max_steps: u64,
    /// Seeded random interleavings per negative example. Lower than
    /// `seeds`: the negatives' bugs manifest within a few dozen
    /// schedules, and their nonterminating runs each burn `neg_fuel`.
    pub neg_seeds: u64,
    /// Per-run step budget for negative examples (kept small because
    /// lost-wakeup runs spin to the budget by design).
    pub neg_fuel: u64,
    /// Worker count for the per-example fan-out. Does not affect the
    /// report bytes.
    pub jobs: usize,
}

impl Default for AdequacyConfig {
    fn default() -> AdequacyConfig {
        AdequacyConfig {
            seeds: 1000,
            fuel: 200_000,
            preemption_bound: 2,
            dfs_max_runs: 256,
            dfs_max_steps: 1_000_000,
            neg_seeds: 120,
            neg_fuel: 30_000,
            jobs: diaframe_core::default_jobs(),
        }
    }
}

impl AdequacyConfig {
    fn proved_cfg(&self, client: &Client) -> SweepConfig {
        SweepConfig {
            seeds: self.seeds,
            seed_base: 0,
            fuel: self.fuel,
            preemption_bound: self.preemption_bound,
            dfs_max_runs: self.dfs_max_runs,
            dfs_max_steps: self.dfs_max_steps,
            sync_model: client.sync_model,
            lock_order: client.lock_order,
        }
    }

    fn negative_cfg(&self, client: &Client) -> SweepConfig {
        SweepConfig {
            seeds: self.neg_seeds,
            fuel: self.neg_fuel,
            ..self.proved_cfg(client)
        }
    }
}

/// One proved example's sweep result.
#[derive(Debug)]
pub struct ProvedRow {
    /// Example name (Figure 6 row).
    pub name: &'static str,
    /// Atomicity model the example's spec chose.
    pub sync_model: SyncModel,
    /// Whether the lock-order cycle heuristic applied (see
    /// [`diaframe_heaplang::sweep::SweepConfig::lock_order`]).
    pub lock_order: bool,
    /// Human rendering of the checked postcondition.
    pub post_desc: String,
    /// The sweep outcome; must be [`SweepOutcome::clean`].
    pub outcome: SweepOutcome,
}

/// One negative example's sweep result and verdict.
#[derive(Debug)]
pub struct NegativeRow {
    /// Negative example name.
    pub name: &'static str,
    /// What the planted bug is.
    pub description: &'static str,
    /// Categories the sweep had to flag.
    pub must: Vec<&'static str>,
    /// Categories the sweep had to stay silent on.
    pub forbidden: Vec<&'static str>,
    /// Categories the sweep actually flagged.
    pub flags: Vec<&'static str>,
    /// Whether the flags match the expectation and the report carries
    /// at least one actionable finding.
    pub verdict_ok: bool,
    /// The sweep outcome.
    pub outcome: SweepOutcome,
}

/// The whole adequacy run: proved suite + negative suite.
#[derive(Debug)]
pub struct AdequacyReport {
    /// The configuration the run used.
    pub config: AdequacyConfig,
    /// One row per proved example, in Figure 6 order.
    pub proved: Vec<ProvedRow>,
    /// One row per negative example, in registry order.
    pub negatives: Vec<NegativeRow>,
}

impl AdequacyReport {
    /// The gate: every proved example sweeps clean AND every negative
    /// example is flagged exactly as expected.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.proved.iter().all(|r| r.outcome.clean()) && self.negatives.iter().all(|r| r.verdict_ok)
    }
}

fn sync_model_name(m: SyncModel) -> &'static str {
    match m {
        SyncModel::InferAtomics => "infer_atomics",
        SyncModel::AllAtomic => "all_atomic",
    }
}

fn unpanic<T>(results: Vec<Result<T, JobPanic>>, what: &str) -> Vec<T> {
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("{what} sweep worker panicked: {}", p.message)))
        .collect()
}

/// Runs the full adequacy experiment: sweeps every proved example's
/// client and every negative example, fanned out over `cfg.jobs`
/// workers. The report is a pure function of `cfg` — worker count and
/// scheduling of the fan-out cannot change it.
///
/// # Panics
///
/// Panics if a sweep worker panics.
#[must_use]
pub fn run_adequacy(cfg: &AdequacyConfig) -> AdequacyReport {
    let examples = all_examples();
    let proved = unpanic(
        run_ordered(&examples, cfg.jobs, |_, ex| {
            let client = &ex.record().client;
            let outcome = sweep(
                &ex.client_program(),
                &|v, h| client.holds(v, h),
                &cfg.proved_cfg(client),
            );
            ProvedRow {
                name: ex.name(),
                sync_model: client.sync_model,
                lock_order: client.lock_order,
                post_desc: client.post_desc(),
                outcome,
            }
        }),
        "proved",
    );
    let negs = negative_examples();
    let negatives = unpanic(
        run_ordered(&negs, cfg.jobs, |_, neg| {
            let outcome = sweep(
                &neg.client.program(&[]),
                &|v, h| neg.client.holds(v, h),
                &cfg.negative_cfg(&neg.client),
            );
            let flags = outcome.flags();
            let verdict_ok = neg.expected.must.iter().all(|f| flags.contains(f))
                && neg.expected.forbidden.iter().all(|f| !flags.contains(f))
                && !outcome.findings().is_empty();
            NegativeRow {
                name: neg.name,
                description: neg.description,
                must: neg.expected.must.to_vec(),
                forbidden: neg.expected.forbidden.to_vec(),
                flags: flags.into_iter().collect(),
                verdict_ok,
                outcome,
            }
        }),
        "negative",
    );
    AdequacyReport {
        config: cfg.clone(),
        proved,
        negatives,
    }
}

fn str_array(items: &[&str]) -> String {
    let parts: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", parts.join(", "))
}

/// The shared per-outcome JSON fields (no trailing brace or comma).
fn outcome_json(o: &SweepOutcome) -> String {
    let values: Vec<&str> = o.distinct_values.iter().map(String::as_str).collect();
    format!(
        "\"runs\": {}, \"random_runs\": {}, \"dfs_runs\": {}, \"dfs_truncated\": {}, \
         \"terminated\": {}, \"nonterminating\": {}, \"stuck\": {}, \"post_violations\": {}, \
         \"deadlock_runs\": {}, \"race_runs\": {}, \"lock_cycle_runs\": {}, \
         \"total_steps\": {}, \"max_threads\": {}, \"values\": {}, \"values_truncated\": {}",
        o.runs,
        o.random_runs,
        o.dfs_runs,
        o.dfs_truncated,
        o.terminated,
        o.nonterminating,
        o.stuck_errors,
        o.post_violations,
        o.deadlock_runs,
        o.race_runs,
        o.cycle_runs,
        o.total_steps,
        o.max_threads,
        str_array(&values),
        o.distinct_values_truncated,
    )
}

/// Serializes an adequacy run as JSON (schema
/// `diaframe-bench/adequacy/v1`) for committing as
/// `BENCH_adequacy.json`. Byte-reproducible: the bytes depend only on
/// [`AdequacyConfig`]'s sweep parameters (fixed seeds, deterministic
/// DFS, no timestamps); `jobs` is deliberately not serialized so runs
/// at different worker counts compare equal with `cmp`.
#[must_use]
pub fn adequacy_json(report: &AdequacyReport) -> String {
    let c = &report.config;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"diaframe-bench/adequacy/v1\",");
    let _ = writeln!(
        out,
        "  \"config\": {{ \"seeds\": {}, \"fuel\": {}, \"preemption_bound\": {}, \"dfs_max_runs\": {}, \"dfs_max_steps\": {}, \"neg_seeds\": {}, \"neg_fuel\": {} }},",
        c.seeds, c.fuel, c.preemption_bound, c.dfs_max_runs, c.dfs_max_steps, c.neg_seeds, c.neg_fuel
    );
    let _ = writeln!(
        out,
        "  \"verdict\": \"{}\",",
        if report.pass() { "pass" } else { "fail" }
    );
    let _ = writeln!(out, "  \"proved\": [");
    for (i, r) in report.proved.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{ \"name\": \"{}\", \"sync_model\": \"{}\", \"lock_order\": {}, \"post\": \"{}\", \"clean\": {},\n      {} }}{}",
            json_escape(r.name),
            sync_model_name(r.sync_model),
            r.lock_order,
            json_escape(&r.post_desc),
            r.outcome.clean(),
            outcome_json(&r.outcome),
            if i + 1 == report.proved.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"negatives\": [");
    for (i, r) in report.negatives.iter().enumerate() {
        let findings: Vec<String> = r.outcome.findings();
        let findings: Vec<&str> = findings.iter().map(String::as_str).collect();
        let _ = writeln!(
            out,
            "    {{ \"name\": \"{}\", \"description\": \"{}\", \"expected\": {}, \"forbidden\": {}, \"flags\": {}, \"verdict\": \"{}\",\n      {},\n      \"findings\": {} }}{}",
            json_escape(r.name),
            json_escape(r.description),
            str_array(&r.must),
            str_array(&r.forbidden),
            str_array(&r.flags),
            if r.verdict_ok { "flagged" } else { "missed" },
            outcome_json(&r.outcome),
            str_array(&findings),
            if i + 1 == report.negatives.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the adequacy run as a human-readable report: the proved
/// table, the negative table, and every negative's actionable findings.
#[must_use]
pub fn render_adequacy(report: &AdequacyReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} | {:<14} {:>6} {:>5} {:>10} {:>4} | {:<8} postcondition",
        "proved example", "sync model", "runs", "dfs", "steps", "thr", "verdict"
    );
    let _ = writeln!(out, "{}", "-".repeat(110));
    let mut any_order_off = false;
    for r in &report.proved {
        let o = &r.outcome;
        any_order_off |= !r.lock_order;
        let model = format!(
            "{}{}",
            sync_model_name(r.sync_model),
            if r.lock_order { "" } else { "*" }
        );
        let _ = writeln!(
            out,
            "{:<24} | {:<14} {:>6} {:>5} {:>10} {:>4} | {:<8} {}",
            r.name,
            model,
            o.runs,
            o.dfs_runs,
            o.total_steps,
            o.max_threads,
            if o.clean() { "clean" } else { "DIRTY" },
            r.post_desc,
        );
        if !o.clean() {
            for f in o.findings() {
                let _ = writeln!(out, "{:<24} |   !! {f}", "");
            }
        }
    }
    if any_order_off {
        let _ = writeln!(
            out,
            "* lock-order cycle heuristic off: lock ownership is transferred\n  logically between threads (group-held lock); the manifest-deadlock\n  detector stays on."
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<16} | {:<28} {:<28} | {:<8}",
        "negative", "expected", "flagged", "verdict"
    );
    let _ = writeln!(out, "{}", "-".repeat(92));
    for r in &report.negatives {
        let _ = writeln!(
            out,
            "{:<16} | {:<28} {:<28} | {:<8}",
            r.name,
            r.must.join(","),
            r.flags.join(","),
            if r.verdict_ok { "flagged" } else { "MISSED" },
        );
        for f in r.outcome.findings() {
            let _ = writeln!(out, "{:<16} |   -> {f}", "");
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "gate: {} — proved examples must sweep clean (adequacy makes every\ninterleaving safe); negatives must be flagged with their expected\ncategories and an actionable witness.",
        if report.pass() { "PASS" } else { "FAIL" }
    );
    out
}
