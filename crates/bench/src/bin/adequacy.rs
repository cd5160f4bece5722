//! Runs the schedule-sweep adequacy experiment: every proved example's
//! client under seeded random interleavings + preemption-bounded DFS
//! with the deadlock/lock-cycle/race detectors on, plus the
//! intentionally-buggy negative suite the detectors must flag.
//!
//! ```text
//! cargo run -p diaframe-bench --bin adequacy -- [--jobs N] [--json] [--json-out PATH]
//! ```
//!
//! The sweep runs with [`AdequacyConfig::default`]'s seeds and budgets.
//! Prints the human-readable report (or, with `--json`, the
//! machine-readable snapshot — schema `diaframe-bench/adequacy/v1`);
//! `--json-out` writes the snapshot to a file alongside the report —
//! the committed `BENCH_adequacy.json` is produced that way. The
//! snapshot is byte-reproducible: it depends only on the sweep
//! parameters, never on `--jobs`, wall-clock or timestamps, which CI
//! checks by running twice and `cmp`-ing. Exits non-zero when the gate
//! fails (a proved example swept dirty or a negative went unflagged).

use diaframe_bench::cli::Args;
use diaframe_bench::{adequacy_json, render_adequacy, run_adequacy, AdequacyConfig};

fn main() {
    let args = Args::parse(
        &std::env::args().skip(1).collect::<Vec<_>>(),
        &["--json"],
        &["--jobs", "--json-out"],
        "usage: adequacy [--jobs N] [--json] [--json-out PATH]",
    );
    let mut cfg = AdequacyConfig::default();
    if let Some(n) = args.number::<usize>("--jobs") {
        cfg.jobs = n.max(1);
    }

    let start = std::time::Instant::now();
    let report = run_adequacy(&cfg);
    let wall = start.elapsed();

    let json = args.has("--json");
    if json {
        print!("{}", adequacy_json(&report));
    } else {
        println!("== adequacy schedule sweep ==");
        print!("{}", render_adequacy(&report));
        println!("[{} jobs, {wall:.2?} wall]", cfg.jobs);
    }
    if let Some(path) = args.value("--json-out") {
        let snapshot = adequacy_json(&report);
        std::fs::write(path, &snapshot).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        if !json {
            println!("[adequacy snapshot written to {path}]");
        }
    }
    std::process::exit(i32::from(!report.pass()));
}
