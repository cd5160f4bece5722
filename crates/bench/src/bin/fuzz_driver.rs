//! `fuzz_driver` — the soundness-fuzzing campaign runner.
//!
//! Drives `diaframe_core::fuzz` end to end, in parallel:
//!
//! 1. **differential pass** — generates `--cases` entailments, runs the
//!    search engine on each, and cross-checks every proved case through
//!    the oracle's legs (telemetry + profiling on/off, the linear hint
//!    scan vs the `HeadSet` index, `check` vs `check_json`, codec
//!    byte-stability, compact-bundle round-trip and verdict, executable
//!    spec);
//! 2. **mutation pass** — mutates every engine trace, a synthetic
//!    valid-by-construction corpus, and the real example-suite traces;
//!    every certified-invalid mutant must be killed by the checker, and
//!    survivors are shrunk to a minimal witness;
//! 3. **annotation pass** — mutates every example's `ANNOTATION` (token
//!    deletion, duplication, swap) and runs each mutant through parse and
//!    elaborate: it must succeed or fail with a positioned error, never
//!    panic.
//!
//! The JSON report is **byte-reproducible**: same seed, same report, no
//! timestamps (wall time goes to the console only). `ci.sh` runs a
//! fixed seed twice and `cmp`s the two reports. `--profile-out PATH`
//! runs the whole campaign under one telemetry session and writes the
//! validated Chrome trace-event JSON of its span tree to `PATH`; the
//! report bytes do not move.
//!
//! ```text
//! fuzz_driver [--seed 0xD1AF] [--cases 200] [--mutations-per-trace 8]
//!             [--jobs N] [--json-out PATH] [--profile-out PATH]
//! ```
//!
//! Exits non-zero when any divergence, surviving mutant, unexpected
//! proof (an "unprovable-by-construction" case the engine proved),
//! annotation panic or unpositioned annotation error is found.

use diaframe_bench::cli::Args;
use diaframe_core::fuzz::{
    gen_trace, mutation_round, run_case, CaseReport, GenConfig, MutationKind, MutationOutcome,
};
use diaframe_core::trace_json::{json_escape, trace_to_json};
use diaframe_core::{run_ordered, TraceStep};
use diaframe_examples::all_examples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

struct MutationRow {
    label: String,
    outcomes: Vec<MutationOutcome>,
}

/// Splits text into mutation tokens: identifier runs, single symbols,
/// and whitespace runs (kept so a join restores the layout).
fn tokens(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut prev: Option<u8> = None;
    for c in text.chars() {
        let class = if c.is_whitespace() {
            0
        } else if c.is_alphanumeric() || c == '_' {
            1
        } else {
            2
        };
        match out.last_mut() {
            Some(last) if class != 2 && prev == Some(class) => last.push(c),
            _ => out.push(c.to_string()),
        }
        prev = Some(class);
    }
    out
}

/// Deletes, duplicates or swaps one non-whitespace token.
fn mutate_annotation(text: &str, rng: &mut diaframe_core::fuzz::FuzzRng) -> String {
    let mut toks = tokens(text);
    let words: Vec<usize> = (0..toks.len())
        .filter(|&i| !toks[i].trim().is_empty())
        .collect();
    if words.len() < 2 {
        return text.to_owned();
    }
    let i = *rng.pick(&words);
    match rng.below(3) {
        0 => {
            toks.remove(i);
        }
        1 => {
            let t = toks[i].clone();
            toks.insert(i, t);
        }
        _ => {
            let j = *rng.pick(&words);
            toks.swap(i, j);
        }
    }
    toks.concat()
}

/// The annotation leg: every example's annotation, mutated at the
/// campaign seed, through parse and elaborate. Returns (mutants, panics,
/// errors without a position).
fn annotation_leg(seed: u64, per_example: usize) -> (usize, usize, usize) {
    let atoms = diaframe_ghost::Registry::standard_atoms();
    let (mut mutants, mut panics, mut unlocated) = (0, 0, 0);
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for (ei, ex) in all_examples().iter().enumerate() {
        let mut rng = diaframe_core::fuzz::FuzzRng::new(seed ^ 0xA220_7A7E).fork(ei as u64);
        for _ in 0..per_example {
            let mutant = mutate_annotation(ex.record().annotation, &mut rng);
            mutants += 1;
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                diaframe_core::annot::elaborate(
                    ex.record().source,
                    &mutant,
                    &atoms,
                    &diaframe_examples::registry::library,
                )
                .err()
            }));
            match run {
                Err(_) => {
                    panics += 1;
                    eprintln!("ANNOTATION PANIC on {}:\n{mutant}", ex.name());
                }
                Ok(Some(e)) if e.line == 0 || e.col == 0 => {
                    unlocated += 1;
                    eprintln!("UNLOCATED ANNOTATION ERROR on {}: {e}", ex.name());
                }
                Ok(_) => {}
            }
        }
    }
    std::panic::set_hook(quiet);
    (mutants, panics, unlocated)
}

const USAGE: &str = "usage: fuzz_driver [--seed 0xD1AF] [--cases 200] [--mutations-per-trace 8] \
[--jobs N] [--json-out PATH] [--profile-out PATH]";

fn main() {
    let args = Args::parse(
        &std::env::args().skip(1).collect::<Vec<_>>(),
        &["--help", "-h"],
        &[
            "--seed",
            "--cases",
            "--mutations-per-trace",
            "--jobs",
            "--json-out",
            "--profile-out",
        ],
        USAGE,
    );
    if args.has("--help") || args.has("-h") {
        println!("{USAGE}");
        return;
    }
    let seed = args.value_with("--seed", parse_seed).unwrap_or(0xD1AF);
    let cases: usize = args.number("--cases").unwrap_or(200);
    let mutations_per_trace: usize = args.number("--mutations-per-trace").unwrap_or(8);
    let jobs = args
        .number::<usize>("--jobs")
        .map_or_else(diaframe_core::default_jobs, |n| n.max(1));
    let json_out = args.value("--json-out");

    // The campaign-wide telemetry session leaves the report bytes as they
    // are (the trace goes to its own file and the report carries no
    // timings), so the reproducibility `cmp` in ci.sh holds with
    // profiling on or off.
    let profile_path = args.value("--profile-out");
    let profile = profile_path
        .as_ref()
        .map(|_| diaframe_core::TelemetrySession::new("fuzz_driver"));
    let profile_guard = profile
        .as_ref()
        .map(diaframe_core::TelemetrySession::install);

    let t0 = Instant::now();
    let cfg = GenConfig::default();

    // ---- phase 1: differential battery ---------------------------------
    let idxs: Vec<usize> = (0..cases).collect();
    let reports: Vec<CaseReport> = run_ordered(&idxs, jobs, |_, &i| run_case(seed, i, &cfg))
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|p| {
                eprintln!("fuzz_driver: worker panicked in differential pass: {p:?}");
                std::process::exit(2);
            })
        })
        .collect();

    let mut divergences: Vec<String> = Vec::new();
    let mut provable_expected = 0usize;
    let mut proved_of_expected = 0usize;
    let mut proved_unexpected: Vec<usize> = Vec::new();
    let mut flavors: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    for r in &reports {
        divergences.extend(r.divergences.iter().cloned());
        let slot = flavors.entry(r.flavor).or_insert((0, 0));
        slot.0 += 1;
        if r.proved {
            slot.1 += 1;
        }
        if r.expect_provable {
            provable_expected += 1;
            if r.proved {
                proved_of_expected += 1;
            }
        } else if r.proved {
            proved_unexpected.push(r.index);
        }
    }
    let missed_provable = provable_expected - proved_of_expected;
    // Every proved case went through the oracle's index leg.
    let index_compared = reports.iter().filter(|r| r.trace_json.is_some()).count();

    // ---- phase 2: adversarial mutation ---------------------------------
    // Corpus: engine traces from phase 1, a synthetic valid-by-
    // construction batch, and the real example-suite traces.
    let mut corpus: Vec<(String, Vec<TraceStep>)> = Vec::new();
    for r in &reports {
        if let Some(json) = &r.trace_json {
            let trace =
                diaframe_core::trace_json::trace_from_json(json).expect("round-trip checked");
            if !trace.is_empty() {
                corpus.push((format!("gen-{}", r.index), trace.steps().to_vec()));
            }
        }
    }
    let n_synth = (cases / 4).max(16);
    for j in 0..n_synth {
        corpus.push((format!("synth-{j}"), gen_trace(seed, j).steps().to_vec()));
    }
    let examples = all_examples();
    let example_traces: Vec<(String, Vec<TraceStep>)> =
        run_ordered(&examples, jobs, |_, ex| match ex.verify() {
            Ok(outcome) => outcome
                .proofs
                .into_iter()
                .enumerate()
                .map(|(k, p)| {
                    (
                        format!("example-{}-{k}", ex.name()),
                        p.trace.steps().to_vec(),
                    )
                })
                .collect::<Vec<_>>(),
            Err(stuck) => {
                eprintln!(
                    "fuzz_driver: example {} failed to verify: {}",
                    ex.name(),
                    stuck.reason
                );
                std::process::exit(2);
            }
        })
        .into_iter()
        .flat_map(|r| {
            r.unwrap_or_else(|p| {
                eprintln!("fuzz_driver: worker panicked verifying examples: {p:?}");
                std::process::exit(2);
            })
        })
        .collect();
    corpus.extend(example_traces);

    let rows: Vec<MutationRow> = run_ordered(&corpus, jobs, |ci, (label, steps)| MutationRow {
        label: label.clone(),
        outcomes: mutation_round(
            steps,
            diaframe_core::fuzz::FuzzRng::new(seed ^ 0x4D55_7A7E)
                .fork(ci as u64)
                .next_u64(),
            mutations_per_trace,
        ),
    })
    .into_iter()
    .map(|r| {
        r.unwrap_or_else(|p| {
            eprintln!("fuzz_driver: worker panicked in mutation pass: {p:?}");
            std::process::exit(2);
        })
    })
    .collect();

    let mut mutants = 0usize;
    let mut killed = 0usize;
    let mut by_kind: BTreeMap<&'static str, (usize, usize)> = MutationKind::ALL
        .iter()
        .map(|k| (k.name(), (0, 0)))
        .collect();
    let mut survivor_json = Vec::new();
    let mut survivor_console = Vec::new();
    for row in &rows {
        for out in &row.outcomes {
            mutants += 1;
            let slot = by_kind.get_mut(out.kind.name()).expect("all kinds seeded");
            slot.0 += 1;
            if out.killed {
                killed += 1;
                slot.1 += 1;
            } else {
                let minimized = out
                    .minimized
                    .as_deref()
                    .map(|s| trace_to_json(&diaframe_core::fuzz::trace_of_steps(s)))
                    .unwrap_or_default();
                survivor_json.push(format!(
                    "{{ \"trace\": \"{}\", \"kind\": \"{}\", \"description\": \"{}\", \
                     \"minimized\": \"{}\" }}",
                    json_escape(&row.label),
                    out.kind.name(),
                    json_escape(&out.description),
                    json_escape(&minimized)
                ));
                survivor_console.push(format!(
                    "SURVIVING MUTANT [{}] on {}: {}\n  minimized: {}",
                    out.kind.name(),
                    row.label,
                    out.description,
                    minimized
                ));
            }
        }
    }
    let survivors = mutants - killed;
    let (annotation_mutants, annotation_panics, annotation_unlocated) =
        annotation_leg(seed, mutations_per_trace * 4);

    // ---- report --------------------------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"diaframe-bench/fuzz/v1\",");
    let _ = writeln!(json, "  \"seed\": \"0x{seed:x}\",");
    let _ = writeln!(json, "  \"cases\": {cases},");
    let _ = writeln!(json, "  \"mutations_per_trace\": {mutations_per_trace},");
    let _ = writeln!(json, "  \"provable_expected\": {provable_expected},");
    let _ = writeln!(json, "  \"proved\": {proved_of_expected},");
    let _ = writeln!(json, "  \"missed_provable\": {missed_provable},");
    let _ = writeln!(
        json,
        "  \"proved_unexpected\": {},",
        proved_unexpected.len()
    );
    let _ = writeln!(json, "  \"flavors\": {{");
    let n_flavors = flavors.len();
    for (fi, (name, (total, proved))) in flavors.iter().enumerate() {
        let comma = if fi + 1 == n_flavors { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{name}\": {{ \"cases\": {total}, \"proved\": {proved} }}{comma}"
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"divergences\": {},", divergences.len());
    let _ = writeln!(json, "  \"divergence_details\": [");
    for (di, d) in divergences.iter().enumerate() {
        let comma = if di + 1 == divergences.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{}\"{comma}", json_escape(d));
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"index_pass\": {{ \"compared\": {index_compared} }},"
    );
    let _ = writeln!(json, "  \"mutation\": {{");
    let _ = writeln!(json, "    \"traces\": {},", corpus.len());
    let _ = writeln!(json, "    \"mutants\": {mutants},");
    let _ = writeln!(json, "    \"killed\": {killed},");
    let _ = writeln!(json, "    \"survivors\": {survivors},");
    let _ = writeln!(json, "    \"by_kind\": {{");
    for (ki, kind) in MutationKind::ALL.iter().enumerate() {
        let (gen, kill) = by_kind[kind.name()];
        let comma = if ki + 1 == MutationKind::ALL.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "      \"{}\": {{ \"mutants\": {gen}, \"killed\": {kill} }}{comma}",
            kind.name()
        );
    }
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"annotation_mutants\": {annotation_mutants},");
    let _ = writeln!(json, "  \"annotation_panics\": {annotation_panics},");
    let _ = writeln!(json, "  \"annotation_unlocated\": {annotation_unlocated},");
    let _ = writeln!(json, "  \"survivor_details\": [");
    for (si, s) in survivor_json.iter().enumerate() {
        let comma = if si + 1 == survivor_json.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(json, "    {s}{comma}");
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("fuzz_driver: cannot write {path}: {e}");
            std::process::exit(2);
        }
    } else {
        print!("{json}");
    }

    println!("== fuzz campaign ==");
    println!("seed 0x{seed:x} · {cases} cases · {jobs} jobs");
    println!(
        "search: {proved_of_expected}/{provable_expected} provable-by-construction proved \
         ({missed_provable} completeness misses), {} unexpected proofs",
        proved_unexpected.len()
    );
    println!(
        "differential: {} divergences (telemetry, index, verdict, codec, bundle, spec legs \
         over {index_compared} proved cases)",
        divergences.len()
    );
    println!(
        "mutation: {mutants} certified mutants over {} traces ({} kinds) — {killed} killed, \
         {survivors} survivors",
        corpus.len(),
        MutationKind::ALL.len()
    );
    println!(
        "annotations: {annotation_mutants} mutants through parse + elaborate — \
         {annotation_panics} panics, {annotation_unlocated} errors without a position"
    );
    println!("wall: {:.2?}", t0.elapsed());
    if let Some(path) = &json_out {
        println!("report: {path}");
    }
    drop(profile_guard);
    if let (Some(path), Some(p)) = (&profile_path, &profile) {
        let trace = p.chrome_trace();
        match diaframe_core::profile::validate_chrome_trace(&trace) {
            Ok((events, lanes)) => {
                if let Err(e) = std::fs::write(path, &trace) {
                    eprintln!("fuzz_driver: cannot write {path}: {e}");
                    std::process::exit(2);
                }
                println!(
                    "profile: {events} span events across {lanes} lanes, validated, written to {path}"
                );
            }
            Err(e) => {
                eprintln!("fuzz_driver: profile trace failed validation: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut failed = false;
    for d in &divergences {
        eprintln!("DIVERGENCE: {d}");
        failed = true;
    }
    for s in &survivor_console {
        eprintln!("{s}");
        failed = true;
    }
    for i in &proved_unexpected {
        eprintln!("UNEXPECTED PROOF: case {i} was built to be unprovable");
        failed = true;
    }
    if annotation_panics + annotation_unlocated > 0 {
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
