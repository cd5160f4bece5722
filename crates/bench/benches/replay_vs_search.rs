//! Criterion bench: full proof *search*, compact-bundle *encode* and
//! checker *replay* of a stored trace, side by side on the five slowest
//! Figure 6 examples.
//!
//! A cold store miss pays `search` + `encode` (plus checking and the
//! write); a warm `diaframe serve` hit pays only the `replay` side. The
//! search/replay ratio is the persistent proof store's value
//! proposition, and `encode` is what a miss adds on top of the search
//! to fill the store. The measured numbers are recorded in
//! EXPERIMENTS.md.
//!
//! ```text
//! cargo bench -p diaframe-bench --bench replay_vs_search
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use diaframe_core::trace_json::{
    parse_json_value, traces_from_compact_value, traces_to_compact_json,
};
use diaframe_examples::all_examples;

/// The five slowest examples by the committed snapshot's `search_ms`.
const SLOWEST: [&str; 5] = [
    "rwlock_ticket_bounded",
    "rwlock_ticket_unbounded",
    "rwlock_duolock",
    "msc_queue",
    "peterson",
];

fn bench_replay_vs_search(c: &mut Criterion) {
    let examples = all_examples();
    for name in SLOWEST {
        let ex = examples
            .iter()
            .find(|ex| ex.name() == name)
            .unwrap_or_else(|| panic!("no example named {name}"));
        let outcome = ex.verify().expect("verifies");
        // Round-trip through the store's compact bundle codec so the
        // replay side measures exactly what a warm hit pays: checksum,
        // parse, bundle decode, checker replay.
        let specs: Vec<(&str, &diaframe_core::ProofTrace)> = outcome
            .proofs
            .iter()
            .map(|p| (p.name.as_str(), &p.trace))
            .collect();
        let stored = traces_to_compact_json(&specs);

        let mut group = c.benchmark_group(name);
        group.sample_size(10);
        group.bench_function("search", |b| {
            b.iter(|| {
                let outcome = ex.verify().expect("verifies");
                criterion::black_box(outcome.proofs.len())
            });
        });
        group.bench_function("encode", |b| {
            b.iter(|| criterion::black_box(traces_to_compact_json(&specs).len()));
        });
        group.bench_function("replay", |b| {
            b.iter(|| {
                let checksum = diaframe_core::sha256_hex(stored.as_bytes());
                let bundle = parse_json_value(&stored).expect("stored bundle parses");
                let traces = traces_from_compact_value(&bundle).expect("stored bundle decodes");
                for (_, trace) in &traces {
                    diaframe_core::checker::check(trace).expect("stored trace replays");
                }
                criterion::black_box((checksum.len(), traces.len()))
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_replay_vs_search);
criterion_main!(benches);
