//! Store concurrency: racing lookups of the same spec share one search
//! (single-flight), parallel batches produce byte-identical verdict
//! tables to serial runs, LRU eviction under concurrent readers never
//! surfaces a half-written or torn entry, and concurrent index writes
//! never lose an entry.

use diaframe_bench::{store_key, verdict_table_for, ProofStore, SuiteCache, Variant};
use diaframe_core::{run_ordered, Ablation};
use diaframe_examples::{all_examples, Example};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diaframe-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pick<'a>(examples: &'a [Box<dyn Example>], names: &[&str]) -> Vec<&'a dyn Example> {
    names
        .iter()
        .map(|n| {
            examples
                .iter()
                .find(|e| e.name() == *n)
                .unwrap_or_else(|| panic!("example {n}"))
                .as_ref()
        })
        .collect()
}

#[test]
fn same_spec_race_shares_one_search() {
    let dir = tmp_store("race");
    let store = Arc::new(ProofStore::open(&dir, None).unwrap());
    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let store = Arc::clone(&store);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let examples = all_examples();
            let ex = examples.iter().find(|e| e.name() == "spin_lock").unwrap().as_ref();
            barrier.wait();
            let run = store.get_or_run(ex, Variant::Ok);
            let outcome = run.outcome.as_ref().unwrap().as_ref().unwrap();
            format!("{:?}", outcome.proofs.iter().map(|p| &p.trace).collect::<Vec<_>>())
        }));
    }
    let rendered: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let stats = store.stats();
    assert_eq!(
        stats.misses, 1,
        "all {THREADS} racers must share the single in-flight search"
    );
    // Racers that arrived after the winner published may hit the disk
    // entry instead of the in-flight cell; either way nobody searched
    // twice and everybody saw the same traces.
    assert!(stats.hits < THREADS as u64);
    for r in &rendered[1..] {
        assert_eq!(r, &rendered[0], "every racer sees identical traces");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_batch_matches_serial_byte_for_byte() {
    let examples = all_examples();
    let batch = pick(
        &examples,
        &[
            "fork_join_client",
            "barrier_client",
            "cas_counter_client",
            "ticket_lock_client",
            "inc_dec",
            "spin_lock",
        ],
    );

    // Serial, storeless reference.
    let serial = SuiteCache::new();
    for ex in &batch {
        serial.get_or_run(*ex, Variant::Ok);
    }
    let reference = verdict_table_for(&serial, &batch);

    // Cold store-backed batch across a pool.
    let dir = tmp_store("batch");
    let store = Arc::new(ProofStore::open(&dir, None).unwrap());
    let cold_cache = SuiteCache::with_store(Arc::clone(&store));
    let runs = run_ordered(&batch, 4, |_, ex| cold_cache.get_or_run(*ex, Variant::Ok));
    assert!(runs.iter().all(Result::is_ok));
    assert_eq!(
        verdict_table_for(&cold_cache, &batch),
        reference,
        "store-backed parallel batch must render the serial table"
    );

    // Warm replayed batch across the same pool.
    let warm_cache = SuiteCache::with_store(Arc::clone(&store));
    let runs = run_ordered(&batch, 4, |_, ex| warm_cache.get_or_run(*ex, Variant::Ok));
    for run in &runs {
        assert!(run.as_ref().unwrap().from_store, "warm batch must replay");
    }
    assert_eq!(
        verdict_table_for(&warm_cache, &batch),
        reference,
        "replayed batch must render the serial table"
    );
    assert_eq!(store.stats().misses, batch.len() as u64);
    assert_eq!(store.stats().hits, batch.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_under_concurrent_readers_never_tears() {
    let examples = all_examples();
    let names = ["fork_join_client", "barrier_client", "cas_counter_client"];

    // Budget ≈ one entry: every insert evicts someone, so readers race
    // unlink/rename constantly.
    let dir = tmp_store("evict-probe");
    let budget = {
        let probe = ProofStore::open(&dir, None).unwrap();
        let ex = pick(&examples, &names[..1])[0];
        probe.get_or_run(ex, Variant::Ok);
        probe.total_bytes() + probe.total_bytes() / 4
    };
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmp_store("evict");
    let store = Arc::new(ProofStore::open(&dir, Some(budget)).unwrap());
    const THREADS: usize = 4;
    const ROUNDS: usize = 6;
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let store = Arc::clone(&store);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let examples = all_examples();
            barrier.wait();
            for round in 0..ROUNDS {
                // Stagger the rotation per thread so inserts and reads
                // of different keys interleave.
                let name = ["fork_join_client", "barrier_client", "cas_counter_client"]
                    [(t + round) % 3];
                let ex = examples.iter().find(|e| e.name() == name).unwrap().as_ref();
                let run = store.get_or_run(ex, Variant::Ok);
                let outcome = run
                    .outcome
                    .as_ref()
                    .unwrap_or_else(|| panic!("{name}: missing outcome"))
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{name}: verification failed under eviction: {e}"));
                assert!(!outcome.proofs.is_empty(), "{name}");
            }
        }));
    }
    for h in handles {
        h.join().expect("no reader may panic");
    }
    let stats = store.stats();
    assert!(stats.evictions > 0, "the budget must have forced evictions");
    assert_eq!(
        stats.corruptions, 0,
        "evictions must read as clean misses (whole-file unlink), never as torn entries"
    );
    assert!(store.total_bytes() <= budget);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn distinct_specs_verify_concurrently() {
    let dir = tmp_store("distinct");
    let store = Arc::new(ProofStore::open(&dir, None).unwrap());
    let examples = all_examples();
    let batch = pick(
        &examples,
        &["fork_join_client", "barrier_client", "cas_counter_client", "inc_dec"],
    );
    let runs = run_ordered(&batch, batch.len(), |_, ex| {
        store.get_or_run(*ex, Variant::Ok)
    });
    for (ex, run) in batch.iter().zip(&runs) {
        let run = run.as_ref().expect("no panic");
        assert!(run.outcome.as_ref().unwrap().is_ok(), "{}", ex.name());
    }
    assert_eq!(store.stats().misses, batch.len() as u64);
    assert_eq!(store.len(), batch.len(), "every spec landed its own entry");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parallel inserts (and the flushes that follow the hits) never trip
/// over each other's staged index files: every write returns `Ok`, no
/// staging file is left behind, and the index on disk lists every key.
#[test]
fn parallel_inserts_keep_a_complete_index() {
    let dir = tmp_store("index");
    let store = ProofStore::open(&dir, None).unwrap();
    let examples = all_examples();
    let batch: Vec<&dyn Example> = examples.iter().take(8).map(AsRef::as_ref).collect();
    let barrier = Barrier::new(batch.len());
    for _round in 0..5 {
        std::thread::scope(|s| {
            for ex in &batch {
                let (store, barrier) = (&store, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let run = store.get_or_run(*ex, Variant::Ok);
                    assert!(run.outcome.as_ref().unwrap().is_ok(), "{}", ex.name());
                    store.flush().expect("index write must not race");
                });
            }
        });
    }
    assert_eq!(store.stats().misses, batch.len() as u64, "first round inserts, later rounds hit");

    let index = std::fs::read_to_string(dir.join("index.json")).expect("index written");
    let index = diaframe_core::trace_json::parse_json_value(&index).expect("index parses");
    let mut listed: Vec<&str> = index
        .get("entries")
        .and_then(|e| e.as_array())
        .expect("entries array")
        .iter()
        .map(|e| e.get("key").and_then(|k| k.as_str()).expect("key"))
        .collect();
    listed.sort_unstable();
    let mut expected: Vec<String> = batch
        .iter()
        .map(|ex| store_key(*ex, Variant::Ok, Ablation::none()))
        .collect();
    expected.sort_unstable();
    assert_eq!(listed, expected, "the index lists every inserted key");

    let stray: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|d| d.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("tmp-"))
        .collect();
    assert!(stray.is_empty(), "staging files left behind: {stray:?}");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
