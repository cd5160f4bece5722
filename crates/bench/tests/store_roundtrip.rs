//! Proof-store round trips: a miss searches and persists, a later lookup
//! — same process or a "restarted" one (a fresh [`ProofStore`] handle) —
//! replays the entry through the independent checker and reproduces the
//! original outcome exactly.

use diaframe_bench::{store_key, ProofStore, SuiteCache, Variant};
use diaframe_core::{current_ablation, Ablation, TelemetrySession};
use diaframe_examples::{all_examples, Example, ExampleOutcome};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diaframe-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn outcome_of(run: &diaframe_bench::CachedRun) -> &ExampleOutcome {
    run.outcome
        .as_ref()
        .expect("variant exists")
        .as_ref()
        .expect("verification succeeds")
}

/// A stable rendering of everything the harness derives from an outcome.
fn rendered(outcome: &ExampleOutcome) -> String {
    let mut out = format!(
        "manual={} hints={:?} custom={:?}\n",
        outcome.manual_steps,
        outcome.hints_used(),
        outcome.custom_hints_used()
    );
    for proof in &outcome.proofs {
        out.push_str(&format!("{}: {:?}\n", proof.name, proof.trace));
    }
    out
}

#[test]
fn miss_searches_then_hits_replay_identically() {
    let examples = all_examples();
    let ex = examples
        .iter()
        .find(|e| e.name() == "spin_lock")
        .expect("spin_lock example")
        .as_ref();
    let dir = tmp_store("roundtrip");

    // Counted under a session: the run's own counters carry the store
    // events and the search effort.
    let session = TelemetrySession::new("roundtrip");
    let installed = session.install();
    let store = ProofStore::open(&dir, None).unwrap();
    let cold = store.get_or_run(ex, Variant::Ok);
    assert!(!cold.from_store, "first lookup must search");
    assert_eq!(store.stats().misses, 1);
    assert_eq!(store.stats().hits, 0);
    assert_eq!(store.len(), 1);
    assert!(store.total_bytes() > 0);
    assert_eq!(cold.counters.store_misses, 1);
    assert_eq!(cold.counters.store_hits, 0);
    assert!(cold.counters.probes_attempted > 0, "the search was counted");

    // Same handle, second lookup: the single-flight cell is gone, so
    // this goes back to disk and replays.
    let warm = store.get_or_run(ex, Variant::Ok);
    assert!(warm.from_store, "second lookup must replay from disk");
    assert_eq!(store.stats().hits, 1);
    assert_eq!(warm.counters.store_hits, 1);
    assert!(warm.counters.checker_steps > 0, "the replay was counted");
    assert_eq!(
        warm.search_time,
        std::time::Duration::ZERO,
        "a hit performs no search"
    );
    assert_eq!(rendered(outcome_of(&cold)), rendered(outcome_of(&warm)));
    drop(installed);

    // A fresh handle over the same directory — a daemon restart — must
    // hit the persisted entry.
    drop(store);
    let reopened = ProofStore::open(&dir, None).unwrap();
    assert_eq!(reopened.len(), 1, "index survives reopen");
    let restarted = reopened.get_or_run(ex, Variant::Ok);
    assert!(restarted.from_store);
    assert_eq!(reopened.stats().hits, 1);
    assert_eq!(reopened.stats().misses, 0);
    assert_eq!(rendered(outcome_of(&cold)), rendered(outcome_of(&restarted)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn broken_variant_bypasses_the_store() {
    let examples = all_examples();
    let ex = examples
        .iter()
        .find(|e| e.verify_broken().is_some())
        .expect("an example with a broken variant")
        .as_ref();
    let dir = tmp_store("broken");
    let store = ProofStore::open(&dir, None).unwrap();
    let run = store.get_or_run(ex, Variant::Broken);
    assert!(!run.from_store);
    assert_eq!(
        store.stats(),
        diaframe_bench::StoreStats::default(),
        "broken variants must not touch the hit/miss ledger"
    );
    assert_eq!(store.len(), 0, "rejections are never persisted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_key_separates_every_input() {
    let examples = all_examples();
    let a = examples[0].as_ref();
    let b = examples[1].as_ref();
    let ablation = current_ablation();
    let base = store_key(a, Variant::Ok, ablation);
    assert_eq!(base.len(), 64);
    assert_ne!(base, store_key(b, Variant::Ok, ablation), "examples");
    assert_ne!(base, store_key(a, Variant::Broken, ablation), "variants");
    let flipped = Ablation {
        oldest_first: !ablation.oldest_first,
        ..ablation
    };
    assert_ne!(base, store_key(a, Variant::Ok, flipped), "ablations");
    // Deterministic within a configuration.
    assert_eq!(base, store_key(a, Variant::Ok, ablation));
}

#[test]
fn index_is_an_optimization_not_a_source_of_truth() {
    let examples = all_examples();
    let ex = examples
        .iter()
        .find(|e| e.name() == "inc_dec")
        .expect("inc_dec example")
        .as_ref();
    let dir = tmp_store("heal");
    {
        let store = ProofStore::open(&dir, None).unwrap();
        store.get_or_run(ex, Variant::Ok);
    }
    // Losing the index must not lose the entries: reopen rebuilds it by
    // scanning the objects directory.
    std::fs::remove_file(dir.join("index.json")).unwrap();
    {
        let store = ProofStore::open(&dir, None).unwrap();
        assert_eq!(store.len(), 1, "index rebuilt from objects");
        assert!(store.get_or_run(ex, Variant::Ok).from_store);
    }
    // Losing an entry behind the index's back must demote to a plain
    // miss (and repair), not an error.
    let key = store_key(ex, Variant::Ok, current_ablation());
    {
        let store = ProofStore::open(&dir, None).unwrap();
        std::fs::remove_file(store.entry_path(&key)).unwrap();
        let run = store.get_or_run(ex, Variant::Ok);
        assert!(!run.from_store);
        assert_eq!(store.stats().misses, 1);
        assert_eq!(store.stats().corruptions, 0, "a vanished file is a miss, not corruption");
        assert!(store.entry_path(&key).exists(), "entry re-inserted");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lru_eviction_respects_the_byte_budget() {
    let examples = all_examples();
    let names = ["fork_join_client", "barrier_client", "cas_counter_client"];
    let picked: Vec<&dyn Example> = names
        .iter()
        .map(|n| {
            examples
                .iter()
                .find(|e| e.name() == *n)
                .unwrap_or_else(|| panic!("example {n}"))
                .as_ref()
        })
        .collect();
    let dir = tmp_store("lru");
    // Learn one entry's size, then budget for roughly two of them.
    let budget = {
        let probe = ProofStore::open(&dir, None).unwrap();
        probe.get_or_run(picked[0], Variant::Ok);
        probe.total_bytes() * 2 + probe.total_bytes() / 2
    };
    let _ = std::fs::remove_dir_all(&dir);

    let store = ProofStore::open(&dir, Some(budget)).unwrap();
    for ex in &picked {
        store.get_or_run(*ex, Variant::Ok);
    }
    assert!(
        store.stats().evictions > 0,
        "three entries cannot fit a two-entry budget"
    );
    assert!(store.total_bytes() <= budget, "sweep enforces the budget");
    assert!(store.len() < picked.len());
    // The oldest entry was the victim; the newest must still hit.
    let newest = store.get_or_run(picked[2], Variant::Ok);
    assert!(newest.from_store);
    // Every lookup still verifies, evicted or not.
    for ex in &picked {
        let run = store.get_or_run(*ex, Variant::Ok);
        assert!(run.outcome.as_ref().unwrap().is_ok(), "{}", ex.name());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn suite_cache_memoizes_in_front_of_the_store() {
    let examples = all_examples();
    let ex = examples
        .iter()
        .find(|e| e.name() == "ticket_lock_client")
        .expect("ticket_lock_client example")
        .as_ref();
    let dir = tmp_store("suitecache");
    let store = Arc::new(ProofStore::open(&dir, None).unwrap());

    let cache = SuiteCache::with_store(Arc::clone(&store));
    let first = cache.get_or_run(ex, Variant::Ok);
    let second = cache.get_or_run(ex, Variant::Ok);
    assert!(Arc::ptr_eq(&first, &second), "second lookup is memoized in memory");
    assert_eq!(store.stats().misses, 1);
    assert_eq!(store.stats().hits, 0, "memoized lookups never reach the store");

    // A fresh cache over the same store replays from disk.
    let fresh = SuiteCache::with_store(Arc::clone(&store));
    let replayed = fresh.get_or_run(ex, Variant::Ok);
    assert!(replayed.from_store);
    assert_eq!(store.stats().hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
