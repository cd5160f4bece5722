//! The persistent, content-addressed proof store: search once, replay
//! forever.
//!
//! Proof *search* dominates the harness's wall-clock; the independent
//! trace replay is roughly an order of magnitude cheaper (see the
//! `replay_vs_search` bench). Since PR 5 pinned traces byte-deterministic
//! for a fixed engine configuration, a completed search is a pure
//! function of `(spec, hints, engine version, semantics-affecting
//! knobs)` — so this module caches it on disk, keyed by a SHA-256
//! fingerprint of exactly those inputs
//! ([`diaframe_core::engine_fingerprint`] plus the example's sources and
//! the thread's [`Ablation`]).
//!
//! Trust model: a stored trace is **never believed blindly**. A lookup
//! only counts as a hit after the entry's checksum matches *and* the
//! decoded traces replay cleanly through the independent
//! [`checker`](diaframe_core::checker) — the same TCB that guards fresh
//! searches. Any corruption (truncation, bit flips, garbage, or a trace
//! the checker refuses) demotes the lookup to a miss: the entry is
//! deleted, the search re-runs, and the repaired result is re-inserted.
//! A corrupt store can cost time; it can never change a verdict.
//!
//! On-disk layout under the store root:
//!
//! ```text
//! root/
//!   index.json            # {version, engine, clock, entries: [{key, bytes, last_used}]}
//!   objects/<key>.json    # {"checksum":"<sha256>","payload":{…}}
//! ```
//!
//! Entry files are immutable once written: writers stage a temp file and
//! `rename` it into place, so concurrent readers see either the complete
//! entry or nothing — never a half-written file. Eviction is LRU by a
//! persisted *logical* clock (not wall time, which would make store
//! bytes nondeterministic) against an optional byte budget.

use crate::cache::{in_verify_span, run_once, run_serial, CachedRun, Variant};
use diaframe_core::trace_json::{
    json_escape, parse_json_value, traces_from_compact_value, traces_to_compact_json, JsonValue,
};
use diaframe_core::{
    current_ablation, engine_fingerprint, sha256_hex, telemetry, Ablation, Fingerprinter,
    VerifiedProof,
};
use diaframe_examples::{Example, ExampleOutcome};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The revision of the on-disk envelope + index layout. Bump on any
/// incompatible change; old entries then read as corrupt and are
/// re-searched (the store is a cache, so that is always safe).
pub const STORE_FORMAT: u32 = 1;

/// The content-addressed key of one store entry: a SHA-256 fingerprint
/// over everything that determines the proof trace.
///
/// The engine fingerprint covers crate versions and the trace-format
/// revision; the per-thread [`Ablation`] is keyed here because it varies
/// per lookup, not per process. Its three ablations are keyed; its
/// linear reference scan is not, since it leaves every trace as it is.
#[must_use]
pub fn store_key(ex: &dyn Example, variant: Variant, ablation: Ablation) -> String {
    let mut fp = Fingerprinter::new();
    fp.field("engine", &engine_fingerprint());
    fp.field("example", ex.name());
    fp.field("source", ex.source());
    fp.field("annotation", ex.annotation());
    fp.field(
        "variant",
        match variant {
            Variant::Ok => "ok",
            Variant::Broken => "broken",
        },
    );
    fp.field(
        "ablation",
        &format!(
            "oldest_first={},single_pass={},no_alloc_preference={}",
            ablation.oldest_first, ablation.single_pass, ablation.no_alloc_preference
        ),
    );
    fp.finish()
}

/// Counter totals for one store, independent of any telemetry session
/// (the `diaframe serve` stats endpoint and the `figure6 --store` report
/// read these; under an installed telemetry session the same events
/// also feed the per-run counters of [`diaframe_core::CounterSnapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered by a successfully replayed entry.
    pub hits: u64,
    /// Lookups that fell through to a full search.
    pub misses: u64,
    /// Entries rejected as corrupt (each also counted as a miss).
    pub corruptions: u64,
    /// Entries evicted by the LRU byte-budget sweep.
    pub evictions: u64,
    /// Milliseconds spent replaying stored traces on the hit path.
    pub replay_ms: u64,
    /// Milliseconds spent in full search on the miss path.
    pub search_ms: u64,
}

impl StoreStats {
    /// Counterwise difference `self - earlier`, for attributing counter
    /// deltas to one pass over a shared store.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via underflow) if `earlier` is not an
    /// earlier snapshot of the same store — counters only grow.
    #[must_use]
    pub fn delta_since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            corruptions: self.corruptions - earlier.corruptions,
            evictions: self.evictions - earlier.evictions,
            replay_ms: self.replay_ms - earlier.replay_ms,
            search_ms: self.search_ms - earlier.search_ms,
        }
    }

    /// Renders the stats as a JSON object with a fixed key order.
    #[must_use]
    pub fn json_object(&self) -> String {
        format!(
            "{{ \"hits\": {}, \"misses\": {}, \"corruptions\": {}, \"evictions\": {}, \
             \"replay_ms\": {}, \"search_ms\": {} }}",
            self.hits,
            self.misses,
            self.corruptions,
            self.evictions,
            self.replay_ms,
            self.search_ms
        )
    }
}

#[derive(Debug, Clone)]
struct IndexEntry {
    bytes: u64,
    last_used: u64,
}

struct Index {
    clock: u64,
    entries: HashMap<String, IndexEntry>,
    /// In-memory LRU clocks ahead of the persisted index. Hits only
    /// mark this (persisting on every hit would serialize the whole
    /// warm path behind the index file); inserts, evictions and drop
    /// write through.
    dirty: bool,
}

impl Index {
    fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }
}

/// A persistent content-addressed proof store rooted at one directory.
///
/// Cheap to share behind an [`Arc`]; all methods take `&self`. Lookups
/// for the same key are *single-flighted*: concurrent requests block on
/// the one in-flight search/replay instead of duplicating it, exactly
/// like the in-memory [`SuiteCache`](crate::SuiteCache).
pub struct ProofStore {
    root: PathBuf,
    budget: Option<u64>,
    index: Mutex<Index>,
    /// Held across snapshot + write + rename of the index file, so the
    /// last index published is always the newest snapshot.
    index_write: Mutex<()>,
    inflight: Mutex<HashMap<String, Arc<OnceLock<Arc<CachedRun>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    corruptions: AtomicU64,
    evictions: AtomicU64,
    replay_ms: AtomicU64,
    search_ms: AtomicU64,
}

impl ProofStore {
    /// Opens (creating if necessary) the store rooted at `root`, with an
    /// optional LRU byte budget for entry files (`None` = unbounded).
    ///
    /// A missing or unreadable index is rebuilt by scanning the objects
    /// directory — the index is an optimization, never a source of
    /// truth, so a crash between an object rename and an index write
    /// loses nothing.
    ///
    /// # Errors
    ///
    /// Returns the error if the store directories cannot be created.
    pub fn open(root: &Path, budget: Option<u64>) -> io::Result<ProofStore> {
        fs::create_dir_all(root.join("objects"))?;
        let mut index = read_index(&root.join("index.json")).unwrap_or(Index {
            clock: 0,
            entries: HashMap::new(),
            dirty: false,
        });
        // Heal the index against the objects directory: drop entries
        // whose file vanished, adopt files the index never recorded.
        let mut on_disk = HashMap::new();
        for dirent in fs::read_dir(root.join("objects"))? {
            let dirent = dirent?;
            let name = dirent.file_name();
            let Some(key) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                continue;
            };
            on_disk.insert(key.to_owned(), dirent.metadata()?.len());
        }
        index.entries.retain(|k, _| on_disk.contains_key(k));
        for (key, bytes) in on_disk {
            index.entries.entry(key).or_insert(IndexEntry {
                bytes,
                last_used: 0,
            });
        }
        Ok(ProofStore {
            root: root.to_owned(),
            budget,
            index: Mutex::new(index),
            index_write: Mutex::new(()),
            inflight: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            replay_ms: AtomicU64::new(0),
            search_ms: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path of the entry file for `key` (immutable once present;
    /// the corruption tests overwrite these directly).
    #[must_use]
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join("objects").join(format!("{key}.json"))
    }

    /// Counter totals since this handle was opened.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            replay_ms: self.replay_ms.load(Ordering::Relaxed),
            search_ms: self.search_ms.load(Ordering::Relaxed),
        }
    }

    /// Number of entries currently indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.lock().unwrap().entries.len()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of indexed entry files.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.index.lock().unwrap().total_bytes()
    }

    /// Serves `(ex, variant)` from the store if possible, searching (and
    /// inserting) on a miss. This is the store-backed analogue of
    /// [`SuiteCache::get_or_run`](crate::SuiteCache::get_or_run) and is
    /// what a store-carrying `SuiteCache` calls instead of a bare run.
    ///
    /// Only successful [`Variant::Ok`] verifications are cacheable:
    /// `Broken` variants and failed searches bypass the store (and its
    /// hit/miss ledger) entirely — a rejection's evidence is the *fresh*
    /// search, not a memo.
    pub fn get_or_run(&self, ex: &dyn Example, variant: Variant) -> Arc<CachedRun> {
        if variant == Variant::Broken {
            return Arc::new(run_once(ex, variant));
        }
        let key = store_key(ex, variant, current_ablation());
        let cell = {
            let mut map = self.inflight.lock().unwrap();
            Arc::clone(map.entry(key.clone()).or_default())
        };
        let mut ran = false;
        let run = Arc::clone(cell.get_or_init(|| {
            ran = true;
            Arc::new(self.lookup_or_search(&key, ex, variant))
        }));
        if ran {
            // The in-flight map is *only* the single-flight rendezvous:
            // concurrent same-key requests share one search/replay, but
            // a later lookup (e.g. a fresh SuiteCache over the same
            // store) goes back to disk and counts as its own hit —
            // in-memory memoization is the SuiteCache's job.
            self.inflight.lock().unwrap().remove(&key);
        }
        run
    }

    /// One uncontended lookup: replay the stored entry, or search and
    /// insert.
    fn lookup_or_search(&self, key: &str, ex: &dyn Example, variant: Variant) -> CachedRun {
        match self.try_replay(key, ex) {
            Ok(run) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.touch(key);
                run
            }
            Err(corrupt) => {
                if corrupt.is_some() {
                    // A present-but-bad entry: count it, drop it, and
                    // let the re-search below repair it (the reason
                    // itself only matters to the telemetry counters).
                    self.corruptions.fetch_add(1, Ordering::Relaxed);
                    let _ = fs::remove_file(self.entry_path(key));
                    self.index.lock().unwrap().entries.remove(key);
                    let _ = self.write_index();
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                // The store events land inside the run's `verify` span,
                // where its counters and the invariant checks see them.
                let run = in_verify_span(ex.name(), false, || {
                    let run = run_serial(ex, variant);
                    let search_ms = u64::try_from(run.1.as_millis()).unwrap_or(u64::MAX);
                    self.search_ms.fetch_add(search_ms, Ordering::Relaxed);
                    telemetry::store_miss();
                    if corrupt.is_some() {
                        telemetry::store_corruption();
                    }
                    telemetry::store_search_ms(search_ms);
                    run
                });
                if let Some(Ok(outcome)) = &run.outcome {
                    if let Err(e) = self.insert(key, ex, outcome) {
                        // Disk trouble only costs future hits.
                        eprintln!("proof store: failed to insert {}: {e}", ex.name());
                    }
                }
                run
            }
        }
    }

    /// Attempts to serve `key` by replaying the stored entry.
    ///
    /// `Err(None)` is a plain miss (no entry); `Err(Some(reason))` is a
    /// detected corruption (the caller deletes and re-searches).
    fn try_replay(&self, key: &str, ex: &dyn Example) -> Result<CachedRun, Option<String>> {
        let text = match fs::read_to_string(self.entry_path(key)) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(None),
            Err(e) => return Err(Some(format!("unreadable entry: {e}"))),
        };
        let mut failure = None;
        let run = in_verify_span(ex.name(), true, || {
            let t0 = Instant::now();
            let replayed = replay_entry(&text, key, ex);
            let replay_time = t0.elapsed();
            match replayed {
                Ok(outcome) => {
                    let replay_ms = u64::try_from(replay_time.as_millis()).unwrap_or(u64::MAX);
                    self.replay_ms.fetch_add(replay_ms, Ordering::Relaxed);
                    telemetry::store_hit();
                    telemetry::store_replay_ms(replay_ms);
                    // No search happened; the entire cost of a hit is
                    // the checker replay.
                    (Some(Ok(outcome)), Duration::ZERO, replay_time)
                }
                Err(reason) => {
                    failure = Some(reason);
                    (None, Duration::ZERO, Duration::ZERO)
                }
            }
        });
        match failure {
            Some(reason) => Err(Some(reason)),
            None => Ok(run),
        }
    }

    /// Serializes and atomically publishes one verified outcome, then
    /// sweeps the LRU budget.
    fn insert(&self, key: &str, ex: &dyn Example, outcome: &ExampleOutcome) -> io::Result<()> {
        let payload = encode_payload(key, ex, outcome);
        let file = format!(
            "{{\"checksum\":\"{}\",\"payload\":{payload}}}",
            sha256_hex(payload.as_bytes())
        );
        let tmp = self.tmp_path(key);
        fs::write(&tmp, &file)?;
        // The rename is the publication point: readers either see the
        // complete entry or the previous state, never a partial write.
        fs::rename(&tmp, self.entry_path(key))?;
        {
            let mut index = self.index.lock().unwrap();
            index.clock += 1;
            let last_used = index.clock;
            index.entries.insert(
                key.to_owned(),
                IndexEntry {
                    bytes: file.len() as u64,
                    last_used,
                },
            );
            index.dirty = true;
        }
        self.sweep_budget();
        self.write_index()
    }

    /// Marks `key` as freshly used (LRU bookkeeping on hits). Memory
    /// only; the clocks persist at the next insert/evict or on drop.
    fn touch(&self, key: &str) {
        let mut index = self.index.lock().unwrap();
        index.clock += 1;
        let clock = index.clock;
        if let Some(entry) = index.entries.get_mut(key) {
            entry.last_used = clock;
            index.dirty = true;
        }
    }

    /// Persists any in-memory LRU bookkeeping. Called automatically on
    /// drop; exposed for long-lived holders (the daemon) that want the
    /// clocks durable at a known point.
    ///
    /// # Errors
    ///
    /// Returns the error from writing the index file.
    pub fn flush(&self) -> io::Result<()> {
        if self.index.lock().unwrap().dirty {
            self.write_index()?;
        }
        Ok(())
    }

    /// Evicts least-recently-used entries until the byte budget holds.
    /// Readers racing an eviction fall back to a miss: entry files are
    /// immutable and unlinked whole, so a reader sees the full entry or
    /// `NotFound` — never a torn one.
    fn sweep_budget(&self) {
        let Some(budget) = self.budget else { return };
        let mut evicted = 0u64;
        loop {
            let victim = {
                let index = self.index.lock().unwrap();
                if index.total_bytes() <= budget {
                    break;
                }
                index
                    .entries
                    .iter()
                    .min_by_key(|(k, e)| (e.last_used, (*k).clone()))
                    .map(|(k, _)| k.clone())
            };
            let Some(key) = victim else { break };
            let _ = fs::remove_file(self.entry_path(&key));
            self.index.lock().unwrap().entries.remove(&key);
            evicted += 1;
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            telemetry::store_evictions(evicted);
        }
    }

    /// A staging path unique to one write: concurrent writers (threads
    /// of one process, or processes sharing the store) never stage under
    /// the same name, so no writer's `rename` can lose its source file.
    fn tmp_path(&self, what: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        self.root
            .join(format!("tmp-{what}-{}-{n}", std::process::id()))
    }

    /// Atomically persists the index. `dirty` is cleared only once the
    /// rename succeeded, and only if no touch or insert happened since
    /// the snapshot was taken.
    fn write_index(&self) -> io::Result<()> {
        let _writing = self.index_write.lock().unwrap();
        let (body, clock) = {
            let index = self.index.lock().unwrap();
            let mut keys: Vec<&String> = index.entries.keys().collect();
            keys.sort();
            let mut out = String::new();
            let _ = write!(
                out,
                "{{\"version\":{STORE_FORMAT},\"engine\":\"{}\",\"clock\":{},\"entries\":[",
                engine_fingerprint(),
                index.clock
            );
            for (i, key) in keys.iter().enumerate() {
                let entry = &index.entries[*key];
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"key\":\"{key}\",\"bytes\":{},\"last_used\":{}}}",
                    entry.bytes, entry.last_used
                );
            }
            out.push_str("]}");
            (out, index.clock)
        };
        let tmp = self.tmp_path("index");
        fs::write(&tmp, body)?;
        if let Err(e) = fs::rename(&tmp, self.root.join("index.json")) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        let mut index = self.index.lock().unwrap();
        if index.clock == clock {
            index.dirty = false;
        }
        Ok(())
    }
}

impl Drop for ProofStore {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Reads and minimally validates the index file. `None` means "rebuild
/// from the objects directory".
fn read_index(path: &Path) -> Option<Index> {
    let text = fs::read_to_string(path).ok()?;
    let v = parse_json_value(&text).ok()?;
    if v.get("version")?.as_u64()? != u64::from(STORE_FORMAT) {
        return None;
    }
    let clock = v.get("clock")?.as_u64()?;
    let mut entries = HashMap::new();
    for item in v.get("entries")?.as_array()? {
        entries.insert(
            item.get("key")?.as_str()?.to_owned(),
            IndexEntry {
                bytes: item.get("bytes")?.as_u64()?,
                last_used: item.get("last_used")?.as_u64()?,
            },
        );
    }
    Some(Index {
        clock,
        entries,
        dirty: false,
    })
}

/// Serializes the payload half of an entry (the checksummed bytes).
/// Traces go through the compact bundle codec
/// ([`traces_to_compact_json`]): variable-context snapshots are
/// delta-shared across the example's specs, which keeps both the store
/// small and the warm replay path fast (the hit path's cost is
/// dominated by bytes hashed and parsed). Encoding renders each distinct
/// context entry once and matches delta bases on dense integer ids, so
/// its cost grows with the bundle's size rather than with obligations ×
/// context length; on a store miss it is a small fraction of the search
/// it follows.
fn encode_payload(key: &str, ex: &dyn Example, outcome: &ExampleOutcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"format\":{STORE_FORMAT},\"key\":\"{key}\",\"example\":\"{}\",\"variant\":\"ok\",\"manual_steps\":{},\"bundle\":",
        json_escape(ex.name()),
        outcome.manual_steps
    );
    let specs: Vec<(&str, &diaframe_core::ProofTrace)> = outcome
        .proofs
        .iter()
        .map(|p| (p.name.as_str(), &p.trace))
        .collect();
    out.push_str(&traces_to_compact_json(&specs));
    out.push('}');
    out
}

/// Decodes, checksums and **replays** one entry file. Every failure
/// mode — truncation, bit flips, garbage, a mismatched key, or a trace
/// the independent checker refuses — comes back as `Err(reason)` and is
/// treated as corruption by the caller.
fn replay_entry(text: &str, key: &str, ex: &dyn Example) -> Result<ExampleOutcome, String> {
    // The envelope is written in exactly one shape, so the checksummed
    // payload bytes can be recovered textually (the hand-rolled JSON
    // parser does not preserve raw spans).
    let rest = text
        .strip_prefix("{\"checksum\":\"")
        .ok_or("envelope prefix mismatch")?;
    let (checksum, rest) = rest.split_at_checked(64).ok_or("truncated checksum")?;
    let payload = rest
        .strip_prefix("\",\"payload\":")
        .and_then(|r| r.strip_suffix('}'))
        .ok_or("envelope framing mismatch")?;
    if sha256_hex(payload.as_bytes()) != checksum {
        return Err("checksum mismatch".to_owned());
    }
    let v = parse_json_value(payload).map_err(|e| format!("payload does not parse: {e}"))?;
    let format = v.get("format").and_then(JsonValue::as_u64);
    if format != Some(u64::from(STORE_FORMAT)) {
        return Err(format!("unsupported entry format {format:?}"));
    }
    if v.get("key").and_then(JsonValue::as_str) != Some(key) {
        return Err("entry key does not match its address".to_owned());
    }
    if v.get("example").and_then(JsonValue::as_str) != Some(ex.name()) {
        return Err("entry is for a different example".to_owned());
    }
    let manual_steps = v
        .get("manual_steps")
        .and_then(JsonValue::as_u64)
        .ok_or("missing manual_steps")?;
    let bundle = v.get("bundle").ok_or("missing bundle")?;
    let decoded =
        traces_from_compact_value(bundle).map_err(|e| format!("bundle does not decode: {e}"))?;
    let mut proofs = Vec::with_capacity(decoded.len());
    for (name, trace) in decoded {
        // The actual line of defense: the independent checker must
        // accept the stored trace before it is served.
        diaframe_core::checker::check(&trace)
            .map_err(|e| format!("{name}: stored trace failed replay: {e}"))?;
        proofs.push(VerifiedProof { name, trace });
    }
    Ok(ExampleOutcome {
        proofs,
        manual_steps: usize::try_from(manual_steps).map_err(|_| "manual_steps overflow")?,
    })
}
