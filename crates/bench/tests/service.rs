//! End-to-end daemon tests: a `diaframe serve` instance over a Unix
//! socket, driven through the framed-JSON protocol by the library
//! client. Covers verify (single and batch), the deterministic verdict
//! table, stats, shutdown, warm restarts against a shared store, and
//! error answers (bad requests, oversized responses) that leave the
//! connection serving.
#![cfg(unix)]

use diaframe_bench::server::{serve, Client, Endpoint, ServerConfig};
use diaframe_bench::{verdict_table_for, SuiteCache, Variant};
use diaframe_core::trace_json::{parse_json_value, JsonValue};
use diaframe_examples::{all_examples, Example};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diaframe-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts a daemon thread and blocks until its socket accepts.
fn start_daemon(socket: PathBuf, config: ServerConfig) -> std::thread::JoinHandle<()> {
    let endpoint = Endpoint::Unix(socket.clone());
    let handle = std::thread::spawn(move || {
        serve(&Endpoint::Unix(socket), &config).expect("daemon runs");
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match Client::connect(&endpoint) {
            Ok(_) => return handle,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("daemon never came up: {e}"),
        }
    }
}

fn call(endpoint: &Endpoint, body: &str) -> JsonValue {
    let mut client = Client::connect(endpoint).expect("connect");
    let response = client.call(body).expect("call");
    parse_json_value(&response).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
}

fn shutdown(endpoint: &Endpoint, handle: std::thread::JoinHandle<()>) {
    let v = call(endpoint, "{\"op\":\"shutdown\"}");
    assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(v.get("stopping").and_then(JsonValue::as_bool), Some(true));
    handle.join().expect("daemon thread exits after shutdown");
}

const BATCH: [&str; 3] = ["fork_join_client", "barrier_client", "inc_dec"];

fn batch_request() -> String {
    let names: Vec<String> = BATCH.iter().map(|n| format!("\"{n}\"")).collect();
    format!("{{\"op\":\"verify\",\"examples\":[{}]}}", names.join(","))
}

#[test]
fn daemon_verifies_batches_and_restarts_warm() {
    let dir = tmp_dir("warm");
    let store_dir = dir.join("store");
    let config = ServerConfig {
        store_dir: Some(store_dir.clone()),
        budget: None,
        jobs: 2,
    };
    let socket = dir.join("daemon.sock");
    let endpoint = Endpoint::Unix(socket.clone());

    // The local reference table the daemon must reproduce byte-for-byte.
    let examples = all_examples();
    let picked: Vec<&dyn Example> = BATCH
        .iter()
        .map(|n| examples.iter().find(|e| e.name() == *n).unwrap().as_ref())
        .collect();
    let reference = SuiteCache::new();
    for ex in &picked {
        reference.get_or_run(*ex, Variant::Ok);
    }
    let reference_table = verdict_table_for(&reference, &picked);

    // Cold daemon: every verdict verified, nothing from the store.
    let handle = start_daemon(socket.clone(), config.clone());
    let v = call(&endpoint, &batch_request());
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{v:?}"
    );
    let results = v.get("results").and_then(JsonValue::as_array).unwrap();
    assert_eq!(results.len(), BATCH.len());
    for (name, row) in BATCH.iter().zip(results) {
        assert_eq!(row.get("example").and_then(JsonValue::as_str), Some(*name));
        assert_eq!(
            row.get("verdict").and_then(JsonValue::as_str),
            Some("verified")
        );
        assert_eq!(
            row.get("from_store").and_then(JsonValue::as_bool),
            Some(false)
        );
    }
    assert_eq!(
        v.get("table").and_then(JsonValue::as_str),
        Some(reference_table.as_str()),
        "daemon table must equal the serial in-process table"
    );

    // Stats reflect the populated store.
    let stats = call(&endpoint, "{\"op\":\"stats\"}");
    assert_eq!(stats.get("ok").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        stats
            .get("engine")
            .and_then(JsonValue::as_str)
            .map(str::len),
        Some(64)
    );
    let store_stats = stats.get("store").unwrap();
    assert_eq!(
        store_stats.get("entries").and_then(JsonValue::as_u64),
        Some(BATCH.len() as u64)
    );
    let counters = store_stats.get("counters").unwrap();
    assert_eq!(
        counters.get("misses").and_then(JsonValue::as_u64),
        Some(BATCH.len() as u64)
    );
    assert_eq!(counters.get("hits").and_then(JsonValue::as_u64), Some(0));
    shutdown(&endpoint, handle);

    // Restarted daemon, same store: the whole batch replays, the table
    // is still byte-identical.
    let handle = start_daemon(socket.clone(), config);
    let v = call(&endpoint, &batch_request());
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{v:?}"
    );
    for row in v.get("results").and_then(JsonValue::as_array).unwrap() {
        assert_eq!(
            row.get("verdict").and_then(JsonValue::as_str),
            Some("verified")
        );
        assert_eq!(
            row.get("from_store").and_then(JsonValue::as_bool),
            Some(true),
            "warm daemon must serve from the store: {row:?}"
        );
    }
    assert_eq!(
        v.get("table").and_then(JsonValue::as_str),
        Some(reference_table.as_str())
    );
    let stats = call(&endpoint, "{\"op\":\"stats\"}");
    let counters = stats.get("store").unwrap().get("counters").unwrap();
    assert_eq!(
        counters.get("hits").and_then(JsonValue::as_u64),
        Some(BATCH.len() as u64)
    );
    assert_eq!(counters.get("misses").and_then(JsonValue::as_u64), Some(0));
    shutdown(&endpoint, handle);
    assert!(!socket.exists(), "shutdown removes the socket file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_rejects_bad_requests_and_keeps_serving() {
    let dir = tmp_dir("errors");
    let socket = dir.join("daemon.sock");
    let endpoint = Endpoint::Unix(socket.clone());
    let handle = start_daemon(
        socket,
        ServerConfig {
            store_dir: None,
            budget: None,
            jobs: 1,
        },
    );

    for (body, expect) in [
        ("{\"op\":\"frobnicate\"}", "unknown op"),
        ("not json", "does not parse"),
        ("{\"op\":\"verify\"}", "requires an"),
        (
            "{\"op\":\"verify\",\"examples\":[\"no_such_example\"]}",
            "unknown example",
        ),
        ("{\"op\":\"verify\",\"examples\":[7]}", "must be strings"),
    ] {
        let v = call(&endpoint, body);
        assert_eq!(
            v.get("ok").and_then(JsonValue::as_bool),
            Some(false),
            "{body}"
        );
        let error = v.get("error").and_then(JsonValue::as_str).unwrap_or("");
        assert!(error.contains(expect), "{body}: got {error:?}");
    }

    // Errors must not wedge the daemon: a good request still works, and
    // one connection can carry several requests back to back.
    let mut client = Client::connect(&endpoint).unwrap();
    for _ in 0..2 {
        let response = client
            .call("{\"op\":\"verify\",\"examples\":[\"inc_dec\"]}")
            .unwrap();
        let v = parse_json_value(&response).unwrap();
        assert_eq!(
            v.get("ok").and_then(JsonValue::as_bool),
            Some(true),
            "{v:?}"
        );
    }
    drop(client);
    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn storeless_daemon_serves_and_reports_null_store() {
    let dir = tmp_dir("storeless");
    let socket = dir.join("daemon.sock");
    let endpoint = Endpoint::Unix(socket.clone());
    let handle = start_daemon(
        socket,
        ServerConfig {
            store_dir: None,
            budget: None,
            jobs: 1,
        },
    );
    let v = call(
        &endpoint,
        "{\"op\":\"verify\",\"examples\":[\"spin_lock\"]}",
    );
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{v:?}"
    );
    let stats = call(&endpoint, "{\"op\":\"stats\"}");
    assert_eq!(stats.get("store"), Some(&JsonValue::Null));
    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch the cache holds is answered without the pool, a batch with
/// one uncached example goes through it, and either way every example
/// counts one hit or one miss for its row, plus one hit for the table.
#[test]
fn daemon_counts_each_example_once_on_cached_and_mixed_batches() {
    let dir = tmp_dir("mixed");
    let socket = dir.join("daemon.sock");
    let endpoint = Endpoint::Unix(socket.clone());
    let handle = start_daemon(
        socket,
        ServerConfig {
            store_dir: None,
            budget: None,
            jobs: 2,
        },
    );
    let cache_counts = || {
        let stats = call(&endpoint, "{\"op\":\"stats\"}");
        let get = |k: &str| {
            stats
                .get("cache")
                .and_then(|c| c.get(k))
                .and_then(JsonValue::as_u64)
        };
        (get("hits"), get("misses"))
    };
    let single = "{\"op\":\"verify\",\"examples\":[\"spin_lock\"]}";
    let mixed = "{\"op\":\"verify\",\"examples\":[\"spin_lock\",\"inc_dec\"]}";
    let mut tables = Vec::new();
    for (body, counts) in [
        (single, (1, 1)),
        (single, (3, 1)),
        (mixed, (6, 2)),
        (mixed, (10, 2)),
    ] {
        let v = call(&endpoint, body);
        assert_eq!(
            v.get("ok").and_then(JsonValue::as_bool),
            Some(true),
            "{v:?}"
        );
        tables.push(
            v.get("table")
                .and_then(JsonValue::as_str)
                .map(str::to_owned),
        );
        assert_eq!(
            cache_counts(),
            (Some(counts.0), Some(counts.1)),
            "after {body}"
        );
    }
    assert_eq!(tables[0], tables[1]);
    assert_eq!(tables[2], tables[3]);
    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_answers_deeply_nested_frames_with_an_error() {
    let dir = tmp_dir("deep");
    let socket = dir.join("daemon.sock");
    let endpoint = Endpoint::Unix(socket.clone());
    let handle = start_daemon(
        socket,
        ServerConfig {
            store_dir: None,
            budget: None,
            jobs: 1,
        },
    );
    // A 100 KB frame of open brackets: far inside the frame size limit,
    // far past the parser's nesting limit. Unbounded recursion would
    // overflow the connection thread's stack and abort the daemon.
    let mut client = Client::connect(&endpoint).unwrap();
    let response = client.call(&"[".repeat(100_000)).unwrap();
    let v = parse_json_value(&response).unwrap();
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(false),
        "{v:?}"
    );
    let error = v.get("error").and_then(JsonValue::as_str).unwrap_or("");
    assert!(error.contains("nesting deeper than"), "got {error:?}");
    // The same connection serves the next request.
    let response = client
        .call("{\"op\":\"verify\",\"examples\":[\"spin_lock\"]}")
        .unwrap();
    let v = parse_json_value(&response).unwrap();
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{v:?}"
    );
    drop(client);
    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_refuses_an_oversized_response_and_keeps_serving() {
    let dir = tmp_dir("oversized");
    let socket = dir.join("daemon.sock");
    let endpoint = Endpoint::Unix(socket.clone());
    let handle = start_daemon(
        socket,
        ServerConfig {
            store_dir: None,
            budget: None,
            jobs: 1,
        },
    );
    // A 700 KB request whose response (one result row and one table row
    // per name) is larger than the 16 MiB frame cap.
    let names = vec!["\"arc\""; 100_000].join(",");
    let mut client = Client::connect(&endpoint).unwrap();
    let response = client
        .call(&format!("{{\"op\":\"verify\",\"examples\":[{names}]}}"))
        .unwrap();
    let v = parse_json_value(&response).unwrap();
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(false),
        "{v:?}"
    );
    let error = v.get("error").and_then(JsonValue::as_str).unwrap_or("");
    assert!(
        error.contains("exceeds the 16777216-byte frame cap"),
        "got {error:?}"
    );
    // The same connection serves the next request.
    let response = client.call("{\"op\":\"stats\"}").unwrap();
    let v = parse_json_value(&response).unwrap();
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{v:?}"
    );
    drop(client);
    shutdown(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
