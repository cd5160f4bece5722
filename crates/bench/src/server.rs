//! The `diaframe serve` verification daemon.
//!
//! One long-lived process keeps the JIT-warmed engine, the in-memory
//! [`SuiteCache`] and (optionally) a persistent [`ProofStore`] resident,
//! and answers [`proto`](crate::proto) requests over TCP or a Unix
//! socket. Batch `verify` requests fan out over the engine's own
//! deterministic work pool ([`diaframe_core::run_ordered`]), so a batch
//! submitted to the daemon produces the same verdict table as a serial
//! run — byte-identical, which the CI gate checks with `cmp`.
//!
//! Threading model: one acceptor loop, one handler thread per
//! connection, shared state behind an [`Arc`]. `shutdown` answers its
//! requester, flips a flag, and pokes the acceptor with a self-connect
//! so the blocking `accept` observes the flag and exits.

use crate::proto::{read_frame, write_frame, MAX_FRAME, PROTO_VERSION};
use crate::{verdict_table_for, CachedRun, ProofStore, SuiteCache, Variant};
use diaframe_core::trace_json::{json_escape, parse_json_value, JsonValue};
use diaframe_core::{engine_fingerprint, run_ordered};
use diaframe_examples::{all_examples, Example};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Where a daemon listens (and where a client connects).
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address like `127.0.0.1:7878`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Back the suite cache with a persistent proof store at this root.
    pub store_dir: Option<PathBuf>,
    /// LRU byte budget for the store (`None` = unbounded).
    pub budget: Option<u64>,
    /// Worker count for batch verify requests.
    pub jobs: usize,
}

struct ServerState {
    cache: SuiteCache,
    store: Option<Arc<ProofStore>>,
    jobs: usize,
    requests: AtomicU64,
    shutdown: AtomicBool,
}

/// Runs the daemon until a `shutdown` request arrives. Prints one
/// `listening on …` line to stdout once the socket is bound, so a
/// supervisor (or ci.sh) can wait for readiness by reading it.
///
/// # Errors
///
/// Returns the error if the endpoint cannot be bound or the store
/// cannot be opened.
pub fn serve(endpoint: &Endpoint, config: &ServerConfig) -> io::Result<()> {
    let store = match &config.store_dir {
        Some(dir) => Some(Arc::new(ProofStore::open(dir, config.budget)?)),
        None => None,
    };
    let cache = match &store {
        Some(s) => SuiteCache::with_store(Arc::clone(s)),
        None => SuiteCache::new(),
    };
    let state = Arc::new(ServerState {
        cache,
        store,
        jobs: config.jobs.max(1),
        requests: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
    });
    match endpoint {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr)?;
            println!("listening on tcp {}", listener.local_addr()?);
            accept_loop(|| listener.accept().map(|(s, _)| s), &state, endpoint);
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            // A previous daemon's leftover socket file would make bind
            // fail; a stale file is dead weight, not a live listener.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            println!("listening on unix {}", path.display());
            accept_loop(|| listener.accept().map(|(s, _)| s), &state, endpoint);
            let _ = std::fs::remove_file(path);
        }
        #[cfg(not(unix))]
        Endpoint::Unix(_) => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are unavailable on this platform",
            ));
        }
    }
    Ok(())
}

fn accept_loop<S>(accept: impl Fn() -> io::Result<S>, state: &Arc<ServerState>, endpoint: &Endpoint)
where
    S: Read + Write + Send + 'static,
{
    std::thread::scope(|scope| loop {
        let conn = accept();
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let state = Arc::clone(state);
        let endpoint = endpoint.clone();
        scope.spawn(move || handle_connection(stream, &state, &endpoint));
    });
}

/// Serves one connection: a sequence of frames until the peer hangs up.
fn handle_connection<S: Read + Write>(mut stream: S, state: &ServerState, endpoint: &Endpoint) {
    loop {
        let body = match read_frame(&mut stream) {
            Ok(Some(body)) => body,
            Ok(None) | Err(_) => return,
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        let (mut response, is_shutdown) = handle_request(&body, state);
        if response.len() > MAX_FRAME as usize {
            // `write_frame` would refuse the frame and the client would
            // wait forever; answer with an error naming the size instead.
            response = error_response(&format!(
                "response of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
                response.len()
            ));
        }
        let _ = write_frame(&mut stream, &response);
        if is_shutdown {
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the blocked acceptor so it can observe the flag.
            poke(endpoint);
            return;
        }
    }
}

/// Self-connects to the daemon's own endpoint (and immediately hangs
/// up) to unblock `accept` after a shutdown.
fn poke(endpoint: &Endpoint) {
    match endpoint {
        Endpoint::Tcp(addr) => drop(TcpStream::connect(addr)),
        #[cfg(unix)]
        Endpoint::Unix(path) => drop(UnixStream::connect(path)),
        #[cfg(not(unix))]
        Endpoint::Unix(_) => {}
    }
}

fn error_response(message: &str) -> String {
    format!(
        "{{\"ok\":false,\"proto\":{PROTO_VERSION},\"error\":\"{}\"}}",
        json_escape(message)
    )
}

/// Dispatches one request body. The second component is true when the
/// daemon should stop accepting after this response.
fn handle_request(body: &str, state: &ServerState) -> (String, bool) {
    let parsed = match parse_json_value(body) {
        Ok(v) => v,
        Err(e) => return (error_response(&format!("request does not parse: {e}")), false),
    };
    let op = parsed.get("op").and_then(JsonValue::as_str).unwrap_or("");
    match op {
        "verify" | "verify_all" => {
            let examples = all_examples();
            let selected: Vec<&dyn Example> = if op == "verify_all" {
                examples.iter().map(AsRef::as_ref).collect()
            } else {
                let Some(wanted) = parsed.get("examples").and_then(JsonValue::as_array) else {
                    return (
                        error_response("verify requires an \"examples\" array of names"),
                        false,
                    );
                };
                let mut selected = Vec::with_capacity(wanted.len());
                for want in wanted {
                    let Some(name) = want.as_str() else {
                        return (error_response("example names must be strings"), false);
                    };
                    match examples
                        .iter()
                        .find(|ex| ex.name() == name)
                    {
                        Some(ex) => selected.push(ex.as_ref()),
                        None => {
                            return (error_response(&format!("unknown example {name:?}")), false)
                        }
                    }
                }
                selected
            };
            (verify_response(state, &selected), false)
        }
        "stats" => (stats_response(state), false),
        "shutdown" => (
            format!("{{\"ok\":true,\"proto\":{PROTO_VERSION},\"stopping\":true}}"),
            true,
        ),
        other => (error_response(&format!("unknown op {other:?}")), false),
    }
}

/// Runs the batch over the engine's work pool and renders the verdict
/// rows plus the deterministic verdict table.
fn verify_response(state: &ServerState, selected: &[&dyn Example]) -> String {
    let runs = run_ordered(selected, state.jobs, |_, ex| {
        state.cache.get_or_run(*ex, Variant::Ok)
    });
    let mut rows = String::new();
    for (ex, run) in selected.iter().zip(&runs) {
        if !rows.is_empty() {
            rows.push(',');
        }
        match run {
            Ok(run) => rows.push_str(&result_row(*ex, run)),
            Err(p) => {
                return error_response(&format!("{} panicked: {}", ex.name(), p.message));
            }
        }
    }
    if let Some(failed) = selected.iter().zip(&runs).find_map(|(ex, run)| match run {
        Ok(run) => match &run.outcome {
            Some(Ok(_)) => None,
            Some(Err(e)) => Some(format!("{}: {e}", ex.name())),
            None => Some(format!("{}: no such variant", ex.name())),
        },
        Err(_) => None,
    }) {
        // A red example means no deterministic table; report it rather
        // than rendering a partial one.
        return error_response(&failed);
    }
    let table = verdict_table_for(&state.cache, selected);
    format!(
        "{{\"ok\":true,\"proto\":{PROTO_VERSION},\"results\":[{rows}],\"table\":\"{}\"}}",
        json_escape(&table)
    )
}

fn result_row(ex: &dyn Example, run: &CachedRun) -> String {
    let mut row = String::new();
    let _ = write!(row, "{{\"example\":\"{}\"", json_escape(ex.name()));
    match &run.outcome {
        Some(Ok(outcome)) => {
            let _ = write!(
                row,
                ",\"verdict\":\"verified\",\"specs\":{},\"manual\":{},\"hints\":{},\"custom\":{}",
                outcome.proofs.len(),
                outcome.manual_steps,
                outcome.hints_used().len(),
                outcome.custom_hints_used().len()
            );
        }
        Some(Err(e)) => {
            let _ = write!(row, ",\"verdict\":\"failed\",\"error\":\"{}\"", json_escape(e));
        }
        None => {
            row.push_str(",\"verdict\":\"missing\"");
        }
    }
    let _ = write!(
        row,
        ",\"from_store\":{},\"search_ms\":{},\"replay_ms\":{}}}",
        run.from_store,
        run.search_time.as_millis(),
        run.check_time.as_millis()
    );
    row
}

fn stats_response(state: &ServerState) -> String {
    let store = match &state.store {
        Some(store) => format!(
            "{{ \"entries\": {}, \"bytes\": {}, \"counters\": {} }}",
            store.len(),
            store.total_bytes(),
            store.stats().json_object()
        ),
        None => String::from("null"),
    };
    format!(
        "{{\"ok\":true,\"proto\":{PROTO_VERSION},\"engine\":\"{}\",\"requests\":{},\
         \"cache\":{{\"hits\":{},\"misses\":{}}},\"store\":{store}}}",
        engine_fingerprint(),
        state.requests.load(Ordering::Relaxed),
        state.cache.hits(),
        state.cache.misses(),
    )
}

/// A simple blocking client for the daemon protocol: one connection,
/// sequential request/response calls.
pub struct Client {
    stream: Box<dyn ReadWriteStream>,
}

trait ReadWriteStream: Read + Write {}
impl<T: Read + Write> ReadWriteStream for T {}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Returns the connection error.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        let stream: Box<dyn ReadWriteStream> = match endpoint {
            Endpoint::Tcp(addr) => Box::new(TcpStream::connect(addr)?),
            #[cfg(unix)]
            Endpoint::Unix(path) => Box::new(UnixStream::connect(path)?),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are unavailable on this platform",
                ))
            }
        };
        Ok(Client { stream })
    }

    /// Sends one request body and returns the response body.
    ///
    /// # Errors
    ///
    /// Returns the I/O error, or `UnexpectedEof` if the daemon hung up
    /// without responding.
    pub fn call(&mut self, body: &str) -> io::Result<String> {
        write_frame(&mut self.stream, body)?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })
    }
}
