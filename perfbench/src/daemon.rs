//! `daemon_hot`: the built `diaframe serve` over a Unix socket with a
//! proof store, warmed up in set-up, then two closed-loop connections
//! replaying a seeded mix of single and batch `verify`, `verify_all` and
//! `stats`. Everything is answered from the daemon's in-memory cache, so
//! only framing, JSON handling and verdict-table rendering do work.

use crate::gen::{daemon_cycle, resolve, DaemonOp, DAEMON_CONNECTIONS, OK_EXAMPLES};
use crate::stats::{peak_rss_mb, reset_peak_rss, Clock, Phase};
use crate::trace::{self, Tracer};
use crate::{set_end_to_end, set_ledger, time_setups, Config, Report};
use diaframe_bench::proto::{read_frame, write_frame};
use diaframe_bench::{prefetch_suite, verdict_table_for, SuiteCache};
use diaframe_core::default_jobs;
use diaframe_core::trace_json::{parse_json_value, JsonValue};
use diaframe_examples::{all_examples, Example};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon, killed and reaped when dropped.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the `diaframe` binary built beside this one and waits for
    /// its `listening on` line.
    fn spawn(cfg: &Config, i: usize) -> Result<Daemon, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("locating the benchmark binary: {e}"))?
            .with_file_name("diaframe");
        let socket = cfg.work.join(format!("daemon-{i}.sock"));
        let store = cfg.work.join(format!("daemon-store-{i}"));
        let mut child = Command::new(&exe)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let daemon = Daemon { child, socket };
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's readiness line: {e}"))?;
        if !line.starts_with("listening on") {
            return Err(format!("daemon did not start (said {line:?})"));
        }
        Ok(daemon)
    }

    fn connect(&self) -> Result<UnixStream, String> {
        UnixStream::connect(&self.socket).map_err(|e| format!("connecting to the daemon: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request of a connection's cycle, with its expected answer.
struct Item {
    op: DaemonOp,
    body: String,
    /// The reference verdict table (`verify`/`verify_all`).
    table: Option<String>,
}

/// A warmed-up daemon, its connections and the request cycles.
struct Hot {
    conns: Vec<UnixStream>,
    cycles: Vec<Vec<Item>>,
    local: SuiteCache,
    daemon: Daemon,
}

fn call(conn: &mut UnixStream, body: &str) -> Result<String, String> {
    write_frame(conn, body).map_err(|e| format!("daemon request: {e}"))?;
    read_frame(conn)
        .map_err(|e| format!("daemon response: {e}"))?
        .ok_or_else(|| String::from("daemon hung up"))
}

/// The oracle: `"ok":true`, a verdict table byte-equal to the reference
/// rendered in set-up, and for `stats`, a cache that has not verified
/// anything since the warm-up.
fn accepts(item: &Item, response: &JsonValue) -> bool {
    if response.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return false;
    }
    match &item.table {
        Some(table) => response.get("table").and_then(JsonValue::as_str) == Some(table.as_str()),
        None => {
            response
                .get("cache")
                .and_then(|c| c.get("misses"))
                .and_then(JsonValue::as_u64)
                == Some(OK_EXAMPLES.len() as u64)
        }
    }
}

fn setup(cfg: &Config, i: usize, examples: &HashMap<&'static str, &dyn Example>, all: &[&dyn Example]) -> Result<Hot, String> {
    let daemon = Daemon::spawn(cfg, i)?;
    // Warm-up: one verify_all searches the suite and fills the daemon's
    // in-memory cache.
    let mut warm = daemon.connect()?;
    let response = call(&mut warm, &DaemonOp::VerifyAll.body())?;
    let parsed = parse_json_value(&response).map_err(|e| format!("warm-up response: {e}"))?;
    if parsed.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("daemon warm-up failed: {response}"));
    }
    drop(warm);
    // The reference tables come from an independent in-process
    // verification of the suite.
    let local = SuiteCache::new();
    prefetch_suite(&local, default_jobs(), false);
    let mut refs: HashMap<String, String> = HashMap::new();
    let mut cycles = Vec::new();
    for conn in 0..DAEMON_CONNECTIONS {
        let mut cycle = Vec::new();
        for op in daemon_cycle(cfg.seed, conn) {
            let body = op.body();
            let table = match &op {
                DaemonOp::Stats => None,
                DaemonOp::VerifyAll => Some(verdict_table_for(&local, all)),
                DaemonOp::Verify(names) => {
                    let sel: Vec<&dyn Example> = names.iter().map(|n| examples[n]).collect();
                    Some(refs.entry(body.clone()).or_insert_with(|| verdict_table_for(&local, &sel)).clone())
                }
            };
            cycle.push(Item { op, body, table });
        }
        cycles.push(cycle);
    }
    if cfg.inject_wrong_expectation {
        // Claim verify_all answers with a table one byte longer.
        for item in cycles.iter_mut().flatten() {
            if item.op == DaemonOp::VerifyAll {
                item.table.as_mut().expect("verify_all has a table").push('\n');
            }
        }
    }
    let conns = (0..DAEMON_CONNECTIONS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Hot { conns, cycles, local, daemon })
}

/// What one connection saw in one pass.
#[derive(Default)]
struct ConnPass {
    samples: Vec<(Duration, bool)>,
    response_bytes: Vec<usize>,
    end: Option<Instant>,
}

/// Runs one connection's cycle; with a tracer, each request gets a root
/// span and a span per client-side call.
fn run_cycle(
    conn: &mut UnixStream,
    cycle: &[Item],
    mut tracer: Option<(&mut Tracer, &mut u64)>,
) -> Result<ConnPass, String> {
    let mut out = ConnPass::default();
    for item in cycle {
        let (latency, response) = match tracer.as_mut() {
            None => {
                let t = Instant::now();
                let response = call(conn, &item.body)?;
                let parsed = parse_json_value(&response);
                (t.elapsed(), parsed.map(|p| (p, response.len())))
            }
            Some((tracer, next_id)) => {
                tracer.begin_request(**next_id);
                **next_id += 1;
                let written = tracer.span("client.write_frame", || write_frame(conn, &item.body));
                let read = tracer.span("client.await_response", || read_frame(conn));
                let response = match (written, read) {
                    (Ok(()), Ok(Some(r))) => r,
                    _ => {
                        tracer.end_request();
                        return Err(String::from("daemon connection failed"));
                    }
                };
                let parsed = tracer.span("client.parse", || parse_json_value(&response));
                let dur = tracer.end_request();
                (Duration::from_nanos(dur), parsed.map(|p| (p, response.len())))
            }
        };
        let accepted = match &response {
            Ok((parsed, _)) => accepts(item, parsed),
            Err(_) => false,
        };
        out.samples.push((latency, accepted));
        out.response_bytes.push(response.map_or(0, |(_, n)| n));
    }
    out.end = Some(Instant::now());
    Ok(out)
}

/// One pass: every connection runs its cycle concurrently.
fn pass(hot: &mut Hot, phase: &mut Phase, tracers: Option<&mut [(Tracer, u64)]>) -> Result<Vec<Vec<usize>>, String> {
    let pid = Some(hot.daemon.child.id());
    reset_peak_rss(pid);
    let t0 = Instant::now();
    let cycles = &hot.cycles;
    let results: Vec<Result<ConnPass, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = match tracers {
            None => hot
                .conns
                .iter_mut()
                .zip(cycles)
                .map(|(conn, cycle)| s.spawn(move || run_cycle(conn, cycle, None)))
                .collect(),
            Some(tracers) => hot
                .conns
                .iter_mut()
                .zip(cycles)
                .zip(tracers.iter_mut())
                .map(|((conn, cycle), (tracer, id))| s.spawn(move || run_cycle(conn, cycle, Some((tracer, id)))))
                .collect(),
        };
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut end = t0;
    let mut sizes = Vec::new();
    for r in results {
        let r = r?;
        for (latency, accepted) in r.samples {
            phase.request(latency, accepted);
        }
        end = end.max(r.end.unwrap_or(t0));
        sizes.push(r.response_bytes);
    }
    phase.record_pass(end - t0, peak_rss_mb(pid), cycles.iter().map(Vec::len).sum());
    Ok(sizes)
}

fn cache_counters(hot: &mut Hot) -> Result<(u64, u64), String> {
    let response = call(&mut hot.conns[0], &DaemonOp::Stats.body())?;
    let parsed = parse_json_value(&response).map_err(|e| format!("stats response: {e}"))?;
    let get = |k: &str| parsed.get("cache").and_then(|c| c.get(k)).and_then(JsonValue::as_u64);
    match (get("hits"), get("misses")) {
        (Some(h), Some(m)) => Ok((h, m)),
        _ => Err(format!("stats response without cache counters: {response}")),
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Returns daemon start-up and connection errors.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let examples_owned = all_examples();
    let examples = resolve(&examples_owned)?;
    let all: Vec<&dyn Example> = examples_owned.iter().map(AsRef::as_ref).collect();
    let (setups, mut hot) = time_setups(cfg.setups, |i| setup(cfg, i, &examples, &all))?;
    let phase_time = Duration::from_secs_f64(if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds });
    // Each set-up's warm-up is one verify_all.
    report.attempted += setups.len() as u64;

    let mut untraced = Phase::default();
    let clock = Clock::new(phase_time);
    while clock.next_pass(&untraced) {
        pass(&mut hot, &mut untraced, None)?;
    }
    eprintln!("{}", untraced.describe("daemon_hot"));
    report.absorb(&untraced);
    set_end_to_end(&mut report, &setups, &untraced);
    if !cfg.trace {
        return Ok(report);
    }

    let before = cache_counters(&mut hot)?;
    let epoch = Instant::now();
    let mut tracers: Vec<(Tracer, u64)> = (0..DAEMON_CONNECTIONS)
        .map(|c| (Tracer::new(epoch), c << 40))
        .collect();
    let mut traced = Phase::default();
    let mut sizes = Vec::new();
    let clock = Clock::new(phase_time);
    while clock.next_pass(&traced) {
        sizes = pass(&mut hot, &mut traced, Some(&mut tracers))?;
    }
    let after = cache_counters(&mut hot)?;
    eprintln!("{}", traced.describe("daemon_hot (traced)"));
    report.absorb(&traced);
    let spans = trace::merge(tracers.into_iter().map(|(t, _)| t));
    set_ledger(&mut report, cfg, &spans, &untraced, &traced);

    // Side measurements on the same bodies, outside the request loop:
    // framing both bodies over a local socket pair, and rendering the
    // same verdict table in-process.
    let (mut a, mut b) = UnixStream::pair().map_err(|e| format!("socket pair: {e}"))?;
    let (mut frame_ns, mut render_ns, mut bytes, mut n) = (0u128, 0u128, 0usize, 0usize);
    for (cycle, sizes) in hot.cycles.iter().zip(&sizes) {
        for (item, &size) in cycle.iter().zip(sizes) {
            let response = "x".repeat(size);
            let t = Instant::now();
            write_frame(&mut a, &item.body).map_err(|e| e.to_string())?;
            read_frame(&mut b).map_err(|e| e.to_string())?;
            write_frame(&mut b, &response).map_err(|e| e.to_string())?;
            read_frame(&mut a).map_err(|e| e.to_string())?;
            frame_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            match &item.op {
                DaemonOp::Verify(names) => {
                    let sel: Vec<&dyn Example> = names.iter().map(|n| examples[n]).collect();
                    std::hint::black_box(verdict_table_for(&hot.local, &sel));
                }
                DaemonOp::VerifyAll => {
                    std::hint::black_box(verdict_table_for(&hot.local, &all));
                }
                DaemonOp::Stats => {}
            }
            render_ns += t.elapsed().as_nanos();
            bytes += size;
            n += 1;
        }
    }
    let per = |ns: u128| ns as f64 / 1e6 / n.max(1) as f64;
    report.set("proto.frame_io_ms", per(frame_ns));
    report.set("server.table_render_ms", per(render_ns));
    report.set("proto.response_bytes", bytes as f64 / n.max(1) as f64);
    let traced_passes = traced.pass_walls_s.len() as f64;
    report.set("cache.hits", (after.0 - before.0) as f64 / traced_passes);
    report.set("cache.misses", (after.1 - before.1) as f64 / traced_passes);
    Ok(report)
}
