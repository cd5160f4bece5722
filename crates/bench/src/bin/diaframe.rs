//! The `diaframe` verification service CLI: a long-lived daemon with a
//! persistent content-addressed proof cache, and its thin client.
//!
//! ```text
//! diaframe serve  (--listen ADDR | --socket PATH)
//!                 [--store DIR] [--budget BYTES] [--jobs N]
//! diaframe client (--connect ADDR | --socket PATH)
//!                 verify NAME...            # batch-verify named examples
//!                 verify-all [--table-out PATH]
//!                 stats
//!                 shutdown
//! ```
//!
//! The daemon answers `verify` requests from the persistent store when
//! it can (replaying stored traces through the independent checker) and
//! falls back to a full parallel search otherwise; see
//! [`diaframe_bench::server`] for the protocol and
//! [`diaframe_bench::store`] for the cache's trust model.
//! `verify-all --table-out` writes the deterministic verdict table,
//! which CI byte-compares across a cold and a warm run.

use diaframe_bench::cli::Args;
use diaframe_bench::server::{serve, Client, Endpoint, ServerConfig};
use diaframe_core::trace_json::json_escape;
use std::path::PathBuf;

const USAGE: &str = "usage:\n  diaframe serve  (--listen ADDR | --socket PATH) [--store DIR] [--budget BYTES] [--jobs N]\n  diaframe client (--connect ADDR | --socket PATH) (verify NAME... | verify-all [--table-out PATH] | stats | shutdown)";

fn endpoint(args: &Args, tcp_flag: &str) -> Endpoint {
    match (args.value(tcp_flag), args.value("--socket")) {
        (Some(addr), None) => Endpoint::Tcp(addr.to_owned()),
        (None, Some(path)) => Endpoint::Unix(PathBuf::from(path)),
        _ => args.fail(&format!("give exactly one of {tcp_flag} and --socket")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => {
            let args = Args::parse(
                &argv[1..],
                &[],
                &["--listen", "--socket", "--store", "--budget", "--jobs"],
                USAGE,
            );
            let config = ServerConfig {
                store_dir: args.value("--store").map(PathBuf::from),
                budget: args.number("--budget"),
                jobs: args
                    .number("--jobs")
                    .unwrap_or_else(diaframe_core::default_jobs),
            };
            let ep = endpoint(&args, "--listen");
            if let Err(e) = serve(&ep, &config) {
                eprintln!("diaframe serve: {e}");
                std::process::exit(1);
            }
        }
        Some("client") => {
            let args = Args::parse_with_operands(
                &argv[1..],
                &[],
                &["--connect", "--socket", "--table-out"],
                USAGE,
            );
            let ep = endpoint(&args, "--connect");
            let request = match args.operands.split_first() {
                Some((verb, names)) if verb == "verify" && !names.is_empty() => {
                    let names: Vec<String> = names
                        .iter()
                        .map(|n| format!("\"{}\"", json_escape(n)))
                        .collect();
                    format!("{{\"op\":\"verify\",\"examples\":[{}]}}", names.join(","))
                }
                Some((verb, [])) if verb == "verify-all" => String::from("{\"op\":\"verify_all\"}"),
                Some((verb, [])) if verb == "stats" => String::from("{\"op\":\"stats\"}"),
                Some((verb, [])) if verb == "shutdown" => String::from("{\"op\":\"shutdown\"}"),
                _ => args.fail(&format!("bad client command {:?}", args.operands.join(" "))),
            };
            let mut client = Client::connect(&ep).unwrap_or_else(|e| {
                eprintln!("diaframe client: cannot connect: {e}");
                std::process::exit(1);
            });
            let response = client.call(&request).unwrap_or_else(|e| {
                eprintln!("diaframe client: {e}");
                std::process::exit(1);
            });
            let parsed = diaframe_core::trace_json::parse_json_value(&response)
                .unwrap_or_else(|e| panic!("malformed response: {e}\n{response}"));
            let ok = parsed
                .get("ok")
                .and_then(diaframe_core::trace_json::JsonValue::as_bool)
                .unwrap_or(false);
            if let Some(path) = args.value("--table-out") {
                let table = parsed
                    .get("table")
                    .and_then(diaframe_core::trace_json::JsonValue::as_str)
                    .unwrap_or_else(|| {
                        eprintln!("diaframe client: response carries no table\n{response}");
                        std::process::exit(1);
                    });
                std::fs::write(path, table).unwrap_or_else(|e| panic!("writing {path}: {e}"));
                println!("[verdict table written to {path}]");
            } else {
                println!("{response}");
            }
            if !ok {
                std::process::exit(1);
            }
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
