#!/usr/bin/env bash
# The repo's verification gate, in the order a reviewer should run it:
#
#   1. release build (the benchmarks below need it anyway)
#   2. the tier-1 test suite (workspace root package, incl. the
#      trace_digests golden pin of every trace, verdict and table)
#   3. the full workspace test suite (all crates, incl. the
#      parallel/serial and indexed/linear equivalence tests), the
#      benchmark crate's own tests (perfbench/, a separate workspace),
#      so an engine API change that breaks the benchmark fails here,
#      and the core and HeapLang unit tests once more in the debug
#      profile: their nesting-depth tests must hit the parser and
#      elaborator bounds before a 2 MiB test-thread stack overflows at
#      debug frame sizes; then each runnable example under examples/
#      must exit 0 (arc_walkthrough expects drop's §2.2 stuck state)
#   4. clippy, warnings-as-errors, across every target, and rustfmt:
#      `cargo fmt --all -- --check` must leave every workspace file as is
#   5. one full `figure6 --all` report run, exporting its telemetry
#      session's span tree (`--profile-out` / `--folded-out` /
#      `--hotspots`) and writing the machine-readable snapshot to
#      target/BENCH_figure6_telemetry.json, followed by the
#      snapshot-diff gate: `figure6 --diff` compares that v9 snapshot
#      against the committed BENCH_figure6.json — every baseline
#      example must be present and every *deterministic* search counter
#      exactly equal (the proof-store counters are reported, not gated;
#      timings are not compared) — and a self-comparison must report
#      exactly zero regressions
#   6. the observability gate: the same run must emit a Chrome trace
#      that passes structural validation and a v9 snapshot with
#      non-zero counters (including the incremental pure-solver
#      counters) and per-span-kind duration histograms; the
#      observability-on/off trace- and table-equivalence tests
#      (including: a run without a session counts nothing) must hold,
#      and `figure6 --explain` must render a structured stuck report
#   7. the soundness-fuzzing smoke gate: a fixed-seed fuzz_driver
#      campaign must report zero differential divergences and zero
#      surviving trace mutants and zero panics on mutated example
#      annotations, two runs at the same seed must produce
#      byte-identical JSON reports, and a third run under one
#      campaign-wide telemetry session
#      must produce the *same* report bytes plus a validated trace
#   8. the adequacy schedule-sweep gate: every proved example's client
#      must sweep clean (1000 seeded interleavings + preemption-bounded
#      DFS, postconditions checked, race / manifest-deadlock /
#      lock-order detectors live), every intentionally-buggy negative
#      example must be flagged with its expected categories, and the
#      JSON snapshot must be byte-identical across worker counts and
#      against the committed BENCH_adequacy.json
#   9. the verification-service gate: `figure6 --store` must pass its
#      built-in warm-vs-cold gate (warm pass answered entirely by
#      checker-replayed store hits, byte-identical verdict table, warm
#      wall <= 0.5x cold) with the v9 snapshot carrying the `store`
#      block; then the `diaframe serve` daemon itself is started over a
#      Unix socket, the full suite is requested twice across a daemon
#      restart sharing one store directory, the second run must answer
#      >=95% of the suite from store hits with a byte-identical verdict
#      table, and `shutdown` must terminate the daemon cleanly
#
# The committed BENCH_figure6.json and BENCH_adequacy.json are reference
# snapshots; regenerate them with
#   rm -rf target/proof_store && \
#   cargo run --release -p diaframe-bench --bin figure6 -- --all \
#     --store target/proof_store --json-out BENCH_figure6.json
#   cargo run --release -p diaframe-bench --bin adequacy -- --json-out BENCH_adequacy.json
# (see EXPERIMENTS.md "Performance" / "Adequacy sweep" for how to compare runs).
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
cargo test --workspace --release -q
cargo test --release --manifest-path perfbench/Cargo.toml
cargo test -q -p diaframe-core -p diaframe-heaplang --lib
cargo run --release --example arc_walkthrough > /dev/null
cargo run --release --example custom_ghost > /dev/null
cargo run --release --example interpreter > /dev/null
cargo run --release --example lock_client > /dev/null
cargo run --release --example quickstart > /dev/null
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check
# One suite run under figure6's telemetry session, exporting its span
# tree; its v9 snapshot feeds both the snapshot-diff gate and the
# observability gate below.
cargo run --release -p diaframe-bench --bin figure6 -- --all \
  --json-out target/BENCH_figure6_telemetry.json \
  --profile-out target/profile_trace.json --folded-out target/profile_folded.txt \
  --hotspots 10 > target/observability.log

# --- snapshot-diff gate (see EXPERIMENTS.md "Performance") ---------------
# `figure6 --diff` compares the fresh v9 snapshot against the committed
# baseline: an example missing from the fresh run, or any change in a
# *deterministic* search counter (probes, backtracks, checker steps,
# per-kind step counts, solver effort), fails it. These counters do not
# depend on the machine, its load or the worker count, so a search-shape
# change fails here whatever the timings. The proof-store counters
# (store_*) depend on what is on disk and are reported but never gated;
# timings are not compared (same-session perfbench pairs judge speed).
# Non-zero exit on any regression.
cargo run --release -p diaframe-bench --bin figure6 -- \
  --diff BENCH_figure6.json --diff-current target/BENCH_figure6_telemetry.json
# The reporter itself is gated: a snapshot diffed against itself must
# report exactly zero regressions (exit 0 and say so).
cargo run --release -p diaframe-bench --bin figure6 -- \
  --diff BENCH_figure6.json --diff-current BENCH_figure6.json > target/diff_self.md
grep -q 'verdict: PASS — 0 regressions' target/diff_self.md

# --- observability gate (see README "Observability") --------------------
# The suite run above exported its span tree. The Chrome trace must pass
# structural validation (balanced begin/end, per-lane monotonic
# timestamps; the binary exits non-zero otherwise), and the v9 snapshot
# must carry non-zero counters and the per-span-kind duration histograms
# taken from the span tree.
grep -q 'span events across .* lanes, validated' target/observability.log
grep -q 'profile hotspots' target/observability.log
test -s target/profile_folded.txt
grep -q '"schema": "diaframe-bench/figure6/v9"' target/BENCH_figure6_telemetry.json
grep -q '"telemetry": { "probes_attempted": [1-9]' target/BENCH_figure6_telemetry.json
# v7+: the persistent-proof-store counters ride along in every telemetry
# block (zero on a storeless run, but the keys must be present).
grep -q '"store_hits": [0-9]' target/BENCH_figure6_telemetry.json
grep -q '"store_replay_ms": [0-9]' target/BENCH_figure6_telemetry.json
# v9: the per-span-kind duration histograms (p50/p95/max) of the span
# tree ride along in the snapshot, per example and in aggregate.
grep -q '"spans": { ' target/BENCH_figure6_telemetry.json
grep -q '"search": { "count": [1-9]' target/BENCH_figure6_telemetry.json
grep -q '"find_hint": { "count": [1-9]' target/BENCH_figure6_telemetry.json
grep -q '"p95_ns"' target/BENCH_figure6_telemetry.json
grep -q '"zonk_cache_hits": [0-9]' target/BENCH_figure6_telemetry.json
# v4: the incremental pure-solver must actually be on this path —
# facts asserted into the persistent e-graph, incremental (catch-up)
# queries answered, and rollbacks undoing work through the trail.
grep -q '"solver_facts_asserted": [1-9]' target/BENCH_figure6_telemetry.json
grep -q '"solver_queries_incremental": [1-9]' target/BENCH_figure6_telemetry.json
grep -q '"solver_undo_ops": [1-9]' target/BENCH_figure6_telemetry.json
# A telemetry session on vs off must be byte-identical in every trace
# and table (also asserts the counter accounting identities on the live
# suite, and that a run without a session counts nothing).
cargo test --release -p diaframe-bench --test telemetry -q
# The stuck-state diagnostics must name the goal head the search missed.
cargo run --release -p diaframe-bench --bin figure6 -- --explain spin_lock \
  | grep -q 'unmatched goal head'

# --- soundness-fuzzing smoke gate (see EXPERIMENTS.md "Soundness harness") --
# Fixed seed: ~200 generated entailments through the differential oracle
# (engine → checker / check_json / telemetry session / linear scan / spec), then
# adversarial mutation of every generated + real example trace, then every
# example annotation mutated through parse + elaborate. Any divergence,
# surviving mutant or annotation panic makes fuzz_driver exit non-zero.
cargo run --release -p diaframe-bench --bin fuzz_driver -- \
  --seed 0xD1AF --cases 200 --mutations-per-trace 8 --json-out target/fuzz_report.json
grep -q '"divergences": 0,' target/fuzz_report.json
grep -q '"survivors": 0,' target/fuzz_report.json
grep -q '"proved_unexpected": 0,' target/fuzz_report.json
grep -q '"annotation_panics": 0,' target/fuzz_report.json
# Same seed ⇒ byte-identical report (no timestamps, no global RNG).
cargo run --release -p diaframe-bench --bin fuzz_driver -- \
  --seed 0xD1AF --cases 200 --mutations-per-trace 8 --json-out target/fuzz_report2.json \
  > /dev/null
cmp target/fuzz_report.json target/fuzz_report2.json
# Third run under one campaign-wide telemetry session: the report bytes
# must not move (the session is pure observability, down to the fuzz
# verdicts), and the campaign trace must pass structural validation.
cargo run --release -p diaframe-bench --bin fuzz_driver -- \
  --seed 0xD1AF --cases 200 --mutations-per-trace 8 --json-out target/fuzz_report3.json \
  --profile-out target/fuzz_profile.json > target/fuzz_profiled.log
grep -q 'validated, written to' target/fuzz_profiled.log
cmp target/fuzz_report.json target/fuzz_report3.json

# --- adequacy schedule-sweep gate (see EXPERIMENTS.md "Adequacy sweep") --
# Fixed seeds: every proved example's client under 1000 RandomSched
# interleavings + preemption-bounded DFS with the dynamic detectors on,
# postconditions checked on every terminating run; the four negative
# examples must be flagged with their expected categories. Non-zero
# exit on any dirty proved row or missed negative.
cargo run --release -p diaframe-bench --bin adequacy -- \
  --json-out target/BENCH_adequacy.json > target/adequacy.log
grep -q 'gate: PASS' target/adequacy.log
grep -q '"schema": "diaframe-bench/adequacy/v1"' target/BENCH_adequacy.json
grep -q '"verdict": "pass"' target/BENCH_adequacy.json
# Deterministic down to the bytes: a second run at a different worker
# count must produce the identical snapshot (no timestamps, no global
# RNG, jobs excluded from the report), and the bytes must match the
# committed reference snapshot.
cargo run --release -p diaframe-bench --bin adequacy -- \
  --jobs 2 --json-out target/BENCH_adequacy2.json > /dev/null
cmp target/BENCH_adequacy.json target/BENCH_adequacy2.json
cmp BENCH_adequacy.json target/BENCH_adequacy.json

# --- verification-service gate (see README "Verification service") -------
# Warm-vs-cold through figure6: the suite is prefetched twice against a
# fresh persistent store. The binary's built-in gate exits non-zero
# unless the warm pass is answered entirely by checker-replayed store
# hits, renders a byte-identical verdict table, and finishes in at most
# half the cold wall; the v9 snapshot must carry the `store` block with
# both passes' counters.
rm -rf target/proof_store
cargo run --release -p diaframe-bench --bin figure6 -- --all \
  --store target/proof_store --json-out target/BENCH_figure6_store.json \
  > target/store_gate.log
grep -q 'store gate: PASS' target/store_gate.log
grep -q '"schema": "diaframe-bench/figure6/v9"' target/BENCH_figure6_store.json
grep -q '"store": { "cold_wall_ms"' target/BENCH_figure6_store.json
grep -q '"warm": { "hits": [1-9]' target/BENCH_figure6_store.json
grep -q '"cold": { "hits": 0, "misses": [1-9]' target/BENCH_figure6_store.json
# The daemon itself: a cold `diaframe serve` populates a store over a
# Unix socket; after a shutdown (which must terminate the process) a
# restarted daemon over the same store must answer >=95% of the full
# suite from store hits with a byte-identical verdict table.
rm -rf target/proof_store_daemon
rm -f target/diaframe.sock
target/release/diaframe serve --socket target/diaframe.sock \
  --store target/proof_store_daemon > target/daemon_cold.log &
DAEMON_PID=$!
for _ in $(seq 1 100); do [ -S target/diaframe.sock ] && break; sleep 0.1; done
target/release/diaframe client --socket target/diaframe.sock \
  verify-all --table-out target/daemon_table_cold.txt
target/release/diaframe client --socket target/diaframe.sock shutdown > /dev/null
wait "$DAEMON_PID"   # `shutdown` must actually stop the daemon
target/release/diaframe serve --socket target/diaframe.sock \
  --store target/proof_store_daemon > target/daemon_warm.log &
DAEMON_PID=$!
for _ in $(seq 1 100); do [ -S target/diaframe.sock ] && break; sleep 0.1; done
target/release/diaframe client --socket target/diaframe.sock \
  verify-all --table-out target/daemon_table_warm.txt
cmp target/daemon_table_cold.txt target/daemon_table_warm.txt
target/release/diaframe client --socket target/diaframe.sock stats \
  > target/daemon_stats.json
# The store counters use ": "-separated keys (the cache block does not),
# so these extract the *store* hit/miss ledger of the warm daemon.
store_hits=$(sed -n 's/.*"counters": { "hits": \([0-9]*\).*/\1/p' target/daemon_stats.json)
store_misses=$(sed -n 's/.*"counters": { "hits": [0-9]*, "misses": \([0-9]*\).*/\1/p' target/daemon_stats.json)
test -n "$store_hits" && test -n "$store_misses"
test "$((store_hits * 100))" -ge "$((95 * (store_hits + store_misses)))"
target/release/diaframe client --socket target/diaframe.sock shutdown > /dev/null
wait "$DAEMON_PID"

echo "ci: all gates passed"
