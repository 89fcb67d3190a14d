#!/usr/bin/env bash
# Workspace CI: build, test, lint, format. Mirrors what the tier-1 driver
# runs (build + root-package tests) and extends it to every crate.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
# `--locked` fails instead of rewriting the committed Cargo.lock when a
# manifest change leaves it stale; `--offline` because every dependency
# is vendored.
cargo build --release --offline --locked

echo "==> cargo test -q (workspace, trace-dump-on-failure armed)"
# SELETH_TRACE_ON_FAIL points the first-divergence diagnostics at a
# scratch dir: when a bit-identity suite trips, the failure message
# carries the first divergent event and both event traces land there
# as JSON lines for offline diffing.
SELETH_TRACE_ON_FAIL="$(mktemp -d)" cargo test --workspace -q --offline --locked

echo "==> perfbench build + harness tests"
# The benchmark is a package of its own, outside the workspace, that
# calls the simulators and the classify/accounting APIs directly: build
# it here so an API change that breaks it fails CI, not the benchmark.
# `--locked` fails instead of rewriting perfbench/Cargo.lock when a new
# crate-to-crate edge changes the benchmark's dependency graph.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline --locked -- -D warnings
# perfbench is outside the workspace, so the workspace lint and format
# checks do not reach it.
cargo clippy --release --offline --locked --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check
cargo fmt --manifest-path perfbench/Cargo.toml --check

echo "==> cargo doc (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet --offline --locked

echo "==> policy artifact-compat audit (legality + byte-identical re-save)"
# Loads every committed results/policies/*.json through the v2 API:
# unreadable, illegal or non-byte-stable tables fail the build. No
# solving, no simulation, no network.
SELETH_POLICIES=results/policies \
    cargo run --release -q --offline --locked -p seleth-bench --bin optimal_sim -- --audit

echo "==> optimal_sim agreement gate (fast settings)"
# Small runs/blocks/truncation keep this under a minute; results go to a
# scratch dir so the committed full-size artifacts aren't overwritten.
SELETH_RESULTS="$(mktemp -d)" SELETH_RUNS=4 SELETH_BLOCKS=20000 SELETH_MDP_LEN=24 \
    cargo run --release -q --offline --locked -p seleth-bench --bin optimal_sim

# The five delay-study smoke gates write into one scratch dir, which the
# perf_report gate below then renders: every fresh study JSON (and the
# chaos trace) must flow through the profiler end to end. The committed
# artifacts are read via SELETH_POLICIES.
STUDY_SCRATCH="$(mktemp -d)"

echo "==> optimal_delay smoke gate (strategic delay path)"
# Replays a committed artifact through the strategic delay engine: one
# Bitcoin point, two delays, small budgets.
SELETH_RESULTS="$STUDY_SCRATCH" SELETH_POLICIES=results/policies \
    cargo run --release -q --offline --locked -p seleth-bench --bin optimal_delay -- --smoke

echo "==> optimal_closed_loop smoke gate (race-window artifacts vs the zero-delay optimum)"
# Replays the committed truncation-200 delay-aware artifact against the
# zero-delay baseline at its design delay, small budgets, loosened
# tolerance. Reads committed artifacts (no solving in CI).
SELETH_RESULTS="$STUDY_SCRATCH" SELETH_POLICIES=results/policies \
    cargo run --release -q --offline --locked -p seleth-bench --bin optimal_closed_loop -- --smoke

echo "==> strategy_zoo smoke gate (zoo tournament + multi-strategist matchups)"
# One (α, γ) point, duopoly split, two delays, one matchup cell, small
# budgets; gates SM1 against its closed form and the optimal artifact
# against every hand-written family.
SELETH_RESULTS="$STUDY_SCRATCH" SELETH_POLICIES=results/policies \
    cargo run --release -q --offline --locked -p seleth-zoo --bin strategy_zoo -- --smoke

echo "==> chaos_study smoke gate (deterministic fault injection)"
# Zero-delay anchor plus a handful of fault cells (loss, churn +
# partition) under small budgets; gates the anchor against the
# artifact's rho*, and records a trace.
SELETH_RESULTS="$STUDY_SCRATCH" SELETH_POLICIES=results/policies \
    cargo run --release -q --offline --locked -p seleth-zoo --bin chaos_study -- --smoke \
    --trace "$STUDY_SCRATCH/chaos_trace.jsonl"

echo "==> topology_study smoke gate (peer-graph gossip propagation)"
# Uniform anchor, the bit-identity-gated complete graph, and the
# hub/leaf attacker-position pair under small budgets; gates the
# complete graph bitwise against the uniform engine and the positional
# revenue spread against the smoke noise floor.
SELETH_RESULTS="$STUDY_SCRATCH" SELETH_POLICIES=results/policies \
    cargo run --release -q --offline --locked -p seleth-zoo --bin topology_study -- --smoke

echo "==> perf_report smoke gate (telemetry renders end to end)"
# All five fresh smoke outputs (each telemetry block written by the one
# study driver) and every committed study JSON must render; the trace
# file must be non-empty JSON lines.
cargo run --release -q --offline --locked -p seleth-bench --bin perf_report -- \
    "$STUDY_SCRATCH"/{delay_study,optimal_closed_loop,zoo_study,chaos_study,topology_study}_smoke.json \
    > /dev/null
test -s "$STUDY_SCRATCH/chaos_trace.jsonl"
SELETH_RESULTS=results \
    cargo run --release -q --offline --locked -p seleth-bench --bin perf_report > /dev/null

echo "==> perf_trend regression gate (smoke: first-run ledger tolerated)"
# Compares the latest BENCH_history.jsonl row per bench bin against the
# most recent earlier row from a comparable host and fails on
# noise-banded regressions; --smoke passes when the ledger is still
# seeding (absent or fewer than two comparable rows).
SELETH_RESULTS=results \
    cargo run --release -q --offline --locked -p seleth-bench --bin perf_report -- --trend --smoke

echo "==> perfbench ledger ingest (short gossip_graph and solve runs into a scratch ledger)"
# Runs each workload for a second, appends its summary through
# `perf_report --ingest` to a scratch ledger and trend-gates that ledger,
# so the perfbench-to-ledger path cannot rot for the delay engine or the
# solver; `results/` is not touched.
INGEST_SCRATCH="$(mktemp -d)"
for workload in gossip_graph solve; do
    cargo run --release -q --offline --locked --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 > "$INGEST_SCRATCH/$workload.out"
    SELETH_RESULTS="$INGEST_SCRATCH" \
        cargo run --release -q --offline --locked -p seleth-bench --bin perf_report -- \
        --ingest "$workload" "$INGEST_SCRATCH/$workload.out"
done
SELETH_RESULTS="$INGEST_SCRATCH" \
    cargo run --release -q --offline --locked -p seleth-bench --bin perf_report -- --trend --smoke
rm -rf "$INGEST_SCRATCH"

echo "CI OK"
